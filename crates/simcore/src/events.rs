//! Deterministic event calendar.
//!
//! A priority queue keyed by [`SimTime`] with FIFO tie-breaking: two
//! events scheduled for the same instant are delivered in the order they
//! were scheduled. This makes simulations independent of `BinaryHeap`'s
//! unspecified equal-key ordering and is essential for reproducibility.
//!
//! Events pushed in nondecreasing time — a repetition's flow starts at
//! its applications' start instants, or a session's arrivals — queue in
//! a FIFO *run* and cost O(1) each way. Only an out-of-order push (an
//! instant earlier than the run's tail, e.g. a start at `now` queued
//! behind future fault events) goes to a binary heap. A pop takes the
//! smaller `(time, seq)` key of the two fronts; keys are unique, so the
//! pop order is exactly that of one heap holding every event.

use crate::time::SimTime;
use std::collections::VecDeque;

/// An entry in the calendar.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The heap key: earliest time first, then insertion order. Since
    /// `seq` is unique, no two entries ever compare equal, which makes
    /// the pop order fully determined by the keys alone.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic min-priority event queue.
///
/// A FIFO run of in-order pushes beside a hand-rolled array-indexed
/// binary min-heap over the key `(time, seq)` (see the module docs),
/// rather than `std::collections::BinaryHeap`, so the backing storage
/// can be recycled across simulations (see [`crate::flow::SimArena`])
/// and popping at a known instant ([`EventQueue::pop_at`]) skips the
/// peek/pop double touch.
///
/// ```
/// use simcore::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events pushed at or after the run's tail, in `(time, seq)` order.
    run: VecDeque<Entry<E>>,
    /// Every other pending event, as a binary min-heap.
    heap: Vec<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// Telemetry: events scheduled since construction/reset.
    pushes: u64,
    /// Telemetry: events popped since construction/reset.
    pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar positioned at `SimTime::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            pushes: 0,
            pops: 0,
        }
    }

    /// Drop all pending events and rewind to `SimTime::ZERO`, keeping the
    /// run's and the heap's allocations. Used when recycling a queue
    /// between runs.
    pub(crate) fn reset(&mut self) {
        self.run.clear();
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.pushes = 0;
        self.pops = 0;
    }

    /// Telemetry: how many events have been scheduled since construction
    /// or the last recycle. A [`crate::flow::FluidSim`] schedules one
    /// event for each run of same-instant starts of flows registered one
    /// after another, so on its calendar this counts entries, not flows.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Telemetry: how many events have been popped since construction or
    /// the last recycle (entries, as for [`EventQueue::pushes`]).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (or `ZERO` before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past (before the last popped event);
    /// causality violations are always bugs in the caller.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushes += 1;
        let entry = Entry { time, seq, event };
        // `seq` grows with every push, so a push at or after the run's
        // tail time keeps the run sorted by key.
        if self.run.back().is_none_or(|tail| tail.time <= time) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Whether the earliest pending event is the run's front (rather
    /// than the heap's root); `None` when nothing is pending.
    fn run_first(&self) -> Option<bool> {
        match (self.run.front(), self.heap.first()) {
            (None, None) => None,
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (Some(r), Some(h)) => Some(r.key() < h.key()),
        }
    }

    /// Remove and return the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.run_first()? {
            self.run.pop_front().expect("checked non-empty")
        } else {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            let e = self.heap.pop().expect("checked non-empty");
            self.sift_down(0);
            e
        };
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.pops += 1;
        Some((e.time, e.event))
    }

    /// Remove and return the earliest event *only if* it is scheduled at
    /// exactly `t` — the hot-path form of peek-compare-pop used when
    /// draining every event due at one instant.
    pub fn pop_at(&mut self, t: SimTime) -> Option<E> {
        if self.peek_time()? != t {
            return None;
        }
        self.pop().map(|(_, e)| e)
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.run.front(), self.heap.first()) {
            (Some(r), Some(h)) => Some(r.time.min(h.time)),
            (r, h) => r.or(h).map(|e| e.time),
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < self.heap.len() && self.heap[right].key() < self.heap[left].key() {
                smallest = right;
            }
            if self.heap[smallest].key() < self.heap[i].key() {
                self.heap.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule(q.now(), 2); // same instant as the event being handled
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 2)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(4), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn pop_at_only_takes_events_due_at_the_given_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(SimTime::from_nanos(20), 3);
        assert_eq!(q.pop_at(SimTime::from_nanos(5)), None);
        assert_eq!(q.pop_at(t), Some(1));
        assert_eq!(q.pop_at(t), Some(2));
        assert_eq!(q.pop_at(t), None, "later event must not pop early");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 3)));
        assert_eq!(q.pop_at(SimTime::from_nanos(99)), None, "empty queue");
    }

    #[test]
    fn heap_order_matches_sorted_schedule_under_stress() {
        // Adversarial insertion order: the hand-rolled heap must pop in
        // exactly (time, seq) order for any interleaving.
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for seq in 0..500u64 {
            let t = (seq * 7919) % 97; // pseudo-shuffled times with many ties
            q.schedule(SimTime::from_nanos(t), seq);
            expected.push((t, seq));
        }
        expected.sort();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        let step = SimDuration::from_nanos(10);
        q.schedule(SimTime::ZERO + step, 0u32);
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            count += 1;
            if i < 9 {
                q.schedule(t + step, i + 1);
            }
        }
        assert_eq!(count, 10);
        assert_eq!(q.now(), SimTime::from_nanos(100));
    }
}

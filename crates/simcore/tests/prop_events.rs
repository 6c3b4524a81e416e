//! Property test of the event calendar against a sorted-list model.
//!
//! [`EventQueue`] keeps in-order pushes in a FIFO run and the rest in a
//! binary heap. Whatever the interleaving of `schedule`, `pop`,
//! `pop_at`, `peek_time` and `len`, it must behave exactly like one
//! list kept sorted by `(time, insertion order)`. Times come from a
//! small range above `now`, so pushes tie with each other and land both
//! at or after the run's tail and before it.

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay` nanoseconds.
    Schedule(u64),
    Pop,
    /// `pop_at(now + delay)`.
    PopAt(u64),
    PeekTime,
    Len,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Schedules twice as often as pops, so the calendar fills up.
    prop_oneof![
        (0u64..4).prop_map(Op::Schedule),
        (0u64..4).prop_map(Op::Schedule),
        Just(Op::Pop),
        (0u64..3).prop_map(Op::PopAt),
        Just(Op::PeekTime),
        Just(Op::Len),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn calendar_pops_in_time_then_insertion_order(
        ops in prop::collection::vec(op_strategy(), 1..200)
    ) {
        let mut q = EventQueue::new();
        // The model: pending `(time, seq)` pairs, kept sorted.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Schedule(delay) => {
                    let t = now + delay;
                    q.schedule(SimTime::from_nanos(t), seq);
                    let at = model.partition_point(|&k| k < (t, seq));
                    model.insert(at, (t, seq));
                    seq += 1;
                }
                Op::Pop => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
                Op::PopAt(delay) => {
                    let t = now + delay;
                    let want = match model.first() {
                        Some(&(ft, _)) if ft == t => Some(model.remove(0).1),
                        _ => None,
                    };
                    prop_assert_eq!(q.pop_at(SimTime::from_nanos(t)), want);
                    if want.is_some() {
                        now = t;
                    }
                }
                Op::PeekTime => {
                    let want = model.first().map(|&(t, _)| t);
                    prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), want);
                }
                Op::Len => {
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.is_empty(), model.is_empty());
                }
            }
            prop_assert_eq!(q.now().as_nanos(), now);
        }
        // Drain: the rest pops in model order too.
        for want in model {
            prop_assert_eq!(q.pop().map(|(t, e)| (t.as_nanos(), e)), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

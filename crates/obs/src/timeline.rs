//! The in-memory event sink: stores the full event stream and answers
//! time-series and straggler queries over it.

use crate::chrome;
use crate::event::{Event, EventKind, Nanos};
use crate::Recorder;

const NANOS_PER_SEC: f64 = 1e9;

/// Events a [`Timeline::new`] has room for: a traced run of the
/// `repro --trace` outage scenario records about 900, so it fills the
/// timeline without regrowing it.
const TYPICAL_EVENTS: usize = 1024;

/// An in-memory [`Recorder`] that keeps every event for later querying.
///
/// All queries are derived views over the stored stream — the timeline
/// never mutates or reorders what was recorded, so exporting it
/// ([`Timeline::to_chrome_trace`]) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<Event>,
}

impl Recorder for Timeline {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

impl Timeline {
    /// Create an empty timeline with room for a typical traced run
    /// (1,024 events, 88 KiB), so recording one does not copy the
    /// stream as it grows. [`Timeline::default`] reserves nothing.
    pub fn new() -> Self {
        Timeline {
            events: Vec::with_capacity(TYPICAL_EVENTS),
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// The label registered for a resource, if any.
    pub fn label(&self, resource: u32) -> Option<&str> {
        self.events.iter().find_map(|e| match e {
            Event::ResourceMeta { resource: r, label } if *r == resource => Some(label.as_str()),
            _ => None,
        })
    }

    /// The resource index registered under a label, if any.
    pub fn resource(&self, label: &str) -> Option<u32> {
        self.events.iter().find_map(|e| match e {
            Event::ResourceMeta { resource, label: l } if l == label => Some(*resource),
            _ => None,
        })
    }

    /// The latest sim-time timestamp in the stream (span ends included).
    ///
    /// Returns 0 for an empty (or metadata-only) timeline.
    pub fn end(&self) -> Nanos {
        self.events
            .iter()
            .map(|e| match e {
                Event::Span { end, .. } => *end,
                other => other.at().unwrap_or(0),
            })
            .max()
            .unwrap_or(0)
    }

    /// The sim-time at which the last flow completed.
    ///
    /// This is the upper bound of the I/O phase: rate series are defined
    /// (and integrated by [`Timeline::bytes_through`]) on `[0, io_end]`.
    /// Returns 0 if no flow completed.
    pub fn io_end(&self) -> Nanos {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::FlowEnd { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The piecewise-constant rate series of one resource:
    /// `(timestamp, bytes/sec)` steps, each rate holding until the next
    /// entry.
    pub fn rate_series(&self, resource: u32) -> Vec<(Nanos, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::RateChange {
                    at,
                    resource: r,
                    bps,
                } if *r == resource => Some((*at, *bps)),
                _ => None,
            })
            .collect()
    }

    /// Merged rate series over several resources: one row per instant at
    /// which *any* of the listed resources changed rate, carrying the
    /// then-current rate of every listed resource (same-instant changes
    /// are merged into one row).
    pub fn series(&self, resources: &[u32]) -> Vec<(Nanos, Vec<f64>)> {
        let mut rows: Vec<(Nanos, Vec<f64>)> = Vec::new();
        let mut current = vec![0.0; resources.len()];
        for e in &self.events {
            if let Event::RateChange { at, resource, bps } = e {
                if let Some(pos) = resources.iter().position(|r| r == resource) {
                    current[pos] = *bps;
                    match rows.last_mut() {
                        Some((t, row)) if *t == *at => row[pos] = *bps,
                        _ => rows.push((*at, current.clone())),
                    }
                }
            }
        }
        rows
    }

    /// Total bytes through a resource: the integral of its rate series
    /// over `[0, io_end]`.
    ///
    /// Matches the flow network's own byte accounting to floating-point
    /// association error.
    pub fn bytes_through(&self, resource: u32) -> f64 {
        self.integrate(resource, |_rate| 1.0)
    }

    /// Seconds during `[0, io_end]` in which the resource moved bytes
    /// (rate > 0).
    ///
    /// Note this is *throughput-busy* time; the flow network also counts
    /// a resource busy while an active flow is stalled at zero rate
    /// (e.g. during an outage), so this can be smaller than the
    /// network's `busy_secs`.
    pub fn busy_secs(&self, resource: u32) -> f64 {
        let mut busy = 0.0;
        let mut last: Option<(Nanos, f64)> = None;
        let end = self.io_end();
        for (at, bps) in self.rate_series(resource) {
            if let Some((t0, rate)) = last {
                if rate > 0.0 {
                    busy += (at.min(end).saturating_sub(t0)) as f64 / NANOS_PER_SEC;
                }
            }
            last = Some((at, bps));
        }
        if let Some((t0, rate)) = last {
            if rate > 0.0 && end > t0 {
                busy += (end - t0) as f64 / NANOS_PER_SEC;
            }
        }
        busy
    }

    /// Bytes through a resource during the window `[t0, t1]`: the
    /// integral of its piecewise-constant rate series over the window,
    /// clipped (like [`Timeline::bytes_through`]) to `[0, io_end]` where
    /// the series is defined. `bytes_between(r, 0, io_end())` equals
    /// `bytes_through(r)` to floating-point association error, and
    /// adjacent windows tile: `bytes_between(r, a, b) +
    /// bytes_between(r, b, c) == bytes_between(r, a, c)`.
    ///
    /// Returns 0 for an empty or inverted window.
    pub fn bytes_between(&self, resource: u32, t0: Nanos, t1: Nanos) -> f64 {
        let end = self.io_end().min(t1);
        if end <= t0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut last: Option<(Nanos, f64)> = None;
        for (at, bps) in self.rate_series(resource) {
            if let Some((seg_start, rate)) = last {
                let lo = seg_start.max(t0);
                let hi = at.min(end);
                if hi > lo {
                    total += rate * (hi - lo) as f64 / NANOS_PER_SEC;
                }
            }
            last = Some((at, bps));
            if at >= end {
                break;
            }
        }
        if let Some((seg_start, rate)) = last {
            let lo = seg_start.max(t0);
            if end > lo {
                total += rate * (end - lo) as f64 / NANOS_PER_SEC;
            }
        }
        total
    }

    fn integrate(&self, resource: u32, weight: impl Fn(f64) -> f64) -> f64 {
        let mut total = 0.0;
        let mut last: Option<(Nanos, f64)> = None;
        let end = self.io_end();
        for (at, bps) in self.rate_series(resource) {
            if let Some((t0, rate)) = last {
                let dt = (at.min(end).saturating_sub(t0)) as f64 / NANOS_PER_SEC;
                total += rate * weight(rate) * dt;
            }
            last = Some((at, bps));
        }
        if let Some((t0, rate)) = last {
            if end > t0 {
                let dt = (end - t0) as f64 / NANOS_PER_SEC;
                total += rate * weight(rate) * dt;
            }
        }
        total
    }

    /// Per-target chunk completion times: every `FlowEnd` of a flow
    /// whose [`Event::FlowMeta`] names `target`, in completion order.
    /// This is exactly the signal the client-side straggler detector
    /// consumes (`ior`'s hedged runs sample chunk rates per target);
    /// the last entry is the instant the target's rate series
    /// ([`Timeline::rate_series`]) drops to idle.
    pub fn target_completions(&self, target: u32) -> Vec<Nanos> {
        let flows: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::FlowMeta {
                    flow, target: t, ..
                } if *t == target => Some(*flow),
                _ => None,
            })
            .collect();
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::FlowEnd { at, flow, .. } if flows.contains(flow) => Some(*at),
                _ => None,
            })
            .collect()
    }

    /// Per-process completion times: `((app, process), latest FlowEnd)`
    /// for every process that completed at least one flow, sorted by
    /// `(app, process)`. The spread of these — and the per-target view
    /// of the same ends, [`Timeline::target_completions`] — is the
    /// straggler picture a mean bandwidth hides.
    pub fn completions(&self) -> Vec<((u32, u32), Nanos)> {
        let mut owner: Vec<(u32, (u32, u32))> = Vec::new();
        for e in &self.events {
            if let Event::FlowMeta {
                flow, app, process, ..
            } = e
            {
                owner.push((*flow, (*app, *process)));
            }
        }
        let mut done: Vec<((u32, u32), Nanos)> = Vec::new();
        for e in &self.events {
            if let Event::FlowEnd { at, flow, .. } = e {
                let Some(&(_, key)) = owner.iter().find(|(f, _)| f == flow) else {
                    continue;
                };
                match done.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, t)) => *t = (*t).max(*at),
                    None => done.push((key, *at)),
                }
            }
        }
        done.sort_by_key(|(k, _)| *k);
        done
    }

    /// All recorded spans as `(name, start, end)`, in emission order.
    pub fn spans(&self) -> Vec<(&str, Nanos, Nanos)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Span { name, start, end } => Some((name.as_str(), *start, *end)),
                _ => None,
            })
            .collect()
    }

    /// Render the timeline as Chrome trace-event JSON
    /// (open in Perfetto or `chrome://tracing`).
    pub fn to_chrome_trace(&self) -> String {
        chrome::render(&self.events)
    }
}

/// An always-on incremental byte integral over a piecewise-constant rate
/// signal — the O(1)-per-sample version of [`Timeline::bytes_through`].
///
/// A retained [`Timeline`] answers byte queries by re-scanning the full
/// rate series; a live engine admitting millions of flows cannot afford
/// that (or the event storage behind it). `RateIntegral` keeps just three
/// words of state: feed it each rate change as it happens
/// ([`RateIntegral::observe`]) and read the accumulated bytes at any
/// instant at or after the last sample ([`RateIntegral::bytes_until`]).
/// Replaying a timeline's `rate_series` through it reproduces
/// `bytes_through`/`bytes_between` exactly (same sums in the same order).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateIntegral {
    last_at: Nanos,
    last_bps: f64,
    total: f64,
}

impl RateIntegral {
    /// A fresh integral: zero bytes, zero rate, clock at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a rate change: the previous rate held from the previous
    /// sample until `at`, and `bps` holds from `at` on. Samples must be
    /// fed in non-decreasing time order.
    ///
    /// # Panics
    /// Panics if `at` is before the previous sample.
    pub fn observe(&mut self, at: Nanos, bps: f64) {
        assert!(at >= self.last_at, "rate samples must be time-ordered");
        self.total += self.last_bps * (at - self.last_at) as f64 / NANOS_PER_SEC;
        self.last_at = at;
        self.last_bps = bps;
    }

    /// Accumulated bytes from time 0 through `at`, extending the current
    /// rate from the last sample. Returns the closed total (ignoring the
    /// extension) if `at` is before the last sample.
    pub fn bytes_until(&self, at: Nanos) -> f64 {
        self.total + self.last_bps * at.saturating_sub(self.last_at) as f64 / NANOS_PER_SEC
    }

    /// The rate in effect since the last sample (bytes/sec).
    pub fn rate(&self) -> f64 {
        self.last_bps
    }

    /// The timestamp of the last sample.
    pub fn last_at(&self) -> Nanos {
        self.last_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(s: f64) -> Nanos {
        (s * NANOS_PER_SEC).round() as Nanos
    }

    fn sample_timeline() -> Timeline {
        let mut t = Timeline::new();
        t.record(Event::ResourceMeta {
            resource: 0,
            label: "server0.link".into(),
        });
        t.record(Event::FlowMeta {
            flow: 0,
            app: 0,
            process: 0,
            target: 2,
        });
        t.record(Event::FlowStart {
            at: 0,
            flow: 0,
            tag: 1,
            bytes: 30.0,
        });
        t.record(Event::RateChange {
            at: 0,
            resource: 0,
            bps: 10.0,
        });
        t.record(Event::RateChange {
            at: sec(2.0),
            resource: 0,
            bps: 5.0,
        });
        t.record(Event::FlowEnd {
            at: sec(4.0),
            flow: 0,
            tag: 1,
        });
        t.record(Event::Span {
            name: "io".into(),
            start: 0,
            end: sec(5.0),
        });
        t
    }

    #[test]
    fn integrates_piecewise_constant_rates_to_io_end() {
        let t = sample_timeline();
        assert_eq!(t.io_end(), sec(4.0));
        assert_eq!(t.end(), sec(5.0));
        // 10 B/s for 2 s, then 5 B/s for 2 s (series extends to io_end).
        assert!((t.bytes_through(0) - 30.0).abs() < 1e-9);
        assert!((t.busy_secs(0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lookups_and_counts() {
        let t = sample_timeline();
        assert_eq!(t.label(0), Some("server0.link"));
        assert_eq!(t.resource("server0.link"), Some(0));
        assert_eq!(t.count(EventKind::RateChange), 2);
        assert_eq!(t.count(EventKind::FlowEnd), 1);
        assert_eq!(t.len(), 7);
        assert!(!t.is_empty());
        assert_eq!(t.spans(), vec![("io", 0, sec(5.0))]);
    }

    #[test]
    fn completions_report_latest_flow_end_per_process() {
        let mut t = sample_timeline();
        t.record(Event::FlowMeta {
            flow: 1,
            app: 0,
            process: 0,
            target: 3,
        });
        t.record(Event::FlowStart {
            at: 0,
            flow: 1,
            tag: 2,
            bytes: 1.0,
        });
        t.record(Event::FlowEnd {
            at: sec(6.0),
            flow: 1,
            tag: 2,
        });
        assert_eq!(t.completions(), vec![((0, 0), sec(6.0))]);
    }

    #[test]
    fn target_completions_pin_against_rate_series() {
        // Two chunk flows on target 2 (the sample flow plus a second
        // one), one flow on target 3: the per-target query returns the
        // chunk ends in completion order, and the *last* end on target 2
        // coincides with the instant its resource's rate series goes
        // idle — the two views describe the same drain.
        let mut t = sample_timeline();
        t.record(Event::FlowMeta {
            flow: 1,
            app: 0,
            process: 1,
            target: 2,
        });
        t.record(Event::FlowStart {
            at: 0,
            flow: 1,
            tag: 2,
            bytes: 4.0,
        });
        t.record(Event::FlowEnd {
            at: sec(2.0),
            flow: 1,
            tag: 2,
        });
        t.record(Event::FlowMeta {
            flow: 2,
            app: 0,
            process: 2,
            target: 3,
        });
        t.record(Event::FlowEnd {
            at: sec(3.0),
            flow: 2,
            tag: 3,
        });
        t.record(Event::RateChange {
            at: sec(4.0),
            resource: 0,
            bps: 0.0,
        });
        assert_eq!(t.target_completions(2), vec![sec(4.0), sec(2.0)]);
        assert_eq!(t.target_completions(3), vec![sec(3.0)]);
        assert!(t.target_completions(9).is_empty());
        // Pin: the last chunk end on target 2 is the instant resource 0
        // (the target's bottleneck in this fixture) drops to rate 0.
        let last_end = *t.target_completions(2).iter().max().unwrap();
        let went_idle = t
            .rate_series(0)
            .into_iter()
            .find(|&(_, bps)| bps == 0.0)
            .map(|(at, _)| at)
            .unwrap();
        assert_eq!(last_end, went_idle);
    }

    #[test]
    fn series_merges_same_instant_changes() {
        let mut t = Timeline::new();
        t.record(Event::RateChange {
            at: 0,
            resource: 0,
            bps: 1.0,
        });
        t.record(Event::RateChange {
            at: 0,
            resource: 1,
            bps: 2.0,
        });
        t.record(Event::RateChange {
            at: 10,
            resource: 1,
            bps: 3.0,
        });
        // resource 2 never appears: ignored.
        let rows = t.series(&[0, 1]);
        assert_eq!(rows, vec![(0, vec![1.0, 2.0]), (10, vec![1.0, 3.0])]);
    }

    #[test]
    fn bytes_between_tiles_and_matches_bytes_through() {
        let t = sample_timeline();
        // Full window == bytes_through.
        let full = t.bytes_between(0, 0, t.io_end());
        assert!((full - t.bytes_through(0)).abs() < 1e-9);
        // Sub-windows: 10 B/s on [0,2), 5 B/s on [2,4).
        assert!((t.bytes_between(0, 0, sec(1.0)) - 10.0).abs() < 1e-9);
        assert!((t.bytes_between(0, sec(1.0), sec(3.0)) - 15.0).abs() < 1e-9);
        assert!((t.bytes_between(0, sec(3.0), sec(4.0)) - 5.0).abs() < 1e-9);
        // Adjacent windows tile to the whole.
        let tiled = t.bytes_between(0, 0, sec(1.0))
            + t.bytes_between(0, sec(1.0), sec(3.0))
            + t.bytes_between(0, sec(3.0), sec(4.0));
        assert!((tiled - full).abs() < 1e-9);
        // Clipped at io_end; empty and inverted windows are zero.
        assert!((t.bytes_between(0, sec(3.0), sec(99.0)) - 5.0).abs() < 1e-9);
        assert_eq!(t.bytes_between(0, sec(2.0), sec(2.0)), 0.0);
        assert_eq!(t.bytes_between(0, sec(3.0), sec(1.0)), 0.0);
        // Unknown resource: no series, no bytes.
        assert_eq!(t.bytes_between(9, 0, sec(4.0)), 0.0);
    }

    #[test]
    fn rate_integral_replays_the_series_to_the_same_bytes() {
        let t = sample_timeline();
        let mut acc = RateIntegral::new();
        for (at, bps) in t.rate_series(0) {
            acc.observe(at, bps);
        }
        let end = t.io_end();
        assert!((acc.bytes_until(end) - t.bytes_through(0)).abs() < 1e-9);
        assert_eq!(acc.rate(), 5.0);
        assert_eq!(acc.last_at(), sec(2.0));

        // Windowed reads taken *live* (a mark between samples) agree
        // with bytes_between without re-scanning the series.
        let mut live = RateIntegral::new();
        live.observe(0, 10.0);
        let mark = live.bytes_until(sec(1.0));
        assert!((mark - 10.0).abs() < 1e-9);
        live.observe(sec(2.0), 5.0);
        let window = live.bytes_until(end) - mark;
        assert!((window - t.bytes_between(0, sec(1.0), end)).abs() < 1e-9);
    }

    #[test]
    fn trailing_rate_without_flow_end_integrates_to_zero() {
        let mut t = Timeline::new();
        t.record(Event::RateChange {
            at: 0,
            resource: 0,
            bps: 42.0,
        });
        // No FlowEnd: io_end is 0, so no time passes.
        assert_eq!(t.bytes_through(0), 0.0);
        assert_eq!(t.busy_secs(0), 0.0);
    }
}

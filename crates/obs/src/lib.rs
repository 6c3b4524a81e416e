//! # obs — event-level tracing for the simulation stack
//!
//! The simulator's aggregate outputs ([`UtilizationReport`]-style
//! busy-seconds and byte totals) hide *when* things happened: which
//! resource saturated during an outage window, how long a client sat in
//! backoff, which process straggled. This crate adds a thin, deterministic
//! observability layer:
//!
//! * [`Event`] — the structured event vocabulary (flow lifecycle,
//!   per-resource rate changes, fault transitions, client retry attempts,
//!   named phase spans). Timestamps are **sim-time nanoseconds**
//!   ([`Nanos`]), never wall-clock, so a traced run is exactly as
//!   reproducible as an untraced one.
//! * [`Recorder`] — the sink trait emitters call into. Emission sites
//!   branch on an `Option<&mut dyn Recorder>`, so the disabled path costs
//!   one predictable branch.
//! * [`Timeline`] — an in-memory sink queryable from tests and
//!   experiments: per-resource rate series, byte integrals, busy time,
//!   per-process completion times, and spans.
//! * [`chrome::render`] / [`Timeline::to_chrome_trace`] — a Chrome
//!   trace-event JSON exporter; the output opens directly in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//! * [`metrics`] — the aggregate side of observability: a
//!   [`MetricsRegistry`](metrics::MetricsRegistry) of named counters,
//!   gauges, and log-bucketed mergeable streaming histograms. Where the
//!   event layer answers "what happened, when", the metrics layer
//!   answers "how much, how often, how distributed" at O(1) per sample
//!   and with exact, order-independent merges across workers.
//!
//! ## Determinism contract
//!
//! Two runs with the same seed produce byte-identical event streams and
//! byte-identical rendered traces. To keep that property, emitters must
//! only record sim-time-derived timestamps, event order must follow
//! simulation order (no hash-map iteration), and the JSON renderer
//! formats floats via Rust's shortest-roundtrip `Display`.
//!
//! [`UtilizationReport`]: https://docs.rs/ior
//! [`Timeline::to_chrome_trace`]: timeline::Timeline::to_chrome_trace

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod timeline;

pub use event::{Event, EventKind, Nanos};
pub use timeline::{RateIntegral, Timeline};

/// A float as every deterministic export of this crate writes it: Rust's
/// shortest round-trip `Display`, with non-finite values as 0 (JSON has
/// no NaN or Infinity).
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A sink for structured simulation events.
///
/// Implementors receive every event an instrumented component emits, in
/// simulation order. The built-in [`Timeline`] sink stores them for later
/// querying/export; custom sinks can stream, filter, or aggregate.
pub trait Recorder {
    /// Record one event. Called in simulation order with monotone
    /// (per-emitter) sim-time timestamps.
    fn record(&mut self, event: Event);
}

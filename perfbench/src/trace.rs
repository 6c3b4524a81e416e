//! Benchmark-side spans around each layer call.
//!
//! A span is a name, a start and an end on the benchmark's clock, and
//! the span that was open when it started (its parent). Spans stay in
//! memory and are written as Chrome trace-event JSON when the run ends
//! (open it in Perfetto or `chrome://tracing`). A disabled tracer reads
//! no clock and records nothing, so untraced runs pay only a branch.

use crate::clock;
use std::fmt::Write as _;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs the spanned code.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: clock::now(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = clock::now();
        out
    }

    /// Record an already measured interval as a child of the innermost
    /// open span (for calls timed inside code the tracer cannot wrap).
    pub fn record(&mut self, name: &'static str, start_s: f64, end_s: f64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_s,
                end_s,
                parent: self.open.last().copied(),
            });
        }
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Mean duration in milliseconds of the spans named `name` (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            1e3 * d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// The spans as a Chrome trace-event JSON array: one complete
    /// (`"X"`) event per span, microseconds since the first span,
    /// with the span's own id and its parent's in `args`.
    pub fn chrome_json(&self) -> String {
        let t0 = self.spans.first().map_or(0.0, |s| s.start_s);
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                (s.start_s - t0) * 1e6,
                (s.end_s - s.start_s) * 1e6
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}

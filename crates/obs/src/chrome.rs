//! Chrome trace-event JSON rendering.
//!
//! Produces the legacy "JSON array format" understood by
//! [Perfetto](https://ui.perfetto.dev) and `chrome://tracing`:
//! one JSON object per line inside a top-level array.
//!
//! The layout groups events into synthetic "processes":
//!
//! | pid | content |
//! |-----|---------|
//! | 0   | run phase spans (`ph:"X"` complete events) |
//! | 1   | per-resource rate counters (`ph:"C"`) |
//! | 2   | per-flow spans (`ph:"X"`, one track per process rank) |
//! | 3   | fault and client retry instants (`ph:"i"`) |
//! | 4   | scheduler lifecycle instants (`ph:"i"`) |
//!
//! Rendering is deterministic: timestamps are sim-time microseconds
//! printed as fixed-point `<µs>.<ns/1000 zero-padded>`, floats use
//! Rust's shortest-roundtrip `Display`, and event order follows the
//! recorded stream.

use crate::event::{Event, Nanos};
use crate::{json_str, num};

const PID_SPANS: u32 = 0;
const PID_RESOURCES: u32 = 1;
const PID_FLOWS: u32 = 2;
const PID_MARKS: u32 = 3;
const PID_SCHED: u32 = 4;

/// Render an event stream as a Chrome trace-event JSON document.
///
/// The same stream always renders to the same bytes.
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str("[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    for (pid, name) in [
        (PID_SPANS, "run"),
        (PID_RESOURCES, "resources"),
        (PID_FLOWS, "flows"),
        (PID_MARKS, "faults+retries"),
        (PID_SCHED, "scheduler"),
    ] {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_str(name)
            ),
            &mut out,
        );
    }

    // Resource labels become thread names on the counter process so the
    // counter tracks read e.g. "server0.link" instead of "resource 3".
    for e in events {
        if let Event::ResourceMeta { resource, label } = e {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{PID_RESOURCES},\"tid\":{resource},\
                     \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    json_str(label)
                ),
                &mut out,
            );
        }
    }

    // Flow starts are matched to their end by (flow, tag) to produce
    // complete ("X") events; unmatched starts are skipped.
    for (i, e) in events.iter().enumerate() {
        match e {
            Event::ResourceMeta { .. } | Event::FlowMeta { .. } => {}
            Event::FlowStart {
                at,
                flow,
                tag,
                bytes,
            } => {
                let Some(end) = events[i + 1..].iter().find_map(|x| match x {
                    Event::FlowEnd {
                        at,
                        flow: f,
                        tag: t,
                    } if f == flow && t == tag => Some(*at),
                    _ => None,
                }) else {
                    continue;
                };
                let meta = events.iter().find_map(|x| match x {
                    Event::FlowMeta {
                        flow: f,
                        app,
                        process,
                        target,
                    } if f == flow => Some((*app, *process, *target)),
                    _ => None,
                });
                let (name, tid) = match meta {
                    Some((app, process, target)) => (
                        format!("app{app}/p{process}\u{2192}t{target}"),
                        app * 10_000 + process,
                    ),
                    None => (format!("flow{flow}"), *flow),
                };
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{PID_FLOWS},\"tid\":{tid},\
                         \"name\":{},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"bytes\":{}}}}}",
                        json_str(&name),
                        ts(*at),
                        dur(*at, end),
                        num(*bytes)
                    ),
                    &mut out,
                );
            }
            Event::FlowEnd { .. } => {}
            Event::RateChange { at, resource, bps } => push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":{PID_RESOURCES},\"tid\":{resource},\
                     \"name\":\"rate\",\"ts\":{},\
                     \"args\":{{\"MiB/s\":{}}}}}",
                    ts(*at),
                    num(bps / (1024.0 * 1024.0))
                ),
                &mut out,
            ),
            Event::FactorChange {
                at,
                resource,
                factor,
            } => push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":{PID_RESOURCES},\"tid\":{resource},\
                     \"name\":\"factor\",\"ts\":{},\
                     \"args\":{{\"factor\":{}}}}}",
                    ts(*at),
                    num(*factor)
                ),
                &mut out,
            ),
            Event::TargetOffline { at, target } => {
                push(mark(*at, &format!("t{target} offline")), &mut out)
            }
            Event::TargetDegraded { at, target, factor } => push(
                mark(*at, &format!("t{target} degraded x{}", num(*factor))),
                &mut out,
            ),
            Event::TargetOnline { at, target } => {
                push(mark(*at, &format!("t{target} online")), &mut out)
            }
            Event::LinkDegraded { at, server, factor } => push(
                mark(*at, &format!("s{server}.link degraded x{}", num(*factor))),
                &mut out,
            ),
            Event::LinkRestored { at, server } => {
                push(mark(*at, &format!("s{server}.link restored")), &mut out)
            }
            Event::StallObserved { at, target } => {
                push(mark(*at, &format!("stall on t{target}")), &mut out)
            }
            Event::RetryProbe {
                at,
                target,
                attempt,
            } => push(mark(*at, &format!("probe t{target} #{attempt}")), &mut out),
            Event::RetryResumed {
                at,
                target,
                attempts,
            } => push(
                mark(*at, &format!("t{target} resumed after {attempts} probes")),
                &mut out,
            ),
            Event::RetryAbandoned { at, target } => {
                push(mark(*at, &format!("abandoned t{target}")), &mut out)
            }
            Event::SchedArrival { at, app } => {
                push(sched_mark(*at, &format!("app{app} arrived")), &mut out)
            }
            Event::SchedQueued { at, app } => {
                push(sched_mark(*at, &format!("app{app} queued")), &mut out)
            }
            Event::SchedAdmitted { at, app } => {
                push(sched_mark(*at, &format!("app{app} admitted")), &mut out)
            }
            Event::SchedPlaced {
                at,
                app,
                policy,
                targets,
            } => {
                let ts: Vec<String> = targets.iter().map(|t| format!("t{t}")).collect();
                push(
                    sched_mark(
                        *at,
                        &format!("app{app} placed on [{}] by {policy}", ts.join(",")),
                    ),
                    &mut out,
                )
            }
            Event::SchedReleased { at, app } => {
                push(sched_mark(*at, &format!("app{app} released")), &mut out)
            }
            Event::SchedRestriped {
                at,
                app,
                kind,
                from,
                to,
            } => {
                let f: Vec<String> = from.iter().map(|t| format!("t{t}")).collect();
                let t: Vec<String> = to.iter().map(|t| format!("t{t}")).collect();
                push(
                    sched_mark(
                        *at,
                        &format!(
                            "app{app} restriped ({kind}) [{}]\u{2192}[{}]",
                            f.join(","),
                            t.join(",")
                        ),
                    ),
                    &mut out,
                )
            }
            Event::HedgeFlagged { at, target, .. } => push(
                mark(*at, &format!("t{target} flagged as straggler")),
                &mut out,
            ),
            Event::HedgeRedirect {
                at,
                app,
                process,
                from,
                to,
            } => push(
                mark(
                    *at,
                    &format!("app{app}/p{process} hedge t{from}\u{2192}t{to}"),
                ),
                &mut out,
            ),
            Event::Span { name, start, end } => push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{PID_SPANS},\"tid\":0,\
                     \"name\":{},\"ts\":{},\"dur\":{}}}",
                    json_str(name),
                    ts(*start),
                    dur(*start, *end)
                ),
                &mut out,
            ),
        }
    }

    out.push_str("\n]\n");
    out
}

/// One instant ("i") marker on the fault/retry process.
fn mark(at: Nanos, name: &str) -> String {
    instant(PID_MARKS, at, name)
}

/// One instant ("i") marker on the scheduler process.
fn sched_mark(at: Nanos, name: &str) -> String {
    instant(PID_SCHED, at, name)
}

fn instant(pid: u32, at: Nanos, name: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"s\":\"t\",\
         \"name\":{},\"ts\":{}}}",
        json_str(name),
        ts(at)
    )
}

/// Sim-time nanoseconds as trace microseconds, fixed-point to the
/// nanosecond (`123.456` = 123µs456ns). Integer arithmetic only, so
/// rendering is exact and deterministic.
fn ts(at: Nanos) -> String {
    format!("{}.{:03}", at / 1000, at % 1000)
}

/// Duration between two sim-time stamps in trace microseconds.
fn dur(start: Nanos, end: Nanos) -> String {
    ts(end.saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts any JSON value; deserializing `Vec<Any>` therefore checks
    /// the document is a syntactically valid JSON array and counts its
    /// elements (the vendored serde_json exposes no public `Value`).
    struct Any;

    impl serde::Deserialize for Any {
        fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
            Ok(Any)
        }
    }

    fn parse_array(json: &str) -> Vec<Any> {
        serde_json::from_str(json).expect("valid JSON array")
    }

    #[test]
    fn timestamps_are_fixed_point_microseconds() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1), "0.001");
        assert_eq!(ts(1_500), "1.500");
        assert_eq!(ts(2_000_000_123), "2000000.123");
    }

    #[test]
    fn render_produces_valid_json_with_matched_flows() {
        let events = vec![
            Event::ResourceMeta {
                resource: 0,
                label: "t0".into(),
            },
            Event::FlowMeta {
                flow: 0,
                app: 1,
                process: 2,
                target: 3,
            },
            Event::FlowStart {
                at: 0,
                flow: 0,
                tag: 9,
                bytes: 8.0,
            },
            Event::RateChange {
                at: 0,
                resource: 0,
                bps: 1024.0 * 1024.0,
            },
            Event::FlowEnd {
                at: 8_000,
                flow: 0,
                tag: 9,
            },
            Event::StallObserved { at: 500, target: 3 },
            Event::SchedPlaced {
                at: 100,
                app: 1,
                policy: "UtilizationFeedback".into(),
                targets: vec![3, 5],
            },
            Event::Span {
                name: "io".into(),
                start: 0,
                end: 8_000,
            },
        ];
        let json = render(&events);
        // 5 process_name + 1 thread_name + flow X + counter + 2 instants
        // + span.
        assert_eq!(parse_array(&json).len(), 11);
        assert!(json.contains("app1/p2\u{2192}t3"));
        assert!(json.contains("\"tid\":10002"));
        assert!(json.contains("\"MiB/s\":1"));
        assert!(json.contains("stall on t3"));
        assert!(json.contains("app1 placed on [t3,t5] by UtilizationFeedback"));
        // Unmatched start disappears rather than corrupting the trace.
        let unmatched = vec![Event::FlowStart {
            at: 0,
            flow: 5,
            tag: 1,
            bytes: 1.0,
        }];
        let j2 = render(&unmatched);
        assert!(!j2.contains("flow5"));
    }

    #[test]
    fn escapes_and_non_finite_values_stay_valid_json() {
        let events = vec![
            Event::ResourceMeta {
                resource: 0,
                label: "we\"ird\\la\nbel".into(),
            },
            Event::RateChange {
                at: 0,
                resource: 0,
                bps: f64::NAN,
            },
        ];
        let json = render(&events);
        parse_array(&json);
        assert!(json.contains("\"MiB/s\":0"));
    }
}

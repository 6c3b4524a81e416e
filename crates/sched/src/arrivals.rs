//! Arrival streams: the workload an online scheduler serves.
//!
//! A stream is an ordered list of [`AppRequest`]s — each one application
//! that shows up at a point in simulated time asking for compute nodes
//! (`config.nodes`, `config.ppn`), data volume (`config.total_bytes`)
//! and a storage target demand (`stripe`). Streams are either generated
//! (Poisson arrivals over the deterministic [`simcore::rng`] streams) or
//! replayed from an explicit trace, so the same seed always produces
//! the same workload.

use ior::IorConfig;
use serde::{Deserialize, Serialize};
use simcore::dist::exponential;
use simcore::rng::StreamRng;
use simcore::time::SimTime;

use crate::error::SchedError;

/// One application asking to be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppRequest {
    /// Simulated instant the request arrives, seconds.
    pub arrival_s: f64,
    /// The benchmark the application will run once admitted.
    pub config: IorConfig,
    /// How many storage targets the application wants (its stripe
    /// demand). Placement policies pin exactly this many targets; the
    /// `Random` baseline defers to the directory's configured pattern.
    pub stripe: u32,
}

/// A time-ordered stream of application requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArrivalStream {
    requests: Vec<AppRequest>,
}

// Deserialization routes through [`ArrivalStream::from_trace`], so a
// trace loaded from JSON is validated like one built in code: raw data
// cannot smuggle in an empty, unordered, negative or off-clock stream.
impl Deserialize for ArrivalStream {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let requests = v
            .get("requests")
            .ok_or_else(|| serde::DeError::custom("missing field `requests`"))?;
        let requests = Vec::<AppRequest>::from_value(requests)?;
        ArrivalStream::from_trace(requests).map_err(serde::DeError::custom)
    }
}

impl ArrivalStream {
    /// A Poisson process: `count` arrivals with exponentially
    /// distributed inter-arrival gaps at `rate_per_s`, all sharing one
    /// benchmark `template` and target demand `stripe`. The first
    /// arrival sits one gap after `t = 0`.
    ///
    /// A rate low enough to draw instants past the simulated clock
    /// still builds a stream; [`crate::Scheduler::serve`] rejects it
    /// with [`SchedError::ArrivalBeyondClock`].
    ///
    /// # Panics
    /// Panics if `rate_per_s` is not a positive finite number (the
    /// exponential sampler's own contract).
    pub fn poisson(
        rate_per_s: f64,
        count: usize,
        template: IorConfig,
        stripe: u32,
        rng: &mut StreamRng,
    ) -> Self {
        let mut t = 0.0;
        let requests = (0..count)
            .map(|_| {
                t += exponential(rate_per_s, rng);
                AppRequest {
                    arrival_s: t,
                    config: template,
                    stripe,
                }
            })
            .collect();
        ArrivalStream { requests }
    }

    /// A trace-driven stream: replay explicit requests.
    ///
    /// Fails with [`SchedError::EmptyStream`] on an empty trace,
    /// [`SchedError::InvalidArrival`] if any arrival time is
    /// non-finite, negative, or earlier than its predecessor, and
    /// [`SchedError::ArrivalBeyondClock`] if one lies past the last
    /// instant simulated time can hold.
    pub fn from_trace(requests: Vec<AppRequest>) -> Result<Self, SchedError> {
        if requests.is_empty() {
            return Err(SchedError::EmptyStream);
        }
        check_arrivals(&requests)?;
        Ok(ArrivalStream { requests })
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[AppRequest] {
        &self.requests
    }

    /// Number of requests in the stream.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the stream has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Check the requests' arrival instants: [`SchedError::InvalidArrival`]
/// for one that is non-finite, negative, or earlier than its
/// predecessor, [`SchedError::ArrivalBeyondClock`] for one past the last
/// instant simulated time can hold. Traces are checked when built,
/// every stream again when served.
pub(crate) fn check_arrivals(requests: &[AppRequest]) -> Result<(), SchedError> {
    let mut prev = 0.0f64;
    for (app, r) in requests.iter().enumerate() {
        let arrival_s = r.arrival_s;
        if !(arrival_s.is_finite() && arrival_s >= prev) {
            return Err(SchedError::InvalidArrival { app, arrival_s });
        }
        // `SimTime::from_secs_f64` saturates an instant past the clock
        // to the `SimTime::MAX` "never" sentinel, and no earlier
        // instant maps there.
        if SimTime::from_secs_f64(arrival_s) == SimTime::MAX {
            return Err(SchedError::ArrivalBeyondClock { app, arrival_s });
        }
        prev = arrival_s;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::RngFactory;

    fn cfg() -> IorConfig {
        IorConfig::paper_default(4)
    }

    #[test]
    fn poisson_stream_is_ordered_and_deterministic() {
        let factory = RngFactory::new(11);
        let a = ArrivalStream::poisson(0.5, 50, cfg(), 4, &mut factory.stream("arr", 0));
        let b = ArrivalStream::poisson(0.5, 50, cfg(), 4, &mut factory.stream("arr", 0));
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let times: Vec<f64> = a.requests().iter().map(|r| r.arrival_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "out of order");
        assert!(times[0] > 0.0);
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let factory = RngFactory::new(12);
        let s = ArrivalStream::poisson(0.25, 4000, cfg(), 4, &mut factory.stream("arr", 1));
        let last = s.requests().last().unwrap().arrival_s;
        let mean_gap = last / 4000.0;
        assert!((mean_gap - 4.0).abs() < 0.25, "mean gap {mean_gap}");
    }

    #[test]
    fn trace_validation_rejects_bad_arrival_times() {
        assert!(matches!(
            ArrivalStream::from_trace(Vec::new()),
            Err(SchedError::EmptyStream)
        ));
        let bad = vec![
            AppRequest {
                arrival_s: 5.0,
                config: cfg(),
                stripe: 4,
            },
            AppRequest {
                arrival_s: 1.0,
                config: cfg(),
                stripe: 4,
            },
        ];
        assert!(matches!(
            ArrivalStream::from_trace(bad),
            Err(SchedError::InvalidArrival { app: 1, .. })
        ));
        let nan = vec![AppRequest {
            arrival_s: f64::NAN,
            config: cfg(),
            stripe: 4,
        }];
        assert!(matches!(
            ArrivalStream::from_trace(nan),
            Err(SchedError::InvalidArrival { app: 0, .. })
        ));
    }

    fn at(arrival_s: f64) -> AppRequest {
        AppRequest {
            arrival_s,
            config: cfg(),
            stripe: 4,
        }
    }

    #[test]
    fn trace_rejects_an_arrival_past_the_simulated_clock() {
        // u64 nanoseconds end at ~1.8447e10 s.
        assert!(ArrivalStream::from_trace(vec![at(0.0), at(1.8e10)]).is_ok());
        for late in [1.85e10, 1e300] {
            assert!(
                matches!(
                    ArrivalStream::from_trace(vec![at(1.0), at(late)]),
                    Err(SchedError::ArrivalBeyondClock { app: 1, arrival_s }) if arrival_s == late
                ),
                "{late}"
            );
        }
    }

    /// A JSON trace of requests arriving at `times`, written without
    /// `from_trace` so it can hold what `from_trace` rejects.
    fn json_trace(times: &[f64]) -> String {
        let reqs: Vec<String> = times
            .iter()
            .map(|&t| serde_json::to_string(&at(t)).unwrap())
            .collect();
        format!("{{\"requests\":[{}]}}", reqs.join(","))
    }

    #[test]
    fn deserializing_a_negative_arrival_fails_typed() {
        let err = serde_json::from_str::<ArrivalStream>(&json_trace(&[-1.0, 6.0])).unwrap_err();
        assert!(err.to_string().contains("request 0"), "{err}");
    }

    #[test]
    fn deserializing_a_decreasing_trace_fails_typed() {
        let err = serde_json::from_str::<ArrivalStream>(&json_trace(&[5.0, 1.0])).unwrap_err();
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn deserializing_an_arrival_past_the_clock_fails_typed() {
        let err = serde_json::from_str::<ArrivalStream>(&json_trace(&[5.0, 1e300])).unwrap_err();
        assert!(err.to_string().contains("clock"), "{err}");
    }

    #[test]
    fn deserializing_an_empty_trace_fails_typed() {
        let err = serde_json::from_str::<ArrivalStream>(r#"{"requests":[]}"#).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        assert!(serde_json::from_str::<ArrivalStream>("{}").is_err());
    }

    #[test]
    fn trace_round_trips_through_serde() {
        let s = ArrivalStream::from_trace(vec![at(2.5), at(2.5), at(7.25)]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: ArrivalStream = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

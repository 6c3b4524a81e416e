//! The admission ledger both admission engines share.
//!
//! Admission rules are one decision, so they live in one place: the
//! arrival gate (FIFO behind any queued request; compute nodes and the
//! concurrency cap), the queue drain as capacity frees, the lifecycle
//! trace (`SchedArrival`, `SchedQueued`, `SchedAdmitted`, `SchedPlaced`,
//! `SchedRestriped`, `SchedReleased`), the `sched.*` admission and
//! decision metrics, the decision and restripe logs, the per-application
//! outcome slots and the final [`SchedOutcome`]. An engine only prices:
//! it decides where an admitted application goes and when it ends, and
//! commits both here.

use cluster::TargetId;
use iostats::agg::{aggregate_bandwidth, AppInterval};
use obs::metrics::MetricsRegistry;
use simcore::time::SimTime;
use simcore::units::Bandwidth;
use std::collections::VecDeque;

use crate::arrivals::AppRequest;
use crate::error::SchedError;
use crate::scheduler::{AppOutcome, Decision, RestripeRecord, SchedOutcome};

/// Seconds to the nanosecond timestamps of the event vocabulary.
pub(crate) fn ns(s: f64) -> u64 {
    SimTime::from_secs_f64(s).as_nanos()
}

fn flat(targets: &[TargetId]) -> Vec<u32> {
    targets.iter().map(|t| t.0).collect()
}

/// One session's admission state, lifecycle record and outcomes.
pub(crate) struct Ledger<'a, 'r> {
    reqs: &'a [AppRequest],
    recorder: Option<&'r mut dyn obs::Recorder>,
    metrics: Option<&'r mut MetricsRegistry>,
    policy: &'static str,
    max_concurrent: usize,
    max_nodes: usize,
    /// Admitted, not yet released applications, and their nodes.
    running: usize,
    running_nodes: usize,
    queue: VecDeque<usize>,
    outcomes: Vec<Option<AppOutcome>>,
    decisions: Vec<Decision>,
    restripes: Vec<RestripeRecord>,
}

impl<'a, 'r> Ledger<'a, 'r> {
    pub(crate) fn new(
        reqs: &'a [AppRequest],
        recorder: Option<&'r mut dyn obs::Recorder>,
        metrics: Option<&'r mut MetricsRegistry>,
        policy: &'static str,
        max_concurrent: usize,
        max_nodes: usize,
    ) -> Self {
        Ledger {
            reqs,
            recorder,
            metrics,
            policy,
            max_concurrent,
            max_nodes,
            running: 0,
            running_nodes: 0,
            queue: VecDeque::new(),
            outcomes: (0..reqs.len()).map(|_| None).collect(),
            decisions: Vec::new(),
            restripes: Vec::new(),
        }
    }

    /// Request `i` of the session.
    pub(crate) fn req(&self, i: usize) -> &'a AppRequest {
        &self.reqs[i]
    }

    /// The session's metrics registry, when one is attached.
    pub(crate) fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    fn record(&mut self, ev: obs::Event) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ev);
        }
    }

    fn fits(&self, nodes: usize) -> bool {
        self.running < self.max_concurrent && self.running_nodes + nodes <= self.max_nodes
    }

    /// Request `i` arrives and joins the queue; it is traced as queued
    /// unless it is alone there and fits now, in which case the next
    /// [`Ledger::next`] admits it. A request larger than the whole
    /// compute partition can never start.
    pub(crate) fn arrive(&mut self, i: usize) -> Result<(), SchedError> {
        let req = self.req(i);
        let (at, app) = (ns(req.arrival_s), i as u32);
        self.record(obs::Event::SchedArrival { at, app });
        if req.config.nodes > self.max_nodes {
            return Err(SchedError::Unschedulable {
                app: i,
                nodes: req.config.nodes,
                available: self.max_nodes,
            });
        }
        if !self.queue.is_empty() || !self.fits(req.config.nodes) {
            self.record(obs::Event::SchedQueued { at, app });
            if let Some(reg) = self.metrics.as_deref_mut() {
                reg.inc("sched.queued");
            }
        }
        self.queue.push_back(i);
        Ok(())
    }

    /// Application `app` ends at `now` and frees its capacity.
    pub(crate) fn release(&mut self, app: usize, now: f64) {
        self.running -= 1;
        self.running_nodes -= self.reqs[app].config.nodes;
        self.record(obs::Event::SchedReleased {
            at: ns(now),
            app: app as u32,
        });
    }

    /// Admit the queue head at `now` if it fits, in FIFO order; `None`
    /// ends the drain and samples the queue depth.
    pub(crate) fn next(&mut self, now: f64) -> Option<usize> {
        let Some(&i) = self
            .queue
            .front()
            .filter(|&&i| self.fits(self.reqs[i].config.nodes))
        else {
            if let Some(reg) = self.metrics.as_deref_mut() {
                reg.observe("sched.queue_depth", self.queue.len() as f64);
            }
            return None;
        };
        self.queue.pop_front();
        self.running += 1;
        self.running_nodes += self.reqs[i].config.nodes;
        self.record(obs::Event::SchedAdmitted {
            at: ns(now),
            app: i as u32,
        });
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.inc("sched.admissions");
            reg.observe("sched.wait_s", now - self.reqs[i].arrival_s);
        }
        Some(i)
    }

    /// Commit a placement of `app` on `targets` at `at_s`; `replaced`
    /// marks one that supersedes an earlier decision.
    pub(crate) fn placed(&mut self, app: usize, at_s: f64, targets: &[TargetId], replaced: bool) {
        let targets = flat(targets);
        self.record(obs::Event::SchedPlaced {
            at: ns(at_s),
            app: app as u32,
            policy: self.policy.to_string(),
            targets: targets.clone(),
        });
        self.decide(app, at_s, targets, replaced);
    }

    fn decide(&mut self, app: usize, at_s: f64, targets: Vec<u32>, replaced: bool) {
        self.decisions.push(Decision {
            app: app as u32,
            arrival_s: self.reqs[app].arrival_s,
            admit_s: at_s,
            policy: self.policy.to_string(),
            targets,
            replaced,
        });
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.inc(&format!("sched.decisions.{}", self.policy));
        }
    }

    /// Commit a mid-flight stripe change of running application `app`
    /// at `at_s`. A fault eviction (`kind` `"evict"`) is a fresh
    /// placement and is traced as one; a policy restripe is traced as
    /// `SchedRestriped` and counted under `sched.restripes`.
    pub(crate) fn restriped(
        &mut self,
        app: usize,
        at_s: f64,
        kind: &str,
        from: &[TargetId],
        to: &[TargetId],
    ) {
        if kind == "evict" {
            self.placed(app, at_s, to, true);
        } else {
            self.record(obs::Event::SchedRestriped {
                at: ns(at_s),
                app: app as u32,
                kind: kind.to_string(),
                from: flat(from),
                to: flat(to),
            });
            self.decide(app, at_s, flat(to), true);
            if let Some(reg) = self.metrics.as_deref_mut() {
                reg.inc("sched.restripes");
                reg.inc(&format!("sched.restripes.{kind}"));
            }
        }
        self.restripes.push(RestripeRecord {
            app: app as u32,
            at_s,
            kind: kind.to_string(),
            from: flat(from),
            to: flat(to),
        });
    }

    /// Commit application `app`'s outcome: admitted at `admit_s`, done at
    /// `end_s` after `duration_s` of wall time (passed apart so an engine
    /// keeps its run's exact duration), against a contention-free
    /// `ideal_s`. A later commit for the same application replaces it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn completed(
        &mut self,
        app: usize,
        admit_s: f64,
        end_s: f64,
        duration_s: f64,
        ideal_s: f64,
        bytes: u64,
        targets: Vec<TargetId>,
    ) {
        let arrival_s = self.reqs[app].arrival_s;
        self.outcomes[app] = Some(AppOutcome {
            app,
            arrival_s,
            admit_s,
            end_s,
            wait_s: admit_s - arrival_s,
            duration_s,
            ideal_s,
            slowdown: (end_s - arrival_s) / ideal_s,
            bytes,
            targets,
            bandwidth: Bandwidth::from_bytes_per_sec(bytes as f64 / duration_s),
        });
    }

    /// Close the session: every request must have completed.
    pub(crate) fn finish(self, sim_events: u64) -> SchedOutcome {
        debug_assert!(self.queue.is_empty(), "queued requests can never start");
        let apps: Vec<AppOutcome> = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every request was admitted exactly once"))
            .collect();
        let intervals: Vec<AppInterval> = apps
            .iter()
            .map(|a| AppInterval {
                start_s: a.admit_s,
                end_s: a.end_s,
                volume_bytes: a.bytes,
            })
            .collect();
        let makespan_s = apps.iter().map(|a| a.end_s).fold(0.0, f64::max);
        SchedOutcome {
            decisions: self.decisions,
            restripes: self.restripes,
            aggregate: Bandwidth::from_bytes_per_sec(aggregate_bandwidth(&intervals)),
            makespan_s,
            sim_events,
            apps,
        }
    }
}

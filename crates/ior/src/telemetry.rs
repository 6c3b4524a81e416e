//! Per-run resource utilization — the observability layer a performance
//! engineer needs to *verify* which resource actually limited a run,
//! rather than inferring it from aggregate bandwidth alone (the paper
//! has to reason indirectly from Figs. 3/9; the simulator can just
//! report it).

use crate::error::RunError;
use serde::{DeError, Deserialize, Serialize, Value};
use simcore::flow::{FlowNetwork, ResourceId};
use std::fmt;
use std::sync::Arc;

/// A resource's label in a [`UtilizationReport`]: a range of one buffer
/// that holds every label of the report, so a report costs one label
/// allocation instead of one per resource. It reads as a `&str` and
/// serializes as a string.
#[derive(Clone)]
pub struct ResourceLabel {
    text: Arc<str>,
    start: u32,
    end: u32,
}

impl ResourceLabel {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.text[self.start as usize..self.end as usize]
    }
}

impl std::ops::Deref for ResourceLabel {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for ResourceLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for ResourceLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for ResourceLabel {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for ResourceLabel {
    fn from(label: &str) -> Self {
        ResourceLabel {
            end: u32::try_from(label.len()).expect("label fits u32"),
            text: Arc::from(label),
            start: 0,
        }
    }
}

impl Serialize for ResourceLabel {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for ResourceLabel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(|s| ResourceLabel::from(s.as_str()))
    }
}

/// Utilization of a single resource over one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// The resource's label (e.g. `oss1.link`, `node3.client`,
    /// `oss0.ost2`).
    pub label: ResourceLabel,
    /// Total bytes that crossed the resource.
    pub bytes: f64,
    /// Seconds during which the resource carried at least one flow.
    pub busy_secs: f64,
    /// Mean throughput while busy, bytes/second.
    pub mean_busy_bps: f64,
}

impl ResourceUsage {
    /// Busy fraction of the I/O phase: `busy_secs / io_secs`, clamped to
    /// 0 for a degenerate (non-positive) phase length. This replaces the
    /// ad-hoc division every experiment used to do by hand.
    pub fn utilization(&self, io_secs: f64) -> f64 {
        if io_secs > 0.0 {
            self.busy_secs / io_secs
        } else {
            0.0
        }
    }
}

/// The per-run utilization report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// One entry per resource, in fabric order.
    pub resources: Vec<ResourceUsage>,
    /// Wall-clock span of the I/O phase in seconds.
    pub io_secs: f64,
}

impl UtilizationReport {
    /// Extract the report from a drained network that accounts bytes
    /// (see [`FlowNetwork::track_bytes`]). Every entry's label is a
    /// range of one copy of the network's label buffer.
    pub(crate) fn from_network(net: &FlowNetwork, io_secs: f64) -> Self {
        let text: Arc<str> = Arc::from(net.labels());
        let mut end = 0;
        let resources = (0..net.resource_count())
            .map(|i| {
                let r = ResourceId::from_index(i);
                let start = end;
                end += u32::try_from(net.label(r).len()).expect("label fits u32");
                ResourceUsage {
                    label: ResourceLabel {
                        text: Arc::clone(&text),
                        start,
                        end,
                    },
                    bytes: net.bytes_through(r),
                    busy_secs: net.busy_secs(r),
                    mean_busy_bps: net.mean_busy_throughput(r),
                }
            })
            .collect();
        UtilizationReport { resources, io_secs }
    }

    /// The resource that carried the most bytes while being busy the
    /// longest fraction of the run — the empirical bottleneck candidate —
    /// or [`RunError::EmptyReport`] if the report has no resources.
    pub fn try_busiest(&self) -> Result<&ResourceUsage, RunError> {
        // total_cmp: a NaN entry (corrupt telemetry) must not panic the
        // comparison; NaN sorts above every number under the IEEE total
        // order, so it would merely win the max, never abort the run.
        self.resources
            .iter()
            .max_by(|a, b| (a.busy_secs * a.bytes).total_cmp(&(b.busy_secs * b.bytes)))
            .ok_or(RunError::EmptyReport)
    }

    /// Entries whose label contains `needle` (e.g. `".link"`, `".ost"`).
    pub fn matching(&self, needle: &str) -> Vec<&ResourceUsage> {
        self.resources
            .iter()
            .filter(|r| r.label.contains(needle))
            .collect()
    }

    /// Total bytes across entries whose label contains `needle`.
    pub fn bytes_matching(&self, needle: &str) -> f64 {
        self.matching(needle).iter().map(|r| r.bytes).sum()
    }

    /// Resources that never carried a single byte — the unused side of
    /// an unbalanced allocation (e.g. the idle server link of a `(0,2)`
    /// placement).
    pub fn idle(&self) -> Vec<&ResourceUsage> {
        self.resources
            .iter()
            .filter(|r| r.busy_secs == 0.0 && r.bytes == 0.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::Run;
    use crate::IorConfig;
    use beegfs_core::{plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, StripePattern};
    use cluster::presets;
    use simcore::rng::RngFactory;

    fn run_report(scenario_ethernet: bool, stripe: u32) -> (super::UtilizationReport, u64) {
        let platform = if scenario_ethernet {
            presets::plafrim_ethernet()
        } else {
            presets::plafrim_omnipath()
        };
        let mut fs = BeeGfs::new(
            platform,
            DirConfig {
                pattern: StripePattern::new(stripe, 512 * 1024),
                chooser: ChooserKind::RoundRobin,
            },
            plafrim_registration_order(),
        );
        let cfg = IorConfig::paper_default(8);
        let mut rng = RngFactory::new(3).stream("telemetry", 0);
        let (out, report) = Run::new(&mut fs)
            .app(cfg)
            .utilization()
            .execute(&mut rng)
            .unwrap();
        (report.unwrap(), out.try_single().unwrap().bytes)
    }

    #[test]
    fn a_run_without_utilization_returns_no_report_and_the_same_outcome() {
        let run = |utilization: bool| {
            let mut fs = BeeGfs::new(
                presets::plafrim_ethernet(),
                DirConfig::plafrim_default(),
                plafrim_registration_order(),
            );
            let mut rng = RngFactory::new(3).stream("telemetry", 0);
            let run = Run::new(&mut fs).app(IorConfig::paper_default(8));
            let run = if utilization { run.utilization() } else { run };
            let (out, report) = run.execute(&mut rng).unwrap();
            let app = out.try_single().unwrap();
            let bits = (
                app.duration_s.to_bits(),
                out.aggregate.bytes_per_sec().to_bits(),
            );
            (bits, out.sim_events, report)
        };
        let (plain, plain_events, none) = run(false);
        let (asked, asked_events, report) = run(true);
        assert!(none.is_none(), "a run that did not ask has no report");
        assert!(report.unwrap().bytes_matching(".ost") > 0.0);
        assert_eq!((plain, plain_events), (asked, asked_events));
    }

    #[test]
    fn bytes_are_conserved_through_every_layer() {
        let (report, bytes) = run_report(true, 4);
        // Every byte crosses the switch once, one server link once, one
        // OST once; layer totals must all equal the run's volume.
        for layer in ["switch", ".link", ".ost", ".client", ".nic", ".backend"] {
            let total = report.bytes_matching(layer);
            let rel = (total - bytes as f64).abs() / bytes as f64;
            assert!(rel < 1e-6, "layer {layer}: {total} vs {bytes} ({rel})");
        }
    }

    #[test]
    fn scenario1_bottleneck_is_a_server_link() {
        let (report, _) = run_report(true, 4);
        // The (1,3)-loaded server's link runs at its (noisy) capacity.
        let links = report.matching(".link");
        let fastest = links.iter().map(|r| r.mean_busy_bps).fold(0.0f64, f64::max);
        let link_cap = presets::plafrim_ethernet()
            .network
            .server_link
            .bytes_per_sec();
        assert!(
            fastest > 0.9 * link_cap && fastest < 1.1 * link_cap,
            "fastest link {fastest} vs capacity {link_cap}"
        );
    }

    #[test]
    fn unbalanced_allocation_shows_in_per_server_bytes() {
        let (report, bytes) = run_report(true, 4);
        // (1,3): one server link carries 3/4 of the data.
        let mut link_bytes: Vec<f64> = report.matching(".link").iter().map(|r| r.bytes).collect();
        link_bytes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let frac_heavy = link_bytes[1] / bytes as f64;
        assert!(
            (0.70..0.80).contains(&frac_heavy),
            "heavy-server fraction {frac_heavy}"
        );
    }

    #[test]
    fn busiest_points_at_the_io_path() {
        let (report, _) = run_report(false, 8);
        let busiest = report.try_busiest().unwrap();
        assert!(busiest.bytes > 0.0);
        assert!(report.io_secs > 0.0);
        assert!(busiest.busy_secs <= report.io_secs * (1.0 + 1e-9));
    }

    fn usage(label: &str, bytes: f64, busy_secs: f64) -> super::ResourceUsage {
        super::ResourceUsage {
            label: label.into(),
            bytes,
            busy_secs,
            mean_busy_bps: if busy_secs > 0.0 {
                bytes / busy_secs
            } else {
                0.0
            },
        }
    }

    #[test]
    fn try_busiest_survives_nan_telemetry() {
        // A corrupt (NaN) entry must not panic the comparison; under
        // total_cmp it simply wins the max, surfacing the corruption in
        // the returned entry instead of aborting.
        let report = super::UtilizationReport {
            resources: vec![
                usage("ok", 100.0, 2.0),
                usage("nan", f64::NAN, 1.0),
                usage("big", 1e12, 10.0),
            ],
            io_secs: 10.0,
        };
        let busiest = report.try_busiest().unwrap();
        assert_eq!(busiest.label, "nan");
        // And an all-finite report still picks the true maximum.
        let report = super::UtilizationReport {
            resources: vec![usage("small", 10.0, 1.0), usage("big", 1e12, 10.0)],
            io_secs: 10.0,
        };
        assert_eq!(report.try_busiest().unwrap().label, "big");
    }

    #[test]
    fn utilization_and_idle_helpers() {
        let report = super::UtilizationReport {
            resources: vec![usage("busy", 100.0, 5.0), usage("idle", 0.0, 0.0)],
            io_secs: 10.0,
        };
        assert!((report.resources[0].utilization(report.io_secs) - 0.5).abs() < 1e-12);
        assert_eq!(report.resources[0].utilization(0.0), 0.0);
        assert_eq!(report.resources[1].utilization(report.io_secs), 0.0);
        let idle: Vec<&str> = report.idle().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(idle, vec!["idle"]);
    }
}

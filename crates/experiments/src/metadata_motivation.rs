//! Why the paper benchmarks with a shared file — the metadata-overhead
//! motivation behind §III-B ("to limit the impact of metadata overhead
//! in our results ... we used a shared-file strategy").
//!
//! This experiment quantifies that choice: sweeping the per-process file
//! size under the N-N layout, the time spent creating files (one MDS
//! round-trip + MDT insert per file, serialized by the benchmark's
//! setup phase) grows relative to the time moving data, until metadata
//! dominates — while N-1 pays for exactly one create regardless of the
//! process count.

use crate::campaign::{Campaign, CampaignEngine, CampaignError, CellConfig};
use crate::context::{ExpCtx, Scenario};
use beegfs_core::ChooserKind;
use ior::{FileLayout, IorConfig};
use iostats::Summary;
use serde::{Deserialize, Serialize};
use simcore::units::MIB;

/// One per-process-size point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizeCell {
    /// Bytes written per process.
    pub per_process_bytes: u64,
    /// N-1 bandwidth samples (MiB/s).
    pub shared: Vec<f64>,
    /// N-N bandwidth samples (MiB/s).
    pub per_process: Vec<f64>,
}

impl SizeCell {
    /// Relative cost of the N-N layout at this size:
    /// `1 - mean(N-N) / mean(N-1)`.
    pub fn nn_penalty(&self) -> f64 {
        let s = Summary::from_sample(&self.shared).mean;
        let n = Summary::from_sample(&self.per_process).mean;
        1.0 - n / s
    }
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetadataMotivation {
    /// Points in increasing size order.
    pub cells: Vec<SizeCell>,
}

/// Per-process sizes swept (MiB).
pub const SIZES_MIB: [u64; 5] = [1, 4, 16, 64, 256];

/// Run the experiment (scenario 2, 16 nodes x 8 ppn, stripe 4) on an
/// engine.
pub fn run(engine: &CampaignEngine, ctx: &ExpCtx) -> Result<MetadataMotivation, CampaignError> {
    let nodes = 16usize;
    let mut campaign = Campaign::new("metadata-motivation", ctx.seed);
    for mib in SIZES_MIB {
        let total = mib * MIB * (nodes * 8) as u64;
        let base = IorConfig::paper_default(nodes).with_total_bytes(total);
        for (tag, cfg) in [
            ("n1", base),
            ("nn", base.with_layout(FileLayout::FilePerProcess)),
        ] {
            let config = CellConfig::new(Scenario::S2Omnipath, 4, ChooserKind::RoundRobin, cfg);
            campaign = campaign.cell(format!("{tag}-{mib}"), config, ctx.reps);
        }
    }
    let cells = engine
        .run(&campaign)?
        .cells
        .chunks(2)
        .map(|pair| SizeCell {
            per_process_bytes: pair[0].config.total_bytes / (nodes * 8) as u64,
            shared: pair[0].bandwidths(),
            per_process: pair[1].bandwidths(),
        })
        .collect();
    Ok(MetadataMotivation { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_metadata_cost_fades_with_file_size() {
        let fig = run(&CampaignEngine::in_memory(), &ExpCtx::quick(8)).unwrap();
        // At large per-process sizes the layouts converge (N-N can even
        // win by avoiding the shared file's single allocation)...
        let large = fig.cells.last().unwrap().nn_penalty();
        assert!(large < 0.10, "large-file N-N penalty {large}");
        // ...while the relative creation overhead is strictly larger for
        // tiny files than for large ones.
        let small_overhead = overhead_fraction(&fig.cells[0]);
        let large_overhead = overhead_fraction(fig.cells.last().unwrap());
        assert!(
            small_overhead > 4.0 * large_overhead,
            "metadata share: small {small_overhead} vs large {large_overhead}"
        );
    }

    /// Rough metadata share estimate: how far N-N falls below a
    /// linear-in-size scaling of its own large-file bandwidth.
    fn overhead_fraction(cell: &SizeCell) -> f64 {
        let nn = Summary::from_sample(&cell.per_process).mean;
        let n1 = Summary::from_sample(&cell.shared).mean;
        (1.0 - nn / n1).max(0.0) + 1e-3
    }
}

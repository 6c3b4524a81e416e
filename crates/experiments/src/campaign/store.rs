//! Content-addressed, on-disk persistence for campaign cells.
//!
//! Every cell's repetitions are stored in one JSON file whose name is a
//! stable 128-bit hash of everything that determines the cell's results:
//! the simulator's [`MODEL_VERSION`], the campaign seed and name, the
//! cell label (which selects the RNG stream) and the full [`CellConfig`].
//! Two consequences:
//!
//! * any change to the workload, the seed or the simulation model lands
//!   on a *different* key — stale entries are never read, only orphaned;
//! * re-running an identical campaign finds every finished cell by key
//!   and skips its simulation entirely.
//!
//! Records are written atomically (temp file + rename) so an interrupted
//! campaign never leaves a half-written cell behind, and a record's
//! repetitions are never truncated on save — a 100-rep record keeps
//! serving 10-rep campaigns and vice versa (prefix-stable RNG streams
//! make the shorter run a literal prefix of the longer one).

use super::{Campaign, CellConfig, CellSpec, RepRecord};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Bump when the simulation model changes in a way that alters results
/// (calibration constants, RNG layout, flow solver). Part of every cell
/// key, so old caches invalidate themselves wholesale.
pub const MODEL_VERSION: u32 = 1;

/// One persisted cell: its identity fields plus all computed reps.
///
/// The identity fields are stored alongside the data so a record is
/// self-describing (useful for ad-hoc inspection of the cache directory)
/// and so [`ResultStore::load`] can reject a record whose content does
/// not match the key it was filed under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// The content hash the record is filed under.
    pub key: String,
    /// [`MODEL_VERSION`] at the time of writing.
    pub model_version: u32,
    /// Campaign name the cell belongs to.
    pub campaign: String,
    /// Campaign master seed.
    pub seed: u64,
    /// The cell's label (selects its RNG stream).
    pub label: String,
    /// The full workload description.
    pub config: CellConfig,
    /// Repetitions in rep order; may exceed any one campaign's request.
    pub reps: Vec<RepRecord>,
}

/// The identity tuple that is hashed into a cell key. `reps` is *not*
/// part of it: asking for more repetitions must land on the same key so
/// the existing prefix can be reused.
#[derive(Debug, Serialize)]
struct CellIdentity {
    model_version: u32,
    seed: u64,
    campaign: String,
    label: String,
    config: CellConfig,
}

/// Stable content hash for one cell of a campaign.
///
/// The hash covers the canonical JSON of [`MODEL_VERSION`], the campaign
/// seed and name, the cell label and the cell config — and nothing else,
/// so the requested rep count does not move the key.
pub fn cell_key(campaign: &str, seed: u64, spec: &CellSpec) -> String {
    let identity = CellIdentity {
        model_version: MODEL_VERSION,
        seed,
        campaign: campaign.to_string(),
        label: spec.label.clone(),
        config: spec.config.clone(),
    };
    // Derive-generated serialization emits fields in declaration order,
    // so this string is canonical for a given identity. Only a
    // non-finite float (an arrival rate its reps reject) has no JSON
    // form; its Debug form keys the cell instead, and a cell that fails
    // at rep 0 never reaches the store.
    let canon = serde_json::to_string(&identity).unwrap_or_else(|_| format!("{identity:?}"));
    let bytes = canon.as_bytes();
    format!(
        "{:016x}{:016x}",
        mix64(fnv64(bytes, 0xcbf2_9ce4_8422_2325)),
        mix64(fnv64(bytes, 0x9747_b28c_8421_1c55))
    )
}

/// A campaign's name joined to a 64-bit digest of its cell keys, which
/// names its metrics files: campaigns that share a name but not their
/// cells keep apart, and a rerun of one campaign (at any rep count)
/// lands on its own files.
fn metrics_stem(campaign: &Campaign) -> String {
    let digest = campaign
        .cells
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, spec| {
            fnv64(cell_key(&campaign.name, campaign.seed, spec).as_bytes(), h)
        });
    format!("{}-{:016x}", campaign.name, mix64(digest))
}

/// FNV-1a with a caller-chosen basis (two bases -> 128 bits of key).
fn fnv64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — scrambles the FNV state so short inputs still
/// spread over the whole key space (and over the 256 shard directories).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The on-disk store: `<root>/<first two hex digits>/<key>.json`.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where a key's record lives (whether or not it exists yet).
    pub fn path_for(&self, key: &str) -> PathBuf {
        let shard = key.get(..2).unwrap_or("xx");
        self.root.join(shard).join(format!("{key}.json"))
    }

    /// Load a record, or `None` if it is absent, unreadable, corrupt, or
    /// fails validation (wrong key or model version). A bad record is a
    /// cache miss, never an error: the cell is simply recomputed.
    pub fn load(&self, key: &str) -> Option<CellRecord> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        let record: CellRecord = serde_json::from_str(&text).ok()?;
        (record.key == key && record.model_version == MODEL_VERSION).then_some(record)
    }

    /// Persist a record atomically (temp file + rename) under its key.
    pub fn save(&self, record: &CellRecord) -> io::Result<()> {
        let path = self.path_for(&record.key);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::write_atomic(&path, &json)
    }

    /// Where a campaign's run metrics live:
    /// `metrics/<campaign>-<digest>.json`, the digest taken over the
    /// campaign's cell keys, so same-named campaigns with different
    /// cells keep their own files. Cache shards are two hex digits, so
    /// `metrics/` can never collide with one.
    pub fn metrics_path(&self, campaign: &Campaign) -> PathBuf {
        self.root
            .join("metrics")
            .join(format!("{}.json", metrics_stem(campaign)))
    }

    /// Where a campaign's merged instrumentation snapshot lives: the
    /// byte-stable [`obs::metrics::MetricsRegistry`] JSON written next to
    /// the run-metrics document (`metrics/<campaign>-<digest>.metrics.json`).
    pub fn metrics_snapshot_path(&self, campaign: &Campaign) -> PathBuf {
        self.root
            .join("metrics")
            .join(format!("{}.metrics.json", metrics_stem(campaign)))
    }

    /// Persist a campaign's merged metrics registry atomically. The
    /// registry's own serializer is byte-stable, so two runs that did the
    /// same simulation work write byte-identical snapshots.
    pub fn save_metrics_snapshot(
        &self,
        campaign: &Campaign,
        registry: &obs::metrics::MetricsRegistry,
    ) -> io::Result<()> {
        let path = self.metrics_snapshot_path(campaign);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        Self::write_atomic(&path, &registry.to_json())
    }

    /// Persist a campaign's run metrics atomically next to the cache.
    pub fn save_metrics(
        &self,
        campaign: &Campaign,
        metrics: &super::CampaignMetrics,
    ) -> io::Result<()> {
        let path = self.metrics_path(campaign);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(metrics)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::write_atomic(&path, &json)
    }

    fn write_atomic(path: &Path, json: &str) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        fs::write(&tmp, json)?;
        fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::super::CellConfig;
    use super::*;
    use crate::context::Scenario;
    use beegfs_core::ChooserKind;
    use ior::IorConfig;

    fn spec(label: &str, nodes: usize, reps: usize) -> CellSpec {
        CellSpec {
            label: label.to_string(),
            config: CellConfig::new(
                Scenario::S1Ethernet,
                4,
                ChooserKind::RoundRobin,
                IorConfig::paper_default(nodes),
            ),
            reps,
        }
    }

    #[test]
    fn key_ignores_reps_but_tracks_everything_else() {
        let a = cell_key("fig", 1, &spec("n4", 4, 10));
        assert_eq!(a, cell_key("fig", 1, &spec("n4", 4, 100)));
        assert_ne!(a, cell_key("fig", 2, &spec("n4", 4, 10)));
        assert_ne!(a, cell_key("gif", 1, &spec("n4", 4, 10)));
        assert_ne!(a, cell_key("fig", 1, &spec("n8", 4, 10)));
        assert_ne!(a, cell_key("fig", 1, &spec("n4", 8, 10)));
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn load_rejects_mismatched_records() {
        let dir = std::env::temp_dir().join(format!("campaign-store-{}", std::process::id()));
        let store = ResultStore::open(&dir).unwrap();
        let s = spec("n4", 4, 2);
        let key = cell_key("fig", 1, &s);
        let mut record = CellRecord {
            key: key.clone(),
            model_version: MODEL_VERSION,
            campaign: "fig".into(),
            seed: 1,
            label: s.label.clone(),
            config: s.config.clone(),
            reps: Vec::new(),
        };
        store.save(&record).unwrap();
        assert!(store.load(&key).is_some());
        // A record claiming an older model version is a miss.
        record.model_version = MODEL_VERSION + 1;
        store.save(&record).unwrap();
        assert!(store.load(&key).is_none());
        // Absent key is a miss, not an error.
        assert!(store.load("00ff00ff00ff00ff00ff00ff00ff00ff").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The campaign cache's contract, end to end: a warm re-run does zero
//! simulation work yet serializes byte-identically, extending `reps`
//! reuses the recorded prefix, and interrupted campaigns resume from
//! whatever made it to disk.

use beegfs_repro::core::ChooserKind;
use beegfs_repro::experiments::campaign::{
    cell_key, Campaign, CampaignEngine, CampaignMetrics, CellConfig, ResultStore, MODEL_VERSION,
};
use beegfs_repro::experiments::Scenario;
use beegfs_repro::ior::IorConfig;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "beegfs-repro-cache-test-{}-{tag}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn small_campaign(reps: usize) -> Campaign {
    let mut campaign = Campaign::new("cache-test", 4242);
    for stripe in [2u32, 4] {
        campaign = campaign.cell(
            format!("s{stripe}"),
            CellConfig::new(
                Scenario::S2Omnipath,
                stripe,
                ChooserKind::RoundRobin,
                IorConfig::paper_default(4),
            ),
            reps,
        );
    }
    campaign
}

#[test]
fn warm_rerun_simulates_nothing_and_serializes_byte_identically() {
    let dir = scratch_dir("warm");
    let campaign = small_campaign(3);

    let cold_engine = CampaignEngine::with_store(&dir).unwrap();
    let cold = cold_engine.run(&campaign).unwrap();
    assert_eq!(cold_engine.executed_reps(), 6, "2 cells x 3 reps simulated");
    assert_eq!(cold.stats.reps_computed, 6);
    assert_eq!(cold.stats.cells_cached, 0);
    assert!(cold.stats.sim_events > 0, "a cold run does simulation work");

    let warm_engine = CampaignEngine::with_store(&dir).unwrap();
    let warm = warm_engine.run(&campaign).unwrap();
    assert_eq!(
        warm_engine.executed_reps(),
        0,
        "a warm cache must skip the simulator entirely"
    );
    assert_eq!(warm.stats.cells_cached, 2);
    assert_eq!(warm.stats.reps_cached, 6);
    assert_eq!(warm.stats.cache_hit_rate(), 1.0, "100% hit rate when warm");
    assert_eq!(warm.stats.sim_events, 0, "zero sim events when warm");
    assert!(warm.cell_metrics.iter().all(|m| m.sim_events == 0));

    let cold_json = serde_json::to_string(&cold.cells).unwrap();
    let warm_json = serde_json::to_string(&warm.cells).unwrap();
    assert_eq!(
        cold_json, warm_json,
        "cached results must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figures_read_back_from_the_store_as_computed() -> Result<(), Box<dyn std::error::Error>> {
    // Every figure a cell describes, plus lessons: a second run on the
    // same store simulates nothing and serializes exactly as the first
    // run and an in-memory run do.
    use beegfs_repro::experiments::{
        chowdhury, fig02_datasize, future_nn, future_reads, lessons, metadata_motivation, policy,
        ExpCtx,
    };
    let ctx = ExpCtx::quick(2);
    let figures = |engine: &CampaignEngine| -> Result<Vec<String>, Box<dyn std::error::Error>> {
        let mut json = Vec::new();
        for s in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
            json.push(serde_json::to_string(&fig02_datasize::run(
                engine, &ctx, s,
            )?)?);
            json.push(serde_json::to_string(&policy::run(engine, &ctx, s)?)?);
            json.push(serde_json::to_string(&future_reads::run(engine, &ctx, s)?)?);
            json.push(serde_json::to_string(&future_nn::run(engine, &ctx, s)?)?);
        }
        json.push(serde_json::to_string(&metadata_motivation::run(
            engine, &ctx,
        )?)?);
        json.push(serde_json::to_string(&chowdhury::run(engine, &ctx)?)?);
        json.push(serde_json::to_string(&lessons::run(engine, &ctx)?)?);
        Ok(json)
    };
    let dir = scratch_dir("figures");
    let engine = CampaignEngine::with_store(&dir)?;
    let cold = figures(&engine)?;
    let simulated = engine.executed_reps();
    assert!(simulated > 0, "a cold store simulates");
    let warm = figures(&engine)?;
    assert_eq!(
        engine.executed_reps(),
        simulated,
        "a warm store simulates nothing"
    );
    assert_eq!(warm, cold, "cached figures must be byte-identical");
    assert_eq!(figures(&CampaignEngine::in_memory())?, cold);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

#[test]
fn extending_reps_reuses_the_recorded_prefix() {
    let dir = scratch_dir("extend");

    let engine = CampaignEngine::with_store(&dir).unwrap();
    engine.run(&small_campaign(2)).unwrap();
    assert_eq!(engine.executed_reps(), 4);

    // Asking for 5 reps per cell computes only the 3 missing ones each:
    // exactly the delta shows up as misses, the prefix as hits.
    let engine = CampaignEngine::with_store(&dir).unwrap();
    let extended = engine.run(&small_campaign(5)).unwrap();
    assert_eq!(engine.executed_reps(), 6, "2 cells x (5 - 2) missing reps");
    assert_eq!(extended.stats.cells_partial, 2);
    assert_eq!(extended.stats.reps_cached, 4);
    assert_eq!(extended.stats.reps_computed, 6);
    assert!(extended.stats.sim_events > 0);
    for m in &extended.cell_metrics {
        assert_eq!(m.reps_cached, 2);
        assert_eq!(m.reps_computed, 3);
        assert!(m.sim_events > 0 && m.compute_secs > 0.0);
    }

    // And the extended run equals a from-scratch 5-rep run, bit for bit.
    let fresh = CampaignEngine::in_memory().run(&small_campaign(5)).unwrap();
    assert_eq!(
        serde_json::to_string(&extended.cells).unwrap(),
        serde_json::to_string(&fresh.cells).unwrap()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_interrupted_campaign_resumes_from_the_completed_cells() {
    let dir = scratch_dir("resume");

    // "Interrupt" after the first cell by running a one-cell campaign
    // whose cell is identical to the full campaign's first cell.
    let full = small_campaign(3);
    let partial = Campaign::new("cache-test", 4242).cell(
        "s2",
        CellConfig::new(
            Scenario::S2Omnipath,
            2,
            ChooserKind::RoundRobin,
            IorConfig::paper_default(4),
        ),
        3,
    );
    let engine = CampaignEngine::with_store(&dir).unwrap();
    engine.run(&partial).unwrap();
    assert_eq!(engine.executed_reps(), 3);

    // Re-running the full campaign completes only the missing cell.
    let engine = CampaignEngine::with_store(&dir).unwrap();
    let out = engine.run(&full).unwrap();
    assert_eq!(engine.executed_reps(), 3, "only the s4 cell is simulated");
    assert_eq!(out.stats.cells_cached, 1);
    assert_eq!(out.stats.cells_computed, 1);
    assert_eq!(out.cells.len(), 2);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_metrics_are_serialized_next_to_the_cache() {
    let dir = scratch_dir("metrics");
    let campaign = small_campaign(2);

    let engine = CampaignEngine::with_store(&dir).unwrap();
    let outcome = engine.run(&campaign).unwrap();
    let path = engine.metrics_path(&campaign).unwrap();
    assert!(path.exists(), "metrics file missing at {}", path.display());

    let metrics: CampaignMetrics =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(metrics.campaign, "cache-test");
    assert_eq!(metrics.seed, 4242);
    assert_eq!(metrics.model_version, MODEL_VERSION);
    assert_eq!(metrics.stats.reps_computed, 4);
    assert_eq!(metrics.cells.len(), 2);
    assert_eq!(metrics.stats.sim_events, outcome.stats.sim_events);
    for m in &metrics.cells {
        assert_eq!(m.reps_requested, 2);
        assert_eq!(m.reps_computed, 2);
        assert!(m.reps_per_sec() > 0.0);
        assert!(!m.failed);
    }

    // A warm re-run overwrites the file with all-cached counters.
    let engine = CampaignEngine::with_store(&dir).unwrap();
    engine.run(&campaign).unwrap();
    let metrics: CampaignMetrics =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(metrics.stats.reps_cached, 4);
    assert_eq!(metrics.stats.reps_computed, 0);
    assert_eq!(metrics.stats.sim_events, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_named_campaigns_keep_their_own_metrics_files() {
    let dir = scratch_dir("same-name");
    let engine = CampaignEngine::with_store(&dir).unwrap();
    let both = small_campaign(1);
    let mut first = both.clone();
    first.cells.truncate(1);
    let mut second = both;
    second.cells.remove(0);
    engine.run(&first).unwrap();
    engine.run(&second).unwrap();

    let labels = |campaign: &Campaign| -> Vec<String> {
        let path = engine.metrics_path(campaign).unwrap();
        let metrics: CampaignMetrics =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        metrics.cells.into_iter().map(|c| c.label).collect()
    };
    assert_ne!(engine.metrics_path(&first), engine.metrics_path(&second));
    assert_eq!(labels(&first), ["s2"]);
    assert_eq!(labels(&second), ["s4"]);
    let files = std::fs::read_dir(dir.join("metrics")).unwrap().count();
    assert_eq!(files, 4, "a run-metrics file and a snapshot per campaign");

    // More reps keep the cell keys, so a rerun overwrites its own file.
    let mut more = first.clone();
    more.cells[0].reps = 2;
    assert_eq!(engine.metrics_path(&more), engine.metrics_path(&first));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_deeply_nested_record_is_recomputed() {
    let dir = scratch_dir("deep");
    let campaign = small_campaign(2);
    let cold = CampaignEngine::with_store(&dir)
        .unwrap()
        .run(&campaign)
        .unwrap();

    // 200,000 nested brackets in place of the first cell's record: a
    // cache miss, like any corrupt record, not a stack overflow.
    let store = ResultStore::open(&dir).unwrap();
    let key = cell_key("cache-test", 4242, &campaign.cells[0]);
    assert!(store.load(&key).is_some());
    std::fs::write(store.path_for(&key), "[".repeat(200_000)).unwrap();
    assert!(store.load(&key).is_none());

    let engine = CampaignEngine::with_store(&dir).unwrap();
    let warm = engine.run(&campaign).unwrap();
    assert_eq!(
        engine.executed_reps(),
        2,
        "only the corrupt cell is simulated"
    );
    assert_eq!(warm.stats.cells_cached, 1);
    assert_eq!(
        serde_json::to_string(&warm.cells).unwrap(),
        serde_json::to_string(&cold.cells).unwrap()
    );
    assert!(store.load(&key).is_some(), "the recomputed record is saved");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cell_keys_pin_the_campaign_identity() {
    let cfg = CellConfig::new(
        Scenario::S1Ethernet,
        4,
        ChooserKind::RoundRobin,
        IorConfig::paper_default(8),
    );
    let spec = Campaign::new("k", 1).cell("a", cfg.clone(), 3);
    let key = cell_key("k", 1, &spec.cells[0]);

    // Same identity, different reps: the key must not move (prefix reuse).
    let more_reps = Campaign::new("k", 1).cell("a", cfg.clone(), 100);
    assert_eq!(key, cell_key("k", 1, &more_reps.cells[0]));

    // Different seed or campaign: different key.
    assert_ne!(key, cell_key("k", 2, &spec.cells[0]));
    assert_ne!(key, cell_key("other", 1, &spec.cells[0]));

    // The key format is 32 lowercase hex chars and embeds MODEL_VERSION
    // implicitly: this test documents the constant so a bump is a
    // conscious, reviewed change (it invalidates every cache on disk).
    assert_eq!(key.len(), 32);
    assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
    assert_eq!(MODEL_VERSION, 1);
}

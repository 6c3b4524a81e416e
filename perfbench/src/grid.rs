//! `paper_grid`: every cell of Figures 4, 6 and 11, one repetition at a
//! time on this thread, then stored, read back and re-run warm.
//!
//! Each repetition is exactly the campaign engine's per-rep work for a
//! plain single-application cell — `deploy`, then `Run::execute` with one
//! reused `SimArena` and a fresh metrics registry on the stream
//! `RngFactory::new(seed).derive(name, 0).stream(label, rep)`, the
//! registry merged into the pass's afterwards — without the engine's
//! thread fan-out. Every cell's `CellRecord` is then written with
//! `ResultStore::save`, read back with `ResultStore::load`, and the five
//! campaigns re-run warm through `CampaignEngine::with_store`: a fully
//! cached run has no work to split, so it stays on this thread too. Last,
//! each cell's bandwidths are summarized as the figures do.

use crate::clock;
use crate::report::{check_pinned, hist_quantile, quantile, ratio, Fnv, Outcome};
use crate::trace::Tracer;
use crate::{
    end_to_end, host_values, scratch_dir, setup_median, timed_phase, write_trace, Args,
    DEFAULT_SEED,
};
use beegfs_core::ChooserKind;
use experiments::campaign::{
    cell_key, AppRecord, Campaign, CampaignEngine, CellRecord, CellSpec, RepRecord, ResultStore,
    MODEL_VERSION,
};
use experiments::context::{deploy, ExpCtx, Scenario};
use experiments::{fig04_nodes, fig06_stripe, fig11_nodes_stripe};
use ior::{AppSpec, Run, SimArena};
use obs::metrics::MetricsRegistry;
use simcore::rng::RngFactory;
use std::hint::black_box;
use std::path::Path;

/// Repetitions of every cell per second of `--seconds`: about one CPU
/// second of timed work per unit on a 2-core x86-64 cloud VM.
const REPS_PER_SECOND: f64 = 40.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Repetitions of every cell in each set-up warm-up pass.
const WARMUP_REPS: usize = 5;

/// Digests of the warm-up pass: reps 0..5 of every cell of the default
/// seed's campaigns, which every run makes, whatever its seed.
const PINNED: [(&str, u64); 2] = [
    ("grid.warmup.bandwidth_bits", 0x6cc3_9d67_8d4f_de4a),
    ("grid.warmup.sim_events", 0x5d5a_aeee_8606_b6ae),
];

/// The figures' campaigns: Fig. 4 and Fig. 6 in both scenarios, Fig. 11
/// in scenario 2 (the only one it has).
fn campaigns(seed: u64, reps: usize) -> Vec<Campaign> {
    let ctx = ExpCtx { seed, reps };
    vec![
        fig04_nodes::campaign(&ctx, Scenario::S1Ethernet, 8),
        fig04_nodes::campaign(&ctx, Scenario::S2Omnipath, 8),
        fig06_stripe::campaign(&ctx, Scenario::S1Ethernet, ChooserKind::RoundRobin),
        fig06_stripe::campaign(&ctx, Scenario::S2Omnipath, ChooserKind::RoundRobin),
        fig11_nodes_stripe::campaign(&ctx),
    ]
}

/// One cell with the RNG factory of its campaign.
struct Cell<'a> {
    campaign: &'a Campaign,
    spec: &'a CellSpec,
    factory: RngFactory,
}

fn cells(campaigns: &[Campaign]) -> Vec<Cell<'_>> {
    campaigns
        .iter()
        .flat_map(|c| {
            let factory = RngFactory::new(c.seed).derive(&c.name, 0);
            c.cells.iter().map(move |spec| Cell {
                campaign: c,
                spec,
                factory: factory.clone(),
            })
        })
        .collect()
}

/// One repetition of one cell, checked: the application wrote exactly
/// its requested bytes at a positive, finite bandwidth.
fn rep(
    cell: &Cell<'_>,
    rep: usize,
    arena: &mut SimArena,
    tr: &mut Tracer,
    metrics: &mut MetricsRegistry,
) -> Result<(RepRecord, u64), String> {
    let cfg = &cell.spec.config;
    let ior = cfg.ior_config();
    let fail = |e: &dyn std::fmt::Display| format!("{} rep {rep}: {e}", cell.spec.label);
    let mut rng = cell.factory.stream(&cell.spec.label, rep as u64);
    let mut fs = tr.span("core.deploy", |_| {
        deploy(cfg.scenario, cfg.stripe_count, cfg.chooser)
    });
    let (out, _) = tr
        .span("ior.execute", |_| {
            Run::new(&mut fs)
                .arena(arena)
                .metrics(metrics)
                .app(AppSpec::new(ior))
                .execute(&mut rng)
        })
        .map_err(|e| fail(&e))?;
    let app = out.try_single().map_err(|e| fail(&e))?;
    // IOR writes whole blocks: `processes × block_size` bytes.
    let requested = ior.processes() as u64 * ior.block_size();
    let mib_s = app.bandwidth.mib_per_sec();
    if app.bytes != requested || !(mib_s.is_finite() && mib_s > 0.0) {
        return Err(fail(&format!(
            "wrote {} of {requested} bytes at {mib_s} MiB/s",
            app.bytes
        )));
    }
    let record = RepRecord {
        apps: vec![AppRecord {
            mib_s,
            allocation: app.allocation.label(),
            balance: app.allocation.balance(),
        }],
        aggregate_mib_s: out.aggregate.mib_per_sec(),
        sim_secs: app.duration_s,
        slowdowns: None,
        waits: None,
    };
    Ok((record, out.sim_events))
}

/// What the repetitions of the grid produced.
struct Pass {
    /// Computed repetitions per cell, in cell order.
    reps: Vec<Vec<RepRecord>>,
    /// Seconds of each repetition on the benchmark's clock.
    op_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Digests of every repetition's bandwidth bits and event count.
    bandwidth_bits: Fnv,
    sim_events: Fnv,
    /// Bytes of every saved record.
    store_bytes: u64,
}

/// Compute repetitions `reps` of every cell, one sweep over the cells
/// per repetition index, so every sweep does the same kind of work. Each
/// repetition records into a registry of its own, merged into `metrics`
/// in order, as the campaign engine does.
fn compute(
    cells: &[Cell<'_>],
    reps: std::ops::Range<usize>,
    tr: &mut Tracer,
    metrics: &mut MetricsRegistry,
) -> Pass {
    let mut arena = SimArena::new();
    let mut pass = Pass {
        reps: cells
            .iter()
            .map(|_| Vec::with_capacity(reps.len()))
            .collect(),
        op_s: Vec::with_capacity(cells.len() * reps.len()),
        attempted: 0,
        failed: 0,
        bandwidth_bits: Fnv::new(),
        sim_events: Fnv::new(),
        store_bytes: 0,
    };
    for r in reps {
        for (i, cell) in cells.iter().enumerate() {
            let mut own = MetricsRegistry::new();
            let t0 = clock::tick();
            let result = rep(cell, r, &mut arena, tr, &mut own);
            pass.op_s.push(clock::now() - t0);
            metrics.merge(&own);
            pass.attempted += 1;
            match result {
                Ok((record, events)) => {
                    pass.bandwidth_bits.u64(record.apps[0].mib_s.to_bits());
                    pass.sim_events.u64(events);
                    pass.reps[i].push(record);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    pass.failed += 1;
                }
            }
        }
    }
    pass
}

/// Save every cell's record, load each back, and re-run the campaigns
/// warm; every read must equal what was computed, field for field. A
/// cell that fails the round trip fails all its repetitions.
fn round_trip(
    campaigns: &[Campaign],
    cells: &[Cell<'_>],
    pass: &mut Pass,
    dir: &Path,
    tr: &mut Tracer,
) {
    let store = ResultStore::open(dir).expect("open the temporary store");
    let keys: Vec<String> = cells
        .iter()
        .map(|c| cell_key(&c.campaign.name, c.campaign.seed, c.spec))
        .collect();
    let mut bad = vec![false; cells.len()];
    for (i, c) in cells.iter().enumerate() {
        clock::tick();
        let record = CellRecord {
            key: keys[i].clone(),
            model_version: MODEL_VERSION,
            campaign: c.campaign.name.clone(),
            seed: c.campaign.seed,
            label: c.spec.label.clone(),
            config: c.spec.config.clone(),
            reps: pass.reps[i].clone(),
        };
        match tr.span("store.save", |_| store.save(&record)) {
            Ok(()) => {
                pass.store_bytes +=
                    std::fs::metadata(store.path_for(&keys[i])).map_or(0, |m| m.len())
            }
            Err(e) => {
                eprintln!("perfbench: saving {}: {e}", c.spec.label);
                bad[i] = true;
            }
        }
    }
    for (i, c) in cells.iter().enumerate() {
        clock::tick();
        let back = tr.span("store.load", |_| store.load(&keys[i]));
        if back.as_ref().map(|r| &r.reps) != Some(&pass.reps[i]) {
            eprintln!("perfbench: {} did not load back as saved", c.spec.label);
            bad[i] = true;
        }
    }
    let engine = CampaignEngine::with_store(dir).expect("open the temporary store");
    let mut i = 0;
    for campaign in campaigns {
        clock::tick();
        let n = campaign.cells.len();
        match tr.span("store.warm_run", |_| engine.run(campaign)) {
            Ok(out) if out.stats.reps_computed == 0 => {
                for (j, cell) in out.cells.iter().enumerate() {
                    if cell.reps != pass.reps[i + j] {
                        eprintln!(
                            "perfbench: warm {} differs from the computed reps",
                            cell.label
                        );
                        bad[i + j] = true;
                    }
                }
            }
            Ok(out) => {
                eprintln!(
                    "perfbench: warm {} recomputed {} reps",
                    campaign.name, out.stats.reps_computed
                );
                bad[i..i + n].iter_mut().for_each(|b| *b = true);
            }
            Err(e) => {
                eprintln!("perfbench: warm {}: {e}", campaign.name);
                bad[i..i + n].iter_mut().for_each(|b| *b = true);
            }
        }
        i += n;
    }
    pass.failed += cells
        .iter()
        .zip(&bad)
        .filter(|(_, &b)| b)
        .map(|(c, _)| c.spec.reps as u64)
        .sum::<u64>();
}

/// The timed work: compute every repetition, round-trip the store, and
/// summarize every cell's bandwidths.
fn timed(
    campaigns: &[Campaign],
    cells: &[Cell<'_>],
    dir: &Path,
    tr: &mut Tracer,
    metrics: &mut MetricsRegistry,
) -> Pass {
    let reps = campaigns[0].cells[0].reps;
    let mut pass = compute(cells, 0..reps, tr, metrics);
    round_trip(campaigns, cells, &mut pass, dir, tr);
    clock::tick();
    for done in &pass.reps {
        let bandwidths: Vec<f64> = done.iter().map(|r| r.apps[0].mib_s).collect();
        black_box(tr.span("stats.summarize", |_| {
            iostats::Summary::from_sample(&bandwidths)
        }));
    }
    pass
}

/// Run the workload: set-up, the untraced timed phase, and with `--trace
/// 1` a traced repeat of the timed phase.
pub fn run(args: &Args) -> Outcome {
    let reps = ((args.seconds * REPS_PER_SECOND).round() as usize).max(1);
    let campaigns = campaigns(args.seed, reps);
    let cells = cells(&campaigns);

    // Set-up: the temporary store, every cell's deployment, and a
    // warm-up pass over the first reps of every cell of the default
    // seed, so set-up does the same work whatever the seed.
    let warm_campaigns = self::campaigns(DEFAULT_SEED, WARMUP_REPS);
    let warm_cells = self::cells(&warm_campaigns);
    let mut warmups = Vec::new();
    let (setup_s, dir) = setup_median(SETUP_REPS, || {
        let dir = scratch_dir("grid-store");
        ResultStore::open(&dir).expect("create the temporary store");
        for c in &cells {
            let cfg = &c.spec.config;
            black_box(deploy(cfg.scenario, cfg.stripe_count, cfg.chooser));
        }
        let warm = compute(
            &warm_cells,
            0..WARMUP_REPS,
            &mut Tracer::new(false),
            &mut MetricsRegistry::new(),
        );
        warmups.push((
            warm.bandwidth_bits.finish(),
            warm.sim_events.finish(),
            warm.failed,
        ));
        dir
    });
    let (bw0, ev0, _) = warmups[0];
    let mut failed: u64 = warmups.iter().map(|w| w.2).sum();
    if warmups.iter().any(|w| (w.0, w.1) != (bw0, ev0)) {
        eprintln!("perfbench: warm-up passes differ");
        failed += 1;
    }
    let mut digests = vec![
        ("grid.warmup.bandwidth_bits", bw0),
        ("grid.warmup.sim_events", ev0),
    ];
    failed += check_pinned(&digests, &PINNED);

    let (pass, phase) = timed_phase(|| {
        timed(
            &campaigns,
            &cells,
            &dir,
            &mut Tracer::new(false),
            &mut MetricsRegistry::new(),
        )
    });
    failed += pass.failed;
    digests.push(("grid.bandwidth_bits", pass.bandwidth_bits.finish()));
    digests.push(("grid.sim_events", pass.sim_events.finish()));

    let values = if !args.trace {
        end_to_end(&phase, setup_s, pass.attempted, &pass.op_s)
    } else {
        // The tracing cost compares against a second untraced pass, so
        // both sides run on an equally warm heap.
        let traced_dir = scratch_dir("grid-store-traced");
        let t0 = clock::tick();
        timed(
            &campaigns,
            &cells,
            &traced_dir,
            &mut Tracer::new(false),
            &mut MetricsRegistry::new(),
        );
        let untraced_s = clock::now() - t0;
        let mut tr = Tracer::new(true);
        let mut reg = MetricsRegistry::new();
        let t0 = clock::tick();
        let traced = timed(&campaigns, &cells, &traced_dir, &mut tr, &mut reg);
        let traced_s = clock::now() - t0;
        let _ = std::fs::remove_dir_all(&traced_dir);
        failed += traced.failed;
        if traced.bandwidth_bits.finish() != pass.bandwidth_bits.finish() {
            eprintln!("perfbench: the traced pass computed different bandwidths");
            failed += 1;
        }
        write_trace(args, &tr);
        let ops = traced.attempted as f64;
        let exec = tr.durations("ior.execute");
        let events = reg.counter("sim.events_processed") as f64;
        let solves = reg.counter("sim.solves") as f64;
        let skips = reg.counter("sim.solve_skips") as f64;
        let chunks = reg
            .histogram("ior.target_chunks")
            .map_or(0.0, |h| h.estimated_sum());
        let mut v = vec![
            ("core.deploy_ms", tr.mean_ms("core.deploy")),
            ("ior.execute_ms_p50", 1e3 * quantile(&exec, 0.5)),
            ("ior.execute_ms_p99", 1e3 * quantile(&exec, 0.99)),
            (
                "ior.chunks_per_op",
                ratio(chunks, reg.counter("ior.runs") as f64),
            ),
            ("simcore.events_per_op", events / ops),
            (
                "simcore.cpu_us_per_event",
                ratio(1e6 * exec.iter().sum::<f64>(), events),
            ),
            ("simcore.solves_per_op", solves / ops),
            (
                "simcore.flows_solved_per_solve",
                ratio(reg.counter("sim.flows_solved") as f64, solves),
            ),
            ("simcore.solve_skip_ratio", ratio(skips, skips + solves)),
            (
                "simcore.heap_pops_per_op",
                reg.counter("sim.event_heap.pops") as f64 / ops,
            ),
            (
                "simcore.dirty_component_size_p99",
                hist_quantile(&reg, "sim.dirty_component_size", 0.99),
            ),
            ("store.save_ms_per_cell", tr.mean_ms("store.save")),
            ("store.load_ms_per_cell", tr.mean_ms("store.load")),
            (
                "store.bytes_per_cell",
                traced.store_bytes as f64 / cells.len() as f64,
            ),
            ("store.warm_run_s", tr.total_s("store.warm_run")),
            ("stats.summarize_ms", tr.mean_ms("stats.summarize")),
        ];
        v.extend(host_values(&phase, pass.attempted, traced_s / untraced_s));
        v
    };
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        attempted: pass.attempted,
        failed,
        values,
        digests,
    }
}

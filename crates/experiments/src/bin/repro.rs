//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--reps N] [--seed S] [--json DIR] [--plot] [--cache DIR|--no-cache]
//!       [--trace OUT.json] [--metrics OUT.json] [--online] [--arrivals N]
//!       [fig2|fig4|fig5|fig6|fig8|fig9|fig10|fig11|fig12|fig13|chowdhury|
//!        policy|reads|nn|tune|sched|scale|straggler|adaptive|interference|
//!        lessons|all]
//! ```
//!
//! Without a subcommand, `all` is run. `--json DIR` additionally dumps
//! each experiment's raw data as JSON. `--trace OUT.json` instead runs a
//! single traced scenario-1 workload with a mid-run target outage and
//! writes its event timeline as a Chrome trace (load it in
//! `ui.perfetto.dev`); the trace is deterministic in `--seed`.
//! `--metrics OUT.json` runs the same workload with a metrics registry
//! attached, writes the registry's byte-stable JSON snapshot to the file
//! and prints the Prometheus text exposition to stdout; both are pure
//! functions of `--seed`.
//!
//! `--online` switches the `sched` comparison to the continuous online
//! admission engine (the default is the frozen-oracle reference); the
//! output labels which mode priced the table. `scale` is the online
//! engine's headline demo: it serves `--arrivals N` (default one
//! million) Poisson arrivals per policy straight through the scheduler,
//! uncached, and reports slowdown tails and admission throughput.
//!
//! Figures 4, 5, 6/8/10 and 11 run on the campaign engine: their cells
//! persist to a content-addressed cache (default `results/cache`, see
//! `--cache`), so a re-run with the same seed simulates nothing and an
//! interrupted run resumes where it stopped. `--no-cache` forces fresh
//! in-memory simulation.

use experiments::campaign::CampaignEngine;
use experiments::context::{ExpCtx, Scenario};
use experiments::report::{mean_sd, mibs, render_table};
use experiments::*;
use std::path::PathBuf;

struct Args {
    ctx: ExpCtx,
    json_dir: Option<PathBuf>,
    plot: bool,
    engine: CampaignEngine,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    online: bool,
    arrivals: usize,
    which: Vec<String>,
}

const USAGE: &str = "usage: repro [--reps N] [--seed S] [--json DIR] [--plot] [--cache DIR|--no-cache] [--trace OUT.json] [--metrics OUT.json] [--online] [--arrivals N] [fig2|fig4|fig5|fig6|fig8|fig9|fig10|fig11|fig12|fig13|chowdhury|policy|reads|nn|tune|metadata|sensitivity|sched|scale|straggler|adaptive|interference|lessons|all]";

/// Parse the command line, or say what is wrong with it.
fn parse_args() -> Result<Args, String> {
    let mut ctx = ExpCtx::default();
    let mut json_dir = None;
    let mut plot = false;
    let mut cache_dir = Some(PathBuf::from("results/cache"));
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut online = false;
    let mut arrivals = 1_000_000usize;
    let mut which = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--reps" => ctx.reps = positive(&a, &value("a positive integer")?)?,
            "--seed" => {
                let v = value("a non-negative integer")?;
                ctx.seed = v
                    .parse()
                    .map_err(|_| format!("{a} needs a non-negative integer, not '{v}'"))?;
            }
            "--json" => json_dir = Some(PathBuf::from(value("a directory")?)),
            "--plot" => plot = true,
            "--cache" => cache_dir = Some(PathBuf::from(value("a directory")?)),
            "--no-cache" => cache_dir = None,
            "--trace" => trace_out = Some(PathBuf::from(value("an output file")?)),
            "--metrics" => metrics_out = Some(PathBuf::from(value("an output file")?)),
            "--online" => online = true,
            "--arrivals" => arrivals = positive(&a, &value("a positive integer")?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let engine = match cache_dir {
        Some(dir) => CampaignEngine::with_store(&dir)
            .map_err(|e| format!("cannot open result cache {}: {e}", dir.display()))?,
        None => CampaignEngine::in_memory(),
    }
    .verbose(true);
    Ok(Args {
        ctx,
        json_dir,
        plot,
        engine,
        trace_out,
        metrics_out,
        online,
        arrivals,
        which,
    })
}

/// `flag`'s value as a count of at least one.
fn positive(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, not '{v}'")),
    }
}

/// `--trace OUT.json`: run the paper's scenario-1 stripe-4 workload with
/// a pinned balanced allocation, a mid-run target outage and the default
/// retry policy, recording every event into a [`obs::Timeline`], then
/// export it as a Chrome trace for `ui.perfetto.dev`.
fn trace_cmd(args: &Args, out: &std::path::Path) {
    use beegfs_core::FaultPlan;
    use cluster::TargetId;
    use ior::{AppSpec, IorConfig, RetryPolicy, Run};
    use simcore::rng::RngFactory;

    let mut fs = experiments::context::deploy(
        Scenario::S1Ethernet,
        4,
        beegfs_core::ChooserKind::RoundRobin,
    );
    // One target goes dark at t=2s and returns at t=9s: long enough past
    // the 3s heartbeat that clients observe the stall and retry.
    let plan = FaultPlan::new()
        .target_offline(2.0, TargetId(1))
        .expect("valid fault time")
        .target_recovers(9.0, TargetId(1))
        .expect("valid recovery time");
    let mut rng = RngFactory::new(args.ctx.seed).stream("trace", 0);
    let mut timeline = obs::Timeline::new();
    let (outcome, report) = Run::new(&mut fs)
        .app(AppSpec::pinned(
            IorConfig::paper_default(8),
            vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
        ))
        .faults(plan)
        .policy(RetryPolicy::default())
        .trace(&mut timeline)
        .execute(&mut rng)
        .expect("trace run");
    std::fs::write(out, timeline.to_chrome_trace()).expect("write trace file");
    let app = outcome.try_single().expect("single app");
    println!(
        "traced run: {:.0} MiB/s over {:.1} sim-s; {} sim events, {} trace events",
        app.bandwidth.mib_per_sec(),
        app.duration_s,
        outcome.sim_events,
        timeline.len()
    );
    let busiest = report.try_busiest().expect("non-empty report");
    println!(
        "bottleneck: {} ({:.0}% utilized); {} resources idle",
        busiest.label,
        busiest.utilization(report.io_secs) * 100.0,
        report.idle().len()
    );
    println!(
        "trace written to {} — open it at https://ui.perfetto.dev",
        out.display()
    );
}

/// `--metrics OUT.json`: run the same pinned scenario-1 fault/retry
/// workload as `--trace`, but with a [`obs::metrics::MetricsRegistry`]
/// attached. The registry's byte-stable JSON snapshot goes to `out`
/// (two runs with the same seed write identical bytes — the golden
/// tests pin this) and the Prometheus text exposition goes to stdout.
fn metrics_cmd(args: &Args, out: &std::path::Path) {
    use beegfs_core::FaultPlan;
    use cluster::TargetId;
    use ior::{AppSpec, IorConfig, RetryPolicy, Run};
    use simcore::rng::RngFactory;

    let mut fs = experiments::context::deploy(
        Scenario::S1Ethernet,
        4,
        beegfs_core::ChooserKind::RoundRobin,
    );
    let plan = FaultPlan::new()
        .target_offline(2.0, TargetId(1))
        .expect("valid fault time")
        .target_recovers(9.0, TargetId(1))
        .expect("valid recovery time");
    let mut rng = RngFactory::new(args.ctx.seed).stream("trace", 0);
    let mut registry = obs::metrics::MetricsRegistry::new();
    let (outcome, _) = Run::new(&mut fs)
        .app(AppSpec::pinned(
            IorConfig::paper_default(8),
            vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)],
        ))
        .faults(plan)
        .policy(RetryPolicy::default())
        .metrics(&mut registry)
        .execute(&mut rng)
        .expect("metrics run");
    std::fs::write(out, registry.to_json()).expect("write metrics file");
    print!("{}", registry.to_prometheus());
    eprintln!(
        "metrics run: {} sim events, {} metrics; snapshot written to {}",
        outcome.sim_events,
        registry.len(),
        out.display()
    );
}

fn dump_json<T: serde::Serialize>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        let data = serde_json::to_string_pretty(value).expect("serialize");
        std::fs::write(&path, data).expect("write json");
        eprintln!("  [json] {}", path.display());
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

fn fig2(args: &Args) {
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig = fig02_datasize::run(&args.ctx, scenario);
        section(&format!(
            "Figure 2{} — data size vs bandwidth, {}",
            if scenario == Scenario::S1Ethernet {
                "a"
            } else {
                "b"
            },
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = fig
            .points
            .iter()
            .map(|p| {
                let s = p.summary();
                vec![
                    format!("{}", p.gib),
                    mean_sd(s.mean, s.sd),
                    mibs(s.min),
                    mibs(s.max),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["size (GiB)", "mean±sd (MiB/s)", "min", "max"], &rows)
        );
        println!(
            "bandwidth stabilizes from {} GiB (paper: 16-32 GiB)",
            fig.stabilization_gib(0.05)
        );
        dump_json(&args.json_dir, &format!("fig02_{scenario:?}"), &fig);
    }
}

fn fig4(args: &Args) {
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig =
            fig04_nodes::run_on(&args.engine, &args.ctx, scenario).expect("figure 4 campaign");
        section(&format!(
            "Figure 4{} — nodes vs bandwidth (8 ppn, stripe 4), {}",
            if scenario == Scenario::S1Ethernet {
                "a"
            } else {
                "b"
            },
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = fig
            .points
            .iter()
            .map(|p| {
                let s = p.summary();
                vec![
                    p.nodes.to_string(),
                    mean_sd(s.mean, s.sd),
                    mibs(s.min),
                    mibs(s.max),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["nodes", "mean±sd (MiB/s)", "min", "max"], &rows)
        );
        println!(
            "plateau at {} nodes; gain to plateau +{:.0}%",
            fig.plateau_nodes(0.05),
            fig.gain_to_plateau() * 100.0
        );
        if args.plot {
            let series = plot::Series {
                label: "mean bandwidth (MiB/s) vs nodes".to_string(),
                points: fig
                    .points
                    .iter()
                    .map(|p| (p.nodes as f64, p.summary().mean))
                    .collect(),
                glyph: '*',
            };
            println!("{}", plot::render(&[series], 64, 14));
        }
        dump_json(&args.json_dir, &format!("fig04_{scenario:?}"), &fig);
    }
}

fn fig5(args: &Args) {
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig = fig05_ppn::run_on(&args.engine, &args.ctx, scenario).expect("figure 5 campaign");
        section(&format!(
            "Figure 5{} — 8 vs 16 ppn, {}",
            if scenario == Scenario::S1Ethernet {
                "a"
            } else {
                "b"
            },
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = fig
            .ppn8
            .points
            .iter()
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    mibs(p.summary().mean),
                    mibs(fig.ppn16.mean_at(p.nodes)),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["nodes", "8 ppn (MiB/s)", "16 ppn (MiB/s)"], &rows)
        );
        println!(
            "max relative difference {:.1}%; mean signed difference {:+.1}% (paper: 'very similar, slight degradation in scenario 2')",
            fig.max_relative_difference() * 100.0,
            fig.mean_signed_difference() * 100.0
        );
        dump_json(&args.json_dir, &format!("fig05_{scenario:?}"), &fig);
    }
}

fn fig6(args: &Args, also_alloc: bool) {
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig =
            fig06_stripe::run_on(&args.engine, &args.ctx, scenario).expect("figure 6 campaign");
        section(&format!(
            "Figure 6{} — stripe count vs bandwidth ({} nodes), {}",
            if scenario == Scenario::S1Ethernet {
                "a"
            } else {
                "b"
            },
            fig.nodes,
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = fig
            .points
            .iter()
            .map(|p| {
                let s = p.summary();
                vec![
                    p.stripe_count.to_string(),
                    mean_sd(s.mean, s.sd),
                    mibs(s.min),
                    mibs(s.max),
                    p.allocation_labels().join(" "),
                    format!("{:.2}", s.bimodality_coefficient()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "stripe",
                    "mean±sd (MiB/s)",
                    "min",
                    "max",
                    "allocations",
                    "bimodality"
                ],
                &rows
            )
        );
        if args.plot {
            let mut series = vec![plot::Series {
                label: "mean bandwidth (MiB/s) vs stripe count".to_string(),
                points: fig
                    .points
                    .iter()
                    .map(|p| (f64::from(p.stripe_count), p.summary().mean))
                    .collect(),
                glyph: '*',
            }];
            series.push(plot::Series {
                label: "individual repetitions".to_string(),
                points: fig
                    .points
                    .iter()
                    .flat_map(|p| {
                        p.samples
                            .iter()
                            .map(move |s| (f64::from(p.stripe_count), s.mib_s))
                    })
                    .collect(),
                glyph: '.',
            });
            series.swap(0, 1); // draw means on top of the dots
            println!("{}", plot::render(&series, 64, 16));
        }
        dump_json(&args.json_dir, &format!("fig06_{scenario:?}"), &fig);

        if also_alloc {
            let fig_n = if scenario == Scenario::S1Ethernet {
                8
            } else {
                10
            };
            section(&format!(
                "Figure {fig_n} — box plots by (min,max) allocation, {}",
                scenario.label()
            ));
            let rows: Vec<Vec<String>> = fig
                .by_allocation()
                .into_iter()
                .map(|(label, bp, values)| {
                    vec![
                        label,
                        values.len().to_string(),
                        mibs(bp.whisker_lo),
                        mibs(bp.q1),
                        mibs(bp.median),
                        mibs(bp.q3),
                        mibs(bp.whisker_hi),
                        bp.outliers.len().to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    &["alloc", "n", "lo", "q1", "median", "q3", "hi", "outliers"],
                    &rows
                )
            );
        }
    }
}

fn fig9(args: &Args) {
    let fig = fig09_drain::run();
    section("Figure 9 — drain timelines: (0,2) vs (1,1) writing 32 GiB over two targets");
    for tl in [&fig.unbalanced, &fig.balanced] {
        println!(
            "allocation {} — makespan {:.1}s; per-link throughput over time:",
            tl.allocation, tl.makespan_s
        );
        for (t, loads) in &tl.samples {
            println!(
                "  t={t:>7.2}s  link0 {:>6.0} MiB/s  link1 {:>6.0} MiB/s",
                loads[0], loads[1]
            );
        }
        println!();
    }
    println!(
        "(1,1) finishes in {:.2}x the (0,2) time (paper sketch: exactly 1/2)",
        fig.balanced.makespan_s / fig.unbalanced.makespan_s
    );
    dump_json(&args.json_dir, "fig09", &fig);
}

fn fig11(args: &Args) {
    let fig = fig11_nodes_stripe::run_on(&args.engine, &args.ctx).expect("figure 11 campaign");
    section("Figure 11 — mean bandwidth vs nodes per stripe count, scenario 2");
    let mut header = vec!["nodes".to_string()];
    header.extend(fig.stripe_counts.iter().map(|s| format!("{s} OST(s)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = fig
        .node_counts
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            row.extend(fig.stripe_counts.iter().map(|&s| mibs(fig.mean(s, n))));
            row
        })
        .collect();
    println!("{}", render_table(&header_refs, &rows));
    for &s in &fig.stripe_counts {
        println!(
            "stripe {s}: plateau at {} nodes",
            fig.plateau_nodes(s, 0.08)
        );
    }
    dump_json(&args.json_dir, "fig11", &fig);
}

fn fig12(args: &Args) {
    let fig = fig12_concurrent::run(&args.ctx);
    section("Figure 12 — concurrent applications, scenario 2 (8 nodes/app)");
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            vec![
                c.n_apps.to_string(),
                c.stripe_count.to_string(),
                c.individual_mean
                    .iter()
                    .map(|v| mibs(*v))
                    .collect::<Vec<_>>()
                    .join(" "),
                mibs(c.aggregate_mean),
                mibs(c.solo_mean),
                format!("{} (s={})", mibs(c.scaled_mean), c.scaled_stripe),
                format!("{:.0}%", c.disjoint_fraction * 100.0),
                format!("{:+.1}%", c.aggregate_degradation() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "apps",
                "stripe",
                "individual means",
                "aggregate",
                "solo",
                "scaled baseline",
                "disjoint runs",
                "agg. degradation"
            ],
            &rows
        )
    );
    dump_json(&args.json_dir, "fig12", &fig);
}

fn fig13(args: &Args) {
    let fig = fig13_sharing::run(&args.ctx);
    section("Figure 13 — two stripe-4 apps: all-same vs all-different targets");
    let same = iostats::Summary::from_sample(&fig.shared_same);
    let diff = iostats::Summary::from_sample(&fig.all_different);
    let rows = vec![
        vec![
            "all same".to_string(),
            same.n.to_string(),
            mean_sd(same.mean, same.sd),
            format!("{:.3}", fig.ks_same.p),
        ],
        vec![
            "all different".to_string(),
            diff.n.to_string(),
            mean_sd(diff.mean, diff.sd),
            format!("{:.3}", fig.ks_different.p),
        ],
    ];
    println!(
        "{}",
        render_table(&["group", "n", "mean±sd (MiB/s)", "KS normality p"], &rows)
    );
    println!(
        "Welch t-test: t = {:.3}, df = {:.1}, p = {:.4} (paper: p = 0.9031 — no significant difference)",
        fig.welch.t, fig.welch.df, fig.welch.p_two_sided
    );
    dump_json(&args.json_dir, "fig13", &fig);
}

fn chowdhury_cmd(args: &Args) {
    let c = chowdhury::run(&args.ctx);
    section("Chowdhury contrast — Catalyst-like 12x2 system");
    let rows: Vec<Vec<String>> = chowdhury::STRIPES
        .iter()
        .map(|&s| {
            vec![
                s.to_string(),
                mibs(c.single_node.mean(s)),
                mibs(c.many_nodes.mean(s)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "stripe",
                "1 node x 16 ppn (MiB/s)",
                "32 nodes x 8 ppn (MiB/s)"
            ],
            &rows
        )
    );
    println!(
        "single-node spread {:.0}% (flat -> 'limited benefit'); many-node spread {:.0}%",
        c.single_node.relative_spread() * 100.0,
        c.many_nodes.relative_spread() * 100.0
    );
    dump_json(&args.json_dir, "chowdhury", &c);
}

fn policy_cmd(args: &Args) {
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let p = policy::run(&args.ctx, scenario);
        section(&format!("Policy ablation — {}", scenario.label()));
        let mut rows = Vec::new();
        for stripe in 1..=8u32 {
            let mut row = vec![stripe.to_string()];
            for chooser in policy::CHOOSERS {
                let s = p.cell(chooser, stripe).summary();
                row.push(mean_sd(s.mean, s.sd));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(&["stripe", "RoundRobin", "Random", "Balanced"], &rows)
        );
        dump_json(&args.json_dir, &format!("policy_{scenario:?}"), &p);
    }
}

fn reads_cmd(args: &Args) {
    use storage::AccessMode;
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig = future_reads::run(&args.ctx, scenario);
        section(&format!(
            "Future work: read-path projection — {}",
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = (1..=8u32)
            .map(|s| {
                let w = fig.cell(AccessMode::Write, s).summary();
                let r = fig.cell(AccessMode::Read, s).summary();
                vec![
                    s.to_string(),
                    mean_sd(w.mean, w.sd),
                    mean_sd(r.mean, r.sd),
                    fig.cell(AccessMode::Read, s).allocations.join(" "),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["stripe", "write (MiB/s)", "read (MiB/s)", "allocations"],
                &rows
            )
        );
        println!(
            "read/write series correlation: {:.3} (paper conjecture: 'we expect the observed behaviors to be the same')",
            fig.mode_correlation()
        );
        dump_json(&args.json_dir, &format!("future_reads_{scenario:?}"), &fig);
    }
}

fn nn_cmd(args: &Args) {
    use ior::FileLayout;
    for scenario in [Scenario::S1Ethernet, Scenario::S2Omnipath] {
        let fig = future_nn::run(&args.ctx, scenario);
        section(&format!(
            "Future work: N-1 vs N-N layout — {}",
            scenario.label()
        ));
        let rows: Vec<Vec<String>> = future_nn::STRIPES
            .iter()
            .map(|&s| {
                let n1 = fig.cell(FileLayout::SharedFile, s).summary();
                let nn = fig.cell(FileLayout::FilePerProcess, s).summary();
                vec![
                    s.to_string(),
                    mean_sd(n1.mean, n1.sd),
                    mean_sd(nn.mean, nn.sd),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "stripe",
                    "N-1 shared file (MiB/s)",
                    "N-N file/process (MiB/s)"
                ],
                &rows
            )
        );
        dump_json(&args.json_dir, &format!("future_nn_{scenario:?}"), &fig);
    }
}

fn tune_cmd(args: &Args) {
    use beegfs_core::tuning::recommend;
    use cluster::presets;
    for platform in [
        presets::plafrim_ethernet(),
        presets::plafrim_omnipath(),
        presets::catalyst_like(),
    ] {
        let rec = recommend(&platform, 16, 8);
        section(&format!("Auto-tuner — {}", platform.name));
        let rows: Vec<Vec<String>> = rec
            .evaluations
            .iter()
            .map(|e| {
                vec![
                    e.stripe_count.to_string(),
                    mibs(e.worst_case.mib_per_sec()),
                    mibs(e.best_case.mib_per_sec()),
                    format!("{:.0}%", e.allocation_risk() * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "stripe",
                    "worst case (MiB/s)",
                    "best case",
                    "allocation risk"
                ],
                &rows
            )
        );
        println!(
            "recommended default: stripe count {} (paper: use all targets)",
            rec.stripe_count
        );
        dump_json(
            &args.json_dir,
            &format!("tuning_{}", platform.name.replace([' ', '/'], "_")),
            &rec,
        );
    }
}

fn metadata_cmd(args: &Args) {
    let fig = metadata_motivation::run(&args.ctx);
    section("Methodology: why the paper benchmarks N-1 (metadata overhead)");
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            let s = iostats::Summary::from_sample(&c.shared);
            let n = iostats::Summary::from_sample(&c.per_process);
            vec![
                format!("{}", c.per_process_bytes / (1 << 20)),
                mean_sd(s.mean, s.sd),
                mean_sd(n.mean, n.sd),
                format!("{:+.1}%", -c.nn_penalty() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["MiB/process", "N-1 (MiB/s)", "N-N (MiB/s)", "N-N vs N-1"],
            &rows
        )
    );
    dump_json(&args.json_dir, "metadata_motivation", &fig);
}

fn sensitivity_cmd(args: &Args) {
    use experiments::sensitivity::Knob;
    let s = sensitivity::run(&args.ctx);
    section("Calibration sensitivity — which knob owns which anchor");
    println!(
        "baseline anchors: S1 peak {:.0} | S2 stripe-4@16 {:.0} | S2 stripe-8@32 {:.0} MiB/s\n",
        s.baseline.s1_peak, s.baseline.s2_stripe4, s.baseline.s2_stripe8
    );
    let rows: Vec<Vec<String>> = [
        Knob::NodeWindow,
        Knob::QHalf,
        Knob::BackendCap,
        Knob::ServerLink,
    ]
    .iter()
    .flat_map(|&knob| {
        let s = &s;
        [0.5, 2.0]
            .iter()
            .map(move |&factor| {
                let (a1, a2, a3) = s.relative_change(knob, factor);
                vec![
                    format!("{knob:?}"),
                    format!("x{factor}"),
                    format!("{:+.1}%", a1 * 100.0),
                    format!("{:+.1}%", a2 * 100.0),
                    format!("{:+.1}%", a3 * 100.0),
                ]
            })
            .collect::<Vec<_>>()
    })
    .collect();
    println!(
        "{}",
        render_table(
            &["knob", "factor", "S1 peak", "S2 s4@16", "S2 s8@32"],
            &rows
        )
    );
    dump_json(&args.json_dir, "sensitivity", &s);
}

fn lessons_cmd(args: &Args) {
    let l = lessons::run(&args.ctx);
    section("Lessons — paper claims vs measured");
    let rows: Vec<Vec<String>> = l
        .claims
        .iter()
        .map(|c| {
            vec![
                c.id.clone(),
                c.paper.clone(),
                c.measured.clone(),
                if c.holds { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["id", "paper", "measured", "holds"], &rows)
    );
    dump_json(&args.json_dir, "lessons", &l);
    if !l.all_hold() {
        eprintln!("WARNING: some claims did not hold");
        std::process::exit(1);
    }
}

/// `straggler` — hedged vs. plain placement under an injected slow
/// target: per-cell slowdown tail quantiles (p50/p95/p99), IQR and a
/// modality check, the columns a mean would hide the straggler behind.
fn straggler_cmd(args: &Args) {
    let fig = fig_straggler::run_on(&args.engine, &args.ctx).expect("straggler campaign failed");
    section(&format!(
        "Stragglers — {} Poisson arrivals at {}/s, {} nodes x 4 GiB, stripe {}, scenario 2; \
         target {} at {:.0}% speed from t={:.1}s",
        fig_straggler::COUNT,
        fig_straggler::RATE_PER_S,
        fig_straggler::NODES,
        fig_straggler::STRIPE,
        fig_straggler::STRAGGLER_TARGET,
        fig_straggler::STRAGGLER_FACTOR * 100.0,
        fig_straggler::STRAGGLER_ONSET_S,
    ));
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                format!("{:.3}", c.mean_slowdown()),
                format!("{:.3}", c.tail.p50),
                format!("{:.3}", c.tail.p95),
                format!("{:.3}", c.tail.p99),
                format!("{:.3}", c.tail.iqr),
                if c.tail.is_multimodal {
                    format!("multimodal ({:.2})", c.tail.bimodality)
                } else {
                    format!("unimodal ({:.2})", c.tail.bimodality)
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["cell", "mean", "p50", "p95", "p99", "IQR", "modality"],
            &rows
        )
    );
    let plain = fig.cell("plain-straggler");
    let hedged = fig.cell("hedged-straggler");
    println!(
        "hedging cuts the straggler p99 from {:.3} to {:.3} ({:.0}% of plain)",
        plain.tail.p99,
        hedged.tail.p99,
        100.0 * hedged.tail.p99 / plain.tail.p99
    );
    dump_json(&args.json_dir, "fig_straggler", &fig);
}

/// `adaptive` — mid-flight adaptive restriping vs. a fixed balanced
/// policy, both scenario-blind, in both scenarios: does feedback alone
/// discover the paper's per-scenario allocation recommendation?
fn adaptive_cmd(args: &Args) {
    let fig = fig_adaptive::run_on(&args.engine, &args.ctx).expect("adaptive campaign failed");
    section(&format!(
        "Adaptive restriping — {} Poisson arrivals at {}/s, {} nodes x {} GiB, \
         requested stripe {}, online engine, both scenarios",
        fig_adaptive::COUNT,
        fig_adaptive::RATE_PER_S,
        fig_adaptive::NODES,
        fig_adaptive::BYTES / simcore::units::GIB,
        fig_adaptive::STRIPE,
    ));
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            let (modal, share) = c.modal_allocation();
            let histogram = c
                .allocations
                .iter()
                .map(|(l, n)| format!("{l}x{n}"))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                c.label.clone(),
                format!("{modal} ({:.0}%)", share * 100.0),
                histogram,
                format!("{:.3}", c.mean_balance),
                format!("{:.3}", c.mean_slowdown()),
                mibs(c.aggregates.iter().sum::<f64>() / c.aggregates.len() as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "cell",
                "final allocation",
                "histogram",
                "balance",
                "mean slowdown",
                "aggregate (MiB/s)"
            ],
            &rows
        )
    );
    let s2a = fig.cell("s2-adaptive");
    let s2f = fig.cell("s2-fixed");
    let s1a = fig.cell("s1-adaptive");
    println!(
        "scenario-blind feedback converged to {} in scenario 2 (slowdown {:.3} vs fixed {:.3}) \
         and kept the balanced {} in scenario 1",
        s2a.modal_allocation().0,
        s2a.mean_slowdown(),
        s2f.mean_slowdown(),
        s1a.modal_allocation().0,
    );
    dump_json(&args.json_dir, "fig_adaptive", &fig);
}

/// `interference` — 50 concurrent applications on a 100 x 10 FleetSpec
/// fleet behind a non-blocking switch, under three placements (packed
/// into one rack, rack-disjoint, stock random chooser): lesson 7 at
/// datacenter scale, where interference is purely a placement property.
fn interference_cmd(args: &Args) {
    let fig =
        fig_interference::run_on(&args.engine, &args.ctx).expect("interference campaign failed");
    section(&format!(
        "Interference at fleet scale — {} apps x {} nodes x 4 GiB, stripe {}, \
         {} servers x {} targets, non-blocking switch",
        fig_interference::APPS,
        fig_interference::NODES_PER_APP,
        fig_interference::STRIPE,
        fig_interference::SERVERS,
        fig_interference::TARGETS_PER_SERVER,
    ));
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                mibs(c.mean_per_app()),
                mibs(c.mean_aggregate()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["placement", "per-app (MiB/s)", "aggregate (MiB/s)"],
            &rows
        )
    );
    let packed = fig.cell("packed").mean_aggregate();
    let spread = fig.cell("spread").mean_aggregate();
    println!(
        "rack-disjoint placement delivers {:.1}x the packed aggregate",
        spread / packed
    );
    dump_json(&args.json_dir, "fig_interference", &fig);
}

/// `sched` — serve the same Poisson arrival stream through the online
/// scheduler under every placement policy and compare per-application
/// slowdown (mean and p99, pooled over reps) and Equation-1 aggregate
/// bandwidth. A slowdown of 1.0 means the application ran as if alone
/// on an idle system; the ratio counts queueing wait and contention.
fn sched_cmd(args: &Args) {
    use sched::AdmissionMode;
    let mode = if args.online {
        AdmissionMode::Online
    } else {
        AdmissionMode::FrozenOracle
    };
    let (fig, outcome, registry) =
        fig_sched::run_detailed(&args.engine, &args.ctx, mode).expect("sched campaign failed");
    section(&format!(
        "Online scheduling ({} admission) — {} Poisson arrivals at {}/s, \
         {} nodes x 4 GiB, stripe {}, scenario 1",
        mode.label(),
        fig_sched::COUNT,
        fig_sched::RATE_PER_S,
        fig_sched::NODES,
        fig_sched::STRIPE
    ));
    let rows: Vec<Vec<String>> = fig
        .policies
        .iter()
        .zip(&outcome.cell_metrics)
        .map(|(p, cm)| {
            vec![
                p.policy.label().to_string(),
                format!("{:.3}", p.mean_slowdown()),
                format!("{:.3}", p.slowdown_quantile(0.99)),
                // Wait tails pool the stored reps' queue waits; records
                // stored before waits were recorded digest to nothing.
                match &cm.wait_tail {
                    Some(w) => format!("{:.2}", w.p99),
                    None => "-".to_string(),
                },
                mibs(p.mean_aggregate()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "mean slowdown",
                "p99 slowdown",
                "p99 wait (s)",
                "aggregate (MiB/s)"
            ],
            &rows
        )
    );
    let random = fig.policy(experiments::campaign::SchedPolicyKind::Random);
    let best = fig
        .policies
        .iter()
        .min_by(|a, b| a.mean_slowdown().total_cmp(&b.mean_slowdown()))
        .expect("non-empty policy set");
    println!(
        "best mean slowdown: {} ({:.3} vs Random's {:.3})",
        best.policy.label(),
        best.mean_slowdown(),
        random.mean_slowdown()
    );
    // Admission throughput of this run, from the merged registry. A
    // fully warm campaign admits nothing — the cache, not the engine,
    // answered.
    let admissions = registry.counter("sched.admissions");
    if admissions > 0 {
        println!(
            "{} admission engine: {} admissions in {:.2} wall-s ({:.0} admissions/s)",
            mode.label(),
            admissions,
            outcome.stats.wall_secs,
            admissions as f64 / outcome.stats.wall_secs.max(1e-9),
        );
    } else {
        println!(
            "{} admission engine: every rep served from cache (0 admissions this run)",
            mode.label()
        );
    }
    dump_json(&args.json_dir, "fig_sched", &fig);
}

/// `scale` — the continuous engine's reason to exist: serve `--arrivals`
/// (default one million) small applications per policy straight through
/// the scheduler in online mode. No result cache — at this scale the
/// per-application records would dwarf the store — and no frozen-oracle
/// twin: the oracle re-simulates every running application on each
/// admission, which is exactly the O(n^2) this engine retires.
fn scale_cmd(args: &Args) {
    use experiments::campaign::SchedPolicyKind;
    use sched::{AdmissionMode, ArrivalStream, Scheduler};
    use simcore::units::MIB;

    // Small, short applications: the point is arrival volume, not
    // per-application heft. ~1.3 apps in flight on average keeps real
    // contention in the stream without letting components grow.
    let rate_per_s = 2.0;
    let cfg = ior::IorConfig::paper_default(1)
        .with_ppn(4)
        .with_total_bytes(256 * MIB);
    section(&format!(
        "Online engine at scale — {} Poisson arrivals at {}/s, 1 node x 256 MiB, \
         stripe 4, scenario 1",
        args.arrivals, rate_per_s
    ));
    let mut rows = Vec::new();
    for kind in [
        SchedPolicyKind::Random,
        SchedPolicyKind::LeastLoadedServer,
        SchedPolicyKind::UtilizationFeedback,
    ] {
        let factory = args.ctx.rng_factory("sched_scale");
        let stream = ArrivalStream::poisson(
            rate_per_s,
            args.arrivals,
            cfg,
            4,
            &mut factory.stream("arrivals", 0),
        );
        let mut fs =
            experiments::context::deploy(Scenario::S1Ethernet, 4, beegfs_core::ChooserKind::Random);
        let start = std::time::Instant::now();
        let out = Scheduler::new(&mut fs, kind.build())
            .mode(AdmissionMode::Online)
            .serve(&stream, &factory)
            .expect("scale stream is schedulable");
        let wall = start.elapsed().as_secs_f64();
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.3}", out.mean_slowdown()),
            format!("{:.3}", out.slowdown_quantile(0.99)),
            format!("{:.1}", out.makespan_s),
            format!("{:.2}", wall),
            format!("{:.0}", args.arrivals as f64 / wall.max(1e-9)),
            format!("{}", out.sim_events),
        ]);
        eprintln!(
            "[scale] {}: {} arrivals in {:.2} wall-s",
            kind.label(),
            args.arrivals,
            wall
        );
    }
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "mean slowdown",
                "p99 slowdown",
                "makespan (sim-s)",
                "wall (s)",
                "admissions/s",
                "sim events"
            ],
            &rows
        )
    );
}

/// A section: the names that select it, what it runs, and whether `all`
/// runs it.
type Section = (&'static [&'static str], fn(&Args), bool);

/// Every section, in the order `all` runs them.
const SECTIONS: &[Section] = &[
    (&["fig2"], fig2, true),
    (&["fig4"], fig4, true),
    (&["fig5"], fig5, true),
    (&["fig6"], |args| fig6(args, false), false),
    (&["fig8", "fig10"], |args| fig6(args, true), true),
    (&["fig9"], fig9, true),
    (&["fig11"], fig11, true),
    (&["fig12"], fig12, true),
    (&["fig13"], fig13, true),
    (&["chowdhury"], chowdhury_cmd, true),
    (&["policy"], policy_cmd, true),
    (&["reads"], reads_cmd, true),
    (&["nn"], nn_cmd, true),
    (&["tune"], tune_cmd, true),
    (&["metadata"], metadata_cmd, true),
    (&["sensitivity"], sensitivity_cmd, true),
    (&["sched"], sched_cmd, true),
    (&["scale"], scale_cmd, false),
    (&["straggler"], straggler_cmd, true),
    (&["adaptive"], adaptive_cmd, true),
    (&["interference"], interference_cmd, true),
    (&["lessons"], lessons_cmd, true),
];

fn main() {
    simcore::alloc_tuning::tune_for_long_sessions();
    let args = parse_args().unwrap_or_else(|reason| {
        eprintln!("repro: {reason}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(out) = args.trace_out.clone() {
        trace_cmd(&args, &out);
        return;
    }
    if let Some(out) = args.metrics_out.clone() {
        metrics_cmd(&args, &out);
        return;
    }
    eprintln!(
        "repro: seed {}, {} repetitions per configuration",
        args.ctx.seed, args.ctx.reps
    );
    match args.engine.store_root() {
        Some(root) => eprintln!("repro: result cache at {}", root.display()),
        None => eprintln!("repro: result cache disabled"),
    }
    for which in &args.which {
        if which == "all" {
            for &(_, section, _) in SECTIONS.iter().filter(|s| s.2) {
                section(&args);
            }
            continue;
        }
        match SECTIONS
            .iter()
            .find(|(names, ..)| names.contains(&which.as_str()))
        {
            Some((_, section, _)) => section(&args),
            None => {
                eprintln!("unknown experiment '{which}'; see --help");
                std::process::exit(2);
            }
        }
    }
}

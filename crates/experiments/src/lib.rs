//! # experiments — regenerating every figure of the paper
//!
//! One module per data-bearing figure (Figs. 1, 3, 7 and 9 are schematic
//! illustrations), plus the Chowdhury contrast, a beyond-paper chooser
//! ablation, and the quantitative "lessons" table. The `repro` binary
//! prints each as a text table; results export to JSON for EXPERIMENTS.md.
//!
//! | module | paper content |
//! |---|---|
//! | [`fig02_datasize`] | Fig. 2 — data-size sweep, both scenarios |
//! | [`fig04_nodes`] | Fig. 4 — node-count sweep |
//! | [`fig05_ppn`] | Fig. 5 — 8 vs 16 processes per node |
//! | [`fig06_stripe`] | Figs. 6, 8, 10 — stripe-count sweep + allocation box plots |
//! | [`fig09_drain`] | Fig. 9 — the drain diagram, as a measured rate timeline |
//! | [`fig11_nodes_stripe`] | Fig. 11 — node sweeps per stripe count |
//! | [`fig12_concurrent`] | Fig. 12 — concurrent applications |
//! | [`fig13_sharing`] | Fig. 13 — shared vs disjoint targets, Welch t-test |
//! | [`chowdhury`] | the single-node contrast explaining ICPP'19 |
//! | [`policy`] | chooser ablation (beyond the paper's future work) |
//! | [`future_reads`] | read-path projection (§VI future work) |
//! | [`future_nn`] | file-per-process projection (§VI future work) |
//! | [`metadata_motivation`] | why the paper benchmarks N-1 (§III-B) |
//! | [`sensitivity`] | calibration-constant ablation (which knob owns which figure) |
//! | [`lessons`] | every quantitative claim, paper vs measured |
//!
//! The [`campaign`] module is the sweep engine underneath every figure
//! whose cells a [`campaign::CellConfig`] describes (the rest repeat
//! through [`context::repeat`], which says why): declarative grids,
//! rayon-parallel cells, and a content-addressed result cache that makes
//! re-runs incremental. Each figure has one `run`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod chowdhury;
pub mod context;
pub mod fig02_datasize;
pub mod fig04_nodes;
pub mod fig05_ppn;
pub mod fig06_stripe;
pub mod fig09_drain;
pub mod fig11_nodes_stripe;
pub mod fig12_concurrent;
pub mod fig13_sharing;
pub mod fig_adaptive;
pub mod fig_interference;
pub mod fig_sched;
pub mod fig_straggler;
pub mod future_nn;
pub mod future_reads;
pub mod lessons;
pub mod metadata_motivation;
pub mod plot;
pub mod policy;
pub mod report;
pub mod sensitivity;

pub use context::{deploy, repeat, single_run, ExpCtx, Scenario};

//! # iostats — statistics toolkit for I/O performance analysis
//!
//! The analysis machinery behind the paper's figures and hypothesis
//! tests:
//!
//! * [`summary`] — descriptive statistics, R-type-7 quantiles, Tukey box
//!   plots (Figs. 8/10), Sarle's bimodality coefficient (for detecting
//!   the bi-modal clouds of Fig. 6a);
//! * [`welch`] — Welch's unequal-variance t-test (the Fig. 13 analysis);
//! * [`ks`] — Kolmogorov–Smirnov tests, including the normality gate the
//!   paper applies before the t-test;
//! * [`agg`] — Equation 1, the aggregate bandwidth of concurrent
//!   applications;
//! * [`special`] — the underlying special functions (log-gamma,
//!   regularized incomplete beta, Student-t CDF, normal CDF), implemented
//!   locally and verified against independent references.
//!
//! The crate is pure math: no simulation dependencies, usable on any
//! `&[f64]`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod ks;
pub mod special;
pub mod summary;
pub mod welch;

pub use agg::{aggregate_bandwidth, AppInterval};
pub use ks::{ks_normality_test, ks_test, KsResult};
pub use summary::{BoxPlot, Summary};
pub use welch::{welch_t_test, WelchResult};

//! # reno-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads, each what an architect does with this simulator:
//! `detail_default` reruns the paper's BASE-vs-RENO suite in full detail,
//! `ladder_default` estimates the same kernels with the sampling ladder,
//! and `dse_sweep` sweeps machine configs through `reno-dse`.
//! Every result is checked against a committed full-detail reference.
//! See `perfbench/README.md` for the metrics and what each should move.

pub mod grid;
pub mod host;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod spans;

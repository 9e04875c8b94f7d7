//! # reno-sample — time-parallel sampled simulation over checkpoint shards
//!
//! The paper evaluates RENO over full SPEC2000/MediaBench runs — hundreds of
//! millions of dynamic instructions — which a cycle-level simulator cannot
//! afford end-to-end. This crate implements the standard answer from the
//! SimPoint/SMARTS tradition: execute most of the program *functionally*
//! (fast), keep long-lived microarchitectural state *warm* while doing so,
//! and pay detailed cycle-level cost only inside short, periodic
//! **measurement intervals** whose statistics extrapolate to the whole run
//! with a quantified error bound.
//!
//! A sampled run is **sharded in time** at checkpoint boundaries. A cheap
//! serial pass executes the program once on `reno-func`'s predecoded
//! basic-block engine, taking a dirty-page [`reno_func::Checkpoint`] at
//! each segment head; the checkpoint-delimited segments then fan across
//! [`reno_par::par_map`] workers, and each worker walks its segment's
//! periods independently:
//!
//! ```text
//!  |<---------------------------- period ----------------------------->|
//!  | fast-forward (functional + warming)     | warmup   | measure      |
//!  |  Cpu::advance_observed runs the segment | detailed | detailed,    |
//!  |  block by block; caches, branch         | pipeline | counters     |
//!  |  predictor and BTB/RAS train at         | (stats   | recorded     |
//!  |  functional cost                        | dropped) | via marks    |
//! ```
//!
//! * **Restore**: a worker deserializes its checkpoint and restores it
//!   against a shared base image — every segment exercises the full
//!   save/restore path, which a differential property suite pins as
//!   bit-identical to uninterrupted execution. Before its first stratum it
//!   replays a warm margin (at least an L2-refill horizon of functional
//!   warming), so no window is measured against segment-cold structures.
//! * **Fast-forward** runs on the block engine
//!   ([`reno_func::Cpu::advance_observed`]): straight-line runs arrive as
//!   `(first_pc, n)`, loads, stores and control instructions as records,
//!   and each advance stops exactly at the next profile snapshot or window.
//!   Every instruction reaches the warming hooks in program order: cache
//!   directories via [`reno_mem::MemHierarchy::warm_data`] / `warm_inst`
//!   (a run's I-line touches are replayed before the next data access, so
//!   the shared L2 sees the per-instruction sequence), and the direction
//!   predictor, BTB and RAS via [`reno_uarch::FrontEnd::process`]
//!   (classified exactly as the fetch stage would, via
//!   [`reno_sim::classify_control`]).
//! * **Warmup → measure**: the detailed simulator, built around the
//!   carried warm structures by [`reno_sim::Simulator::from_cpu_warm`],
//!   runs `warmup + interval` instructions with
//!   [`reno_sim::Simulator::with_measure_window`] marking the two
//!   boundaries; the pipeline is in full flight at both marks, so the delta
//!   has neither fill nor drain edges. The trained structures come back via
//!   [`reno_sim::Simulator::run_with_state`] and carry into the next period
//!   of the same segment.
//!
//! Segmentation derives from the sampling config alone — never from the
//! host — and the merge is order-preserving, so the result is
//! **byte-identical at any `RENO_THREADS`** (a dedicated differential test
//! and thread-forced CI golden diffs enforce this bit-for-bit).
//!
//! The production entry point, [`run_sampled_auto`], escalates from sparse
//! to dense sampling to full detail, and pays for shared work once per
//! program: one functional length probe checkpoints the program on a grid
//! (every 2^17 instructions, at most 64 checkpoints, the spacing doubling
//! when full), and each rung derives its phase-1 pass from the nearest
//! grid checkpoint instead of re-running the program — byte-identical to
//! [`CheckpointPass::compute`]. The head window is simulated once per
//! program: the dense rung reuses the sparse rung's (its measurement,
//! trained structures and trace), and the rare-event anchor of the
//! ladder's blindness gate comes from an extra counter mark inside it
//! rather than a second detailed run of the head.
//!
//! The whole-run estimate uses the ratio estimator (total measured cycles /
//! total measured instructions) and reports a 95% confidence bound from the
//! dispersion of per-interval CPI samples ([`SampledResult::cpi_ci95_rel_pct`]).
//! Measure intervals inherit the simulator's zero-allocation steady state
//! (enforced by the `reno-alloctrack` counting-allocator suite).
//!
//! ```
//! use reno_core::RenoConfig;
//! use reno_isa::{Asm, Reg};
//! use reno_sample::{run_sampled, SampleConfig};
//! use reno_sim::{MachineConfig, Simulator};
//!
//! let mut a = Asm::new();
//! let buf = a.zeros("buf", 256);
//! a.li(Reg::S0, buf as i64);
//! a.li(Reg::T0, 2000);
//! a.label("loop");
//! a.andi(Reg::T1, Reg::T0, 31);
//! a.slli(Reg::T1, Reg::T1, 3);
//! a.add(Reg::T1, Reg::T1, Reg::S0);
//! a.ld(Reg::T2, Reg::T1, 0);
//! a.addi(Reg::T2, Reg::T2, 3);
//! a.st(Reg::T2, Reg::T1, 0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, "loop");
//! a.out(Reg::T2);
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let cfg = MachineConfig::four_wide(RenoConfig::reno());
//! let sampled = run_sampled(&prog, cfg.clone(), &SampleConfig::new(128, 384, 1024));
//! let full = Simulator::new(&prog, cfg).run(1 << 24);
//!
//! // The sampled run executes the same program: identical architectural
//! // results, and a CPI estimate close to the full detailed run's.
//! assert!(sampled.halted);
//! assert_eq!(sampled.checksum, full.checksum);
//! assert_eq!(sampled.total_insts, full.retired);
//! let full_cpi = full.cycles as f64 / full.retired as f64;
//! assert!((sampled.est_cpi() - full_cpi).abs() / full_cpi < 0.10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod engine;
mod result;

pub use engine::{
    run_sampled, run_sampled_auto, run_sampled_with_pass, CheckpointPass, PassError, SampleConfig,
    FAILPOINT_SITES, FP_MEASURE_WINDOW, FP_PASS_CHECKPOINT, FP_SEGMENT_RESTORE, FP_WARM_REPLAY,
};
pub use result::{
    ExactSegment, FaultRecovery, IntervalStat, SampleError, SampledResult, SegmentFault,
};

//! Differential suite for the block-batched oracle feed, on runs cut short
//! of the program's end.
//!
//! The batched feed (`Oracle::refill` prefilling the sequence-indexed
//! `DynInst`/`RenameClass` rings a decoded block at a time) must be
//! **cycle-for-cycle and counter-for-counter identical** to the
//! per-instruction `Oracle::next` feed it replaced, which
//! `Simulator::with_reference_paths` runs together with the whole-ROB
//! polling scheduler. The feed's edges are where a run does not simply
//! drain: fuel running out mid-program (the oracle runs dry), and a
//! sampled window — the pipeline resumed through `Simulator::from_cpu`
//! part of the way into the program and stopped at its end mark, with the
//! batched feed executed ahead of retirement. Random programs and the
//! directed program run under four machine shapes, and every Tiny workload
//! under BASE and RENO. Runs drained to halt are `sched_equivalence.rs`'s.

mod equivalence;

use equivalence::{
    all_classes_body, assert_counters_equal, assert_equal, base_and_reno, both, gen_program,
    machines,
};
use proptest::prelude::*;
use reno_core::RenoConfig;
use reno_func::{run_to_completion, Cpu};
use reno_isa::Program;
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::{all_workloads, Scale};

/// A functional machine stepped a third of the way through `program`, and
/// the program's dynamic length.
fn third_of_the_way(program: &Program) -> (Cpu, u64) {
    let (_, run) = run_to_completion(program, u64::MAX).expect("program runs");
    let len = run.executed;
    let mut cpu = Cpu::new(program);
    for _ in 0..len / 3 {
        cpu.step(program).expect("fast-forward steps");
    }
    (cpu, len)
}

/// Resumes `program` on `m` from a third of the way in and measures the
/// window from 1/12 to 1/3 of its length past that point, on both paths.
/// The run stops at the end mark, so counters and marks must agree.
fn assert_resumed_window_equal(program: &Program, m: &MachineConfig, what: &str) {
    let (cpu, len) = third_of_the_way(program);
    let (fast, reference) = both(
        || {
            Simulator::from_cpu(program, m.clone(), cpu.clone(), u64::MAX)
                .with_measure_window(len / 12, len / 3)
        },
        1 << 26,
    );
    assert!(fast.mark_end.is_some(), "{what}: the end mark is reached");
    assert_counters_equal(&fast, &reference, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_feed_is_counter_exact(
        body in prop::collection::vec(any::<u8>(), 1..40),
        iters in any::<u8>(),
    ) {
        let p = gen_program(&body, iters);
        for (name, m) in machines() {
            assert_resumed_window_equal(&p, &m, name);
        }
    }

    /// Fuel-limited runs end mid-program (the oracle runs dry): the drain
    /// and final architectural state must still match exactly.
    #[test]
    fn batched_feed_matches_under_fuel_cut(
        body in prop::collection::vec(any::<u8>(), 1..24),
        iters in any::<u8>(),
        fuel in 1u64..4000,
    ) {
        let p = gen_program(&body, iters);
        let m = MachineConfig::four_wide(RenoConfig::reno());
        let (fast, reference) = both(|| Simulator::with_fuel(&p, m.clone(), fuel), 1 << 22);
        assert_equal(&fast, &reference, "fuel-cut");
    }
}

/// A deterministic directed complement to the random cases: the recipe is
/// chosen to hit every instruction class in one program.
#[test]
fn directed_all_classes_feed_equivalence() {
    let p = gen_program(&all_classes_body(), 17);
    for (name, m) in machines() {
        assert_resumed_window_equal(&p, &m, name);
    }
}

/// The path every sampled window takes, on real kernels.
#[test]
fn resumed_windows_are_cycle_exact() {
    for w in all_workloads(Scale::Tiny) {
        for (cname, m) in base_and_reno() {
            assert_resumed_window_equal(&w.program, &m, &format!("{}/{cname} resumed", w.name));
        }
    }
}

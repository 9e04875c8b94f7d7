//! Differential suite for the event-driven scheduler, on runs that drain to
//! the program's end.
//!
//! The event-driven scheduler (exec calendar wheel + wakeup wheel + ready
//! list + per-register waiter lists) must be *cycle-for-cycle identical* to
//! the whole-ROB polling scheduler it replaced, which
//! `Simulator::with_reference_paths` runs together with the per-instruction
//! oracle feed. Random programs — exercising folds, multiplies,
//! partial-width store forwarding, pointer aliasing (misintegrations),
//! memory-ordering violations and data-dependent branches — run under four
//! machine shapes, and every Tiny workload under BASE and RENO; every
//! observable of each run, final program state included, must match
//! exactly. Runs cut short of the end are `feed_equivalence.rs`'s.

mod equivalence;

use equivalence::{all_classes_body, assert_equal, base_and_reno, both, gen_program, machines};
use proptest::prelude::*;
use reno_sim::Simulator;
use reno_workloads::{all_workloads, Scale};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn event_driven_scheduler_is_cycle_exact(
        body in prop::collection::vec(any::<u8>(), 1..40),
        iters in any::<u8>(),
    ) {
        let p = gen_program(&body, iters);
        for (name, m) in machines() {
            let (fast, reference) = both(|| Simulator::new(&p, m.clone()), 1 << 22);
            assert_equal(&fast, &reference, name);
        }
    }
}

/// A deterministic directed complement to the random cases: the recipe is
/// chosen to hit every instruction class in one program.
#[test]
fn directed_all_classes_equivalence() {
    let p = gen_program(&all_classes_body(), 17);
    for (name, m) in machines() {
        let (fast, reference) = both(|| Simulator::new(&p, m.clone()), 1 << 24);
        assert_equal(&fast, &reference, name);
    }
}

#[test]
fn tiny_workloads_are_cycle_exact() {
    for w in all_workloads(Scale::Tiny) {
        for (cname, m) in base_and_reno() {
            let (fast, reference) = both(|| Simulator::new(&w.program, m.clone()), 1 << 26);
            assert!(fast.halted, "{}/{cname} halts", w.name);
            assert_equal(&fast, &reference, &format!("{}/{cname}", w.name));
        }
    }
}

//! Differential testing of the solver inprocessing loop (vivification,
//! subsumption + self-subsuming resolution, failed-literal probing) run
//! between BMC bounds and k-induction depths: every workload is checked
//! with inprocessing switched on (`InprocessConfig::enabled`, a round
//! at every bound) and on the default configuration (inprocessing off),
//! each threaded through `VerifyOptions::solver`. Verdicts *and*
//! counterexample traces must agree exactly — database rewriting may
//! only ever remove models that were never reachable.
//!
//! The suite also guards against a vacuous differential: the on legs
//! assert through the engine's solver counters that inprocessing
//! actually fired on these workloads, and the default legs that it did
//! not.

use emm_aig::Design;
use emm_bmc::{BmcEngine, BmcVerdict, KInduction, VerifyOptions};
use emm_designs::fifo::{Fifo, FifoConfig};
use emm_designs::industry2::{Industry2, Industry2Config};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_sat::{InprocessConfig, RestartPolicy, SolverConfig};

mod random_mem {
    use emm_aig::{Design, LatchInit, MemInit};
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// The random memory design family shared by the differential
    /// suites: a memory driven by a free-running counter and inputs,
    /// with a reachability property on the read port.
    pub fn design(rng: &mut StdRng) -> Design {
        let aw = rng.random_range(2..=3usize);
        let dw = rng.random_range(1..=3usize);
        let init = if rng.random_bool(0.5) {
            MemInit::Zero
        } else {
            MemInit::Arbitrary
        };
        let mut d = Design::new();
        let mem = d.add_memory("m", aw, dw, init);
        let t = d.new_latch_word("t", 3, LatchInit::Zero);
        let next_t = d.aig.inc(&t);
        d.set_next_word(&t, &next_t);
        let wa = if rng.random_bool(0.5) {
            d.new_input_word("wa", aw)
        } else {
            d.aig.resize(&t, aw)
        };
        let we = d.new_input("we");
        let wd = d.new_input_word("wd", dw);
        d.add_write_port(mem, wa, we, wd);
        let ra = if rng.random_bool(0.5) {
            d.new_input_word("ra", aw)
        } else {
            d.aig.resize(&t, aw)
        };
        let rd = d.add_read_port(mem, ra, emm_aig::Aig::TRUE);
        let c = rng.random_range(0..(1u64 << dw));
        let bad = d.aig.eq_const(&rd, c);
        d.add_property("p", bad);
        d.check().expect("valid");
        d
    }
}

fn verdict_shape(v: &BmcVerdict) -> (u8, usize) {
    match v {
        BmcVerdict::Proof { depth, .. } => (0, *depth),
        BmcVerdict::Counterexample(t) => (1, t.depth()),
        BmcVerdict::Proved { k } => (4, *k),
        BmcVerdict::BoundReached => (2, usize::MAX),
        BmcVerdict::Unknown { .. } => (3, usize::MAX),
    }
}

/// The two inprocessing legs every workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leg {
    /// Inprocessing on: a round at every bound and step depth.
    On,
    /// `SolverConfig::default()`: inprocessing off.
    Default,
}

fn opts(leg: Leg, proofs: bool) -> VerifyOptions {
    let solver = match leg {
        Leg::On => SolverConfig::default().inprocess(InprocessConfig::default().enabled(true)),
        Leg::Default => SolverConfig::default(),
    };
    VerifyOptions::default().proofs(proofs).solver(solver)
}

fn run(design: &Design, prop: usize, bound: usize, leg: Leg, proofs: bool) -> BmcVerdict {
    let mut engine = BmcEngine::new(design, opts(leg, proofs));
    let run = engine.check(prop, bound).expect("no spurious traces");
    let (_, stats) = engine.solver_stats();
    match leg {
        // Inprocessing first fires between bounds 0 and 1, so a run
        // decided at bound 0 legitimately never inprocesses.
        Leg::On if run.depth_reached >= 1 => assert!(
            stats.inprocess_rounds > 0,
            "the on leg must actually inprocess (reached {})",
            run.depth_reached
        ),
        Leg::On => {}
        Leg::Default => assert_eq!(stats.inprocess_rounds, 0, "off by default"),
    }
    run.verdict
}

/// Verdict agreement on the (scaled) Table 1/2 quicksort proof
/// workloads, proofs on: inprocessing must not move or destroy the
/// induction proofs.
#[test]
fn inprocessing_agrees_on_quicksort_proofs() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 1,
        bug: Bug::None,
    });
    let bound = qs.cycle_bound();
    for (name, prop) in [("table1_p1_n3", qs.p1.0), ("table2_p2_n3", qs.p2.0)] {
        let off = run(&qs.design, prop as usize, bound, Leg::Default, true);
        assert!(off.is_proof(), "{name}: expected a proof, got {off:?}");
        let on = run(&qs.design, prop as usize, bound, Leg::On, true);
        assert_eq!(
            verdict_shape(&on),
            verdict_shape(&off),
            "{name}: inprocessing on {on:?} vs off {off:?}"
        );
    }
}

/// Trace agreement on the buggy quicksort variants (the Table 1
/// falsification workloads): both legs must falsify at the same depth
/// with identical per-frame inputs.
#[test]
fn inprocessing_agrees_on_quicksort_counterexamples() {
    // P1 witnesses the inverted comparison, P2 the stack underflow.
    for (bug, use_p2) in [
        (Bug::InvertedComparison, false),
        (Bug::MissingEmptyCheck, true),
    ] {
        let qs = QuickSort::new(QuickSortConfig {
            n: 3,
            addr_width: 4,
            data_width: 3,
            bug,
        });
        let prop = if use_p2 { qs.p2.0 } else { qs.p1.0 } as usize;
        let bound = qs.cycle_bound();
        let off = run(&qs.design, prop, bound, Leg::Default, false);
        let BmcVerdict::Counterexample(toff) = &off else {
            panic!("{bug:?}: expected a counterexample with inprocessing off, got {off:?}");
        };
        let on = run(&qs.design, prop, bound, Leg::On, false);
        let BmcVerdict::Counterexample(ton) = &on else {
            panic!("{bug:?}: expected a counterexample with inprocessing on, got {on:?}");
        };
        assert_eq!(ton.depth(), toff.depth(), "{bug:?}: depths diverge");
        assert_eq!(ton.frames, toff.frames, "{bug:?}: input frames diverge");
    }
}

/// Randomized agreement sweep over the random-memory family, proofs on
/// and off, on the default pipeline so inprocessing runs on top of the
/// per-bound clause retirement.
#[test]
fn inprocessing_agrees_on_random_designs() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A9C);
    for round in 0..12 {
        let d = random_mem::design(&mut rng);
        let proofs = round % 2 == 0;
        let off = run(&d, 0, 6, Leg::Default, proofs);
        let on = run(&d, 0, 6, Leg::On, proofs);
        assert_eq!(
            verdict_shape(&on),
            verdict_shape(&off),
            "round {round}: inprocessing on {on:?} vs off {off:?}"
        );
    }
}

/// K-induction closure workloads: the step context inprocesses between
/// depths, and the closing depth must not move. Industry2 closes at
/// `k = 2`, the FIFO no-overflow invariant at `k = 1`.
#[test]
fn inprocessing_agrees_on_kinduction_closures() {
    let ind2 = Industry2::new(Industry2Config::small());
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    let workloads: [(&str, &Design, usize, usize); 2] = [
        ("industry2", &ind2.design, ind2.invariant, 2),
        (
            "fifo_no_overflow",
            &fifo.design,
            fifo.no_overflow.0 as usize,
            1,
        ),
    ];
    for (name, design, prop, close_k) in workloads {
        for leg in [Leg::On, Leg::Default] {
            let mut engine = KInduction::new(design, opts(leg, false));
            let verdict = engine.check(prop, 10).expect("k-induction run").verdict;
            assert!(
                matches!(verdict, BmcVerdict::Proved { k } if k == close_k),
                "{name} {leg:?}: closes at k = {close_k}, got {verdict:?}"
            );
            let (_, step_stats) = engine.step_solver_stats();
            let (_, base_stats) = engine.base().solver_stats();
            let rounds = step_stats.inprocess_rounds + base_stats.inprocess_rounds;
            match leg {
                Leg::On => assert!(rounds > 0, "{name}: the on leg must actually inprocess"),
                Leg::Default => assert_eq!(rounds, 0, "{name}: off by default"),
            }
        }
    }
}

/// The redesigned `SolverConfig` surface end to end: EMA restarts and
/// chronological backtracking selected through `VerifyOptions::solver`
/// must preserve verdicts and traces against the default Luby policy.
#[test]
fn ema_restarts_and_chrono_backtracking_agree_with_default() {
    let tuned = SolverConfig::default()
        .restart_policy(RestartPolicy::Ema)
        .chrono_backtrack(Some(64));
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    let prop = qs.p1.0 as usize;
    let bound = qs.cycle_bound();
    let mut default_engine = BmcEngine::new(&qs.design, opts(Leg::Default, false));
    let default_verdict = default_engine.check(prop, bound).expect("default").verdict;
    let mut tuned_engine =
        BmcEngine::new(&qs.design, opts(Leg::Default, false).solver(tuned.clone()));
    let tuned_verdict = tuned_engine.check(prop, bound).expect("tuned").verdict;
    let (BmcVerdict::Counterexample(td), BmcVerdict::Counterexample(tt)) =
        (&default_verdict, &tuned_verdict)
    else {
        panic!("expected counterexamples, got {default_verdict:?} vs {tuned_verdict:?}");
    };
    assert_eq!(td.depth(), tt.depth(), "falsification depth moved");

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A9D);
    for round in 0..6 {
        let d = random_mem::design(&mut rng);
        let mut default_engine = BmcEngine::new(&d, opts(Leg::Default, false));
        let default_verdict = default_engine.check(0, 6).expect("default").verdict;
        let mut tuned_engine = BmcEngine::new(&d, opts(Leg::Default, false).solver(tuned.clone()));
        let tuned_verdict = tuned_engine.check(0, 6).expect("tuned").verdict;
        assert_eq!(
            verdict_shape(&default_verdict),
            verdict_shape(&tuned_verdict),
            "round {round}: Luby {default_verdict:?} vs Ema+chrono {tuned_verdict:?}"
        );
    }
}

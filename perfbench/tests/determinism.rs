//! Benchmark-local checks at cut-down sizes: every workload gives its
//! known verdicts through both the server batch and the traced replay, the
//! traced counters repeat exactly across two replays of one seed, and the
//! explicit-model twin answers exactly as the EMM filter does.
//!
//! Run with `cargo test --release` from this package's directory.

use emm_bmc::ModelSource;
use emm_perfbench::{prepare, run_batch, set_up, trace, Scale, WORKLOADS};

#[test]
fn traced_counters_repeat_exactly_for_one_seed() {
    for workload in WORKLOADS {
        let first = trace(&prepare(workload, 7, Scale::Small).expect("prepare")).expect("trace");
        let second = trace(&prepare(workload, 7, Scale::Small).expect("prepare")).expect("trace");
        assert_eq!(first.failed, 0, "{workload}: {:?}", first.verdicts);
        assert_eq!(first.counters, second.counters, "{workload}");
        assert_eq!(first.verdicts, second.verdicts, "{workload}");
        assert!(
            first.counters.propagations > 0,
            "{workload}: no solver work"
        );
    }
}

#[test]
fn server_batch_matches_traced_replay() {
    for workload in WORKLOADS {
        let (server, jobs) = set_up(workload, 3, Scale::Small, 2).expect("set up");
        let batch = run_batch(server, &jobs);
        let traced = trace(&prepare(workload, 3, Scale::Small).expect("prepare")).expect("trace");
        assert_eq!(batch.failed, 0, "{workload}: {:?}", batch.verdicts);
        assert_eq!(batch.verdicts, traced.verdicts, "{workload}");
    }
}

#[test]
fn explicit_twin_answers_as_the_emm_filter() {
    let explicit = prepare("explicit_bank", 1, Scale::Small).expect("prepare");
    assert!(matches!(explicit.sources[0], ModelSource::AigerBytes(_)));
    // The explicit bank's jobs, run on the EMM filter of the same
    // configuration (at small scale both banks build the same filter).
    let mut emm = prepare("filter_bank", 1, Scale::Small).expect("prepare");
    emm.jobs = explicit.jobs.clone();
    let explicit = trace(&explicit).expect("trace");
    let emm = trace(&emm).expect("trace");
    assert_eq!(explicit.failed, 0, "{:?}", explicit.verdicts);
    assert_eq!(explicit.verdicts, emm.verdicts);
    assert_eq!(explicit.counters.emm_clauses, 0, "no memories remain");
    assert!(emm.counters.emm_clauses > 0);
}

#[test]
fn only_filter_bank_depends_on_the_seed() {
    let order = |workload: &str, seed: u64| -> Vec<usize> {
        let prepared = prepare(workload, seed, Scale::Full).expect("prepare");
        prepared.jobs.iter().map(|j| j.property).collect()
    };
    let (a, b) = (order("filter_bank", 1), order("filter_bank", 2));
    assert_eq!(a.len(), 216);
    assert_ne!(a, b, "the seed permutes submission order");
    let sorted = |mut props: Vec<usize>| {
        props.sort_unstable();
        props
    };
    assert_eq!(sorted(a), sorted(b), "the job set is fixed");

    assert_eq!(order("table1_proof", 1), order("table1_proof", 2));
    let explicit = prepare("explicit_bank", 1, Scale::Full).expect("prepare");
    assert_eq!(explicit.jobs.len(), 52);
    assert!(explicit.jobs[42..]
        .iter()
        .all(|j| j.engine == emm_bmc::ProofEngine::KInduction));
    assert_eq!(order("explicit_bank", 1), order("explicit_bank", 2));
}

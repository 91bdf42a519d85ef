//! Criterion benchmark: the Table 1 headline at micro scale — the
//! quicksort P1 forward-induction proof under EMM versus the explicit
//! memory expansion.

use criterion::{criterion_group, criterion_main, Criterion};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::quicksort::{QuickSort, QuickSortConfig};

fn prove_p1(design: &emm_aig::Design, bound: usize) {
    let mut engine = BmcEngine::new(design, VerifyOptions::default().proofs(true));
    let run = engine.check(0, bound).expect("run");
    assert!(
        matches!(run.verdict, BmcVerdict::Proof { .. }),
        "{:?}",
        run.verdict
    );
}

fn bench_quicksort(c: &mut Criterion) {
    let mut group = c.benchmark_group("quicksort_p1_proof");
    group.sample_size(10);

    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 3,
        bug: Default::default(),
    });
    let bound = qs.cycle_bound();
    group.bench_function("emm_n3", |b| b.iter(|| prove_p1(&qs.design, bound)));

    let (expl, _) = explicit_model(&qs.design);
    group.bench_function("explicit_n3", |b| b.iter(|| prove_p1(&expl, bound)));

    group.finish();
}

criterion_group!(benches, bench_quicksort);
criterion_main!(benches);

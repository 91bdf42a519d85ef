//! Differential testing of wide-cut rewriting (`RewriteConfig::wide()`:
//! k = 6 cuts over `u64` truth tables, global selection): BMC over random
//! designs must produce identical verdicts with the wide pass enabled and
//! with rewriting disabled, and the wide pass must agree with the default
//! k = 4 configuration.
//!
//! This mirrors `rewrite_differential.rs` for the widened tables — the
//! system-level soundness harness for the 5- and 6-input recipe classes
//! and the semicanonical NPN path, which the default configuration never
//! exercises. Because `validate_traces` stays on, every counterexample
//! found on the reduced model is re-simulated against the *original*
//! design, so an unsound wide-cone replacement surfaces as a hard
//! `SpuriousTrace` error, not just a flaky disagreement.

use emm_aig::{rewrite_design, Design, LatchInit, MemInit, RewriteConfig};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random memory design driven by a free-running counter and inputs
/// (mirrors the generator of `rewrite_differential.rs`).
fn random_mem_design(rng: &mut StdRng) -> Design {
    let aw = rng.random_range(2..=3usize);
    let dw = rng.random_range(1..=3usize);
    let n_read = rng.random_range(1..=2usize);
    let n_write = rng.random_range(1..=2usize);
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
    for w in 0..n_write {
        let addr = if rng.random_bool(0.5) {
            d.new_input_word(&format!("wa{w}"), aw)
        } else {
            let r = d.aig.resize(&t, aw);
            let c = d.aig.const_word(rng.random_range(0..(1 << aw) as u64), aw);
            d.aig.word_xor(&r, &c)
        };
        let en = d.new_input(&format!("we{w}"));
        let data = d.new_input_word(&format!("wd{w}"), dw);
        d.add_write_port(mem, addr, en, data);
    }
    let mut read_words = Vec::new();
    for r in 0..n_read {
        let addr = if rng.random_bool(0.5) {
            d.new_input_word(&format!("ra{r}"), aw)
        } else {
            d.aig.resize(&t, aw)
        };
        let en = if rng.random_bool(0.7) {
            emm_aig::Aig::TRUE
        } else {
            d.new_input(&format!("re{r}"))
        };
        let rd = d.add_read_port(mem, addr, en);
        read_words.push(rd);
    }
    let c = rng.random_range(0..(1u64 << dw));
    let mut bad = d.aig.eq_const(&read_words[0], c);
    if read_words.len() > 1 && rng.random_bool(0.5) {
        let nz = d.aig.redor(&read_words[1].clone());
        bad = d.aig.and(bad, nz);
    }
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// A random memory-free sequential design whose property cone contains
/// shapes only a wide window can collapse: the same multi-bit reduction
/// built with two different associations behind a mux (Shannon bloat), on
/// top of the comparator chains and disguised wires of the k = 4 suite.
fn random_latch_design(rng: &mut StdRng) -> Design {
    let w = rng.random_range(3..=5usize);
    let mut d = Design::new();
    let s = d.new_latch_word("s", w, LatchInit::Zero);
    let i = d.new_input_word("i", w);
    let mixed = if rng.random_bool(0.5) {
        d.aig.word_xor(&s, &i)
    } else {
        d.aig.add(&s, &i)
    };
    let next = if rng.random_bool(0.5) {
        mixed.clone()
    } else {
        let sel = d.new_input("sel");
        let inc = d.aig.inc(&s);
        d.aig.mux_word(sel, &inc, &mixed)
    };
    d.set_next_word(&s, &next);
    // Shannon bloat over the state bits: reduce `s` left-to-right and
    // right-to-left — equal functions, different shapes, so strash keeps
    // both cones — and mux them on a fresh input. Only a cut spanning the
    // selector plus all reduced bits sees that the arms agree.
    let bits = s.bits();
    let mut fwd = bits[0];
    for &b in &bits[1..] {
        fwd = if rng.random_bool(0.5) {
            d.aig.and(fwd, b)
        } else {
            d.aig.xor(fwd, b)
        };
    }
    let mut bwd = bits[w - 1];
    for &b in bits[..w - 1].iter().rev() {
        bwd = if rng.random_bool(0.5) {
            d.aig.and(b, bwd)
        } else {
            d.aig.xor(b, bwd)
        };
    }
    let sel2 = d.new_input("bloat_sel");
    let arm = d.aig.mux(sel2, fwd, bwd);
    let target = rng.random_range(1..(1u64 << w));
    let cmp = if rng.random_bool(0.5) {
        let k = d.aig.const_word(target, w);
        d.aig.ult(&s, &k)
    } else {
        d.aig.eq_const(&s, target)
    };
    let bad = d.aig.and(cmp, arm);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
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

fn check_with(design: &Design, rewrite: RewriteConfig, proofs: bool, bound: usize) -> (u8, usize) {
    let mut engine = BmcEngine::new(
        design,
        VerifyOptions::default().proofs(proofs).rewrite(rewrite),
    );
    let run = engine.check(0, bound).expect("no spurious traces");
    verdict_shape(&run.verdict)
}

/// Engine-level agreement on random memory designs (falsification mode);
/// traces from the wide-rewritten model must validate on the original.
#[test]
fn rewrite6_engine_agrees_with_unrewritten_on_random_mem_designs() {
    let mut rng = StdRng::seed_from_u64(0x6E581);
    for round in 0..20 {
        let d = random_mem_design(&mut rng);
        let wide = check_with(&d, RewriteConfig::wide(), false, 5);
        let plain = check_with(&d, RewriteConfig::disabled(), false, 5);
        assert_eq!(wide, plain, "round {round}: verdicts diverge");
    }
}

/// Agreement with induction proofs enabled (floating context included),
/// crossing wide against both disabled and the default k = 4 pass.
#[test]
fn rewrite6_proof_engine_agrees_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0x6E582);
    for round in 0..12 {
        let d = if round % 2 == 0 {
            random_latch_design(&mut rng)
        } else {
            random_mem_design(&mut rng)
        };
        let wide = check_with(&d, RewriteConfig::wide(), true, 6);
        let plain = check_with(&d, RewriteConfig::disabled(), true, 6);
        let narrow = check_with(&d, RewriteConfig::default(), true, 6);
        assert_eq!(wide, plain, "round {round}: wide vs disabled diverge");
        assert_eq!(wide, narrow, "round {round}: wide vs k=4 diverge");
    }
}

/// The wide pass must find reductions on the Shannon-bloated designs, run
/// at its configured width, and keep the design well-formed.
#[test]
fn rewrite6_shrinks_shannon_bloated_designs() {
    let mut rng = StdRng::seed_from_u64(0x6E583);
    let mut total_removed = 0usize;
    for _ in 0..8 {
        let mut d = random_latch_design(&mut rng);
        let before = d.num_gates();
        let stats = rewrite_design(&mut d, &RewriteConfig::wide());
        d.check().expect("rewrite keeps the design well-formed");
        assert_eq!(stats.cut_size, 6);
        assert_eq!(stats.ands_before, before);
        assert_eq!(stats.ands_after, d.num_gates());
        assert!(d.num_gates() <= before);
        total_removed += stats.ands_removed();
    }
    assert!(
        total_removed > 0,
        "the bloated mux arms must yield at least one rewrite"
    );
}

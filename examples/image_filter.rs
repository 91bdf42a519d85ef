//! The Industry Design I workflow: witness hunting plus induction proofs
//! over a property bank on a memory-backed image filter.
//!
//! The paper reports 206 of 216 properties falsified (witnesses up to
//! depth 51) and 10 proved by induction. This example runs the same split
//! on the scaled-down filter; pass `--paper` for the full configuration.
//!
//! Run with: `cargo run --release --example image_filter [--paper]`

use emm_verif::bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_verif::designs::image_filter::{ImageFilter, ImageFilterConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper = std::env::args().any(|a| a == "--paper");
    let config = if paper {
        ImageFilterConfig::paper()
    } else {
        ImageFilterConfig::small()
    };
    let filter = ImageFilter::new(config);
    println!("image filter: {}", filter.design.stats());

    // One incremental engine for every witness search: unrolling is shared
    // across properties, exactly how the paper's platform amortizes 216
    // properties in 400 seconds.
    let started = std::time::Instant::now();
    let mut engine = BmcEngine::new(&filter.design, VerifyOptions::default());
    let mut found = 0;
    let mut max_depth = 0;
    for &p in &filter.reachable {
        let run = engine.check(p, config.max_witness_depth + 4)?;
        match run.verdict {
            BmcVerdict::Counterexample(trace) => {
                found += 1;
                max_depth = max_depth.max(trace.depth() - 1);
            }
            other => panic!("property {p}: no witness ({other:?})"),
        }
    }
    println!(
        "witnesses: {found}/{} (max depth {max_depth}) in {:?}",
        filter.reachable.len(),
        started.elapsed()
    );
    assert_eq!(found, filter.reachable.len(), "every witness must be found");

    // Induction proofs for the invariant properties (BMC-3).
    let started = std::time::Instant::now();
    let mut proved = 0;
    let mut engine = BmcEngine::new(&filter.design, VerifyOptions::default().proofs(true));
    for &p in &filter.unreachable {
        let run = engine.check(p, 24)?;
        match run.verdict {
            BmcVerdict::Proof { kind, depth } => {
                proved += 1;
                println!("property {p}: proved by {kind:?} at depth {depth}");
            }
            other => panic!("property {p}: not proved ({other:?})"),
        }
    }
    println!(
        "induction proofs: {proved}/{} in {:?}",
        filter.unreachable.len(),
        started.elapsed()
    );
    assert_eq!(
        proved,
        filter.unreachable.len(),
        "every invariant must close"
    );
    Ok(())
}

//! # emm-verif — Verification of Embedded Memory Systems using EMM
//!
//! A from-scratch Rust reproduction of *"Verification of Embedded Memory
//! Systems using Efficient Memory Modeling"* (Ganai, Gupta, Ashar — DATE
//! 2005): SAT-based Bounded Model Checking that handles large embedded
//! memories **without modeling each memory bit**, supporting multiple
//! memories with multiple read/write ports, correctness proofs via
//! induction with precise arbitrary-initial-memory modeling, and
//! proof-based abstraction.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sat`] | `emm-sat` | CDCL SAT solver (assumptions, group cores, refutation tracing) |
//! | [`aig`] | `emm-aig` | word-level netlists, memories, simulator, traces |
//! | [`core`] | `emm-core` | EMM constraints (the paper's contribution) + explicit baseline |
//! | [`bmc`] | `emm-bmc` | BMC-1/2/3 engines, induction proofs, PBA |
//! | [`bdd`] | `emm-bdd` | BDD package + symbolic model checker |
//! | [`designs`] | `emm-designs` | quicksort, image filter, lookup engine, FIFO/LIFO/regfile/memcpy |
//!
//! ## Quickstart
//!
//! ```
//! use emm_verif::aig::{Design, LatchInit, MemInit};
//! use emm_verif::bmc::{BmcEngine, BmcVerdict, VerifyOptions};
//!
//! // A design with an embedded memory: write 0xA to address 5 at cycle 1,
//! // read it back from cycle 3 on.
//! let mut d = Design::new();
//! let mem = d.add_memory("m", 3, 4, MemInit::Zero);
//! let t = d.new_latch_word("t", 3, LatchInit::Zero);
//! let next_t = d.aig.inc(&t);
//! d.set_next_word(&t, &next_t);
//! let at1 = d.aig.eq_const(&t, 1);
//! let waddr = d.aig.const_word(5, 3);
//! let wdata = d.aig.const_word(0xA, 4);
//! d.add_write_port(mem, waddr.clone(), at1, wdata);
//! let c3 = d.aig.const_word(3, 3);
//! let re = d.aig.ule(&c3, &t);
//! let rd = d.add_read_port(mem, waddr, re);
//! let hit = d.aig.eq_const(&rd, 0xA);
//! let bad = d.aig.and(hit, re);
//! d.add_property("sees_write", bad);
//! d.check().map_err(std::io::Error::other)?;
//!
//! // BMC with EMM finds the witness without expanding the memory.
//! let mut engine = BmcEngine::new(&d, VerifyOptions::default());
//! let run = engine.check(0, 10).map_err(std::io::Error::other)?;
//! assert!(matches!(run.verdict, BmcVerdict::Counterexample(_)));
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub use emm_aig as aig;
pub use emm_bdd as bdd;
pub use emm_bmc as bmc;
pub use emm_core as core;
pub use emm_designs as designs;
pub use emm_sat as sat;

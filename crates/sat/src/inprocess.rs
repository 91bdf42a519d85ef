//! The inprocessing loop: clause vivification, subsumption +
//! self-subsuming resolution, and failed-literal probing, run *between*
//! solve calls of a long-lived incremental solver.
//!
//! [`Solver::inprocess`] is designed for the incremental BMC lifecycle:
//! the `emm-bmc` engine calls it between bounds (and between k-induction
//! depths), so simplification effort spent once is amortized over every
//! later query on the same solver — the payoff a restart-from-scratch
//! solver can never collect.
//!
//! # Scheduling
//!
//! Inprocessing is off by default ([`InprocessConfig::enabled`]); a
//! disabled call returns at once, before any propagation or allocation,
//! so the engine's between-bounds call sites cost nothing. The BMC
//! queries are propagation-bound — conflicts are rare, most termination
//! checks answer SAT — and a round at every bound rewrote a database the
//! search never struggled with: it cost far more time than it saved in
//! conflicts. Enable it (`InprocessConfig::default().enabled(true)`) for
//! conflict-heavy searches; every call then runs one round.
//!
//! A round runs every enabled technique at its configured cap (see
//! [`InprocessConfig`]). Each technique resumes where the previous
//! round stopped through its own rotating cursor (clause id for
//! vivification and subsumption, variable index for probing), so
//! repeated rounds reach the whole database. A round leaves the saved
//! phases as it found them: vivification and probing backtrack through
//! the ordinary trail, and their trial assignments must not steer the
//! next search's decisions.
//!
//! # Soundness in an incremental solver
//!
//! Every rewrite performed here is a *logical consequence* of the
//! current clause database, with exactly the same retention contract as
//! learned clauses across [`Solver::retire_clause`]: retiring a clause
//! keeps derived consequences, which stays sound because the stack only
//! retires redundant clauses (satisfied group clauses after
//! [`Solver::retire_group`], definitional Tseitin triples of swept-away
//! gates). Three additional rules keep the retirement and activation
//! machinery intact:
//!
//! * **Original clauses are never deleted, only strengthened.** A
//!   strengthening replaces the clause's arena allocation and re-points
//!   the stable clause-id table at the new location, so
//!   `retire_clause`/`retire_group` (and their retirement accounting)
//!   behave identically afterwards. Subsumption may physically delete
//!   *learnt* clauses only.
//! * **Activation-guard literals are frozen.** Guard variables are
//!   never probed, and a group clause `¬g ∨ C` is only vivified under
//!   the assumption `g`, with `¬g` unconditionally kept — the
//!   strengthened clause is still a clause of group `g`. (Self-subsuming
//!   resolution can never remove `¬g` either: that would need a clause
//!   containing `g` positively, which by construction does not exist.)
//! * **Retired clauses are never touched.** The pass walks the
//!   clause-id table and skips invalidated entries.
//!
//! # Resource governance
//!
//! The pass honors the solver's [`ResourceGovernor`](crate::ResourceGovernor)
//! and the [`Budget`](crate::Budget) deadline (min-combined by the caller
//! via `Budget::with_earlier_deadline`): it polls once per clause/probe
//! *batch* — not per literal — and reports every examined clause or probe
//! to the fault injector ([`FaultSite::Vivify`], [`FaultSite::Subsume`],
//! [`FaultSite::Probe`]). A trip stops the pass at the next batch
//! boundary with the trail clean at level 0 and the solver fully usable;
//! a governor that is already tripped on entry makes the whole call a
//! no-op. Work already performed before a trip is kept — it is all
//! sound — and `SolverStats::inprocess_rounds` counts only passes that
//! ran to completion.

use std::time::Instant;

use crate::clause::{ClauseId, ClauseRef};
use crate::govern::{ExhaustionReason, FaultSite};
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// Knobs of the inprocessing loop ([`Solver::inprocess`]), nested in
/// [`SolverConfig::inprocess`](crate::SolverConfig::inprocess).
///
/// The master switch is off by default; the per-technique switches
/// default on, so `InprocessConfig::default().enabled(true)` runs every
/// technique. A round touches at most the capped slice of the database,
/// and the rotating cursors spread successive rounds across all of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InprocessConfig {
    /// Master switch; `false` (the default) makes [`Solver::inprocess`]
    /// a no-op.
    pub enabled: bool,
    /// Run clause vivification.
    pub vivify: bool,
    /// Run subsumption + self-subsuming resolution.
    pub subsume: bool,
    /// Run failed-literal probing.
    pub probe: bool,
    /// Maximum original clauses vivified per round.
    pub vivify_clause_budget: usize,
    /// Maximum clauses (originals + learnts) entering one subsumption
    /// sweep.
    pub subsume_clause_budget: usize,
    /// Maximum variables probed per round (both phases each).
    pub probe_var_budget: usize,
}

impl Default for InprocessConfig {
    fn default() -> InprocessConfig {
        InprocessConfig {
            enabled: false,
            vivify: true,
            subsume: true,
            probe: true,
            vivify_clause_budget: 512,
            subsume_clause_budget: 4096,
            probe_var_budget: 256,
        }
    }
}

impl InprocessConfig {
    /// A configuration with inprocessing fully off (the default).
    pub fn disabled() -> InprocessConfig {
        InprocessConfig::default().enabled(false)
    }

    /// Sets the master switch.
    pub fn enabled(mut self, on: bool) -> InprocessConfig {
        self.enabled = on;
        self
    }

    /// Enables or disables clause vivification.
    pub fn vivify(mut self, on: bool) -> InprocessConfig {
        self.vivify = on;
        self
    }

    /// Enables or disables subsumption/self-subsumption.
    pub fn subsume(mut self, on: bool) -> InprocessConfig {
        self.subsume = on;
        self
    }

    /// Enables or disables failed-literal probing.
    pub fn probe(mut self, on: bool) -> InprocessConfig {
        self.probe = on;
        self
    }

    /// Caps the original clauses vivified per round.
    pub fn vivify_clause_budget(mut self, n: usize) -> InprocessConfig {
        self.vivify_clause_budget = n;
        self
    }

    /// Caps the clauses entering one subsumption sweep.
    pub fn subsume_clause_budget(mut self, n: usize) -> InprocessConfig {
        self.subsume_clause_budget = n;
        self
    }

    /// Caps the variables probed per round.
    pub fn probe_var_budget(mut self, n: usize) -> InprocessConfig {
        self.probe_var_budget = n;
        self
    }
}

/// Governor/deadline poll cadence: once per this many vivified clauses
/// or probes (subsumption polls at the same cadence per subsumer).
const POLL_BATCH: usize = 16;

/// One subsumption candidate, mirrored out of the arena so the sweep
/// can run subset checks without re-borrowing the database.
struct SubsumeCand {
    cref: ClauseRef,
    lits: Vec<Lit>,
    /// Variable-occurrence signature (var-based so a single flipped
    /// literal — the self-subsumption case — still passes the filter).
    sig: u64,
    /// `Some(id)` for originals (strengthenings re-register this id);
    /// `None` for learnts.
    id: Option<ClauseId>,
    /// Index into `Solver::learnts` for learnt candidates.
    learnt_pos: Option<usize>,
    deleted: bool,
}

fn var_sig(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

impl Solver {
    /// Runs one bounded inprocessing round — vivification, subsumption +
    /// self-subsuming resolution, failed-literal probing (each
    /// individually switchable via [`InprocessConfig`]) when
    /// [`InprocessConfig::enabled`] is set; otherwise returns `None` at
    /// once.
    ///
    /// Returns `None` when the round completed (or did not run) and
    /// `Some(reason)` when the governor or the budget deadline stopped
    /// it early; either way the solver is left at decision level 0 and
    /// fully usable, with all work already done kept (it is all sound).
    /// See the module docs in `inprocess.rs` for the schedule and the
    /// soundness contract.
    ///
    /// # Examples
    ///
    /// ```
    /// use emm_sat::{InprocessConfig, SolveResult, Solver, SolverConfig};
    /// let mut s = Solver::with_config(SolverConfig::default().inprocess(
    ///     InprocessConfig::default().enabled(true),
    /// ));
    /// let a = s.new_var().positive();
    /// let b = s.new_var().positive();
    /// let c = s.new_var().positive();
    /// s.add_clause(&[a, b]);
    /// let wide = s.add_clause(&[a, b, c]).unwrap();
    /// assert_eq!(s.inprocess(), None);
    /// // (a ∨ b) strengthens (a ∨ b ∨ c) by vivification; the clause
    /// // keeps its id and stays retirable.
    /// assert_eq!(s.stats().vivified_literals, 1);
    /// assert!(s.retire_clause(wide));
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level zero.
    pub fn inprocess(&mut self) -> Option<ExhaustionReason> {
        assert_eq!(self.decision_level(), 0, "inprocess at level 0 only");
        if !self.config.inprocess.enabled || !self.ok {
            return None;
        }
        // An already-tripped governor (or an already-passed deadline)
        // makes the whole call a strict no-op.
        if let Some(reason) = self.inprocess_stop() {
            return Some(reason);
        }
        // Start from a fixpoint of level-0 propagation.
        if self.propagate().is_some() {
            self.ok = false;
            return None;
        }

        let frozen = self.frozen_vars();
        let config = self.config.inprocess.clone();
        // Trial assignments backtrack through `cancel_until`, which
        // saves phases; the round must not leave its probes behind.
        let phases = self.polarity.clone();
        let mut stopped = None;
        if config.vivify && stopped.is_none() && self.ok {
            stopped = self.vivify_pass(&frozen, config.vivify_clause_budget);
        }
        if config.subsume && stopped.is_none() && self.ok {
            stopped = self.subsume_pass(config.subsume_clause_budget);
        }
        if config.probe && stopped.is_none() && self.ok {
            stopped = self.probe_pass(&frozen, config.probe_var_budget);
        }
        self.polarity = phases;
        if stopped.is_none() && self.ok {
            self.stats.inprocess_rounds += 1;
        }
        // Reallocated and deleted clauses waste arena words; compact on
        // the same threshold the retirement path uses.
        if self.db.wasted() * 3 > self.db.capacity_words() {
            self.collect_garbage();
        }
        stopped
    }

    /// Cancellation, lifetime caps, and the per-call budget deadline —
    /// the stop condition checked once per batch inside every pass.
    fn inprocess_stop(&self) -> Option<ExhaustionReason> {
        if let Some(reason) = self.governor.poll() {
            return Some(reason);
        }
        if let Some(reason) = self
            .governor
            .check_counters(self.stats.conflicts, self.stats.propagations)
        {
            return Some(reason);
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustionReason::Deadline);
            }
        }
        None
    }

    /// Activation-guard variables: frozen for every technique.
    fn frozen_vars(&self) -> Vec<bool> {
        let mut frozen = vec![false; self.num_vars()];
        for &v in self.groups.keys() {
            frozen[v.index()] = true;
        }
        frozen
    }

    // ------------------------------------------------------------------
    // Vivification
    // ------------------------------------------------------------------

    /// Vivifies up to `budget` live original clauses, resuming at the
    /// rotating id cursor.
    fn vivify_pass(&mut self, frozen: &[bool], budget: usize) -> Option<ExhaustionReason> {
        let total = self.id_refs.len();
        if budget == 0 || total == 0 {
            return None;
        }
        let mut examined = 0usize;
        let mut since_poll = 0usize;
        let start = self.vivify_cursor % total;
        for step in 0..total {
            if examined >= budget {
                break;
            }
            let idx = (start + step) % total;
            self.vivify_cursor = idx + 1;
            let cref = self.id_refs[idx];
            // Retired (or never-allocated) ids are skipped untouched.
            if !cref.is_valid() || self.db.len(cref) < 3 {
                continue;
            }
            examined += 1;
            since_poll += 1;
            self.governor.note(FaultSite::Vivify);
            if since_poll >= POLL_BATCH {
                since_poll = 0;
                if let Some(reason) = self.inprocess_stop() {
                    return Some(reason);
                }
            }
            self.vivify_one(ClauseId(idx as u32), cref, frozen);
            if !self.ok {
                return None;
            }
        }
        self.inprocess_stop()
    }

    /// Vivifies one original clause: assume the negation of each literal
    /// in turn and propagate; a literal found implied (true) or a
    /// conflict proves a shortened clause, a literal found false is
    /// redundant and dropped. Frozen (activation-guard) literals are
    /// kept unconditionally and their guards assumed first, so a group
    /// clause is only strengthened *under its guard assumption*.
    ///
    /// The propagation runs with the clause itself still attached; that
    /// is sound (the strengthened clause is entailed by the database and
    /// subsumes the original, so the swap preserves equivalence) and the
    /// one circular case — the clause propagating its own last literal —
    /// only ever reproduces the full clause, a no-op.
    fn vivify_one(&mut self, id: ClauseId, cref: ClauseRef, frozen: &[bool]) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(!self.db.is_learnt(cref));
        let lits: Vec<Lit> = self.db.lits(cref).to_vec();
        // Satisfied at level 0: dead weight pending retirement by its
        // owner; leave untouched.
        if lits.iter().any(|&l| self.lit_value(l).is_true()) {
            return;
        }
        let (guards, body): (Vec<Lit>, Vec<Lit>) =
            lits.iter().partition(|l| frozen[l.var().index()]);
        if body.len() < 2 {
            return;
        }
        // Assume each guard's activation (¬guard-literal) first.
        for &gl in &guards {
            if !self.lit_value(gl).is_undef() {
                self.cancel_until(0);
                return;
            }
            self.trail_lim.push(self.trail.len());
            self.enqueue(!gl, ClauseRef::INVALID);
            if self.propagate().is_some() {
                // The activation itself conflicts; leave the clause to
                // the search (which will derive the unit properly).
                self.cancel_until(0);
                return;
            }
        }
        let mut kept: Vec<Lit> = guards;
        let full = kept.len() + body.len();
        for &l in &body {
            let v = self.lit_value(l);
            if v.is_true() {
                // DB ∧ ¬kept ⊢ l: the clause `kept ∨ l` is entailed.
                kept.push(l);
                break;
            }
            if v.is_false() {
                // DB ∧ ¬kept ⊢ ¬l: `l` is redundant in this clause.
                continue;
            }
            self.trail_lim.push(self.trail.len());
            self.enqueue(!l, ClauseRef::INVALID);
            if self.propagate().is_some() {
                // DB ∧ ¬kept ∧ ¬l ⊢ ⊥: the clause `kept ∨ l` is entailed.
                kept.push(l);
                break;
            }
            kept.push(l);
        }
        self.cancel_until(0);
        if kept.len() >= full {
            return;
        }
        let removed = (full - kept.len()) as u64;
        self.stats.vivified_clauses += 1;
        self.stats.vivified_literals += removed;
        match kept.len() {
            0 => {
                // Every literal was false at level 0: the database is
                // unsatisfiable outright.
                self.ok = false;
            }
            1 => {
                // Shrinking an original to a unit would break the
                // retirement accounting of its owner; assert the unit as
                // its own (redundant-making) clause and leave the
                // original in place, now level-0 satisfied.
                self.add_clause(&[kept[0]]);
            }
            _ => {
                self.replace_original(id, cref, &kept);
            }
        }
    }

    /// Replaces an original clause's allocation with a strengthened
    /// literal set, re-pointing the stable clause-id table so retirement
    /// by id keeps working — "replayed through the id table".
    fn replace_original(&mut self, id: ClauseId, cref: ClauseRef, new_lits: &[Lit]) {
        debug_assert!(new_lits.len() >= 2);
        self.detach(cref);
        self.db.delete(cref);
        let new_cref = self.db.alloc(new_lits, false, id);
        self.register_ref(id, new_cref);
        self.attach(new_cref);
    }

    // ------------------------------------------------------------------
    // Subsumption + self-subsuming resolution
    // ------------------------------------------------------------------

    /// One bounded subsumption sweep over live originals and learnts.
    /// The originals are taken from the rotating id cursor, so
    /// successive rounds cover the whole id table; learnts fill what is
    /// left of the `cap`. `C ⊆ D` deletes `D` when `D` is learnt
    /// (originals stay, they are merely redundant);
    /// `C \ {l} ⊆ D ∧ ¬l ∈ D` strengthens `D` by removing `¬l`
    /// (self-subsuming resolution), originals included — strengthening
    /// preserves the clause id.
    fn subsume_pass(&mut self, cap: usize) -> Option<ExhaustionReason> {
        let total = self.id_refs.len();
        if cap == 0 || total == 0 {
            return None;
        }
        let mut cands: Vec<SubsumeCand> = Vec::new();
        let start = self.subsume_cursor % total;
        for step in 0..total {
            if cands.len() >= cap {
                break;
            }
            let idx = (start + step) % total;
            self.subsume_cursor = idx + 1;
            let cref = self.id_refs[idx];
            if !cref.is_valid() || self.db.len(cref) < 2 {
                continue;
            }
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            if lits.iter().any(|&l| self.lit_value(l).is_true()) {
                continue;
            }
            cands.push(SubsumeCand {
                cref,
                sig: var_sig(&lits),
                lits,
                id: Some(ClauseId(idx as u32)),
                learnt_pos: None,
                deleted: false,
            });
        }
        for pos in 0..self.learnts.len() {
            if cands.len() >= cap {
                break;
            }
            let cref = self.learnts[pos];
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            if lits.iter().any(|&l| self.lit_value(l).is_true()) {
                continue;
            }
            cands.push(SubsumeCand {
                cref,
                sig: var_sig(&lits),
                lits,
                id: None,
                learnt_pos: Some(pos),
                deleted: false,
            });
        }
        if cands.len() < 2 {
            return None;
        }

        // Variable-occurrence lists, indexed by variable.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars()];
        for (ci, cand) in cands.iter().enumerate() {
            for &l in &cand.lits {
                occ[l.var().index()].push(ci as u32);
            }
        }
        // Shortest subsumers first: they prune the most.
        let mut order: Vec<u32> = (0..cands.len() as u32).collect();
        order.sort_by_key(|&ci| cands[ci as usize].lits.len());

        let result = self.subsume_sweep(&mut cands, &occ, &order);
        // Compact the learnt list past any deletions.
        let db = &self.db;
        self.learnts.retain(|&c| !db.is_deleted(c));
        result
    }

    fn subsume_sweep(
        &mut self,
        cands: &mut [SubsumeCand],
        occ: &[Vec<u32>],
        order: &[u32],
    ) -> Option<ExhaustionReason> {
        let mut since_poll = 0usize;
        for &ci in order {
            let ci = ci as usize;
            if cands[ci].deleted {
                continue;
            }
            since_poll += 1;
            self.governor.note(FaultSite::Subsume);
            if since_poll >= POLL_BATCH {
                since_poll = 0;
                if let Some(reason) = self.inprocess_stop() {
                    return Some(reason);
                }
            }
            // Walk the sparsest occurrence list among C's variables.
            let pivot = cands[ci]
                .lits
                .iter()
                .map(|l| &occ[l.var().index()])
                .min_by_key(|list| list.len());
            let Some(pivot) = pivot else { continue };
            for &di in pivot {
                let di = di as usize;
                if di == ci || cands[di].deleted {
                    continue;
                }
                if cands[di].lits.len() < cands[ci].lits.len() {
                    continue;
                }
                if cands[ci].sig & !cands[di].sig != 0 {
                    continue;
                }
                let Some(flipped) = subset_with_one_flip(&cands[ci].lits, &cands[di].lits) else {
                    continue;
                };
                match flipped {
                    None => self.subsume_delete(&mut cands[di]),
                    Some(drop_lit) => self.subsume_strengthen(&mut cands[di], drop_lit),
                }
                if !self.ok {
                    return None;
                }
            }
        }
        self.inprocess_stop()
    }

    /// `C` subsumes `D` outright: delete `D` when it is learnt. A
    /// subsumed *original* stays — it is redundant but its owner may
    /// still retire it by id, and physical deletion here would silently
    /// void that retirement.
    fn subsume_delete(&mut self, d: &mut SubsumeCand) {
        let Some(pos) = d.learnt_pos else { return };
        debug_assert!(self.db.is_learnt(d.cref));
        debug_assert_eq!(self.learnts[pos], d.cref);
        self.detach(d.cref);
        self.db.delete(d.cref);
        d.deleted = true;
        self.stats.learned_clauses -= 1;
        self.stats.subsumed_clauses += 1;
        self.stats.subsumed_literals += d.lits.len() as u64;
    }

    /// Self-subsuming resolution: remove `drop_lit` from `D`, keeping
    /// its identity (clause id for originals, learnt-list slot and LBD
    /// bound for learnts).
    fn subsume_strengthen(&mut self, d: &mut SubsumeCand, drop_lit: Lit) {
        // Freshly satisfied at level 0 (a unit derived earlier in this
        // pass): leave it for its owner.
        if d.lits.iter().any(|&l| self.lit_value(l).is_true()) {
            return;
        }
        let new_lits: Vec<Lit> = d.lits.iter().copied().filter(|&l| l != drop_lit).collect();
        debug_assert_eq!(new_lits.len() + 1, d.lits.len());
        self.stats.subsumed_literals += 1;
        if new_lits.len() == 1 {
            // Strengthened to a unit: assert it as its own clause; the
            // old allocation becomes level-0 satisfied (original) or is
            // deleted (learnt).
            if let Some(pos) = d.learnt_pos {
                debug_assert_eq!(self.learnts[pos], d.cref);
                self.detach(d.cref);
                self.db.delete(d.cref);
                d.deleted = true;
                self.stats.learned_clauses -= 1;
            }
            self.add_clause(&[new_lits[0]]);
            return;
        }
        match d.id {
            Some(id) => {
                self.replace_original(id, d.cref, &new_lits);
                d.cref = self.id_ref(id);
            }
            None => {
                let pos = d.learnt_pos.expect("learnt candidates carry their slot");
                let lbd = self.db.lbd(d.cref).min(new_lits.len() as u32);
                let activity = self.db.activity(d.cref);
                self.detach(d.cref);
                self.db.delete(d.cref);
                let new_cref = self.db.alloc(&new_lits, true, ClauseId::UNTRACKED);
                self.db.set_lbd(new_cref, lbd);
                self.db.set_activity(new_cref, activity);
                self.attach(new_cref);
                self.learnts[pos] = new_cref;
                d.cref = new_cref;
            }
        }
        d.lits = new_lits;
        d.sig = var_sig(&d.lits);
    }

    /// Current arena location of an original clause id.
    fn id_ref(&self, id: ClauseId) -> ClauseRef {
        self.id_refs[id.0 as usize]
    }

    // ------------------------------------------------------------------
    // Failed-literal probing
    // ------------------------------------------------------------------

    /// Probes up to `budget` unassigned non-guard variables (both
    /// phases): assume the literal, propagate, and on conflict assert
    /// its negation as a level-0 unit.
    fn probe_pass(&mut self, frozen: &[bool], budget: usize) -> Option<ExhaustionReason> {
        let n = self.num_vars();
        if budget == 0 || n == 0 {
            return None;
        }
        let mut probed = 0usize;
        let mut since_poll = 0usize;
        let start = self.probe_cursor % n;
        for step in 0..n {
            if probed >= budget {
                break;
            }
            let vi = (start + step) % n;
            self.probe_cursor = vi + 1;
            let v = Var::from_index(vi);
            if frozen[vi] || !self.lit_value(v.positive()).is_undef() {
                continue;
            }
            probed += 1;
            since_poll += 1;
            self.governor.note(FaultSite::Probe);
            if since_poll >= POLL_BATCH {
                since_poll = 0;
                if let Some(reason) = self.inprocess_stop() {
                    return Some(reason);
                }
            }
            for phase in [true, false] {
                let l = Lit::new(v, phase);
                // The first phase's failure may have assigned the var.
                if !self.lit_value(l).is_undef() {
                    continue;
                }
                self.trail_lim.push(self.trail.len());
                self.enqueue(l, ClauseRef::INVALID);
                let conflict = self.propagate().is_some();
                self.cancel_until(0);
                self.stats.probed_literals += 1;
                if conflict {
                    self.stats.failed_literals += 1;
                    self.add_clause(&[!l]);
                    if !self.ok {
                        return None;
                    }
                }
            }
        }
        self.inprocess_stop()
    }
}

/// Checks `C ⊆ D` modulo at most one flipped literal. Returns `None`
/// when the relation does not hold, `Some(None)` for plain subsumption,
/// and `Some(Some(d_lit))` when exactly one literal of `C` appears
/// negated in `D` as `d_lit` — the literal self-subsuming resolution
/// removes from `D`.
fn subset_with_one_flip(c: &[Lit], d: &[Lit]) -> Option<Option<Lit>> {
    let mut flipped: Option<Lit> = None;
    'outer: for &cl in c {
        for &dl in d {
            if dl == cl {
                continue 'outer;
            }
            if dl == !cl {
                if flipped.is_some() {
                    return None;
                }
                flipped = Some(dl);
                continue 'outer;
            }
        }
        return None;
    }
    Some(flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::ResourceGovernor;
    use crate::solver::{Budget, SolveResult, SolverConfig};
    use std::time::Instant;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    /// A solver whose inprocessing has no effort caps, so unit tests
    /// exercise every technique deterministically.
    fn eager() -> Solver {
        Solver::with_config(
            SolverConfig::default().inprocess(
                InprocessConfig::default()
                    .vivify_clause_budget(usize::MAX)
                    .subsume_clause_budget(usize::MAX)
                    .probe_var_budget(usize::MAX)
                    .enabled(true),
            ),
        )
    }

    #[test]
    fn default_config_is_off_and_enabled_runs_a_round_per_call() {
        let mut s = Solver::new();
        assert!(!s.config.inprocess.enabled, "off by default");
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats.inprocess_rounds, 0);
        assert_eq!(s.stats.vivified_clauses, 0);
        // Switched on, every call runs a round, whatever the conflicts.
        s.config.inprocess.enabled = true;
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats.inprocess_rounds, 1);
        assert_eq!(s.stats.vivified_clauses, 1);
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats.inprocess_rounds, 2);
    }

    #[test]
    fn a_round_leaves_saved_phases_untouched() {
        let mut s = eager();
        let v = vars(&mut s, 6);
        for i in 0..4 {
            s.add_clause(&[!v[i], v[i + 1]]);
            s.add_clause(&[v[i], v[i + 1], v[i + 2]]);
        }
        for (i, l) in v.iter().enumerate() {
            s.set_polarity(l.var(), i % 2 == 0);
        }
        let before = s.polarity.clone();
        assert_eq!(s.inprocess(), None);
        assert!(
            s.stats().probed_literals > 0,
            "the round assigned trial literals"
        );
        assert_eq!(s.polarity, before);
    }

    #[test]
    fn subsumption_resumes_past_its_budget_window() {
        let mut s = Solver::with_config(
            SolverConfig::default().inprocess(
                InprocessConfig::default()
                    .vivify(false)
                    .probe(false)
                    .subsume_clause_budget(4)
                    .enabled(true),
            ),
        );
        let v = vars(&mut s, 11);
        // Four unrelated clauses fill the first window ...
        for i in 0..4 {
            s.add_clause(&[v[2 * i], v[2 * i + 1]]);
        }
        // ... and the self-subsuming pair (a ∨ b), (a ∨ ¬b ∨ c) lies
        // beyond it.
        s.add_clause(&[v[8], v[9]]);
        s.add_clause(&[v[8], !v[9], v[10]]);
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().subsumed_literals, 0, "first window: no pair");
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().subsumed_literals, 1, "second window finds it");
        assert_eq!(s.stats().inprocess_rounds, 2);
    }

    #[test]
    fn vivification_strengthens_entailed_clause() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        let wide = s.add_clause(&[v[0], v[1], v[2]]).unwrap();
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().vivified_clauses, 1);
        assert_eq!(s.stats().vivified_literals, 1);
        // The id survived the strengthening: the clause is retirable.
        assert!(s.retire_clause(wide));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn self_subsumption_strengthens_original_in_place() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        // (a ∨ b) and (a ∨ ¬b ∨ c): resolving removes ¬b from the
        // second clause, leaving (a ∨ c).
        s.add_clause(&[v[0], v[1]]);
        let target = s.add_clause(&[v[0], !v[1], v[2]]).unwrap();
        // Probing would solve the instance by itself; isolate subsumption.
        s.config.inprocess.probe = false;
        s.config.inprocess.vivify = false;
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().subsumed_literals, 1);
        // ¬a now propagates c through the strengthened clause.
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
        assert!(s.retire_clause(target));
    }

    #[test]
    fn subsumed_original_clause_is_left_retirable() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        let redundant = s.add_clause(&[v[0], v[1], v[2]]).unwrap();
        s.config.inprocess.vivify = false;
        s.config.inprocess.probe = false;
        assert_eq!(s.inprocess(), None);
        // Plain subsumption never deletes originals.
        assert_eq!(s.stats().subsumed_clauses, 0);
        assert!(s.retire_clause(redundant), "original stayed retirable");
    }

    #[test]
    fn probing_derives_failed_literal_units() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        // a implies both b and ¬b: probing a must fail and assert ¬a.
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        s.add_clause(&[v[0], v[2]]);
        // Self-subsumption would derive the same unit first; isolate
        // the probing technique.
        s.config.inprocess.vivify = false;
        s.config.inprocess.subsume = false;
        assert_eq!(s.inprocess(), None);
        assert!(s.stats().failed_literals >= 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(false));
        assert_eq!(s.model_value(v[2]), Some(true));
    }

    #[test]
    fn group_guard_clauses_only_strengthen_under_their_guard() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        let g = s.new_activation_group();
        // Group clauses ¬g ∨ a ∨ b (side) and ¬g ∨ a ∨ b ∨ c (wide):
        // under the guard assumption, c is dropped from the wide
        // clause; ¬g must survive.
        s.add_clause_in_group(g, &[v[0], v[1]]).unwrap();
        let gc = s.add_clause_in_group(g, &[v[0], v[1], v[2]]).unwrap();
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().vivified_clauses, 1);
        let cref = s.id_refs[gc.0 as usize];
        let lits: Vec<Lit> = s.db.lits(cref).to_vec();
        assert!(lits.contains(&!g), "guard literal survives strengthening");
        assert_eq!(lits.len(), 3, "exactly the entailed literal dropped");
        // The guard variable was never probed into a level-0 value.
        assert!(s.lit_value(g).is_undef());
        // Group semantics intact: active under g, inert without.
        assert_eq!(s.solve_with(&[g, !v[0], !v[1], !v[2]]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!v[0], !v[1], !v[2]]), SolveResult::Sat);
        // Retirement accounting unchanged: both group clauses (one of
        // them strengthened) are still owned by the group.
        assert_eq!(s.retire_group(g), 2);
    }

    #[test]
    fn retired_clauses_are_skipped() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        let wide = s.add_clause(&[v[0], v[1], v[2]]).unwrap();
        assert!(s.retire_clause(wide));
        let retired_before = s.stats().retired_clauses;
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().vivified_clauses, 0, "retired ids untouched");
        assert_eq!(s.stats().retired_clauses, retired_before);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn precancelled_governor_makes_inprocess_a_usable_noop() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        let gov = ResourceGovernor::unlimited();
        gov.cancel();
        s.set_governor(gov.clone());
        assert_eq!(s.inprocess(), Some(ExhaustionReason::Cancelled));
        assert_eq!(s.stats().vivified_clauses, 0);
        assert_eq!(s.stats().probed_literals, 0);
        assert_eq!(s.stats().inprocess_rounds, 0);
        // The solver is untouched and immediately usable again.
        gov.reset_cancellation();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn expired_budget_deadline_stops_inprocessing() {
        let mut s = eager();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.set_budget(Budget::unlimited().with_earlier_deadline(Some(Instant::now())));
        assert_eq!(s.inprocess(), Some(ExhaustionReason::Deadline));
        assert_eq!(s.stats().inprocess_rounds, 0);
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn expired_deadline_with_nonzero_budgets_is_a_strict_noop() {
        // Nonzero per-technique budgets must not buy even one unit of
        // work once the deadline is behind us: the deadline is checked
        // before the first clause/probe is touched, so every
        // inprocessing counter stays at zero.
        let mut s = Solver::with_config(
            SolverConfig::default().inprocess(
                InprocessConfig::default()
                    .vivify_clause_budget(64)
                    .subsume_clause_budget(64)
                    .probe_var_budget(64)
                    .enabled(true),
            ),
        );
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[1], v[2], v[3]]);
        s.set_budget(Budget::unlimited().with_earlier_deadline(Some(Instant::now())));
        assert_eq!(s.inprocess(), Some(ExhaustionReason::Deadline));
        let stats = s.stats();
        assert_eq!(stats.vivified_clauses, 0);
        assert_eq!(stats.vivified_literals, 0);
        assert_eq!(stats.subsumed_clauses, 0);
        assert_eq!(stats.subsumed_literals, 0);
        assert_eq!(stats.probed_literals, 0);
        assert_eq!(stats.failed_literals, 0);
        assert_eq!(stats.inprocess_rounds, 0);
        // And the solver is immediately usable once the budget allows.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
    }

    #[test]
    fn fault_mid_vivification_stops_cleanly() {
        let mut s = eager();
        let v = vars(&mut s, 40);
        for i in 0..38 {
            s.add_clause(&[v[i], v[i + 1]]);
            s.add_clause(&[v[i], v[i + 1], v[i + 2]]);
        }
        // Trip cancellation on the very first vivified clause.
        s.set_governor(ResourceGovernor::unlimited().with_fault(FaultSite::Vivify, 1));
        assert_eq!(s.inprocess(), Some(ExhaustionReason::Cancelled));
        assert_eq!(s.decision_level(), 0, "trail clean after the trip");
        assert_eq!(s.stats().inprocess_rounds, 0);
        // Usable after a governor replacement, and still correct.
        s.set_governor(ResourceGovernor::unlimited());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
    }

    #[test]
    fn fault_sites_cover_each_technique() {
        for site in [FaultSite::Vivify, FaultSite::Subsume, FaultSite::Probe] {
            let mut s = eager();
            let v = vars(&mut s, 8);
            for i in 0..6 {
                s.add_clause(&[v[i], v[i + 1]]);
                s.add_clause(&[v[i], v[i + 1], v[i + 2]]);
            }
            s.set_governor(ResourceGovernor::unlimited().with_fault(site, 1));
            assert_eq!(
                s.inprocess(),
                Some(ExhaustionReason::Cancelled),
                "{site:?} must be noted inside its technique"
            );
            s.set_governor(ResourceGovernor::unlimited());
            assert_eq!(s.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn disabled_config_is_a_noop_even_when_cancelled() {
        let mut s =
            Solver::with_config(SolverConfig::default().inprocess(InprocessConfig::disabled()));
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.stats().inprocess_rounds, 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn inprocess_detects_unsat_database() {
        let mut s = eager();
        let v = vars(&mut s, 2);
        // a ↔ b plus a xor b: unsatisfiable; probing both phases of `a`
        // fails and the second failed unit conflicts at level 0.
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[v[0], !v[1]]);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.inprocess(), None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn inprocessing_between_queries_preserves_answers() {
        // A deterministic miniature of the BMC cadence: interleave
        // solve calls and inprocessing on one growing solver and check
        // answers against fresh reference solvers.
        let mut s = eager();
        let v = vars(&mut s, 12);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..8 {
            for _ in 0..6 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let r = rng();
                    let var = v[(r % 12) as usize];
                    c.push(if r & 0x1000 == 0 { var } else { !var });
                }
                c.sort_unstable();
                c.dedup();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            assert_eq!(s.inprocess(), None, "round {round}");
            let got = s.solve();
            let mut reference = Solver::new();
            let _ = vars(&mut reference, 12);
            for c in &clauses {
                reference.add_clause(c);
            }
            assert_eq!(got, reference.solve(), "round {round}");
            if got == SolveResult::Unsat {
                break;
            }
        }
    }
}

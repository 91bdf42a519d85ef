//! Arena-allocated clause storage with mark-and-compact garbage collection.
//!
//! Clauses live in one contiguous `Vec<u32>`; a [`ClauseRef`] is an offset
//! into that arena. Each clause has a fixed four-word header:
//!
//! ```text
//! word 0: literal count
//! word 1: flags (bit 0: learnt, bit 1: deleted, bit 2: gc mark)
//! word 2: clause id (0 for learnt clauses)
//! word 3: activity (f32 bits, learnt clauses) | LBD in high bits of word 1
//! ```
//!
//! followed by the literals. Deleted clauses are only marked; space is
//! reclaimed by [`ClauseDb::collect_garbage`], which compacts the arena and
//! reports the relocation map to the caller so watch lists and reason
//! pointers can be patched.

use crate::lit::Lit;

/// Stable identifier of an original clause, the handle
/// [`Solver::retire_clause`](crate::Solver::retire_clause) takes.
///
/// Ids are assigned by the solver in insertion order and survive garbage
/// collection (unlike the internal `ClauseRef`, which is a raw arena offset).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClauseId(pub u32);

impl ClauseId {
    /// Id of clauses that can never be retired by id (learnt clauses).
    pub const UNTRACKED: ClauseId = ClauseId(0);

    /// Returns `true` for ids the solver assigned to an original clause.
    #[inline]
    pub fn is_tracked(self) -> bool {
        self.0 != 0
    }
}

/// A reference to a clause in the arena (a raw offset).
///
/// Invalidated by [`ClauseDb::collect_garbage`]; the relocation callback
/// must be used to update any stored references.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// A sentinel that never refers to a real clause.
    pub const INVALID: ClauseRef = ClauseRef(u32::MAX);

    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` unless this is [`ClauseRef::INVALID`].
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }
}

const HEADER_WORDS: usize = 4;
const FLAG_LEARNT: u32 = 1;
const FLAG_DELETED: u32 = 2;
const FLAG_MARK: u32 = 4;
const LBD_SHIFT: u32 = 8;

/// The clause arena.
#[derive(Debug, Default)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Words occupied by deleted clauses, to decide when to compact.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Allocates a clause; returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (empty clauses are handled by the solver
    /// before reaching the arena).
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, id: ClauseId) -> ClauseRef {
        assert!(!lits.is_empty(), "cannot allocate an empty clause");
        let offset = self.arena.len();
        self.arena.push(lits.len() as u32);
        self.arena.push(if learnt { FLAG_LEARNT } else { 0 });
        self.arena.push(id.0);
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(offset as u32)
    }

    /// Returns the literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let off = cref.offset();
        let len = self.arena[off] as usize;
        let body = &self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        // SAFETY: `Lit` is `#[repr(transparent)]` over `u32`, so it has the
        // size, alignment and validity of `u32` and every `u32` is a valid
        // `Lit`. `body` is a bounds-checked subslice of the arena holding
        // exactly `len` words, so the new slice covers memory `body` owns
        // and borrows it for the same lifetime.
        unsafe { std::slice::from_raw_parts(body.as_ptr().cast::<Lit>(), len) }
    }

    /// Returns the literals of a clause, mutably.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let off = cref.offset();
        let len = self.arena[off] as usize;
        let body = &mut self.arena[off + HEADER_WORDS..off + HEADER_WORDS + len];
        // SAFETY: as in `lits`; the exclusive borrow of `body` makes the
        // mutable slice unique, and any `Lit` written back is a valid `u32`.
        unsafe { std::slice::from_raw_parts_mut(body.as_mut_ptr().cast::<Lit>(), len) }
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.arena[cref.offset()] as usize
    }

    /// Returns `true` if the arena holds no clauses.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Returns `true` if the clause was learned during search.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset() + 1] & FLAG_LEARNT != 0
    }

    /// Returns `true` if the clause has been deleted (awaiting GC).
    #[inline]
    #[allow(dead_code)]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset() + 1] & FLAG_DELETED != 0
    }

    /// Returns the id stored in the clause header. Only the tests read it
    /// back: the solver maps ids to arena refs through its own table.
    #[cfg(test)]
    pub fn id(&self, cref: ClauseRef) -> ClauseId {
        ClauseId(self.arena[cref.offset() + 2])
    }

    /// Returns the clause activity (learnt clauses only; 0.0 otherwise).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.arena[cref.offset() + 3])
    }

    /// Sets the clause activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.arena[cref.offset() + 3] = activity.to_bits();
    }

    /// Returns the stored literal-block-distance of a learnt clause.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.offset() + 1] >> LBD_SHIFT
    }

    /// Stores the literal-block-distance of a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let off = cref.offset() + 1;
        let flags = self.arena[off] & ((1 << LBD_SHIFT) - 1);
        self.arena[off] = flags | (lbd.min(u32::MAX >> LBD_SHIFT) << LBD_SHIFT);
    }

    // NOTE: there is deliberately no in-place `shrink`: reducing the
    // stored length word would desynchronize the linear arena walk that
    // `collect_garbage`/`ClauseIter` use to advance from clause to
    // clause. Strengthening (inprocess.rs) reallocates instead: alloc
    // the shorter clause under the same id, delete the old allocation,
    // and let GC compact.

    /// Marks a clause deleted; the space is reclaimed by the next GC.
    pub fn delete(&mut self, cref: ClauseRef) {
        let off = cref.offset();
        debug_assert!(self.arena[off + 1] & FLAG_DELETED == 0);
        self.arena[off + 1] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.arena[off] as usize;
    }

    /// Words currently wasted by deleted clauses.
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total words in the arena.
    pub fn capacity_words(&self) -> usize {
        self.arena.len()
    }

    /// Compacts the arena, dropping deleted clauses.
    ///
    /// Calls `relocate(old, new)` for every surviving clause so the owner can
    /// patch watch lists and reason references.
    pub fn collect_garbage(&mut self, mut relocate: impl FnMut(ClauseRef, ClauseRef)) {
        let mut new_arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut off = 0usize;
        while off < self.arena.len() {
            let len = self.arena[off] as usize;
            let flags = self.arena[off + 1];
            let total = HEADER_WORDS + len;
            if flags & FLAG_DELETED == 0 {
                let new_off = new_arena.len();
                new_arena.extend_from_slice(&self.arena[off..off + total]);
                relocate(ClauseRef(off as u32), ClauseRef(new_off as u32));
            }
            off += total;
        }
        self.arena = new_arena;
        self.wasted = 0;
    }

    /// Iterates over the references of all live clauses.
    #[allow(dead_code)]
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { db: self, off: 0 }
    }

    #[allow(dead_code)]
    fn flag_mark(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset() + 1] & FLAG_MARK != 0
    }
}

/// Iterator over live clause references; see [`ClauseDb::iter`].
#[derive(Debug)]
#[allow(dead_code)]
pub struct ClauseIter<'a> {
    db: &'a ClauseDb,
    off: usize,
}

impl Iterator for ClauseIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.off < self.db.arena.len() {
            let cref = ClauseRef(self.off as u32);
            let len = self.db.arena[self.off] as usize;
            self.off += HEADER_WORDS + len;
            if !self.db.is_deleted(cref) {
                return Some(cref);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(idx: &[usize]) -> Vec<Lit> {
        idx.iter().map(|&i| Var::from_index(i).positive()).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), false, ClauseId(7));
        let b = db.alloc(&lits(&[4, 5]), true, ClauseId::UNTRACKED);
        assert_eq!(db.lits(a), &lits(&[1, 2, 3])[..]);
        assert_eq!(db.lits(b), &lits(&[4, 5])[..]);
        assert_eq!(db.len(a), 3);
        assert!(!db.is_learnt(a));
        assert!(db.is_learnt(b));
        assert_eq!(db.id(a), ClauseId(7));
        assert!(!db.id(b).is_tracked());
    }

    #[test]
    fn activity_and_lbd() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[0, 1]), true, ClauseId::UNTRACKED);
        db.set_activity(c, 3.5);
        assert_eq!(db.activity(c), 3.5);
        db.set_lbd(c, 9);
        assert_eq!(db.lbd(c), 9);
        assert!(db.is_learnt(c), "lbd must not clobber flags");
        db.set_activity(c, 1.25);
        assert_eq!(db.lbd(c), 9);
    }

    #[test]
    fn gc_compacts_and_relocates() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), false, ClauseId(1));
        let b = db.alloc(&lits(&[4, 5]), true, ClauseId(2));
        let c = db.alloc(&lits(&[6, 7, 8, 9]), false, ClauseId(3));
        db.delete(b);
        assert!(db.wasted() > 0);
        let mut moves = Vec::new();
        db.collect_garbage(|old, new| moves.push((old, new)));
        assert_eq!(moves.len(), 2);
        assert_eq!(moves[0].0, a);
        // After compaction the surviving clauses are contiguous.
        let survivors: Vec<ClauseRef> = db.iter().collect();
        assert_eq!(survivors.len(), 2);
        assert_eq!(db.lits(survivors[0]), &lits(&[1, 2, 3])[..]);
        assert_eq!(db.lits(survivors[1]), &lits(&[6, 7, 8, 9])[..]);
        assert_eq!(db.id(survivors[1]), ClauseId(3));
        let _ = c;
        assert_eq!(db.wasted(), 0);
    }
}

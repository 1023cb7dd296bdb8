//! Feasibility solving over recorded path constraints.
//!
//! The concolic engine records [`Constraint`]s — branch conditions over
//! interned [`ExprId`]s — and the generational search asks one question per
//! flip: *is there an input that satisfies this constraint sequence?*
//! [`SearchSolver`] answers it with inversion, exhaustive enumeration of
//! small domains and bounded random search — the same concrete strategies
//! the engine previously hard-coded.
//!
//! # Example
//!
//! ```
//! use raindrop_attacks::solver::{Constraint, SearchSolver, VarDomain};
//! use raindrop_attacks::sym::{BinKind, ExprArena};
//! use raindrop_machine::Cond;
//!
//! let mut arena = ExprArena::new();
//! let x = arena.input(0);
//! let k = arena.constant(17);
//! let lhs = arena.bin(BinKind::Add, x, k);
//! let rhs = arena.constant(59);
//! // Ask for an input driving the branch `x + 17 == 59` the taken way.
//! let query = [Constraint { lhs, rhs, flag_is_sub: true, cond: Cond::E, taken: true }];
//! let domain = VarDomain { vars: 1, mask: u64::MAX, exhaustive: None };
//! let mut solver = SearchSolver::default();
//! let input = solver.feasible(&mut arena, &query, &domain, &[0]).expect("invertible");
//! assert_eq!(input[0], 42);
//! ```

use crate::sym::{hash_stream, invert, EvalMemo, ExprArena, ExprId};
use raindrop_machine::{Cond, Flags};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, HashMap};

/// One recorded path constraint: the flag-producing operands, the branch
/// condition and the direction observed at record time.
///
/// A plain `Copy` struct of interned ids. Within one arena, derived
/// equality/hashing *is* structural equality (interning guarantees it), so
/// the constraint doubles as its own exact dedup key — the canonical byte
/// serialization the previous representation rebuilt on every fork is gone
/// from the hot path (retained only as [`Constraint::canonical_bytes`] for
/// audits and the key-soundness suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left flag operand.
    pub lhs: ExprId,
    /// Right flag operand.
    pub rhs: ExprId,
    /// Whether the flags came from a subtraction (`cmp`) or an AND (`test`).
    pub flag_is_sub: bool,
    /// The branch condition.
    pub cond: Cond,
    /// Whether the branch was taken in the recorded execution.
    pub taken: bool,
}

impl Constraint {
    /// Evaluates the branch outcome for a concrete input assignment.
    pub fn outcome(&self, arena: &ExprArena, input: &[u64], memo: &mut EvalMemo) -> bool {
        let a = arena.eval(self.lhs, input, memo);
        let b = arena.eval(self.rhs, input, memo);
        let mut flags = Flags::cleared();
        if self.flag_is_sub {
            flags.set_sub(a, b, false);
        } else {
            flags.set_logic(a & b);
        }
        self.cond.eval(flags)
    }

    /// Whether the constraint holds in the direction observed at record
    /// time for the given input.
    pub fn satisfied_as_recorded(
        &self,
        arena: &ExprArena,
        input: &[u64],
        memo: &mut EvalMemo,
    ) -> bool {
        self.outcome(arena, input, memo) == self.taken
    }

    /// 128-bit structural hash of the constraint, O(1) from the operands'
    /// cached structural hashes. Arena-independent (structurally equal
    /// constraints from different arenas hash equal), which is what lets
    /// the solve cache persist across engine runs.
    pub fn structural_hash(&self, arena: &ExprArena) -> u128 {
        hash_stream(&[
            arena.structural_hash(self.lhs),
            arena.structural_hash(self.rhs),
            0xfe,
            self.flag_is_sub as u128,
            self.cond as u8 as u128,
            self.taken as u128,
        ])
    }

    /// Canonical byte serialization of the constraint — the exact
    /// (collision-free) reference key. Tree-sized output; kept off the hot
    /// path, for the key-soundness property suite and audits only.
    pub fn canonical_bytes(&self, arena: &ExprArena) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        arena.write_canonical(self.lhs, &mut out);
        out.push(0xfe);
        arena.write_canonical(self.rhs, &mut out);
        out.push(self.flag_is_sub as u8);
        out.push(self.cond as u8);
        out.push(self.taken as u8);
        out
    }
}

/// A concrete input: one value per input variable.
pub type Assignment = Vec<u64>;

/// The value domain of the input variables, from the attack's `InputSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarDomain {
    /// Number of input variables.
    pub vars: usize,
    /// Bitmask of meaningful bits in each variable.
    pub mask: u64,
    /// When the per-variable domain is small enough to enumerate (byte
    /// buffers, 1/2-byte register arguments), its size; `None` otherwise.
    pub exhaustive: Option<u64>,
}

/// The feasibility search: inversion along invertible operator
/// chains, exhaustive walks of small variable domains, and bounded random
/// search with a depth backoff.
///
/// Queries are checked against the *recorded* form of the path: a
/// candidate is feasible for a flip at index `i` iff the first recorded
/// constraint it violates is exactly `i` (the prefix holds as recorded,
/// the flipped constraint is violated as recorded). The solver memoizes
/// that first-violated index per candidate and keeps the memo across the
/// deepest-first flip sweep of one record — strategies re-try overlapping
/// candidate sets at every flip (the exhaustive domain walk literally
/// replays the same values), which the memo collapses from quadratic
/// re-evaluation into one scan each.
pub struct SearchSolver {
    rng: ChaCha8Rng,
    /// RNG draws consumed so far — the only live state a checkpoint must
    /// carry: the memos below are pure caches, losing them on resume never
    /// changes an answer, but replaying a different random stream would.
    draws: u64,
    /// The as-recorded constraint sequence the current flip sweep walks
    /// (the longest query seen, with its last constraint unflipped);
    /// shorter queries of the same sweep are its prefixes.
    record: Vec<Constraint>,
    /// candidate input -> first index of `record` it violates.
    memo: HashMap<Vec<u64>, usize>,
    /// Eval memo for the hint input (valid across one `feasible` call).
    eval_hint: EvalMemo,
    /// Eval memo for candidate scans (reset per candidate).
    eval_cand: EvalMemo,
}

impl Default for SearchSolver {
    fn default() -> Self {
        SearchSolver::new()
    }
}

impl SearchSolver {
    /// Creates the solver with its fixed RNG seed (the attack is
    /// deterministic end-to-end).
    pub fn new() -> SearchSolver {
        use rand::SeedableRng;
        SearchSolver {
            rng: ChaCha8Rng::seed_from_u64(0xa77ac4),
            draws: 0,
            record: Vec::new(),
            memo: HashMap::new(),
            eval_hint: EvalMemo::default(),
            eval_cand: EvalMemo::default(),
        }
    }

    /// Aligns the stored record with `query` (whose last constraint is the
    /// flipped one): if the query's as-recorded form is a prefix of the
    /// stored record, the memo stays valid; otherwise this is a new record
    /// and the memo is cleared.
    fn sync_record(&mut self, query: &[Constraint]) {
        let n = query.len();
        let mut last = query[n - 1];
        last.taken = !last.taken;
        let is_prefix = self.record.len() >= n
            && self.record[..n - 1] == query[..n - 1]
            && self.record[n - 1] == last;
        if !is_prefix {
            self.record.clear();
            self.record.extend_from_slice(&query[..n - 1]);
            self.record.push(last);
            self.memo.clear();
        }
    }

    /// First index of `record` that `input` violates (`record.len()` if it
    /// satisfies the whole path as recorded), memoized per candidate.
    fn first_violated(&mut self, arena: &ExprArena, input: &[u64]) -> usize {
        if let Some(&v) = self.memo.get(input) {
            return v;
        }
        self.eval_cand.reset();
        let v = self
            .record
            .iter()
            .position(|c| !c.satisfied_as_recorded(arena, input, &mut self.eval_cand))
            .unwrap_or(self.record.len());
        self.memo.insert(input.to_vec(), v);
        v
    }

    /// Finds an input under `domain` satisfying every constraint of
    /// `query`, or `None` if the search cannot find one (which the explorer
    /// treats as unsatisfiable; the search is incomplete and trades
    /// exhaustiveness for speed, exactly the paper's attacker model).
    /// `hint` is the input that drove the recorded path — a good starting
    /// point, since it already satisfies every query constraint except the
    /// flipped last one. The engine always queries a recorded path prefix
    /// with the last constraint's direction flipped, and walks flips
    /// deepest-first, which is the shape the memo exploits.
    pub fn feasible(
        &mut self,
        arena: &mut ExprArena,
        query: &[Constraint],
        domain: &VarDomain,
        hint: &[u64],
    ) -> Option<Assignment> {
        if query.is_empty() {
            return Some(hint.to_vec());
        }
        let i = query.len() - 1;
        self.sync_record(query);
        let negated = self.record[i];
        let mask = domain.mask;
        self.eval_hint.reset();

        // Strategy 1: inversion of an equality/inequality on a single
        // variable occurrence along an invertible operator chain.
        let mut vars: BTreeSet<usize> = BTreeSet::new();
        arena.variables(negated.lhs, &mut vars);
        arena.variables(negated.rhs, &mut vars);
        if negated.flag_is_sub {
            for &var in &vars {
                let rhs_val = arena.eval(negated.rhs, hint, &mut self.eval_hint);
                if let Some(v) = invert(arena, negated.lhs, rhs_val, var, hint, &mut self.eval_hint)
                {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(arena, &cand) == i {
                        return Some(cand);
                    }
                }
                let lhs_val = arena.eval(negated.lhs, hint, &mut self.eval_hint);
                if let Some(v) = invert(arena, negated.rhs, lhs_val, var, hint, &mut self.eval_hint)
                {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(arena, &cand) == i {
                        return Some(cand);
                    }
                }
                // For strict inequalities try a small neighbourhood around
                // the equality solution.
                if let Some(v) = invert(
                    arena,
                    negated.lhs,
                    rhs_val.wrapping_add(1),
                    var,
                    hint,
                    &mut self.eval_hint,
                ) {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(arena, &cand) == i {
                        return Some(cand);
                    }
                }
            }
        }

        // Strategy 2: exhaustive search when only one variable is involved
        // and its domain is enumerable.
        if vars.len() == 1 {
            if let Some(size) = domain.exhaustive {
                let var = *vars.iter().next().expect("non-empty");
                let mut cand = hint.to_vec();
                for v in 0..size {
                    cand[var] = v;
                    if self.first_violated(arena, &cand) == i {
                        return Some(cand);
                    }
                }
                // The whole domain of the only involved variable was
                // enumerated: random search over the same variable cannot
                // do better, skip it.
                return None;
            }
        }

        // Strategy 3: bounded random search over the involved variables.
        // The draw count backs off with the flip depth: a random input
        // almost never satisfies a deep prefix, so deep flips lean on
        // inversion (strategy 1) and get only a token random budget —
        // without the backoff a single deep P3 path can sink minutes of
        // wall time into hopeless draws.
        let draws = if i < 64 {
            2000
        } else if i < 256 {
            256
        } else {
            32
        };
        let mut cand = hint.to_vec();
        for _ in 0..draws {
            for &var in &vars {
                self.draws += 1;
                cand[var] = self.rng.gen::<u64>() & mask;
            }
            if self.first_violated(arena, &cand) == i {
                return Some(cand);
            }
        }
        None
    }

    /// Signals that subsequent queries come from a fresh engine run (new
    /// arena: previously seen [`ExprId`]s are meaningless), so the id-keyed
    /// record and memo are dropped.
    pub fn begin_run(&mut self) {
        self.record.clear();
        self.memo.clear();
    }

    /// RNG draws consumed since construction. Checkpointing a paused
    /// attack records this.
    pub fn rng_draws(&self) -> u64 {
        self.draws
    }

    /// Fast-forwards a *freshly constructed* solver to the state after
    /// `draws` RNG draws, so a resumed attack continues the exact random
    /// stream the checkpointed run would have used. Only moves forward.
    pub fn fast_forward(&mut self, draws: u64) {
        for _ in self.draws..draws {
            let _: u64 = self.rng.gen();
        }
        self.draws = self.draws.max(draws);
    }
}

/// Order-independent, duplicate-safe digest of a set of 128-bit hashes.
///
/// The previous solve-cache key XORed per-constraint hashes together; XOR
/// is order-independent but cancels pairwise, so a hash inserted twice
/// produced the digest of the *empty* set and distinct constraint multisets
/// could collide onto one cache slot. The digest keeps two independent
/// combiners — a wrapping sum (counts multiplicity) alongside the XOR — so
/// no finite nonempty multiset digests like the empty one and duplicates
/// cannot cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SetDigest {
    sum: u128,
    xor: u128,
}

impl SetDigest {
    /// The digest of the empty set.
    pub fn empty() -> SetDigest {
        SetDigest::default()
    }

    /// Returns the digest extended by one element (order-independent).
    #[must_use]
    pub fn with(self, h: u128) -> SetDigest {
        SetDigest { sum: self.sum.wrapping_add(h), xor: self.xor ^ h }
    }

    /// The combined key value.
    pub fn key(self) -> (u128, u128) {
        (self.sum, self.xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::BinKind;

    fn eq_constraint(arena: &mut ExprArena, lhs: ExprId, value: u64, taken: bool) -> Constraint {
        let rhs = arena.constant(value);
        Constraint { lhs, rhs, flag_is_sub: true, cond: Cond::E, taken }
    }

    #[test]
    fn search_solver_inverts_an_affine_flip() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let three = arena.constant(3);
        let five = arena.constant(5);
        let mul = arena.bin(BinKind::Mul, x, three);
        let affine = arena.bin(BinKind::Add, mul, five);
        let query = [eq_constraint(&mut arena, affine, 3 * 999 + 5, true)];
        let domain = VarDomain { vars: 1, mask: u64::MAX, exhaustive: None };
        let mut solver = SearchSolver::new();
        let got = solver.feasible(&mut arena, &query, &domain, &[0]).expect("solvable");
        assert_eq!(got, vec![999]);
    }

    #[test]
    fn search_solver_respects_the_prefix() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let ten = arena.constant(10);
        let lt = arena.bin(BinKind::Ult, x, ten);
        // Prefix: x < 10 evaluated to 1 (taken). Flip target: x == 7.
        let prefix = eq_constraint(&mut arena, lt, 1, true);
        let flip = eq_constraint(&mut arena, x, 7, true);
        let domain = VarDomain { vars: 1, mask: 0xff, exhaustive: Some(256) };
        let mut solver = SearchSolver::new();
        let got = solver.feasible(&mut arena, &[prefix, flip], &domain, &[3]).expect("solvable");
        assert_eq!(got, vec![7]);

        // An infeasible flip under the same prefix: x == 200 contradicts
        // x < 10, so every strategy must fail.
        let flip = eq_constraint(&mut arena, x, 200, true);
        assert_eq!(solver.feasible(&mut arena, &[prefix, flip], &domain, &[3]), None);
    }

    #[test]
    fn search_solver_memo_survives_prefix_truncations() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let mut constraints = Vec::new();
        for k in 0..8u64 {
            let kc = arena.constant(k * 16);
            let gt = arena.bin(BinKind::Ult, kc, x);
            constraints.push(eq_constraint(&mut arena, gt, 1, true));
        }
        let domain = VarDomain { vars: 1, mask: 0xff, exhaustive: Some(256) };
        let mut solver = SearchSolver::new();
        // Deepest-first sweep, the engine's query order.
        for i in (1..8usize).rev() {
            let mut query = constraints[..=i].to_vec();
            query[i].taken = false;
            let got = solver.feasible(&mut arena, &query, &domain, &[200]);
            let got = got.expect("each flip has a feasible input");
            // The memoized record must answer every truncation consistently.
            assert_eq!(solver.first_violated(&arena, &got), i);
        }
    }

    #[test]
    fn set_digest_is_order_independent_and_duplicate_safe() {
        let (a, b) = (0x1234_5678_9abc_def0_u128, 0x0fed_cba9_8765_4321_u128);
        assert_eq!(
            SetDigest::empty().with(a).with(b),
            SetDigest::empty().with(b).with(a),
            "order-independent"
        );
        // Regression: XOR alone cancels a repeated element pairwise, making
        // {h, h} indistinguishable from {}.
        assert_ne!(SetDigest::empty().with(a).with(a), SetDigest::empty());
        assert_ne!(SetDigest::empty().with(a).with(a).with(b), SetDigest::empty().with(b));
        assert_ne!(SetDigest::empty().with(a), SetDigest::empty());
    }

    #[test]
    fn constraint_hash_is_exact_on_structural_equality_and_components() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let three = arena.constant(3);
        let lhs = arena.bin(BinKind::Add, x, three);
        let a = eq_constraint(&mut arena, lhs, 0, true);
        let b = eq_constraint(&mut arena, lhs, 0, true);
        assert_eq!(a, b, "interned ids make equality structural");
        assert_eq!(a.structural_hash(&arena), b.structural_hash(&arena));
        assert_eq!(a.canonical_bytes(&arena), b.canonical_bytes(&arena));
        let flipped = Constraint { taken: false, ..b };
        assert_ne!(a.structural_hash(&arena), flipped.structural_hash(&arena));
        assert_ne!(a.canonical_bytes(&arena), flipped.canonical_bytes(&arena));
        let other_cond = Constraint { cond: Cond::Ne, ..b };
        assert_ne!(a.structural_hash(&arena), other_cond.structural_hash(&arena));
    }
}

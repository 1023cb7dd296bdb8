//! Feasibility solving over recorded path constraints.
//!
//! The concolic engine records [`Constraint`]s — branch conditions over
//! interned [`ExprId`]s — and the generational search asks one question per
//! flip: *is there an input that satisfies this constraint sequence?*
//! [`SearchSolver`] answers it with inversion, exhaustive enumeration of
//! small domains and bounded random search — the same concrete strategies
//! the engine previously hard-coded.
//!
//! Every candidate those strategies propose is checked against the whole
//! recorded path. The solver compiles the record into a flat evaluation
//! tape — the union of the constraints' operand DAGs in topological
//! order, one `(op, slot, slot)` entry per node, constants preloaded,
//! each constraint compiled when a scan first reaches it — and checks a
//! candidate by running the tape forward, testing constraint *k* as soon
//! as its operands are computed and stopping at the first violation.
//! [`Constraint::satisfied_as_recorded`] over [`ExprArena::eval`] is the
//! reference semantics the tape is tested against. A random draw is
//! first checked against the flipped constraint alone, on a tape of its
//! own: only a draw that violates it as recorded can answer the flip, and
//! most random draws do not, so they never reach the prefix scan.
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

use crate::hashing::FastMap;
use crate::sym::{
    eval_bin, eval_un, hash_stream, invert, BinKind, EvalMemo, Expr, ExprArena, ExprId, UnKind,
};
use raindrop_machine::{Cond, Flags};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

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
        self.outcome_of(a, b)
    }

    /// The branch outcome for concrete values of the two flag operands.
    fn outcome_of(&self, a: u64, b: u64) -> bool {
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
/// re-evaluation into one scan each. A scan runs the record's evaluation
/// tape (see the [module docs](self)), which memo misses build up as they
/// reach deeper constraints.
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
    /// `record` compiled for candidate scans, grown at memo misses.
    tape: Tape,
    /// The flipped constraint of the current random search on its own.
    flip: Tape,
    /// candidate input -> first index of `record` it violates.
    memo: FastMap<Vec<u64>, usize>,
    /// Eval memo for the hint input (valid across one `feasible` call).
    eval_hint: EvalMemo,
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
            tape: Tape::default(),
            flip: Tape::default(),
            memo: FastMap::default(),
            eval_hint: EvalMemo::default(),
        }
    }

    /// Aligns the stored record with `query` (whose last constraint is the
    /// flipped one): if the query's as-recorded form is a prefix of the
    /// stored record, the memo and tape stay valid; otherwise this is a new
    /// record and both are dropped.
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
            self.tape.clear();
            self.memo.clear();
        }
    }

    /// First index of `record` that `input` violates (`record.len()` if it
    /// satisfies the whole path as recorded), memoized per candidate.
    fn first_violated(&mut self, arena: &ExprArena, input: &[u64]) -> usize {
        if let Some(&v) = self.memo.get(input) {
            return v;
        }
        let v = self.tape.first_violated(arena, &self.record, input);
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
        self.flip.clear();
        let mut cand = hint.to_vec();
        for _ in 0..draws {
            for &var in &vars {
                self.draws += 1;
                cand[var] = self.rng.gen::<u64>() & mask;
            }
            if self.draw_answers(arena, i, &cand) {
                return Some(cand);
            }
        }
        None
    }

    /// Whether a random draw answers flip `i` of the stored record, i.e.
    /// `first_violated(cand) == i`. A draw can only do so if it violates
    /// constraint `i` as recorded; most draws do not, and `flip` (that
    /// constraint's tape alone, cleared at the start of each search)
    /// rejects them without scanning the prefix or filling the memo with
    /// values that never recur.
    fn draw_answers(&mut self, arena: &ExprArena, i: usize, cand: &[u64]) -> bool {
        self.flip.first_violated(arena, &self.record[i..=i], cand) == 0
            && self.first_violated(arena, cand) == i
    }

    /// Signals that subsequent queries come from a fresh engine run (new
    /// arena: previously seen [`ExprId`]s are meaningless), so the id-keyed
    /// record, tape and memo are dropped.
    pub fn begin_run(&mut self) {
        self.record.clear();
        self.tape.clear();
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

/// One tape operation; operands are slot numbers.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Input variable `i` (0 when the input is shorter).
    Input(u32),
    /// Binary operator over two slots.
    Bin(BinKind, u32, u32),
    /// Unary operator over one slot.
    Un(UnKind, u32),
}

/// A recorded constraint as the tape checks it: its operands are in slots
/// `lhs` and `rhs` once the tape has run up to entry `end`.
#[derive(Debug, Clone, Copy)]
struct Check {
    end: usize,
    lhs: u32,
    rhs: u32,
    constraint: Constraint,
}

/// A record compiled into straight-line code: the union of its
/// constraints' operand DAGs in topological order, one `(op, slot, slot)`
/// entry per non-constant node writing its own slot, constants preloaded
/// into theirs. Running the tape for a candidate computes the values
/// [`ExprArena::eval`] would, each shared node once, without per-node memo
/// stamps or a traversal stack.
///
/// Constraint *k* is compiled the first time a scan gets past constraint
/// *k − 1*: a scan that stops early never pays for the record's tail.
#[derive(Default)]
struct Tape {
    /// `(op, destination slot)` in evaluation order.
    ops: Vec<(Op, u32)>,
    /// One per constraint compiled so far, in record order.
    checks: Vec<Check>,
    /// One value per placed node.
    slots: Vec<u64>,
    /// Arena node -> its slot + 1 (0: not placed), sized to the arena.
    slot_of: Vec<u32>,
    /// Placed nodes, in slot order.
    placed: Vec<ExprId>,
    stack: Vec<ExprId>,
}

impl Tape {
    /// Forgets the compiled record (the arena-sized map is kept, cleared).
    fn clear(&mut self) {
        for id in self.placed.drain(..) {
            self.slot_of[id.index()] = 0;
        }
        self.ops.clear();
        self.checks.clear();
        self.slots.clear();
    }

    /// Compiles the next constraint of the record.
    fn push_check(&mut self, arena: &ExprArena, c: Constraint) {
        if self.slot_of.len() < arena.len() {
            self.slot_of.resize(arena.len(), 0);
        }
        self.place(arena, c.lhs);
        self.place(arena, c.rhs);
        let (lhs, rhs) = (self.slot_of[c.lhs.index()] - 1, self.slot_of[c.rhs.index()] - 1);
        self.checks.push(Check { end: self.ops.len(), lhs, rhs, constraint: c });
    }

    /// Places `root` and its unplaced descendants, children first.
    fn place(&mut self, arena: &ExprArena, root: ExprId) {
        let slot_of = &mut self.slot_of;
        let stack = &mut self.stack;
        stack.push(root);
        while let Some(&id) = stack.last() {
            if slot_of[id.index()] != 0 {
                stack.pop();
                continue;
            }
            let expr = arena.expr(id);
            let height = stack.len();
            match expr {
                Expr::Bin(_, a, b) => {
                    stack.extend([b, a].into_iter().filter(|x| slot_of[x.index()] == 0))
                }
                Expr::Un(_, a) if slot_of[a.index()] == 0 => stack.push(a),
                _ => {}
            }
            if stack.len() > height {
                continue;
            }
            stack.pop();
            // Slots number distinct arena nodes, and the arena holds < 2^32.
            let dst = self.slots.len() as u32;
            slot_of[id.index()] = dst + 1;
            self.placed.push(id);
            let at = |x: ExprId| slot_of[x.index()] - 1;
            let op = match expr {
                Expr::Const(v) => {
                    self.slots.push(v);
                    continue;
                }
                Expr::Input(i) => Op::Input(i),
                Expr::Bin(k, a, b) => Op::Bin(k, at(a), at(b)),
                Expr::Un(k, a) => Op::Un(k, at(a)),
            };
            self.slots.push(0);
            self.ops.push((op, dst));
        }
    }

    /// First constraint of `record` that `input` violates as recorded
    /// (`record.len()` if none). `record` must be the record the tape was
    /// compiled from, or extend it.
    fn first_violated(&mut self, arena: &ExprArena, record: &[Constraint], input: &[u64]) -> usize {
        let mut pc = 0;
        for (k, &c) in record.iter().enumerate() {
            if k == self.checks.len() {
                self.push_check(arena, c);
            }
            let check = self.checks[k];
            debug_assert_eq!(check.constraint, c, "tape compiled from another record");
            for &(op, dst) in &self.ops[pc..check.end] {
                self.slots[dst as usize] = match op {
                    Op::Input(i) => input.get(i as usize).copied().unwrap_or(0),
                    Op::Bin(kind, a, b) => {
                        eval_bin(kind, self.slots[a as usize], self.slots[b as usize])
                    }
                    Op::Un(kind, a) => eval_un(kind, self.slots[a as usize]),
                };
            }
            pc = check.end;
            let (a, b) = (self.slots[check.lhs as usize], self.slots[check.rhs as usize]);
            if c.outcome_of(a, b) != c.taken {
                return k;
            }
        }
        record.len()
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
    use proptest::prelude::*;

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

    /// The reference scan: [`Constraint::satisfied_as_recorded`] over
    /// [`ExprArena::eval`], constraint by constraint.
    fn reference(arena: &ExprArena, record: &[Constraint], input: &[u64]) -> usize {
        let mut memo = EvalMemo::default();
        record
            .iter()
            .position(|c| !c.satisfied_as_recorded(arena, input, &mut memo))
            .unwrap_or(record.len())
    }

    /// `record[..=i]` with constraint `i` flipped: the query the explorer
    /// sends for flip `i`.
    fn flip_query(record: &[Constraint], i: usize) -> Vec<Constraint> {
        let mut query = record[..=i].to_vec();
        query[i].taken = !query[i].taken;
        query
    }

    const BINS: [BinKind; 13] = [
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::Div,
        BinKind::Rem,
        BinKind::And,
        BinKind::Or,
        BinKind::Xor,
        BinKind::Shl,
        BinKind::Shr,
        BinKind::Sar,
        BinKind::Eq,
        BinKind::Ult,
    ];
    const UNS: [UnKind; 3] = [UnKind::Neg, UnKind::Not, UnKind::SextByte];

    /// One DAG-construction step; child references index the pool of
    /// nodes built so far (modulo its size), so late nodes share early
    /// ones many times over.
    #[derive(Debug, Clone)]
    enum Step {
        Const(u64),
        Input(u32),
        Bin(usize, usize, usize),
        Un(usize, usize),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            // Zero divisors and the 0/1/-1 identities the arena simplifies.
            (0u64..4).prop_map(Step::Const),
            // Shift counts on both sides of 64.
            (56u64..136).prop_map(Step::Const),
            any::<u64>().prop_map(Step::Const),
            // Variable 3 lies beyond every candidate below: it reads 0.
            (0u32..4).prop_map(Step::Input),
            (0usize..BINS.len(), any::<usize>(), any::<usize>())
                .prop_map(|(k, a, b)| Step::Bin(k, a, b)),
            (0usize..UNS.len(), any::<usize>()).prop_map(|(k, a)| Step::Un(k, a)),
        ]
    }

    fn build(arena: &mut ExprArena, steps: &[Step]) -> Vec<ExprId> {
        let mut pool = vec![arena.input(0), arena.constant(0)];
        for step in steps {
            let id = match *step {
                Step::Const(c) => arena.constant(c),
                Step::Input(v) => arena.input(v as usize),
                Step::Bin(k, a, b) => {
                    let (a, b) = (pool[a % pool.len()], pool[b % pool.len()]);
                    arena.bin(BINS[k], a, b)
                }
                Step::Un(k, a) => {
                    let a = pool[a % pool.len()];
                    arena.un(UNS[k], a)
                }
            };
            pool.push(id);
        }
        pool
    }

    /// Small values hit zero divisors and shift counts; wide ones hit
    /// sign bits and counts past 64.
    fn value_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..3, 60u64..70, any::<u64>()]
    }

    /// `(lhs, rhs, flag_is_sub, cond, flipped)`: operands index the pool;
    /// `flipped` (1 in 8) records the direction the hint does *not* take,
    /// so scans reach deep into the record before they stop.
    type Spec = (usize, usize, bool, usize, bool);

    /// A record over `pool` whose `taken` bits follow `hint`, each flipped
    /// where its spec says so.
    fn recorded(
        arena: &ExprArena,
        pool: &[ExprId],
        specs: &[Spec],
        hint: &[u64],
    ) -> Vec<Constraint> {
        let mut memo = EvalMemo::default();
        specs
            .iter()
            .map(|&(l, r, flag_is_sub, c, flipped)| {
                let mut c = Constraint {
                    lhs: pool[l % pool.len()],
                    rhs: pool[r % pool.len()],
                    flag_is_sub,
                    cond: Cond::ALL[c],
                    taken: false,
                };
                memo.reset();
                c.taken = c.outcome(arena, hint, &mut memo) != flipped;
                c
            })
            .collect()
    }

    fn constraint_strategy() -> impl Strategy<Value = Spec> {
        (any::<usize>(), any::<usize>(), 0u8..2, 0usize..Cond::ALL.len(), 0u8..8)
            .prop_map(|(l, r, sub, c, f)| (l, r, sub == 0, c, f == 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tape answers every candidate exactly as the reference scan
        /// does, over random shared DAGs and random records, with one tape
        /// grown across all candidates in turn.
        #[test]
        fn tape_agrees_with_the_reference_scan(
            steps in proptest::collection::vec(step_strategy(), 0..80),
            specs in proptest::collection::vec(constraint_strategy(), 1..40),
            hint in proptest::collection::vec(value_strategy(), 0..4),
            cands in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 0..4), 1..24),
        ) {
            let mut arena = ExprArena::new();
            let pool = build(&mut arena, &steps);
            let record = recorded(&arena, &pool, &specs, &hint);
            let mut tape = Tape::default();
            for input in std::iter::once(&hint).chain(&cands) {
                prop_assert_eq!(
                    tape.first_violated(&arena, &record, input),
                    reference(&arena, &record, input),
                    "input {:?}", input
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A random draw answers a flip exactly when the reference scan
        /// puts its first violation at the flipped index, whether the
        /// flipped constraint's own tape rejects it or the full scan does.
        #[test]
        fn draws_answer_flips_as_the_reference_scan(
            steps in proptest::collection::vec(step_strategy(), 0..80),
            specs in proptest::collection::vec(constraint_strategy(), 1..40),
            hint in proptest::collection::vec(value_strategy(), 0..4),
            cands in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 0..4), 1..24),
            at in any::<usize>(),
        ) {
            let mut arena = ExprArena::new();
            let pool = build(&mut arena, &steps);
            let record = recorded(&arena, &pool, &specs, &hint);
            let i = at % record.len();
            let mut solver = SearchSolver::new();
            solver.sync_record(&flip_query(&record, i));
            solver.flip.clear();
            for input in std::iter::once(&hint).chain(&cands) {
                prop_assert_eq!(
                    solver.draw_answers(&arena, i, input),
                    reference(&arena, &record[..=i], input) == i,
                    "input {:?}", input
                );
            }
        }
    }

    #[test]
    fn tape_agrees_with_the_reference_on_each_edge_case() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let y = arena.input(1);
        let far = arena.input(9);
        let mut sides = vec![far];
        // Division and remainder by a divisor that is zero for y = 0.
        sides.push(arena.bin(BinKind::Div, x, y));
        sides.push(arena.bin(BinKind::Rem, x, y));
        // Shift counts of 64 and more, constant and symbolic.
        for op in [BinKind::Shl, BinKind::Shr, BinKind::Sar] {
            let k = arena.constant(65);
            sides.push(arena.bin(op, x, k));
            sides.push(arena.bin(op, x, y));
        }
        sides.push(arena.un(UnKind::SextByte, x));
        // A shared sub-DAG: both sides of later constraints reuse it.
        let shared = arena.bin(BinKind::Mul, x, y);
        let k = arena.constant(7);
        sides.push(arena.bin(BinKind::Add, shared, k));
        sides.push(arena.bin(BinKind::Xor, shared, x));
        // A constant-only side.
        sides.push(arena.constant(0x80));
        let k = arena.constant(0x80);
        let values = [0, 1, 2, 63, 64, 65, 0x7f, 0x80, 0xff, u64::MAX, 1 << 63];
        let mut memo = EvalMemo::default();
        for hint in [vec![0, 0], vec![65, 0], vec![0x80, 64], vec![u64::MAX, 1]] {
            // Every pair of sides under both flag kinds, the conditions in
            // rotation, each taken the way the hint goes: a candidate's scan
            // can stop anywhere along the record.
            let mut record = Vec::new();
            for (i, &lhs) in sides.iter().enumerate() {
                for (j, &rhs) in sides[i..].iter().enumerate() {
                    for flag_is_sub in [true, false] {
                        let cond = Cond::ALL[(i + j) % Cond::ALL.len()];
                        record.push(Constraint { lhs, rhs, flag_is_sub, cond, taken: false });
                    }
                }
            }
            // A constraint over constants alone.
            record.push(Constraint {
                lhs: k,
                rhs: k,
                flag_is_sub: false,
                cond: Cond::S,
                taken: false,
            });
            for c in &mut record {
                memo.reset();
                c.taken = c.outcome(&arena, &hint, &mut memo);
            }
            let mut tape = Tape::default();
            for &a in &values {
                for &b in &values {
                    for input in [vec![a, b], vec![a], vec![]] {
                        assert_eq!(
                            tape.first_violated(&arena, &record, &input),
                            reference(&arena, &record, &input),
                            "hint {hint:?} input {input:?}"
                        );
                    }
                }
            }
        }
    }

    /// Records for the stale-tape regressions: `x > 8j` for `j < n`, taken
    /// or not; a candidate's first violation moves with both.
    fn threshold_record(arena: &mut ExprArena, x: ExprId, n: u64, taken: bool) -> Vec<Constraint> {
        (0..n)
            .map(|j| {
                let k = arena.constant(8 * j);
                Constraint { lhs: k, rhs: x, flag_is_sub: true, cond: Cond::B, taken }
            })
            .collect()
    }

    fn assert_solver_matches_reference(solver: &mut SearchSolver, arena: &ExprArena) {
        let record = solver.record.clone();
        for v in 0..1100u64 {
            assert_eq!(solver.first_violated(arena, &[v]), reference(arena, &record, &[v]), "{v}");
        }
    }

    #[test]
    fn a_non_prefix_query_mid_sweep_rebuilds_the_tape() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let a = threshold_record(&mut arena, x, 1100, true);
        let b = threshold_record(&mut arena, x, 1100, false);
        let mut solver = SearchSolver::new();
        // Deepest-first sweep of record a; the scans compile its tape.
        for i in [1099, 1050, 600] {
            solver.sync_record(&flip_query(&a, i));
            assert_solver_matches_reference(&mut solver, &arena);
        }
        // Mid-sweep, a query from record b: not a prefix of a.
        solver.sync_record(&flip_query(&b, 1030));
        assert_eq!(solver.first_violated(&arena, &[200]), 0);
        assert_solver_matches_reference(&mut solver, &arena);
        // And back to a prefix of a.
        solver.sync_record(&flip_query(&a, 1040));
        assert_eq!(solver.first_violated(&arena, &[8 * 1028]), 1028);
        assert_solver_matches_reference(&mut solver, &arena);
    }

    #[test]
    fn begin_run_with_a_fresh_arena_rebuilds_the_tape() {
        let mut first = ExprArena::new();
        let x = first.input(0);
        let record = threshold_record(&mut first, x, 40, true);
        // A second run's arena whose ids name other nodes: the input and
        // the constant 0 trade places, so the same record reads `x < 0`,
        // then `8j < 0`.
        let mut second = ExprArena::new();
        assert_eq!(second.constant(0), x);
        for j in 0..40 {
            second.input(0);
            second.constant(8 * j);
        }
        let mut solver = SearchSolver::new();
        solver.sync_record(&flip_query(&record, 39));
        assert_eq!(solver.first_violated(&first, &[100]), 13);
        assert_solver_matches_reference(&mut solver, &first);
        solver.begin_run();
        solver.sync_record(&flip_query(&record, 39));
        assert_eq!(solver.first_violated(&second, &[100]), 0);
        assert_solver_matches_reference(&mut solver, &second);
    }
}

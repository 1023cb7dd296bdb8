//! Hash-consed symbolic expressions over the attacker-controlled input.
//!
//! The concolic attacker shadows a concrete execution with expressions over
//! a small set of input *variables* (the register argument of a RandomFuns
//! target, or the bytes of an input buffer for the base64 case study).
//! Expressions support direct evaluation — the solver works by inversion and
//! bounded search rather than an SMT backend, which is the reproduction's
//! stand-in for angr/S2E's solver (see DESIGN.md).
//!
//! # The arena
//!
//! All expressions live in an [`ExprArena`] and are handled through interned
//! [`ExprId`]s: building a node that already exists returns the existing id,
//! so *id equality is structural equality* within one arena. Interning buys
//! three things the previous `Rc`-tree representation could not provide:
//!
//! * **O(1) structural keys.** Every node carries a 128-bit structural hash
//!   computed at construction from its kind and its children's hashes. The
//!   hash depends only on the expression's *structure* — never on arena
//!   layout or creation order — so two arenas (e.g. two runs of one attack)
//!   assign equal hashes to equal expressions and the persistent solve
//!   cache keys stay valid across runs.
//! * **Real size accounting.** Nodes cache their tree size (what a naive
//!   walk would visit) *and* the arena can compute the DAG size (distinct
//!   nodes reachable — the real memory footprint). Shadow execution bounds
//!   expression growth by DAG size, so shared subterms are no longer
//!   counted once per reference: a P3-strengthened chain measures ~86×
//!   more tree nodes than distinct nodes, which is exactly the factor by
//!   which the old tree-size hazard fired too early.
//! * **Build-time simplification.** Constant folding, identity and
//!   annihilator elimination, double negation and commutative operand
//!   ordering run before a node is interned, so the arena never stores the
//!   reducible forms at all.
//!
//! # Example
//!
//! ```
//! use raindrop_attacks::sym::{BinKind, ExprArena};
//!
//! let mut arena = ExprArena::new();
//! let x = arena.input(0);
//! let c = arena.constant(17);
//! let e = arena.bin(BinKind::Add, x, c);
//!
//! // Interning: rebuilding the same expression yields the same id.
//! let c2 = arena.constant(17);
//! let e2 = arena.bin(BinKind::Add, x, c2);
//! assert_eq!(e, e2);
//!
//! // Identity elimination: x + 0 is x itself, no node is created.
//! let zero = arena.constant(0);
//! assert_eq!(arena.bin(BinKind::Add, x, zero), x);
//!
//! let mut memo = raindrop_attacks::sym::EvalMemo::default();
//! assert_eq!(arena.eval(e, &[25], &mut memo), 42);
//! ```

use crate::hashing::FastMap;
use std::collections::BTreeSet;

/// Binary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (x/0 = 0, matching the workloads' semantics).
    Div,
    /// Unsigned remainder (x%0 = x).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (count masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Equality, producing 0 or 1.
    Eq,
    /// Unsigned less-than, producing 0 or 1.
    Ult,
}

impl BinKind {
    /// Whether the operator is commutative under [`eval_bin`] semantics.
    fn commutative(self) -> bool {
        matches!(
            self,
            BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor | BinKind::Eq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Two's complement negation.
    Neg,
    /// Bitwise NOT.
    Not,
    /// Sign extension of the low byte.
    SextByte,
}

/// An interned expression handle: a cheap `Copy` index into an
/// [`ExprArena`]. Two ids of the same arena are equal iff the expressions
/// are structurally equal (hash-consing interns every node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of one expression node, with children as interned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A concrete 64-bit constant.
    Const(u64),
    /// Input variable `i`.
    Input(u32),
    /// Binary operation.
    Bin(BinKind, ExprId, ExprId),
    /// Unary operation.
    Un(UnKind, ExprId),
}

/// Per-node cached facts, computed once at intern time.
struct Node {
    expr: Expr,
    /// Structural 128-bit hash; depends only on the expression's structure,
    /// not on the arena that holds it.
    hash: u128,
    /// Tree-node count a naive walk would visit (saturating).
    tree: u64,
    /// Bitmask of input variables `0..64` the expression mentions.
    vars: u64,
    /// Whether any input variable `>= 64` is mentioned.
    vars_hi: bool,
}

/// Encoding of the per-node DAG-size cache: 0 = unknown; with
/// [`DAG_LOWER_BOUND`] set the low bits are a *lower bound* on the distinct
/// node count (the traversal aborted there); otherwise the value is exact.
const DAG_LOWER_BOUND: u32 = 0x8000_0000;

/// A hash-consing arena of symbolic expressions.
///
/// One arena backs one shadow execution engine (one [`DseAttack`] run or
/// one [`shadow_run`]); ids from different arenas must not be mixed. The
/// arena grows monotonically — interned nodes are never dropped while the
/// engine lives — and its [`Default`] state is empty.
///
/// [`DseAttack`]: crate::concolic::DseAttack
/// [`shadow_run`]: crate::concolic::shadow_run
#[derive(Default)]
pub struct ExprArena {
    nodes: Vec<Node>,
    intern: FastMap<Expr, ExprId>,
    /// DAG-size cache, parallel to `nodes` (see [`DAG_LOWER_BOUND`]).
    dag: Vec<u32>,
    /// Visit stamps for bounded traversals, parallel to `nodes`.
    stamp: Vec<u32>,
    epoch: u32,
    scratch: Vec<ExprId>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> ExprArena {
        ExprArena::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node shape behind an id.
    #[inline]
    pub fn expr(&self, id: ExprId) -> Expr {
        self.nodes[id.index()].expr
    }

    /// The structural hash of the expression. Equal for structurally equal
    /// expressions across *different* arenas, which is what lets solver
    /// caches persist across engine runs.
    #[inline]
    pub fn structural_hash(&self, id: ExprId) -> u128 {
        self.nodes[id.index()].hash
    }

    /// Tree-node count (what a naive recursive walk would visit),
    /// saturating at `u64::MAX`. Cached, O(1).
    #[inline]
    pub fn tree_size(&self, id: ExprId) -> u64 {
        self.nodes[id.index()].tree
    }

    /// Whether the expression mentions any input variable. O(1).
    #[inline]
    pub fn is_symbolic(&self, id: ExprId) -> bool {
        let n = &self.nodes[id.index()];
        n.vars != 0 || n.vars_hi
    }

    /// Whether the expression mentions input variable `var`. O(1) for
    /// variables below 64 (the bitmask covers them); a bounded traversal
    /// otherwise.
    pub fn contains_var(&mut self, id: ExprId, var: usize) -> bool {
        let n = &self.nodes[id.index()];
        if var < 64 {
            return n.vars & (1u64 << var) != 0;
        }
        if !n.vars_hi {
            return false;
        }
        // Rare slow path: a buffer wider than 64 variables.
        self.begin_visit();
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        stack.push(id);
        let mut found = false;
        while let Some(cur) = stack.pop() {
            if !self.visit(cur) {
                continue;
            }
            match self.nodes[cur.index()].expr {
                Expr::Const(_) => {}
                Expr::Input(i) => {
                    if i as usize == var {
                        found = true;
                        break;
                    }
                }
                Expr::Bin(_, a, b) => {
                    if self.nodes[a.index()].vars_hi {
                        stack.push(a);
                    }
                    if self.nodes[b.index()].vars_hi {
                        stack.push(b);
                    }
                }
                Expr::Un(_, a) => {
                    if self.nodes[a.index()].vars_hi {
                        stack.push(a);
                    }
                }
            }
        }
        self.scratch = stack;
        found
    }

    /// The set of input variables the expression depends on.
    pub fn variables(&mut self, id: ExprId, out: &mut BTreeSet<usize>) {
        if !self.is_symbolic(id) {
            return;
        }
        self.begin_visit();
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        stack.push(id);
        while let Some(cur) = stack.pop() {
            if !self.visit(cur) {
                continue;
            }
            match self.nodes[cur.index()].expr {
                Expr::Const(_) => {}
                Expr::Input(i) => {
                    out.insert(i as usize);
                }
                Expr::Bin(_, a, b) => {
                    if self.is_symbolic(a) {
                        stack.push(a);
                    }
                    if self.is_symbolic(b) {
                        stack.push(b);
                    }
                }
                Expr::Un(_, a) => {
                    if self.is_symbolic(a) {
                        stack.push(a);
                    }
                }
            }
        }
        self.scratch = stack;
    }

    /// Whether the expression's *DAG size* (distinct reachable nodes — the
    /// real memory footprint) exceeds `limit`.
    ///
    /// Fast paths make the check O(1) almost always: a tree size within the
    /// limit bounds the DAG size from above, and once an expression has
    /// been measured oversized, every expression built on top of it
    /// inherits the verdict without traversal (a node's DAG is a superset
    /// of each child's). Only the first crossing pays a bounded traversal
    /// of at most `limit + 1` distinct nodes.
    pub fn dag_oversize(&mut self, id: ExprId, limit: usize) -> bool {
        if self.nodes[id.index()].tree <= limit as u64 {
            return false;
        }
        let cached = self.dag[id.index()];
        if cached != 0 {
            let val = (cached & !DAG_LOWER_BOUND) as usize;
            if val > limit {
                return true;
            }
            if cached & DAG_LOWER_BOUND == 0 {
                return false;
            }
        }
        match self.dag_size_up_to(id, limit) {
            Some(exact) => {
                self.dag[id.index()] = exact;
                false
            }
            None => {
                self.dag[id.index()] = (limit as u32 + 1) | DAG_LOWER_BOUND;
                true
            }
        }
    }

    /// Counts distinct reachable nodes, giving up (returning `None`) once
    /// the count exceeds `limit`.
    fn dag_size_up_to(&mut self, id: ExprId, limit: usize) -> Option<u32> {
        self.begin_visit();
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        stack.push(id);
        let mut count: usize = 0;
        let mut over = false;
        while let Some(cur) = stack.pop() {
            if !self.visit(cur) {
                continue;
            }
            count += 1;
            if count > limit {
                over = true;
                break;
            }
            match self.nodes[cur.index()].expr {
                Expr::Const(_) | Expr::Input(_) => {}
                Expr::Bin(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Expr::Un(_, a) => stack.push(a),
            }
        }
        self.scratch = stack;
        if over {
            None
        } else {
            Some(count as u32)
        }
    }

    /// Exact DAG size (distinct reachable nodes) of the expression.
    pub fn dag_size(&mut self, id: ExprId) -> usize {
        self.dag_size_up_to(id, usize::MAX - 1).expect("unbounded count cannot abort") as usize
    }

    fn begin_visit(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `id` visited in the current traversal; returns false if it
    /// already was.
    #[inline]
    fn visit(&mut self, id: ExprId) -> bool {
        let s = &mut self.stamp[id.index()];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Interns a constant.
    pub fn constant(&mut self, v: u64) -> ExprId {
        self.intern_node(Expr::Const(v))
    }

    /// Interns input variable `i`.
    pub fn input(&mut self, i: usize) -> ExprId {
        self.intern_node(Expr::Input(i as u32))
    }

    /// As [`ExprArena::constant`] for the value 0.
    pub fn zero(&mut self) -> ExprId {
        self.constant(0)
    }

    fn as_const(&self, id: ExprId) -> Option<u64> {
        match self.nodes[id.index()].expr {
            Expr::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Builds a binary node, applying constant folding, identity and
    /// annihilator elimination and commutative operand ordering before
    /// interning. All rewrites preserve the evaluation semantics exactly
    /// (including `x/0 = 0`, `x%0 = x` and 6-bit shift-count masking).
    pub fn bin(&mut self, kind: BinKind, a: ExprId, b: ExprId) -> ExprId {
        use BinKind::*;
        let ca = self.as_const(a);
        let cb = self.as_const(b);
        if let (Some(x), Some(y)) = (ca, cb) {
            return self.constant(eval_bin(kind, x, y));
        }
        match kind {
            Add => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            Sub => {
                if cb == Some(0) {
                    return a;
                }
                if a == b {
                    return self.constant(0);
                }
            }
            Mul => {
                if ca == Some(0) || cb == Some(0) {
                    return self.constant(0);
                }
                if ca == Some(1) {
                    return b;
                }
                if cb == Some(1) {
                    return a;
                }
            }
            Div => {
                // x/1 = x; x/0 = 0 and 0/x = 0 under the workload semantics.
                if cb == Some(1) {
                    return a;
                }
                if cb == Some(0) || ca == Some(0) {
                    return self.constant(0);
                }
            }
            Rem => {
                // x%1 = 0; x%0 = x; 0%x = 0 (both the x%0=x and the normal
                // branch agree on 0 for a zero dividend).
                if cb == Some(1) {
                    return self.constant(0);
                }
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(0) {
                    return self.constant(0);
                }
            }
            And => {
                if ca == Some(0) || cb == Some(0) {
                    return self.constant(0);
                }
                if ca == Some(u64::MAX) {
                    return b;
                }
                if cb == Some(u64::MAX) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            Or => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(u64::MAX) || cb == Some(u64::MAX) {
                    return self.constant(u64::MAX);
                }
                if a == b {
                    return a;
                }
            }
            Xor => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if a == b {
                    return self.constant(0);
                }
            }
            Shl | Shr | Sar => {
                // Shift counts are masked to 6 bits, so a count ≡ 0 (mod 64)
                // is the identity; a zero subject stays zero.
                if cb.is_some_and(|c| c & 63 == 0) {
                    return a;
                }
                if ca == Some(0) {
                    return self.constant(0);
                }
            }
            Eq => {
                if a == b {
                    return self.constant(1);
                }
            }
            Ult => {
                if a == b || cb == Some(0) {
                    // x < x and x < 0 are both unsigned-false.
                    return self.constant(0);
                }
            }
        }
        let (a, b) =
            if kind.commutative() && self.nodes[a.index()].hash > self.nodes[b.index()].hash {
                (b, a)
            } else {
                (a, b)
            };
        self.intern_node(Expr::Bin(kind, a, b))
    }

    /// Builds a unary node with constant folding and double-negation /
    /// double-NOT elimination (`SextByte` is idempotent).
    pub fn un(&mut self, kind: UnKind, a: ExprId) -> ExprId {
        if let Some(x) = self.as_const(a) {
            return self.constant(eval_un(kind, x));
        }
        match (kind, self.nodes[a.index()].expr) {
            (UnKind::Neg, Expr::Un(UnKind::Neg, inner)) => return inner,
            (UnKind::Not, Expr::Un(UnKind::Not, inner)) => return inner,
            (UnKind::SextByte, Expr::Un(UnKind::SextByte, _)) => return a,
            _ => {}
        }
        self.intern_node(Expr::Un(kind, a))
    }

    fn intern_node(&mut self, expr: Expr) -> ExprId {
        if let Some(&id) = self.intern.get(&expr) {
            return id;
        }
        let (hash, tree, vars, vars_hi) = match expr {
            Expr::Const(v) => (structural_hash_leaf(0x01, v), 1, 0, false),
            Expr::Input(i) => {
                let vars = if i < 64 { 1u64 << i } else { 0 };
                (structural_hash_leaf(0x02, i as u64), 1, vars, i >= 64)
            }
            Expr::Bin(k, a, b) => {
                let na = &self.nodes[a.index()];
                let nb = &self.nodes[b.index()];
                (
                    structural_hash_bin(k, na.hash, nb.hash),
                    1u64.saturating_add(na.tree).saturating_add(nb.tree),
                    na.vars | nb.vars,
                    na.vars_hi || nb.vars_hi,
                )
            }
            Expr::Un(k, a) => {
                let na = &self.nodes[a.index()];
                (structural_hash_un(k, na.hash), 1u64.saturating_add(na.tree), na.vars, na.vars_hi)
            }
        };
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena holds < 2^32 nodes"));
        // A child already measured (or bounded) seeds the parent's DAG-size
        // cache: the parent's DAG is a superset of each child's, so the
        // child's count is a valid lower bound and an oversized child makes
        // the parent oversized without any traversal.
        let dag_seed = match expr {
            Expr::Const(_) | Expr::Input(_) => 0,
            Expr::Un(_, a) => self.dag[a.index()] & !DAG_LOWER_BOUND,
            Expr::Bin(_, a, b) => {
                (self.dag[a.index()] & !DAG_LOWER_BOUND).max(self.dag[b.index()] & !DAG_LOWER_BOUND)
            }
        };
        self.nodes.push(Node { expr, hash, tree, vars, vars_hi });
        self.dag.push(if dag_seed == 0 { 0 } else { dag_seed | DAG_LOWER_BOUND });
        self.stamp.push(0);
        self.intern.insert(expr, id);
        id
    }

    /// Evaluates the expression for a concrete assignment of the input
    /// variables (missing variables read as zero). Iterative and memoized:
    /// each distinct node is visited once per [`EvalMemo`] epoch, so
    /// scanning a whole path's constraints is linear in distinct nodes.
    pub fn eval(&self, root: ExprId, input: &[u64], memo: &mut EvalMemo) -> u64 {
        memo.ensure(self.nodes.len());
        if let Some(v) = memo.get(root) {
            return v;
        }
        let mut stack = std::mem::take(&mut memo.stack);
        stack.clear();
        stack.push(root);
        while let Some(&id) = stack.last() {
            if memo.get(id).is_some() {
                stack.pop();
                continue;
            }
            let v = match self.nodes[id.index()].expr {
                Expr::Const(v) => v,
                Expr::Input(i) => input.get(i as usize).copied().unwrap_or(0),
                Expr::Bin(k, a, b) => match (memo.get(a), memo.get(b)) {
                    (Some(x), Some(y)) => eval_bin(k, x, y),
                    (ma, mb) => {
                        if mb.is_none() {
                            stack.push(b);
                        }
                        if ma.is_none() {
                            stack.push(a);
                        }
                        continue;
                    }
                },
                Expr::Un(k, a) => match memo.get(a) {
                    Some(x) => eval_un(k, x),
                    None => {
                        stack.push(a);
                        continue;
                    }
                },
            };
            memo.set(id, v);
            stack.pop();
        }
        memo.stack = stack;
        memo.get(root).expect("root evaluated")
    }

    /// Appends a canonical byte serialization of the expression to `out`.
    ///
    /// Two expressions serialize to the same bytes iff they are structurally
    /// equal, so the encoding is an exact (collision-free) key. The engine
    /// itself keys constraints by interned ids and structural hashes; the
    /// serialization is retained as the *reference* key for the key-soundness
    /// property suite (equal bytes ⇔ equal structural hash) and for audits.
    /// The output is tree-sized — exponential in depth under heavy sharing —
    /// so it must never sit on a hot path.
    pub fn write_canonical(&self, root: ExprId, out: &mut Vec<u8>) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match self.nodes[id.index()].expr {
                Expr::Const(v) => {
                    out.push(0x01);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Expr::Input(i) => {
                    out.push(0x02);
                    out.extend_from_slice(&(i as u64).to_le_bytes());
                }
                Expr::Bin(k, a, b) => {
                    out.push(0x03);
                    out.push(k as u8);
                    stack.push(b);
                    stack.push(a);
                }
                Expr::Un(k, a) => {
                    out.push(0x04);
                    out.push(k as u8);
                    stack.push(a);
                }
            }
        }
    }
}

/// Epoch-stamped evaluation memo for one concrete input assignment.
///
/// Dense arrays indexed by [`ExprId`] (no hashing on the hot path). A memo
/// is only meaningful for a single input; [`EvalMemo::reset`] invalidates
/// all entries in O(1) by bumping the epoch, so one allocation serves
/// every input in turn.
#[derive(Default)]
pub struct EvalMemo {
    vals: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
    stack: Vec<ExprId>,
}

impl EvalMemo {
    /// Invalidates every memoized value (O(1)); call when switching to a
    /// different input assignment.
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    fn ensure(&mut self, len: usize) {
        if self.epoch == 0 {
            self.epoch = 1;
        }
        if self.vals.len() < len {
            self.vals.resize(len, 0);
            self.stamps.resize(len, 0);
        }
    }

    #[inline]
    fn get(&self, id: ExprId) -> Option<u64> {
        (self.stamps[id.index()] == self.epoch).then(|| self.vals[id.index()])
    }

    #[inline]
    fn set(&mut self, id: ExprId, v: u64) {
        self.stamps[id.index()] = self.epoch;
        self.vals[id.index()] = v;
    }
}

/// Structural hash of a leaf: a tag byte plus the payload.
fn structural_hash_leaf(tag: u8, payload: u64) -> u128 {
    hash_stream(&[tag as u128, payload as u128])
}

fn structural_hash_bin(k: BinKind, a: u128, b: u128) -> u128 {
    hash_stream(&[0x03, k as u8 as u128, a, b])
}

fn structural_hash_un(k: UnKind, a: u128) -> u128 {
    hash_stream(&[0x04, k as u8 as u128, a])
}

/// 128-bit FNV-1a-style mix over a word stream: two independent 64-bit
/// lanes (multiply-xor and rotate-multiply) combined, the same construction
/// the canonical-byte hash used previously. Not cryptographic — collision
/// odds across the ≤ 2^32 nodes of an arena are ~2^-64.
pub(crate) fn hash_stream(words: &[u128]) -> u128 {
    let mut lo = 0xcbf29ce484222325u64;
    let mut hi = 0x9e3779b97f4a7c15u64;
    for w in words {
        for part in [*w as u64, (*w >> 64) as u64] {
            lo = (lo ^ part).wrapping_mul(0x100000001b3);
            hi = (hi ^ part).wrapping_mul(0xff51afd7ed558ccd).rotate_left(23);
        }
    }
    ((hi as u128) << 64) | lo as u128
}

/// Concrete semantics of the binary operators (shift counts masked to 6
/// bits, `x/0 = 0`, `x%0 = x`, comparisons producing 0/1).
pub(crate) fn eval_bin(kind: BinKind, a: u64, b: u64) -> u64 {
    match kind {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => a.checked_div(b).unwrap_or(0),
        BinKind::Rem => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Shl => a << (b & 63),
        BinKind::Shr => a >> (b & 63),
        BinKind::Sar => ((a as i64) >> (b & 63)) as u64,
        BinKind::Eq => (a == b) as u64,
        BinKind::Ult => (a < b) as u64,
    }
}

/// Concrete semantics of the unary operators.
pub(crate) fn eval_un(kind: UnKind, a: u64) -> u64 {
    match kind {
        UnKind::Neg => (a as i64).wrapping_neg() as u64,
        UnKind::Not => !a,
        UnKind::SextByte => a as u8 as i8 as i64 as u64,
    }
}

/// Attempts to find a value of variable `var` such that `expr == target`,
/// assuming all other variables keep the values in `input`. Succeeds when
/// the variable occurs exactly once along an invertible operator chain.
/// Iterative over the operator spine, with O(1) variable-occurrence tests
/// from the arena's cached masks, so deep chains neither recurse nor
/// re-walk subtrees.
pub fn invert(
    arena: &mut ExprArena,
    expr: ExprId,
    target: u64,
    var: usize,
    input: &[u64],
    memo: &mut EvalMemo,
) -> Option<u64> {
    let mut cur = expr;
    let mut target = target;
    loop {
        match arena.expr(cur) {
            Expr::Const(v) => {
                return (v == target).then(|| input.get(var).copied().unwrap_or(0));
            }
            Expr::Input(i) => {
                return (i as usize == var).then_some(target);
            }
            Expr::Un(k, a) => {
                target = match k {
                    UnKind::Neg => (target as i64).wrapping_neg() as u64,
                    UnKind::Not => !target,
                    UnKind::SextByte => {
                        // Invertible only if the target is a valid sign
                        // extension; any value with that low byte works.
                        let low = target as u8;
                        if (low as i8 as i64 as u64) == target {
                            low as u64
                        } else {
                            return None;
                        }
                    }
                };
                cur = a;
            }
            Expr::Bin(k, a, b) => {
                let a_has = arena.contains_var(a, var);
                let b_has = arena.contains_var(b, var);
                if a_has == b_has {
                    return None;
                }
                let (sym, other_value, var_on_left) = if a_has {
                    (a, arena.eval(b, input, memo), true)
                } else {
                    (b, arena.eval(a, input, memo), false)
                };
                target = match (k, var_on_left) {
                    (BinKind::Add, _) => target.wrapping_sub(other_value),
                    (BinKind::Xor, _) => target ^ other_value,
                    (BinKind::Sub, true) => target.wrapping_add(other_value),
                    (BinKind::Sub, false) => other_value.wrapping_sub(target),
                    (BinKind::Mul, _) => {
                        if other_value % 2 == 0 {
                            return None;
                        }
                        target.wrapping_mul(mod_inverse(other_value))
                    }
                    (BinKind::And, _)
                        // x & m == target requires target ⊆ m; any x with
                        // those bits works, pick target itself.
                        if target & other_value == target => target,
                    (BinKind::Or, _)
                        // x | m == target requires m ⊆ target.
                        if other_value & target == other_value => target & !other_value,
                    (BinKind::Shl, true) => {
                        let s = other_value & 63;
                        if target.trailing_zeros() as u64 >= s {
                            target >> s
                        } else {
                            return None;
                        }
                    }
                    (BinKind::Shr, true) => {
                        let s = other_value & 63;
                        if target.leading_zeros() as u64 >= s {
                            target << s
                        } else {
                            return None;
                        }
                    }
                    _ => return None,
                };
                cur = sym;
            }
        }
    }
}

/// Modular inverse of an odd 64-bit value (Newton iteration).
pub(crate) fn mod_inverse(a: u64) -> u64 {
    debug_assert!(a % 2 == 1);
    let mut x = a; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_and_constant_folding() {
        let mut ar = ExprArena::new();
        let a = ar.constant(2);
        let b = ar.constant(40);
        let e = ar.bin(BinKind::Add, a, b);
        assert_eq!(ar.expr(e), Expr::Const(42), "constants fold");
        let x = ar.input(0);
        let three = ar.constant(3);
        let e = ar.bin(BinKind::Mul, x, three);
        let mut memo = EvalMemo::default();
        assert_eq!(ar.eval(e, &[7], &mut memo), 21);
        assert!(ar.is_symbolic(e));
        let mut vars = BTreeSet::new();
        ar.variables(e, &mut vars);
        assert_eq!(vars.len(), 1);
        assert_eq!(ar.tree_size(e), 3);
    }

    #[test]
    fn interning_gives_id_equality_for_structural_equality() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let c = ar.constant(17);
        let e1 = ar.bin(BinKind::Add, x, c);
        let x2 = ar.input(0);
        let c2 = ar.constant(17);
        let e2 = ar.bin(BinKind::Add, x2, c2);
        assert_eq!(e1, e2, "hash-consing interns structurally equal nodes");
        assert_eq!(ar.structural_hash(e1), ar.structural_hash(e2));
        // Commutative ordering: both operand orders intern to one node.
        let e3 = ar.bin(BinKind::Add, c, x);
        assert_eq!(e1, e3);
    }

    #[test]
    fn structural_hashes_are_arena_independent() {
        let build = |ar: &mut ExprArena| {
            let x = ar.input(3);
            let k = ar.constant(0x55);
            let xor = ar.bin(BinKind::Xor, x, k);
            ar.un(UnKind::SextByte, xor)
        };
        let mut a1 = ExprArena::new();
        let mut a2 = ExprArena::new();
        // Pollute the second arena first so ids diverge.
        for i in 0..10 {
            a2.input(i);
        }
        let e1 = build(&mut a1);
        let e2 = build(&mut a2);
        assert_ne!(e1, e2, "ids differ across arenas");
        assert_eq!(a1.structural_hash(e1), a2.structural_hash(e2), "hashes do not");
    }

    #[test]
    fn simplification_rules_preserve_semantics() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let zero = ar.constant(0);
        let one = ar.constant(1);
        let ones = ar.constant(u64::MAX);
        assert_eq!(ar.bin(BinKind::Add, x, zero), x);
        assert_eq!(ar.bin(BinKind::Sub, x, zero), x);
        assert_eq!(ar.bin(BinKind::Sub, x, x), zero);
        assert_eq!(ar.bin(BinKind::Mul, x, one), x);
        assert_eq!(ar.bin(BinKind::Mul, x, zero), zero);
        assert_eq!(ar.bin(BinKind::Div, x, one), x);
        assert_eq!(ar.bin(BinKind::Div, x, zero), zero, "x/0 = 0 semantics");
        assert_eq!(ar.bin(BinKind::Rem, x, zero), x, "x%0 = x semantics");
        assert_eq!(ar.bin(BinKind::Rem, x, one), zero);
        assert_eq!(ar.bin(BinKind::And, x, ones), x);
        assert_eq!(ar.bin(BinKind::And, x, zero), zero);
        assert_eq!(ar.bin(BinKind::And, x, x), x);
        assert_eq!(ar.bin(BinKind::Or, x, zero), x);
        assert_eq!(ar.bin(BinKind::Or, x, x), x);
        assert_eq!(ar.bin(BinKind::Xor, x, zero), x);
        assert_eq!(ar.bin(BinKind::Xor, x, x), zero);
        let sixty_four = ar.constant(64);
        assert_eq!(ar.bin(BinKind::Shl, x, sixty_four), x, "count ≡ 0 mod 64");
        assert_eq!(ar.bin(BinKind::Shl, x, zero), x);
        assert_eq!(ar.bin(BinKind::Eq, x, x), one);
        assert_eq!(ar.bin(BinKind::Ult, x, x), zero);
        assert_eq!(ar.bin(BinKind::Ult, x, zero), zero, "nothing is unsigned-below 0");
        let neg = ar.un(UnKind::Neg, x);
        assert_eq!(ar.un(UnKind::Neg, neg), x, "double negation");
        let not = ar.un(UnKind::Not, x);
        assert_eq!(ar.un(UnKind::Not, not), x, "double NOT");
        let sext = ar.un(UnKind::SextByte, x);
        assert_eq!(ar.un(UnKind::SextByte, sext), sext, "sign extension is idempotent");
    }

    #[test]
    fn tree_size_saturates_while_dag_size_stays_exact() {
        let mut ar = ExprArena::new();
        // acc = acc + acc doubles the tree each step but adds one node.
        let mut acc = ar.input(0);
        let one = ar.constant(1);
        for _ in 0..80 {
            let next = ar.bin(BinKind::Add, acc, one);
            acc = ar.bin(BinKind::Mul, next, next); // shared subterm
        }
        assert_eq!(ar.tree_size(acc), u64::MAX, "tree size saturates");
        let dag = ar.dag_size(acc);
        assert!(dag <= 3 + 2 * 80, "DAG stays linear, got {dag}");
        assert!(!ar.dag_oversize(acc, 4096));
        assert!(ar.dag_oversize(acc, 10));
    }

    #[test]
    fn dag_oversize_propagates_to_parents_without_traversal() {
        let mut ar = ExprArena::new();
        let mut acc = ar.input(0);
        for i in 0..100u64 {
            let c = ar.constant(i.wrapping_mul(0x9e3779b9));
            acc = ar.bin(BinKind::Add, acc, c);
        }
        assert!(ar.dag_oversize(acc, 50));
        // Children built on top inherit the verdict from the cached bound.
        let one = ar.constant(1);
        let parent = ar.bin(BinKind::Xor, acc, one);
        assert!(ar.dag_oversize(parent, 50));
        assert!(!ar.dag_oversize(parent, 4096));
    }

    #[test]
    fn eval_handles_deep_chains_without_recursion() {
        let mut ar = ExprArena::new();
        let mut e = ar.input(0);
        for i in 0..200_000u64 {
            let c = ar.constant(i | 1);
            e = ar.bin(BinKind::Add, e, c);
        }
        let mut memo = EvalMemo::default();
        let v = ar.eval(e, &[1], &mut memo);
        let expected = (0..200_000u64).fold(1u64, |a, i| a.wrapping_add(i | 1));
        assert_eq!(v, expected);
    }

    #[test]
    fn eval_memo_reset_switches_inputs_correctly() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let c = ar.constant(5);
        let e = ar.bin(BinKind::Add, x, c);
        let mut memo = EvalMemo::default();
        assert_eq!(ar.eval(e, &[1], &mut memo), 6);
        memo.reset();
        assert_eq!(ar.eval(e, &[10], &mut memo), 15);
    }

    #[test]
    fn inversion_of_affine_and_xor_chains() {
        let mut ar = ExprArena::new();
        // ((x ^ 0x55) + 100) * 7 == target
        let x = ar.input(0);
        let c55 = ar.constant(0x55);
        let xor = ar.bin(BinKind::Xor, x, c55);
        let c100 = ar.constant(100);
        let add = ar.bin(BinKind::Add, xor, c100);
        let c7 = ar.constant(7);
        let e = ar.bin(BinKind::Mul, add, c7);
        let want = 0xDEADBEEFu64;
        let mut memo = EvalMemo::default();
        let target = ar.eval(e, &[want], &mut memo);
        memo.reset();
        let got = invert(&mut ar, e, target, 0, &[0], &mut memo).expect("invertible");
        memo.reset();
        assert_eq!(ar.eval(e, &[got], &mut memo), target);
        assert_eq!(got, want);
    }

    #[test]
    fn inversion_of_not_neg_sub_chain() {
        let mut ar = ExprArena::new();
        // ~( 1000 - x ) == target
        let c1000 = ar.constant(1000);
        let x = ar.input(0);
        let sub = ar.bin(BinKind::Sub, c1000, x);
        let e = ar.un(UnKind::Not, sub);
        let mut memo = EvalMemo::default();
        let target = ar.eval(e, &[123], &mut memo);
        memo.reset();
        let got = invert(&mut ar, e, target, 0, &[0], &mut memo).unwrap();
        memo.reset();
        assert_eq!(ar.eval(e, &[got], &mut memo), target);
    }

    #[test]
    fn inversion_through_and_mask_respects_feasibility() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let mask = ar.constant(0xffff);
        let e = ar.bin(BinKind::And, x, mask);
        let mut memo = EvalMemo::default();
        assert_eq!(invert(&mut ar, e, 0x1234, 0, &[0], &mut memo), Some(0x1234));
        memo.reset();
        assert_eq!(
            invert(&mut ar, e, 0x1_0000, 0, &[0], &mut memo),
            None,
            "target outside the mask"
        );
    }

    #[test]
    fn inversion_gives_up_on_multiple_occurrences() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let y = ar.input(1);
        let xy = ar.bin(BinKind::Add, x, y);
        let e = ar.bin(BinKind::Mul, xy, x);
        let mut memo = EvalMemo::default();
        assert_eq!(invert(&mut ar, e, 10, 0, &[0, 0], &mut memo), None);
    }

    #[test]
    fn canonical_bytes_match_iff_hashes_match_on_samples() {
        let mut ar = ExprArena::new();
        let x = ar.input(0);
        let y = ar.input(1);
        let c = ar.constant(3);
        let mut exprs = vec![x, y, c];
        for k in [BinKind::Add, BinKind::Sub, BinKind::Shl, BinKind::Ult] {
            let a = exprs[exprs.len() - 3];
            let b = exprs[exprs.len() - 1];
            exprs.push(ar.bin(k, a, b));
        }
        for i in 0..exprs.len() {
            for j in 0..exprs.len() {
                let (mut bi, mut bj) = (Vec::new(), Vec::new());
                ar.write_canonical(exprs[i], &mut bi);
                ar.write_canonical(exprs[j], &mut bj);
                assert_eq!(
                    bi == bj,
                    ar.structural_hash(exprs[i]) == ar.structural_hash(exprs[j]),
                    "bytes and hashes must agree on equality ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn mod_inverse_is_correct() {
        for a in [1u64, 3, 5, 7, 0xDEADBEEF | 1, u64::MAX] {
            assert_eq!(a.wrapping_mul(mod_inverse(a)), 1, "a = {a}");
        }
    }
}

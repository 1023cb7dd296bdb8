//! Concolic (dynamic symbolic) execution — the reproduction's S2E stand-in.
//!
//! A shadow executor runs the target function concretely on the RM64
//! emulator while propagating arena-interned expressions ([`ExprId`]s) for
//! registers and memory bytes that depend on the attacker-controlled input.
//! Every conditional branch whose flags depend on the input yields a path
//! [`Constraint`]; the DSE driver performs generational search — negate one
//! constraint at a time, ask the [`SearchSolver`] for an input, re-execute —
//! until the goal is reached or the work budget runs out. The cost unit is
//! emulated instructions, so the relative slowdowns caused by ROP chains,
//! P1/P3 and VM interpreters are measured on the same scale the paper uses
//! wall-clock time for.
//!
//! # Fork-point exploration
//!
//! The explorer runs in one of two [`ExploreMode`]s. The production mode,
//! [`ExploreMode::ForkPoint`], captures an emulator [`Snapshot`] plus a
//! clone of the shadow state at the *first occurrence* of every distinct
//! symbolic branch along a path. When the generational search flips that
//! branch, the new frontier entry restores the snapshot, patches every
//! input-dependent register, memory cell and flag state by re-evaluating its
//! shadow expression under the new input, and resumes from the fork — the
//! prefix is never re-executed. Instruction *accounting* still includes the
//! skipped prefix (the snapshot carries its [`ExecStats`]), so budgets,
//! outcomes and the frontier schedule are bit-identical to the reference
//! [`ExploreMode::Rerun`] oracle that re-executes every path from scratch;
//! only the wall-clock cost drops. [`DseOutcome::emulated_instructions`]
//! reports the instructions actually stepped.
//!
//! Patching is exact only while the shadow tracking is exact. Whenever an
//! instruction would make input-dependent state escape the shadow (an
//! oversized expression is concretized, a memory access goes through an
//! input-dependent address, tainted flags are consumed, a carry chain or a
//! symbolic divisor shows up), the run sets a *hazard* flag and stops
//! capturing fork points; flips past that point fall back to a full re-run,
//! which keeps the two modes equivalent instead of subtly wrong. The first
//! hazard of each path is reported (cause plus the number of distinct
//! branch constraints recorded before it) and aggregated per cause into
//! [`DseOutcome::hazard_causes`], so a suite where expression-size
//! concretization caps symbolic depth is visible as such instead of
//! folding silently into "defeated".
//!
//! # Constraint caching
//!
//! All expressions of one attack live in a single hash-consed [`ExprArena`]
//! owned by the engine, so a [`Constraint`] — a `Copy` struct of interned
//! ids — *is* its own exact structural key. Two cache layers exploit that:
//! duplicated constraints along one path (ROP chains re-execute the same
//! compare at many program points) make the flip provably unsatisfiable, so
//! they are skipped without calling the solver at all; and solver queries
//! are memoized under their *normalized* form — a duplicate-safe
//! [`SetDigest`] of the distinct prefix-constraint structural hashes plus
//! the negated constraint's hash — so equivalent frontier entries across
//! paths (and across runs: structural hashes are arena-independent) are
//! solved exactly once.
//!
//! [`ExecStats`]: raindrop_machine::ExecStats
//! [`Snapshot`]: raindrop_machine::Snapshot

use crate::solver::{Constraint, SearchSolver, SetDigest, VarDomain};
use crate::sym::{BinKind, EvalMemo, ExprArena, ExprId, UnKind};
use raindrop_machine::{AluOp, Cond, EmuError, Emulator, Image, Inst, Reg, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Cap on shadow-expression size, measured as the *DAG size* (distinct
/// arena nodes reachable — the real memory footprint); larger expressions
/// are concretized, the standard concolic fallback (§VII-C3 discusses its
/// limits on table lookups). The previous representation measured the
/// unrolled tree, ~86× larger than the node graph on P3-strengthened
/// chains, which tripped this hazard after only ~a hundred branches.
const MAX_EXPR_NODES: usize = 4096;

/// Cap on fork points captured per path: bounds the snapshot memory a
/// single deep path can pin while its flips wait in the frontier.
const MAX_FORK_POINTS: usize = 128;

/// Cap on frontier entries that may pin a fork-point snapshot at any one
/// time. Entries queued past it carry no resume point and fall back to a
/// re-run — identical results, only slower — so frontier memory stays
/// bounded by this cap instead of [`DseBudget::max_frontier`].
const FRONTIER_RESUME_CAP: usize = 4096;

/// How the symbolic input reaches the target function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputSpec {
    /// A single 64-bit register argument (variable 0), masked to
    /// `size_bytes` meaningful bytes. This is the RandomFuns shape.
    RegisterArg {
        /// Number of meaningful input bytes (1, 2, 4 or 8).
        size_bytes: usize,
    },
    /// `len` input bytes in guest memory at `addr` (variables `0..len`),
    /// each in `0..=255`. Extra arguments are passed unchanged. This is the
    /// base64 shape.
    MemoryBuffer {
        /// Guest address of the buffer.
        addr: u64,
        /// Number of symbolic bytes.
        len: usize,
        /// Concrete arguments passed to the function (e.g. the length).
        args: Vec<u64>,
    },
}

impl InputSpec {
    /// Number of input variables.
    pub fn vars(&self) -> usize {
        match self {
            InputSpec::RegisterArg { .. } => 1,
            InputSpec::MemoryBuffer { len, .. } => *len,
        }
    }

    /// Domain mask of one variable.
    pub fn var_mask(&self) -> u64 {
        match self {
            InputSpec::RegisterArg { size_bytes } => {
                if *size_bytes >= 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * size_bytes)) - 1
                }
            }
            InputSpec::MemoryBuffer { .. } => 0xff,
        }
    }

    /// The solver-facing variable domain.
    pub fn domain(&self) -> VarDomain {
        let exhaustive = match self {
            InputSpec::RegisterArg { size_bytes } if *size_bytes <= 2 => {
                Some(1u64 << (8 * *size_bytes))
            }
            InputSpec::MemoryBuffer { .. } => Some(256),
            _ => None,
        };
        VarDomain { vars: self.vars(), mask: self.var_mask(), exhaustive }
    }
}

/// Result of one shadowed execution.
#[derive(Debug, Clone)]
pub struct PathRecord {
    /// Return value of the function.
    pub return_value: u64,
    /// Path constraints whose operands mention the input.
    pub constraints: Vec<Constraint>,
    /// Instructions executed.
    pub instructions: u64,
    /// Probe indices observed set after the run.
    pub probes_hit: BTreeSet<u32>,
    /// The first hazard that stopped exact shadow tracking, if any.
    pub hazard_cause: Option<&'static str>,
    /// Distinct branch constraints recorded before the first hazard (the
    /// whole path's distinct count when no hazard occurred): the depth to
    /// which the explorer can still fork exactly.
    pub branches_pre_hazard: usize,
}

/// One shadowed execution together with the arena its constraint
/// expressions live in (returned by [`shadow_run`]).
pub struct ShadowRun {
    /// The expression arena every [`Constraint`] id of `record` points into.
    pub arena: ExprArena,
    /// The recorded path.
    pub record: PathRecord,
}

/// How the real machine flags were computed, in terms of shadow
/// expressions, so a fork-point restore can replay them exactly for a new
/// input.
#[derive(Clone, Copy)]
enum FlagReplay {
    /// `Flags::set_sub(a, b, false)`.
    Sub(ExprId, ExprId),
    /// `Flags::set_add(a, b, false)`.
    Add(ExprId, ExprId),
    /// `Flags::set_logic(v)`.
    Logic(ExprId),
}

/// Shadow model of the machine flags: the constraint operands (the model
/// the solver reasons over) plus the exact replay recipe.
#[derive(Clone, Copy)]
struct FlagShadow {
    /// Constraint model: left operand.
    lhs: ExprId,
    /// Constraint model: right operand.
    rhs: ExprId,
    /// Constraint model: subtraction (`cmp`-style) vs AND (`test`-style).
    is_sub: bool,
    /// Exact flag computation for fork-point patching.
    replay: FlagReplay,
}

impl FlagShadow {
    fn symbolic(&self, arena: &ExprArena) -> bool {
        arena.is_symbolic(self.lhs) || arena.is_symbolic(self.rhs)
    }

    /// Whether the constraint model `(lhs, rhs, is_sub)` predicts the real
    /// branch outcome for `cond` exactly. `cmp`/`test`/`neg`-sourced flags
    /// are modeled exactly for every condition; ALU add/sub flags are
    /// modeled as "result vs 0", which is exact only for the ZF-based
    /// conditions (CF/OF differ from the real computation). Interned ids
    /// make the operand comparison structural.
    fn model_exact_for(&self, cond: Cond) -> bool {
        match self.replay {
            FlagReplay::Logic(_) => true,
            FlagReplay::Sub(a, b) => {
                (self.is_sub && a == self.lhs && b == self.rhs)
                    || matches!(cond, Cond::E | Cond::Ne)
            }
            FlagReplay::Add(..) => matches!(cond, Cond::E | Cond::Ne),
        }
    }

    /// The carry-flag value as an expression over the input: `cmp`/`sub`
    /// flags carry iff `a < b`, `add` flags iff the sum wrapped, logic
    /// flags never. Lets `adc`/`sbb` (the chain flag-leak idiom) be
    /// tracked exactly instead of concretized.
    fn carry_expr(&self, arena: &mut ExprArena) -> ExprId {
        match self.replay {
            FlagReplay::Sub(a, b) => arena.bin(BinKind::Ult, a, b),
            FlagReplay::Add(a, b) => {
                let sum = arena.bin(BinKind::Add, a, b);
                arena.bin(BinKind::Ult, sum, a)
            }
            FlagReplay::Logic(_) => arena.constant(0),
        }
    }

    fn replay_into(
        &self,
        arena: &ExprArena,
        input: &[u64],
        memo: &mut EvalMemo,
        flags: &mut raindrop_machine::Flags,
    ) {
        match self.replay {
            FlagReplay::Sub(a, b) => {
                flags.set_sub(arena.eval(a, input, memo), arena.eval(b, input, memo), false);
            }
            FlagReplay::Add(a, b) => {
                flags.set_add(arena.eval(a, input, memo), arena.eval(b, input, memo), false);
            }
            FlagReplay::Logic(v) => flags.set_logic(arena.eval(v, input, memo)),
        }
    }
}

/// Shadow knowledge about the machine flags.
#[derive(Clone, Copy)]
enum FlagTrack {
    /// Flags are input-independent.
    Concrete,
    /// Flags are described exactly by the carried [`FlagShadow`] (which may
    /// still be non-symbolic if both operands folded to constants).
    Exact(FlagShadow),
    /// Flags depend on the input but are not modeled (e.g. set by a shift
    /// of a symbolic value). Consuming them is a fork hazard.
    Tainted,
}

impl FlagTrack {
    fn symbolic_shadow(&self, arena: &ExprArena) -> Option<FlagShadow> {
        match self {
            FlagTrack::Exact(fs) if fs.symbolic(arena) => Some(*fs),
            _ => None,
        }
    }
}

/// Shadow state: symbolic expressions for registers and memory.
///
/// Memory is tracked at two granularities to keep expressions small: whole
/// 64-bit words stored at an exact address (the common case — stack slots,
/// locals, VM operand stacks) and individual bytes (byte-oriented workloads
/// such as base64). A 64-bit reload of a word stored at the same address
/// returns the original expression unchanged, so values round-tripped
/// through push/pop or spill slots do not blow up.
///
/// The `hazard` flag records that some input-dependent state escaped the
/// tracking (concretization, symbolic addressing, tainted-flag consumption):
/// from that point on the state can no longer be reconstructed for a
/// different input, so fork-point capture stops for the rest of the path.
#[derive(Clone)]
struct Shadow {
    regs: [Option<ExprId>; 16],
    words: HashMap<u64, ExprId>,
    bytes: HashMap<u64, ExprId>,
    flags: FlagTrack,
    hazard: bool,
    hazard_cause: Option<&'static str>,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            regs: Default::default(),
            words: HashMap::new(),
            bytes: HashMap::new(),
            flags: FlagTrack::Concrete,
            hazard: false,
            hazard_cause: None,
        }
    }

    fn set_hazard(&mut self, cause: &'static str) {
        self.hazard = true;
        if self.hazard_cause.is_none() {
            self.hazard_cause = Some(cause);
        }
    }

    fn reg_symbolic(&self, r: Reg) -> bool {
        self.regs[r.index()].is_some()
    }

    fn set_reg(&mut self, arena: &mut ExprArena, r: Reg, e: Option<ExprId>) {
        let e = match e {
            Some(e) if arena.is_symbolic(e) => {
                if !arena.dag_oversize(e, MAX_EXPR_NODES) {
                    Some(e)
                } else {
                    // Concretization: the register value still depends on
                    // the input, but the dependence is dropped.
                    self.set_hazard("expr-size concretization (register)");
                    None
                }
            }
            _ => None,
        };
        self.regs[r.index()] = e;
    }

    fn clear_range(&mut self, addr: u64, len: u64) {
        for i in 0..len {
            self.bytes.remove(&addr.wrapping_add(i));
        }
        let end = addr.wrapping_add(len);
        for d in 0..8u64 {
            let w = addr.wrapping_sub(d);
            if self.words.contains_key(&w) {
                // Overlap test: word [w, w+8) vs [addr, addr+len).
                if w < end && addr < w.wrapping_add(8) {
                    self.words.remove(&w);
                    // Dropping a partially-overlapped word loses tracking
                    // for the bytes outside the cleared range.
                    if w < addr || w.wrapping_add(8) > end {
                        self.set_hazard("partial overwrite of tracked word");
                    }
                }
            }
        }
        for i in 1..len {
            let w = addr.wrapping_add(i);
            if self.words.remove(&w).is_some() && w.wrapping_add(8) > end {
                self.set_hazard("partial overwrite of tracked word");
            }
        }
    }

    fn mem_symbolic(&self, addr: u64, len: u64) -> bool {
        (0..len).any(|i| self.bytes.contains_key(&addr.wrapping_add(i)))
            || (0..(len + 7)).any(|d| {
                let w = addr.wrapping_add(len).wrapping_sub(1).wrapping_sub(d);
                self.words.contains_key(&w) && w.wrapping_add(8) > addr
            })
    }

    fn mem_byte(&self, arena: &mut ExprArena, addr: u64, concrete: u8) -> ExprId {
        if let Some(&e) = self.bytes.get(&addr) {
            return e;
        }
        for d in 0..8u64 {
            let w = addr.wrapping_sub(d);
            if let Some(&e) = self.words.get(&w) {
                let shift = arena.constant(8 * d);
                let shr = arena.bin(BinKind::Shr, e, shift);
                let mask = arena.constant(0xff);
                return arena.bin(BinKind::And, shr, mask);
            }
        }
        arena.constant(concrete as u64)
    }

    fn load64(&mut self, arena: &mut ExprArena, addr: u64, concrete: u64) -> ExprId {
        if let Some(&e) = self.words.get(&addr) {
            return e;
        }
        if !self.mem_symbolic(addr, 8) {
            return arena.constant(concrete);
        }
        let mut acc = arena.constant(0);
        for i in 0..8u64 {
            let byte = self.mem_byte(arena, addr + i, (concrete >> (8 * i)) as u8);
            let shift = arena.constant(8 * i);
            let shl = arena.bin(BinKind::Shl, byte, shift);
            acc = arena.bin(BinKind::Or, acc, shl);
        }
        if arena.dag_oversize(acc, MAX_EXPR_NODES) {
            self.set_hazard("expr-size concretization (load)");
            arena.constant(concrete)
        } else {
            acc
        }
    }

    fn store64(&mut self, arena: &mut ExprArena, addr: u64, expr: Option<ExprId>) {
        self.clear_range(addr, 8);
        if let Some(e) = expr {
            if arena.is_symbolic(e) {
                if !arena.dag_oversize(e, MAX_EXPR_NODES) {
                    self.words.insert(addr, e);
                } else {
                    self.set_hazard("expr-size concretization (store64)");
                }
            }
        }
    }

    fn store8(&mut self, arena: &mut ExprArena, addr: u64, expr: Option<ExprId>) {
        self.clear_range(addr, 1);
        if let Some(e) = expr {
            if arena.is_symbolic(e) {
                if !arena.dag_oversize(e, MAX_EXPR_NODES) {
                    let mask = arena.constant(0xff);
                    let masked = arena.bin(BinKind::And, e, mask);
                    self.bytes.insert(addr, masked);
                } else {
                    self.set_hazard("expr-size concretization (store8)");
                }
            }
        }
    }
}

/// Writes every input-dependent piece of machine state for `input` into a
/// freshly restored fork-point snapshot: tracked registers, memory words
/// and bytes are re-evaluated under the new input, and the flags are
/// replayed through the exact computation that produced them. Used by the
/// fork-point explorer; valid only while the shadow carries no hazard.
/// One shared [`EvalMemo`] serves the whole patch: every expression is
/// evaluated under the same input, so shared subterms across registers,
/// words and bytes are computed once.
fn patch_for_input(
    emu: &mut Emulator,
    arena: &ExprArena,
    shadow: &Shadow,
    input: &[u64],
    memo: &mut EvalMemo,
) {
    memo.reset();
    for r in Reg::ALL {
        if let Some(e) = shadow.regs[r.index()] {
            emu.cpu.set_reg(r, arena.eval(e, input, memo));
        }
    }
    for (addr, e) in &shadow.words {
        emu.mem.write_u64(*addr, arena.eval(*e, input, memo));
    }
    for (addr, e) in &shadow.bytes {
        emu.mem.write_u8(*addr, arena.eval(*e, input, memo) as u8);
    }
    if let Some(fs) = shadow.flags.symbolic_shadow(arena) {
        fs.replay_into(arena, input, memo, &mut emu.cpu.flags);
    }
}

/// Runs the target once with a concrete input while recording symbolic path
/// constraints. Returns the record together with the arena that owns its
/// constraint expressions.
///
/// # Errors
///
/// Propagates emulator errors (budget exhaustion, decode faults — both are
/// treated by the DSE driver as "this path costs too much / derails").
pub fn shadow_run(
    image: &Image,
    func: &str,
    spec: &InputSpec,
    input: &[u64],
    budget: u64,
) -> Result<ShadowRun, EmuError> {
    let mut engine = Engine::new(image, func, spec.clone(), false);
    let record = engine.run_path(input, budget, None)?.record;
    Ok(ShadowRun { arena: engine.arena, record })
}

/// Pre-execution facts an instruction's shadow propagation needs: the
/// concrete register file before the step (destination registers get
/// overwritten by it), the resolved memory-operand address, and whether the
/// address itself depends on the input (a fork hazard: under a different
/// input the access would go elsewhere).
struct PreState {
    concrete_regs: [u64; 16],
    flags_before: raindrop_machine::Flags,
    mem_addr: Option<u64>,
    mem_concrete: u64,
    any_symbolic: bool,
    addr_symbolic: bool,
}

impl PreState {
    fn capture(emu: &Emulator, shadow: &Shadow, inst: &Inst) -> PreState {
        let mut concrete_regs = [0u64; 16];
        for r in Reg::ALL {
            concrete_regs[r.index()] = emu.reg(r);
        }
        let mut any = inst.regs_read().iter().any(|r| shadow.reg_symbolic(r));
        let mut addr_symbolic = false;
        let mem_addr = inst.mem_operand().map(|m| {
            let mut a = m.disp as i64 as u64;
            if let Some(b) = m.base {
                a = a.wrapping_add(emu.reg(b));
                addr_symbolic |= shadow.reg_symbolic(b);
            }
            if let Some(i) = m.index {
                a = a.wrapping_add(emu.reg(i).wrapping_mul(m.scale as u64));
                addr_symbolic |= shadow.reg_symbolic(i);
            }
            a
        });
        let mut mem_concrete = 0;
        if let Some(addr) = mem_addr {
            mem_concrete = emu.mem.read_u64(addr);
            if shadow.mem_symbolic(addr, 8) {
                any = true;
            }
        }
        PreState {
            concrete_regs,
            flags_before: emu.cpu.flags,
            mem_addr,
            mem_concrete,
            any_symbolic: any,
            addr_symbolic,
        }
    }
}

/// The expression a register held before the instruction executed.
fn op_expr(arena: &mut ExprArena, shadow: &Shadow, pre: &PreState, r: Reg) -> ExprId {
    match shadow.regs[r.index()] {
        Some(e) => e,
        None => arena.constant(pre.concrete_regs[r.index()]),
    }
}

fn alu_kind(op: AluOp) -> BinKind {
    match op {
        AluOp::Add | AluOp::Adc => BinKind::Add,
        AluOp::Sub | AluOp::Sbb => BinKind::Sub,
        AluOp::And => BinKind::And,
        AluOp::Or => BinKind::Or,
        AluOp::Xor => BinKind::Xor,
    }
}

/// The carry-in expression an ALU op consumes: `adc`/`sbb` read the carry
/// flag, everything else ignores it.
fn alu_carry(
    op: AluOp,
    arena: &mut ExprArena,
    shadow: &mut Shadow,
    pre: &PreState,
) -> Option<ExprId> {
    if matches!(op, AluOp::Adc | AluOp::Sbb) {
        carry_in_expr(arena, shadow, pre)
    } else {
        None
    }
}

/// Shadow outcome of a symbolic ALU operation: the result expression
/// (carry included) and the flag tracking — exact for the carry-less ops,
/// tainted for `adc`/`sbb` (their flag outputs are not modeled). One
/// helper so the four ALU addressing forms cannot drift apart.
fn alu_shadow(
    arena: &mut ExprArena,
    op: AluOp,
    a: ExprId,
    b: ExprId,
    carry: Option<ExprId>,
) -> (ExprId, FlagTrack) {
    let e = alu_result(arena, op, a, b, carry);
    let flags = if matches!(op, AluOp::Adc | AluOp::Sbb) {
        FlagTrack::Tainted
    } else {
        alu_flags(arena, op, e, a, b)
    };
    (e, flags)
}

/// Builds the flag shadow for an ALU-style flag write: the solver model is
/// "result vs 0 via sub", the replay is the real operand computation.
fn alu_flags(arena: &mut ExprArena, op: AluOp, result: ExprId, a: ExprId, b: ExprId) -> FlagTrack {
    let replay = match op {
        AluOp::Add | AluOp::Adc => FlagReplay::Add(a, b),
        AluOp::Sub | AluOp::Sbb => FlagReplay::Sub(a, b),
        AluOp::And | AluOp::Or | AluOp::Xor => FlagReplay::Logic(result),
    };
    let zero = arena.constant(0);
    FlagTrack::Exact(FlagShadow { lhs: result, rhs: zero, is_sub: true, replay })
}

/// Records the constraint for a flag-consuming instruction (`jcc`, `cmov`,
/// `setcc`) if the flags are symbolic; marks a hazard when the flags are
/// tainted (input-dependent but unmodeled) or when the model is inexact for
/// this condition (the solver would reason over wrong CF/OF semantics).
fn consume_flags(
    arena: &ExprArena,
    shadow: &mut Shadow,
    cond: Cond,
    taken: bool,
    constraints: &mut Vec<Constraint>,
) -> bool {
    match shadow.flags {
        FlagTrack::Tainted => {
            shadow.set_hazard("tainted-flag branch");
            false
        }
        FlagTrack::Exact(fs) if fs.symbolic(arena) => {
            if !fs.model_exact_for(cond) {
                shadow.set_hazard("inexact flag model for condition");
            }
            constraints.push(Constraint {
                lhs: fs.lhs,
                rhs: fs.rhs,
                flag_is_sub: fs.is_sub,
                cond,
                taken,
            });
            true
        }
        _ => false,
    }
}

/// Propagates shadow state across one executed instruction. `emu` holds the
/// post-state; `pre` holds operand expressions captured before execution.
fn propagate(
    inst: &Inst,
    pre: &PreState,
    emu: &Emulator,
    arena: &mut ExprArena,
    shadow: &mut Shadow,
    constraints: &mut Vec<Constraint>,
) {
    use Inst::*;
    // Lazy concretization: a symbolic stack pointer is pinned to its
    // concrete value at its next implicit use, and an input-dependent
    // effective address is pinned per access. Under the pinned prefix the
    // shadow's concrete-address tracking stays exact for any input the
    // solver produces.
    if uses_rsp(inst) && shadow.reg_symbolic(Reg::Rsp) {
        let e = op_expr(arena, shadow, pre, Reg::Rsp);
        constraints.push(pin_constraint(arena, e, pre.concrete_regs[Reg::Rsp.index()]));
        shadow.set_reg(arena, Reg::Rsp, None);
    }
    if pre.addr_symbolic && !matches!(inst, Lea(..)) {
        let m = inst.mem_operand().expect("addr_symbolic implies a mem operand");
        let e = addr_expr(arena, shadow, pre, m);
        constraints.push(pin_constraint(arena, e, pre.mem_addr.expect("resolved")));
    }
    match *inst {
        MovRR(d, s) => {
            let e = shadow.regs[s.index()];
            shadow.set_reg(arena, d, e);
        }
        MovRI(d, _) => shadow.set_reg(arena, d, None),
        Load(d, _) => {
            let addr = pre.mem_addr.expect("load has mem");
            let e = shadow.load64(arena, addr, emu.reg(d));
            shadow.set_reg(arena, d, Some(e));
        }
        LoadB(d, _) | LoadSxB(d, _) => {
            let addr = pre.mem_addr.expect("load has mem");
            let byte = shadow.mem_byte(arena, addr, emu.mem.read_u8(addr));
            let e =
                if matches!(inst, LoadSxB(..)) { arena.un(UnKind::SextByte, byte) } else { byte };
            shadow.set_reg(arena, d, Some(e));
        }
        Store(_, s) => {
            let addr = pre.mem_addr.expect("store has mem");
            let e = shadow.regs[s.index()];
            shadow.store64(arena, addr, e);
        }
        StoreI(_, _) => {
            let addr = pre.mem_addr.expect("store has mem");
            shadow.store64(arena, addr, None);
        }
        StoreB(_, s) => {
            let addr = pre.mem_addr.expect("store has mem");
            let e = shadow.regs[s.index()];
            shadow.store8(arena, addr, e);
        }
        Lea(d, m) => {
            let e = if pre.addr_symbolic { Some(addr_expr(arena, shadow, pre, m)) } else { None };
            shadow.set_reg(arena, d, e);
        }
        Push(r) => {
            let sp = emu.reg(Reg::Rsp);
            let e = shadow.regs[r.index()];
            shadow.store64(arena, sp, e);
        }
        PushI(_) => {
            let sp = emu.reg(Reg::Rsp);
            shadow.store64(arena, sp, None);
        }
        Pop(d) => {
            let sp = emu.reg(Reg::Rsp).wrapping_sub(8);
            let e = if shadow.mem_symbolic(sp, 8) {
                Some(shadow.load64(arena, sp, emu.reg(d)))
            } else {
                None
            };
            shadow.set_reg(arena, d, e);
        }
        Alu(op, d, s) => {
            let carry = alu_carry(op, arena, shadow, pre);
            let carry_sym = carry.is_some_and(|c| arena.is_symbolic(c));
            if pre.any_symbolic || carry_sym {
                let a = op_expr(arena, shadow, pre, d);
                let b = op_expr(arena, shadow, pre, s);
                let (e, flags) = alu_shadow(arena, op, a, b, carry);
                shadow.flags = flags;
                shadow.set_reg(arena, d, Some(e));
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        AluI(op, d, imm) => {
            let carry = alu_carry(op, arena, shadow, pre);
            let carry_sym = carry.is_some_and(|c| arena.is_symbolic(c));
            if shadow.reg_symbolic(d) || carry_sym {
                let a = op_expr(arena, shadow, pre, d);
                let b = arena.constant(imm as i64 as u64);
                let (e, flags) = alu_shadow(arena, op, a, b, carry);
                shadow.flags = flags;
                shadow.set_reg(arena, d, Some(e));
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        AluM(op, d, _) => {
            let carry = alu_carry(op, arena, shadow, pre);
            let carry_sym = carry.is_some_and(|c| arena.is_symbolic(c));
            let addr = pre.mem_addr.expect("mem operand");
            if pre.any_symbolic || carry_sym {
                let a = op_expr(arena, shadow, pre, d);
                let b = shadow.load64(arena, addr, pre.mem_concrete);
                let (e, flags) = alu_shadow(arena, op, a, b, carry);
                shadow.flags = flags;
                shadow.set_reg(arena, d, Some(e));
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        AluStore(op, _, s) => {
            let carry = alu_carry(op, arena, shadow, pre);
            let carry_sym = carry.is_some_and(|c| arena.is_symbolic(c));
            let addr = pre.mem_addr.expect("mem operand");
            if pre.any_symbolic || carry_sym {
                let a = shadow.load64(arena, addr, pre.mem_concrete);
                let b = op_expr(arena, shadow, pre, s);
                let (e, flags) = alu_shadow(arena, op, a, b, carry);
                shadow.store64(arena, addr, Some(e));
                shadow.flags = flags;
            } else {
                shadow.store64(arena, addr, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Neg(r) => {
            if shadow.reg_symbolic(r) {
                let pre_r = op_expr(arena, shadow, pre, r);
                let zero = arena.constant(0);
                let e = arena.un(UnKind::Neg, pre_r);
                // neg sets flags as 0 - r, which `Flags::set_neg` matches
                // bit-exactly, so model and replay coincide.
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: zero,
                    rhs: pre_r,
                    is_sub: true,
                    replay: FlagReplay::Sub(zero, pre_r),
                });
                shadow.set_reg(arena, r, Some(e));
            } else {
                shadow.set_reg(arena, r, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Not(r) => {
            if shadow.reg_symbolic(r) {
                let pre_r = op_expr(arena, shadow, pre, r);
                let e = arena.un(UnKind::Not, pre_r);
                shadow.set_reg(arena, r, Some(e));
            } else {
                shadow.set_reg(arena, r, None);
            }
        }
        Mul(d, s) => {
            if pre.any_symbolic {
                let pre_d = op_expr(arena, shadow, pre, d);
                let pre_s = op_expr(arena, shadow, pre, s);
                let e = arena.bin(BinKind::Mul, pre_d, pre_s);
                shadow.set_reg(arena, d, Some(e));
                // The emulator sets flags from the widening product; the
                // shadow does not model them.
                shadow.flags = FlagTrack::Tainted;
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        MulI(d, s, imm) => {
            if shadow.reg_symbolic(s) {
                let pre_s = op_expr(arena, shadow, pre, s);
                let k = arena.constant(imm as i64 as u64);
                let e = arena.bin(BinKind::Mul, pre_s, k);
                shadow.set_reg(arena, d, Some(e));
                shadow.flags = FlagTrack::Tainted;
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Div(d, s) | Rem(d, s) => {
            if shadow.reg_symbolic(s) {
                // Under a different input the divisor could be zero, where
                // the emulator faults but the expression language yields
                // 0/x — the path shapes are not reconstructible.
                shadow.set_hazard("symbolic divisor");
            }
            if pre.any_symbolic {
                let kind = if matches!(inst, Div(..)) { BinKind::Div } else { BinKind::Rem };
                let pre_d = op_expr(arena, shadow, pre, d);
                let pre_s = op_expr(arena, shadow, pre, s);
                let e = arena.bin(kind, pre_d, pre_s);
                shadow.set_reg(arena, d, Some(e));
            } else {
                shadow.set_reg(arena, d, None);
            }
        }
        Shl(r, i) | Shr(r, i) | Sar(r, i) => {
            if shadow.reg_symbolic(r) {
                let kind = match inst {
                    Shl(..) => BinKind::Shl,
                    Shr(..) => BinKind::Shr,
                    _ => BinKind::Sar,
                };
                let pre_r = op_expr(arena, shadow, pre, r);
                let k = arena.constant(i as u64);
                let e = arena.bin(kind, pre_r, k);
                shadow.set_reg(arena, r, Some(e));
                shadow.flags = FlagTrack::Tainted;
            } else {
                shadow.set_reg(arena, r, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        ShlR(d, s) | ShrR(d, s) => {
            if pre.any_symbolic {
                let kind = if matches!(inst, ShlR(..)) { BinKind::Shl } else { BinKind::Shr };
                let pre_d = op_expr(arena, shadow, pre, d);
                let pre_s = op_expr(arena, shadow, pre, s);
                let e = arena.bin(kind, pre_d, pre_s);
                shadow.set_reg(arena, d, Some(e));
                shadow.flags = FlagTrack::Tainted;
            } else {
                shadow.set_reg(arena, d, None);
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Cmp(a, bb) => {
            if pre.any_symbolic {
                let ea = op_expr(arena, shadow, pre, a);
                let eb = op_expr(arena, shadow, pre, bb);
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: ea,
                    rhs: eb,
                    is_sub: true,
                    replay: FlagReplay::Sub(ea, eb),
                });
            } else {
                shadow.flags = FlagTrack::Concrete;
            }
        }
        CmpI(a, imm) => {
            if shadow.reg_symbolic(a) {
                let ea = op_expr(arena, shadow, pre, a);
                let eb = arena.constant(imm as i64 as u64);
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: ea,
                    rhs: eb,
                    is_sub: true,
                    replay: FlagReplay::Sub(ea, eb),
                });
            } else {
                shadow.flags = FlagTrack::Concrete;
            }
        }
        CmpMI(_, imm) => {
            let addr = pre.mem_addr.expect("mem operand");
            if shadow.mem_symbolic(addr, 8) {
                let ea = shadow.load64(arena, addr, pre.mem_concrete);
                let eb = arena.constant(imm as i64 as u64);
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: ea,
                    rhs: eb,
                    is_sub: true,
                    replay: FlagReplay::Sub(ea, eb),
                });
            } else {
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Test(a, bb) => {
            if pre.any_symbolic {
                let ea = op_expr(arena, shadow, pre, a);
                let eb = op_expr(arena, shadow, pre, bb);
                let and = arena.bin(BinKind::And, ea, eb);
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: ea,
                    rhs: eb,
                    is_sub: false,
                    replay: FlagReplay::Logic(and),
                });
            } else {
                shadow.flags = FlagTrack::Concrete;
            }
        }
        TestI(a, imm) => {
            if shadow.reg_symbolic(a) {
                let ea = op_expr(arena, shadow, pre, a);
                let eb = arena.constant(imm as i64 as u64);
                let and = arena.bin(BinKind::And, ea, eb);
                shadow.flags = FlagTrack::Exact(FlagShadow {
                    lhs: ea,
                    rhs: eb,
                    is_sub: false,
                    replay: FlagReplay::Logic(and),
                });
            } else {
                shadow.flags = FlagTrack::Concrete;
            }
        }
        Cmov(cond, d, s) => {
            // Model as a select driven by the concrete outcome, but record
            // the implicit constraint like a branch; the constraint pins the
            // selected direction for any input the solver produces.
            let taken = cond.eval(emu.cpu.flags);
            consume_flags(arena, shadow, cond, taken, constraints);
            if taken {
                let e = shadow.regs[s.index()];
                shadow.set_reg(arena, d, e);
            }
        }
        Set(cond, d) => {
            let taken = cond.eval(emu.cpu.flags);
            if let Some(fs) = shadow.flags.symbolic_shadow(arena) {
                // The produced 0/1 value is expressible for the conditions
                // the workloads and the rewriter generate; the fallback
                // conditions pin the concrete outcome via the recorded
                // constraint, so the constant stays valid for any input
                // that satisfies the path prefix.
                let diff = if fs.is_sub {
                    arena.bin(BinKind::Sub, fs.lhs, fs.rhs)
                } else {
                    arena.bin(BinKind::And, fs.lhs, fs.rhs)
                };
                let zero = arena.constant(0);
                let one = arena.constant(1);
                let e = match cond {
                    Cond::E => arena.bin(BinKind::Eq, diff, zero),
                    Cond::Ne => {
                        let eq = arena.bin(BinKind::Eq, diff, zero);
                        arena.bin(BinKind::Xor, eq, one)
                    }
                    Cond::B => arena.bin(BinKind::Ult, fs.lhs, fs.rhs),
                    Cond::Ae => {
                        let ult = arena.bin(BinKind::Ult, fs.lhs, fs.rhs);
                        arena.bin(BinKind::Xor, ult, one)
                    }
                    Cond::A => arena.bin(BinKind::Ult, fs.rhs, fs.lhs),
                    Cond::Be => {
                        let ult = arena.bin(BinKind::Ult, fs.rhs, fs.lhs);
                        arena.bin(BinKind::Xor, ult, one)
                    }
                    _ => arena.constant(taken as u64),
                };
                consume_flags(arena, shadow, cond, taken, constraints);
                shadow.set_reg(arena, d, Some(e));
            } else {
                consume_flags(arena, shadow, cond, taken, constraints);
                shadow.set_reg(arena, d, None);
            }
        }
        Jcc(cond, _) => {
            let taken = cond.eval(emu.cpu.flags);
            consume_flags(arena, shadow, cond, taken, constraints);
        }
        XchgRR(a, bb) => {
            let ea = shadow.regs[a.index()];
            let eb = shadow.regs[bb.index()];
            shadow.set_reg(arena, a, eb);
            shadow.set_reg(arena, bb, ea);
        }
        XchgRM(r, _) => {
            let addr = pre.mem_addr.expect("mem operand");
            let er = shadow.regs[r.index()];
            let em = if shadow.mem_symbolic(addr, 8) {
                Some(shadow.load64(arena, addr, emu.reg(r)))
            } else {
                None
            };
            shadow.store64(arena, addr, er);
            shadow.set_reg(arena, r, em);
        }
        Call(_) => {
            // The return-address slot is concrete.
            let sp = emu.reg(Reg::Rsp);
            shadow.store64(arena, sp, None);
        }
        CallReg(r) => {
            if shadow.reg_symbolic(r) {
                let e = op_expr(arena, shadow, pre, r);
                let pin = pin_constraint(arena, e, emu.cpu.rip);
                constraints.push(pin);
            }
            let sp = emu.reg(Reg::Rsp);
            shadow.store64(arena, sp, None);
        }
        JmpReg(r) => {
            if shadow.reg_symbolic(r) {
                let e = op_expr(arena, shadow, pre, r);
                let pin = pin_constraint(arena, e, emu.cpu.rip);
                constraints.push(pin);
            }
        }
        JmpMem(_) => {
            let addr = pre.mem_addr.expect("mem operand");
            if shadow.mem_symbolic(addr, 8) {
                let target = emu.cpu.rip;
                let e = shadow.load64(arena, addr, target);
                let pin = pin_constraint(arena, e, target);
                constraints.push(pin);
            }
        }
        Ret => {
            let sp = pre.concrete_regs[Reg::Rsp.index()];
            if shadow.mem_symbolic(sp, 8) {
                let target = emu.cpu.rip;
                let e = shadow.load64(arena, sp, target);
                let pin = pin_constraint(arena, e, target);
                constraints.push(pin);
            }
        }
        Leave => {
            // rsp := rbp; rbp := [old rbp]. A symbolic rbp is pinned (it
            // becomes both the new stack pointer and a load address), and
            // the restored rbp is tracked through the load like any other.
            let bp = pre.concrete_regs[Reg::Rbp.index()];
            if shadow.reg_symbolic(Reg::Rbp) {
                let e = op_expr(arena, shadow, pre, Reg::Rbp);
                let pin = pin_constraint(arena, e, bp);
                constraints.push(pin);
            }
            shadow.set_reg(arena, Reg::Rsp, None);
            let e = if shadow.mem_symbolic(bp, 8) {
                Some(shadow.load64(arena, bp, emu.reg(Reg::Rbp)))
            } else {
                None
            };
            shadow.set_reg(arena, Reg::Rbp, e);
        }
        Jmp(_) | Nop | Hlt => {}
    }
}

/// The carry-in of an `adc`/`sbb` as a shadow expression: a concrete bit
/// when the flags are input-independent, the flag shadow's carry-out
/// expression when they are tracked, `None` (a hazard) when tainted. The
/// `neg; adc` flag-leak idiom of the chain branch encoding threads the
/// input through the carry, so modeling it keeps chain targets tracked.
fn carry_in_expr(arena: &mut ExprArena, shadow: &mut Shadow, pre: &PreState) -> Option<ExprId> {
    match shadow.flags {
        FlagTrack::Concrete => Some(arena.constant(pre.flags_before.cf as u64)),
        FlagTrack::Exact(fs) => {
            if fs.symbolic(arena) {
                Some(fs.carry_expr(arena))
            } else {
                Some(arena.constant(pre.flags_before.cf as u64))
            }
        }
        FlagTrack::Tainted => {
            shadow.set_hazard("tainted carry chain");
            None
        }
    }
}

/// Builds the result expression of an ALU op, including the carry term of
/// `adc`/`sbb` (from `carry`), so results match the emulator bit-exactly.
fn alu_result(
    arena: &mut ExprArena,
    op: AluOp,
    a: ExprId,
    b: ExprId,
    carry: Option<ExprId>,
) -> ExprId {
    let base = arena.bin(alu_kind(op), a, b);
    match (op, carry) {
        (AluOp::Adc, Some(c)) => arena.bin(BinKind::Add, base, c),
        (AluOp::Sbb, Some(c)) => arena.bin(BinKind::Sub, base, c),
        _ => base,
    }
}

/// A pin constraint: the expression must keep evaluating to the concrete
/// value observed this run (`cond E`, `taken`), which models the recorded
/// behaviour exactly. Pins are the lazy-concretization idiom of concolic
/// engines, recorded wherever an input-dependent value steers execution
/// rather than flowing through data: indirect control-transfer targets
/// (ROP chains branch exactly this way — a flag leak feeds the next-gadget
/// address and a `ret` dispatches it), input-dependent effective
/// addresses, and a symbolic stack pointer at its next implicit use.
/// Solving for a *flipped* pin is how the explorer walks chain branches.
fn pin_constraint(arena: &mut ExprArena, e: ExprId, value: u64) -> Constraint {
    let rhs = arena.constant(value);
    Constraint { lhs: e, rhs, flag_is_sub: true, cond: Cond::E, taken: true }
}

/// The effective-address expression of a memory operand, from the shadow
/// expressions of its base/index registers.
fn addr_expr(
    arena: &mut ExprArena,
    shadow: &Shadow,
    pre: &PreState,
    m: raindrop_machine::Mem,
) -> ExprId {
    let mut e = arena.constant(m.disp as i64 as u64);
    if let Some(b) = m.base {
        let eb = op_expr(arena, shadow, pre, b);
        e = arena.bin(BinKind::Add, e, eb);
    }
    if let Some(i) = m.index {
        let ei = op_expr(arena, shadow, pre, i);
        let scale = arena.constant(m.scale as u64);
        let scaled = arena.bin(BinKind::Mul, ei, scale);
        e = arena.bin(BinKind::Add, e, scaled);
    }
    e
}

/// Whether the instruction uses the stack pointer implicitly; a symbolic
/// `rsp` is pinned to its concrete value right before such an instruction.
fn uses_rsp(inst: &Inst) -> bool {
    matches!(
        *inst,
        Inst::Push(_)
            | Inst::PushI(_)
            | Inst::Pop(_)
            | Inst::Call(_)
            | Inst::CallReg(_)
            | Inst::Ret
    )
}

/// The condition a constraint-recording instruction consumes, if any.
fn recording_cond(inst: &Inst) -> Option<Cond> {
    match *inst {
        Inst::Jcc(c, _) | Inst::Cmov(c, _, _) | Inst::Set(c, _) => Some(c),
        _ => None,
    }
}

/// The constraint `inst` is about to record, if any — computed before the
/// step so a fork point can be captured at the first occurrence of each
/// distinct branch. Mirrors exactly what `propagate` will push after the
/// step; interning makes the returned `Constraint` directly comparable to
/// recorded ones.
fn pre_constraint(
    inst: &Inst,
    pre: &PreState,
    arena: &mut ExprArena,
    shadow: &mut Shadow,
    emu: &Emulator,
) -> Option<Constraint> {
    // Mirror propagate's push order: rsp pin, then address pin, then the
    // flag or control-transfer constraint.
    if uses_rsp(inst) && shadow.reg_symbolic(Reg::Rsp) {
        let e = op_expr(arena, shadow, pre, Reg::Rsp);
        return Some(pin_constraint(arena, e, pre.concrete_regs[Reg::Rsp.index()]));
    }
    if pre.addr_symbolic && !matches!(inst, Inst::Lea(..)) {
        let m = inst.mem_operand().expect("addr_symbolic implies a mem operand");
        let e = addr_expr(arena, shadow, pre, m);
        return Some(pin_constraint(arena, e, pre.mem_addr.expect("resolved")));
    }
    if let Some(cond) = recording_cond(inst) {
        let fs = shadow.flags.symbolic_shadow(arena)?;
        let taken = cond.eval(emu.cpu.flags);
        return Some(Constraint { lhs: fs.lhs, rhs: fs.rhs, flag_is_sub: fs.is_sub, cond, taken });
    }
    match *inst {
        Inst::Ret => {
            let sp = emu.reg(Reg::Rsp);
            if shadow.mem_symbolic(sp, 8) {
                let target = emu.mem.read_u64(sp);
                let e = shadow.load64(arena, sp, target);
                return Some(pin_constraint(arena, e, target));
            }
            None
        }
        Inst::JmpReg(r) | Inst::CallReg(r) => {
            let e = shadow.regs[r.index()]?;
            Some(pin_constraint(arena, e, emu.reg(r)))
        }
        Inst::JmpMem(_) => {
            let a = pre.mem_addr.expect("jmpmem has a mem operand");
            if shadow.mem_symbolic(a, 8) {
                let target = emu.mem.read_u64(a);
                let e = shadow.load64(arena, a, target);
                return Some(pin_constraint(arena, e, target));
            }
            None
        }
        _ => None,
    }
}

/// A fork point: the machine and shadow state captured immediately before a
/// symbolic branch executed. Restoring the snapshot and patching the
/// tracked state for a new input reproduces exactly the state a fresh run
/// with that input would have reached here.
struct ForkPoint {
    snapshot: Snapshot,
    shadow: Shadow,
}

/// The constraints of one explored path, shared (via `Rc`) by every
/// frontier entry forked off it. Constraints are their own exact keys, so
/// no parallel key vector is carried anymore.
struct RecordData {
    constraints: Vec<Constraint>,
}

/// One shadowed execution plus the fork points captured along it.
struct PathOutput {
    record: PathRecord,
    forks: HashMap<usize, Rc<ForkPoint>>,
    emulated: u64,
}

/// A frontier entry: the input to explore and, when a snapshot covers its
/// prefix, the fork point to resume from.
struct Pending {
    input: Vec<u64>,
    resume: Option<ResumePoint>,
}

/// Everything a frontier entry needs to resume behind a fork: the captured
/// fork point and the parent record (whose prefix up to `at` is the
/// resumed path's prefix by construction).
#[derive(Clone)]
struct ResumePoint {
    fork: Rc<ForkPoint>,
    parent: Rc<RecordData>,
    at: usize,
}

/// The shadow-execution engine: one warm emulator reused across all paths
/// of an attack (restored from a pristine post-load snapshot instead of
/// re-constructed, which keeps the predecoded instruction cache hot), one
/// hash-consed expression arena shared by every path's constraints, plus
/// the fork-point capture machinery.
struct Engine<'a> {
    image: &'a Image,
    faddr: u64,
    spec: InputSpec,
    emu: Emulator,
    base: Snapshot,
    capture: bool,
    arena: ExprArena,
    patch_memo: EvalMemo,
}

impl<'a> Engine<'a> {
    fn new(image: &'a Image, func: &str, spec: InputSpec, capture: bool) -> Engine<'a> {
        let emu = Emulator::new(image);
        let base = emu.snapshot();
        let faddr = image.function(func).expect("target exists").addr;
        Engine {
            image,
            faddr,
            spec,
            emu,
            base,
            capture,
            arena: ExprArena::new(),
            patch_memo: EvalMemo::default(),
        }
    }

    /// Runs one path: fresh from the entry point, or resumed from a fork
    /// point with all input-dependent state patched for `input`.
    fn run_path(
        &mut self,
        input: &[u64],
        budget: u64,
        resume: Option<&ResumePoint>,
    ) -> Result<PathOutput, EmuError> {
        let mut constraints: Vec<Constraint>;
        let mut seen: HashSet<Constraint>;
        let mut shadow;
        let start_instructions;

        match resume {
            Some(r) => {
                self.emu.restore(&r.fork.snapshot);
                start_instructions = r.fork.snapshot.stats().instructions;
                shadow = r.fork.shadow.clone();
                patch_for_input(&mut self.emu, &self.arena, &shadow, input, &mut self.patch_memo);
                constraints = r.parent.constraints[..r.at].to_vec();
                seen = constraints.iter().copied().collect();
            }
            None => {
                self.emu.restore(&self.base);
                start_instructions = 0;
                shadow = Shadow::new();
                constraints = Vec::new();
                seen = HashSet::new();

                // Seed the concrete input and its shadow.
                let args: Vec<u64> = match &self.spec {
                    InputSpec::RegisterArg { .. } => {
                        let v = input[0] & self.spec.var_mask();
                        let x = self.arena.input(0);
                        shadow.set_reg(&mut self.arena, Reg::Rdi, Some(x));
                        vec![v]
                    }
                    InputSpec::MemoryBuffer { addr, len, args } => {
                        let concrete: Vec<u8> =
                            (0..*len).map(|i| input.get(i).copied().unwrap_or(0) as u8).collect();
                        self.emu.mem.write_bytes(*addr, &concrete);
                        for i in 0..*len {
                            let x = self.arena.input(i);
                            shadow.bytes.insert(addr + i as u64, x);
                        }
                        args.clone()
                    }
                };

                // Mirror Emulator::call's setup so stepping can be
                // interleaved with the shadow propagation.
                self.emu.cpu.set_reg(Reg::Rsp, raindrop_machine::STACK_TOP);
                for (r, v) in Reg::ARGS.iter().zip(&args) {
                    self.emu.cpu.set_reg(*r, *v);
                }
                let sp = self.emu.cpu.reg(Reg::Rsp) - 8;
                self.emu.cpu.set_reg(Reg::Rsp, sp);
                self.emu.mem.write_u64(sp, raindrop_machine::RETURN_SENTINEL);
                self.emu.cpu.rip = self.faddr;
            }
        }
        self.emu.set_budget(budget);

        let mut forks: HashMap<usize, Rc<ForkPoint>> = HashMap::new();
        // First-hazard accounting, checked at the post-instruction
        // checkpoint so it is identical in both explore modes (fork-mode
        // pre-constraint probing can set the flag a moment earlier within
        // the same instruction, but `propagate` raises the same cause
        // before the checkpoint; an instruction that exits the run never
        // reaches `propagate`, so its probing is excluded deliberately).
        let mut hazard_cause: Option<&'static str> = None;
        let mut branches_pre_hazard: Option<usize> = None;
        let mut keyed = constraints.len();
        let return_value;
        loop {
            // Peek at the instruction before executing it so operand
            // expressions can be captured from the pre-state; the peek hits
            // the emulator's predecoded cache, which the step() right after
            // reuses.
            let decoded = self.emu.peek_inst().map(|(i, _)| i)?;
            let pre = PreState::capture(&self.emu, &shadow, &decoded);

            // Capture a fork point before the first occurrence of each
            // distinct symbolic branch (later occurrences are pinned by the
            // prefix, so their flips are unsatisfiable and never resumed).
            if self.capture && !shadow.hazard && forks.len() < MAX_FORK_POINTS {
                if let Some(c) =
                    pre_constraint(&decoded, &pre, &mut self.arena, &mut shadow, &self.emu)
                {
                    if !shadow.hazard && !seen.contains(&c) {
                        forks.insert(
                            constraints.len(),
                            Rc::new(ForkPoint {
                                snapshot: self.emu.snapshot(),
                                shadow: shadow.clone(),
                            }),
                        );
                    }
                }
            }
            match self.emu.step()? {
                Some(raindrop_machine::RunExit::Returned(v)) => {
                    return_value = v;
                    break;
                }
                Some(raindrop_machine::RunExit::Halted) => {
                    return_value = self.emu.reg(Reg::Rax);
                    break;
                }
                None => {}
            }
            propagate(&decoded, &pre, &self.emu, &mut self.arena, &mut shadow, &mut constraints);
            while keyed < constraints.len() {
                seen.insert(constraints[keyed]);
                keyed += 1;
            }
            if hazard_cause.is_none() && shadow.hazard {
                hazard_cause = shadow.hazard_cause;
                branches_pre_hazard = Some(seen.len());
            }
            if self.emu.cpu.rip == raindrop_machine::RETURN_SENTINEL {
                return_value = self.emu.reg(Reg::Rax);
                break;
            }
        }
        let branches_pre_hazard = branches_pre_hazard.unwrap_or(seen.len());

        // Probe coverage from the concrete memory.
        let mut probes_hit = BTreeSet::new();
        if let Ok(probe_base) = self.image.symbol(raindrop_synth::PROBE_ARRAY) {
            for i in 0..raindrop_synth::minic::MAX_PROBES as u32 {
                if self.emu.mem.read_u64(probe_base + 8 * i as u64) != 0 {
                    probes_hit.insert(i);
                }
            }
        }

        let instructions = self.emu.stats().instructions;
        if std::env::var_os("RAINDROP_DSE_DEBUG").is_some() {
            eprintln!(
                "[dse-debug] path constraints={} distinct={} forks={} hazard={:?} pre_hazard={} arena={} resumed={}",
                constraints.len(),
                seen.len(),
                forks.len(),
                hazard_cause,
                branches_pre_hazard,
                self.arena.len(),
                resume.is_some()
            );
        }
        Ok(PathOutput {
            record: PathRecord {
                return_value,
                constraints,
                instructions,
                probes_hit,
                hazard_cause,
                branches_pre_hazard,
            },
            forks,
            emulated: instructions - start_instructions,
        })
    }
}

/// Work limits of one DSE attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DseBudget {
    /// Total emulated instructions across all explored paths.
    pub total_instructions: u64,
    /// Per-path instruction budget.
    pub per_path_instructions: u64,
    /// Maximum number of explored paths.
    pub max_paths: usize,
    /// Wall-clock limit.
    pub max_wall: Duration,
    /// Maximum number of solver invocations (cache hits are free).
    pub max_solver_calls: u64,
    /// Maximum frontier size; candidates solved past it are dropped.
    pub max_frontier: usize,
}

impl Default for DseBudget {
    fn default() -> Self {
        DseBudget {
            total_instructions: 40_000_000,
            per_path_instructions: 4_000_000,
            max_paths: 400,
            max_wall: Duration::from_secs(30),
            max_solver_calls: 50_000,
            max_frontier: 50_000,
        }
    }
}

/// Attack goal (§III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Goal {
    /// G1: find an input making the function return the given value.
    Secret {
        /// The return value that signals success (1 for the point test).
        want: u64,
    },
    /// G2: cover all reachable coverage probes of the original function.
    Coverage {
        /// Number of probes that exist.
        total_probes: u32,
    },
}

/// Which budget dimension ended an unsuccessful attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DseExhaustion {
    /// The wall-clock limit ran out.
    Wall,
    /// The total instruction budget ran out.
    Instructions,
    /// The explored-path cap was reached.
    Paths,
    /// The solver-invocation cap was reached.
    SolverCalls,
    /// Solved candidates were dropped because the frontier was full.
    Frontier,
    /// The frontier drained: no solvable constraint flip was left.
    SearchSpace,
}

impl std::fmt::Display for DseExhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DseExhaustion::Wall => "wall clock",
            DseExhaustion::Instructions => "instruction budget",
            DseExhaustion::Paths => "path cap",
            DseExhaustion::SolverCalls => "solver-call cap",
            DseExhaustion::Frontier => "frontier cap",
            DseExhaustion::SearchSpace => "search space",
        };
        f.write_str(s)
    }
}

/// Outcome of a DSE attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseOutcome {
    /// Whether the goal was reached within the budget.
    pub success: bool,
    /// The input that reached the goal (secret finding).
    pub witness: Option<Vec<u64>>,
    /// Paths (re-)executed.
    pub paths: usize,
    /// Total emulated instructions, counting snapshot-skipped prefixes (the
    /// budget currency, identical across explore modes).
    pub instructions: u64,
    /// Instructions actually stepped by the emulator; lower than
    /// `instructions` when fork-point restores skipped prefixes.
    pub emulated_instructions: u64,
    /// Paths resumed from a fork-point snapshot instead of re-run.
    pub resumed_paths: usize,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// Probes covered (coverage goal).
    pub probes_covered: usize,
    /// Constraints collected on the longest path.
    pub max_constraints: usize,
    /// Solver invocations performed.
    pub solver_calls: u64,
    /// Solver invocations avoided by the normalized constraint cache.
    pub solve_cache_hits: u64,
    /// Paths whose shadow tracking hit a hazard, counted per first cause
    /// and sorted by cause name. Expression-size concretizations capping
    /// symbolic depth show up here instead of folding silently into
    /// "defeated".
    #[serde(default)]
    pub hazard_causes: Vec<(String, u64)>,
    /// The largest number of distinct branch constraints any path recorded
    /// before its first hazard (its whole distinct count when hazard-free):
    /// the depth to which the explorer forked exactly.
    #[serde(default)]
    pub max_branches_pre_hazard: usize,
    /// The budget dimension that ended an unsuccessful attack.
    pub exhausted: Option<DseExhaustion>,
}

/// How the explorer reaches the state behind a flipped branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExploreMode {
    /// Restore the fork-point snapshot and resume (production mode).
    ForkPoint,
    /// Re-execute every path from the entry point (the reference oracle the
    /// differential suite pins [`ExploreMode::ForkPoint`] against).
    Rerun,
}

/// Execution log of one attack, for the differential equivalence suite:
/// both explore modes must produce identical sequences.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DseAudit {
    /// Inputs explored, in schedule order.
    pub explored: Vec<Vec<u64>>,
    /// Inputs pushed to the frontier, in discovery order.
    pub pushed: Vec<Vec<u64>>,
}

/// The concolic attacker.
pub struct DseAttack<'a> {
    image: &'a Image,
    func: &'a str,
    spec: InputSpec,
    budget: DseBudget,
    mode: ExploreMode,
    /// The feasibility solver behind the generational search.
    solver: SearchSolver,
    /// Memoized solver queries keyed by the normalized constraint set: a
    /// duplicate-safe [`SetDigest`] of the distinct prefix-constraint
    /// structural hashes, plus the negated constraint's hash. Equivalent
    /// frontier entries across paths (shared prefixes of resumed runs in
    /// particular) are solved exactly once; the hashes are
    /// arena-independent, so the cache stays valid across runs of one
    /// attack instance.
    solve_cache: HashMap<(u128, u128, u128), Option<Vec<u64>>>,
    solver_calls: u64,
    cache_hits: u64,
}

impl<'a> DseAttack<'a> {
    /// Creates an attack instance (fork-point explore mode).
    pub fn new(image: &'a Image, func: &'a str, spec: InputSpec, budget: DseBudget) -> Self {
        DseAttack {
            image,
            func,
            spec,
            budget,
            mode: ExploreMode::ForkPoint,
            solver: SearchSolver::new(),
            solve_cache: HashMap::new(),
            solver_calls: 0,
            cache_hits: 0,
        }
    }

    /// Selects the explore mode (builder style).
    pub fn with_mode(mut self, mode: ExploreMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the attack.
    pub fn run(&mut self, goal: Goal) -> DseOutcome {
        self.run_audited(goal).0
    }

    /// Runs the attack and returns the exploration schedule alongside the
    /// outcome. The differential suite uses the audit to pin fork-point and
    /// re-run exploration bit-identical.
    pub fn run_audited(&mut self, goal: Goal) -> (DseOutcome, DseAudit) {
        DseExplorer::start(self, goal).advance(None).expect("unbounded advance runs to completion")
    }
}

/// One persisted solve-cache entry: the arena-independent structural
/// digest key `(set, negated, goal)` and the cached solver answer.
pub type SolveCacheEntry = ((u128, u128, u128), Option<Vec<u64>>);

/// The serialized frontier of a paused attack: everything a *fresh process*
/// needs to continue exploration with identical results. Fork-point
/// [`Snapshot`] state is deliberately not serialized — restored frontier
/// entries re-run their path from the entry point, which the
/// `FRONTIER_RESUME_CAP` fallback contract already pins result-identical
/// (only [`DseOutcome::resumed_paths`], `emulated_instructions` and `wall`
/// differ after a resume; every verdict-bearing field matches).
///
/// [`Snapshot`]: raindrop_machine::Snapshot
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseFrontier {
    /// Pending inputs in schedule order (resume points dropped).
    pub queue: Vec<Vec<u64>>,
    /// Every input ever scheduled — the frontier dedup set, sorted.
    pub seen: Vec<Vec<u64>>,
    /// The normalized solver cache, sorted by key. Keys are
    /// arena-independent structural digests, so they survive the arena
    /// rebuild on resume.
    pub solve_cache: Vec<SolveCacheEntry>,
    /// The exploration schedule so far.
    pub audit: DseAudit,
    /// Paths explored so far.
    pub paths: usize,
    /// Paths resumed from a fork point so far.
    pub resumed_paths: usize,
    /// Accounted instructions so far (the budget currency).
    pub total_instructions: u64,
    /// Instructions actually stepped so far.
    pub emulated_instructions: u64,
    /// Coverage probes hit so far.
    pub covered: Vec<u32>,
    /// Longest constraint sequence of any explored path.
    pub max_constraints: usize,
    /// Per-cause hazard counts, sorted by cause.
    pub hazard_causes: Vec<(String, u64)>,
    /// Deepest exact fork depth seen (see
    /// [`DseOutcome::max_branches_pre_hazard`]).
    pub max_branches_pre_hazard: usize,
    /// Solver invocations so far.
    pub solver_calls: u64,
    /// Solver invocations avoided by the cache so far.
    pub solve_cache_hits: u64,
    /// Sticky flag: the wall clock expired inside a flip sweep.
    pub wall_hit: bool,
    /// Sticky flag: the solver-call cap was hit.
    pub solver_capped: bool,
    /// Sticky flag: solved candidates were dropped by the frontier cap.
    pub frontier_dropped: bool,
    /// RNG draws the solver has consumed ([`SearchSolver::rng_draws`]): a
    /// fresh solver fast-forwards here so the random stream continues
    /// exactly.
    pub rng_draws: u64,
    /// Wall time accumulated before this checkpoint.
    pub wall: Duration,
}

/// An in-flight exploration that can pause at path boundaries and
/// serialize its [`DseFrontier`] for checkpointing.
///
/// [`DseAttack::run_audited`] is exactly `DseExplorer::start` followed by
/// one unbounded [`advance`](DseExplorer::advance); campaign jobs instead
/// advance in bounded slices, checkpoint the frontier between slices, and
/// — after a crash — [`resume`](DseExplorer::resume) from the last
/// persisted frontier with identical verdicts.
pub struct DseExplorer<'a, 'b> {
    attack: &'b mut DseAttack<'a>,
    goal: Goal,
    engine: Engine<'a>,
    domain: VarDomain,
    audit: DseAudit,
    queue: VecDeque<Pending>,
    seen: BTreeSet<Vec<u64>>,
    total_instructions: u64,
    emulated_instructions: u64,
    paths: usize,
    resumed_paths: usize,
    covered: BTreeSet<u32>,
    max_constraints: usize,
    hazards: BTreeMap<String, u64>,
    max_branches_pre_hazard: usize,
    wall_hit: bool,
    solver_capped: bool,
    frontier_dropped: bool,
    /// Wall time accumulated by earlier slices/processes (before `start`).
    wall_base: Duration,
    start: Instant,
}

impl<'a, 'b> DseExplorer<'a, 'b> {
    /// Starts a fresh exploration of `attack` toward `goal`.
    ///
    /// Per-run statistics reset here: an attack instance can be reused (the
    /// solve cache carries over — its keys are arena-independent structural
    /// hashes), but counters, budget enforcement and the solver's id-keyed
    /// state start fresh each run.
    pub fn start(attack: &'b mut DseAttack<'a>, goal: Goal) -> DseExplorer<'a, 'b> {
        attack.solver_calls = 0;
        attack.cache_hits = 0;
        attack.solver.begin_run();
        let vars = attack.spec.vars();
        let mask = attack.spec.var_mask();
        let domain = attack.spec.domain();
        let capture = attack.mode == ExploreMode::ForkPoint;
        let engine = Engine::new(attack.image, attack.func, attack.spec.clone(), capture);
        let mut queue: VecDeque<Pending> = VecDeque::new();
        queue.push_back(Pending { input: vec![0u64; vars], resume: None });
        queue.push_back(Pending { input: vec![mask; vars], resume: None });
        let seen: BTreeSet<Vec<u64>> = queue.iter().map(|p| p.input.clone()).collect();
        DseExplorer {
            attack,
            goal,
            engine,
            domain,
            audit: DseAudit::default(),
            queue,
            seen,
            total_instructions: 0,
            emulated_instructions: 0,
            paths: 0,
            resumed_paths: 0,
            covered: BTreeSet::new(),
            max_constraints: 0,
            hazards: BTreeMap::new(),
            max_branches_pre_hazard: 0,
            wall_hit: false,
            solver_capped: false,
            frontier_dropped: false,
            wall_base: Duration::ZERO,
            start: Instant::now(),
        }
    }

    /// Rebuilds a paused exploration from its serialized frontier. The
    /// expression arena and emulator are reconstructed from scratch (their
    /// contents are a deterministic function of the explored inputs);
    /// restored frontier entries carry no fork-point snapshots, so their
    /// first execution is a full re-run — same results, more stepped
    /// instructions.
    pub fn resume(
        attack: &'b mut DseAttack<'a>,
        goal: Goal,
        frontier: &DseFrontier,
    ) -> DseExplorer<'a, 'b> {
        attack.solver_calls = frontier.solver_calls;
        attack.cache_hits = frontier.solve_cache_hits;
        attack.solver.begin_run();
        attack.solver.fast_forward(frontier.rng_draws);
        attack.solve_cache = frontier.solve_cache.iter().cloned().collect();
        let domain = attack.spec.domain();
        let capture = attack.mode == ExploreMode::ForkPoint;
        let engine = Engine::new(attack.image, attack.func, attack.spec.clone(), capture);
        DseExplorer {
            goal,
            engine,
            domain,
            audit: frontier.audit.clone(),
            queue: frontier
                .queue
                .iter()
                .map(|input| Pending { input: input.clone(), resume: None })
                .collect(),
            seen: frontier.seen.iter().cloned().collect(),
            total_instructions: frontier.total_instructions,
            emulated_instructions: frontier.emulated_instructions,
            paths: frontier.paths,
            resumed_paths: frontier.resumed_paths,
            covered: frontier.covered.iter().copied().collect(),
            max_constraints: frontier.max_constraints,
            hazards: frontier.hazard_causes.iter().cloned().collect(),
            max_branches_pre_hazard: frontier.max_branches_pre_hazard,
            wall_hit: frontier.wall_hit,
            solver_capped: frontier.solver_capped,
            frontier_dropped: frontier.frontier_dropped,
            wall_base: frontier.wall,
            start: Instant::now(),
            attack,
        }
    }

    /// Frontier entries currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total wall time of this exploration, including earlier slices.
    fn elapsed(&self) -> Duration {
        self.wall_base + self.start.elapsed()
    }

    /// Serializes the current frontier. Only meaningful between
    /// [`advance`](DseExplorer::advance) slices.
    pub fn frontier(&self) -> DseFrontier {
        let mut solve_cache: Vec<SolveCacheEntry> =
            self.attack.solve_cache.iter().map(|(k, v)| (*k, v.clone())).collect();
        solve_cache.sort();
        DseFrontier {
            queue: self.queue.iter().map(|p| p.input.clone()).collect(),
            seen: self.seen.iter().cloned().collect(),
            solve_cache,
            audit: self.audit.clone(),
            paths: self.paths,
            resumed_paths: self.resumed_paths,
            total_instructions: self.total_instructions,
            emulated_instructions: self.emulated_instructions,
            covered: self.covered.iter().copied().collect(),
            max_constraints: self.max_constraints,
            hazard_causes: self.hazards.iter().map(|(k, n)| (k.clone(), *n)).collect(),
            max_branches_pre_hazard: self.max_branches_pre_hazard,
            solver_calls: self.attack.solver_calls,
            solve_cache_hits: self.attack.cache_hits,
            wall_hit: self.wall_hit,
            solver_capped: self.solver_capped,
            frontier_dropped: self.frontier_dropped,
            rng_draws: self.attack.solver.rng_draws(),
            wall: self.elapsed(),
        }
    }

    /// Explores up to `slice` further frontier entries (`None` =
    /// unbounded). Returns the finished attack's outcome and audit, or
    /// `None` when the slice cap paused the exploration with work left —
    /// checkpoint via [`frontier`](DseExplorer::frontier) and call again.
    pub fn advance(&mut self, slice: Option<usize>) -> Option<(DseOutcome, DseAudit)> {
        let mut ran = 0usize;
        let mut exhausted = None;
        loop {
            if slice.is_some_and(|cap| ran >= cap) && !self.queue.is_empty() {
                return None;
            }
            let Some(pending) = self.queue.pop_front() else { break };
            ran += 1;
            if self.elapsed() > self.attack.budget.max_wall {
                exhausted = Some(DseExhaustion::Wall);
                break;
            }
            if self.total_instructions > self.attack.budget.total_instructions {
                exhausted = Some(DseExhaustion::Instructions);
                break;
            }
            if self.paths > self.attack.budget.max_paths {
                exhausted = Some(DseExhaustion::Paths);
                break;
            }
            let path_budget = self.attack.budget.per_path_instructions.min(
                self.attack
                    .budget
                    .total_instructions
                    .saturating_sub(self.total_instructions)
                    .max(1),
            );
            let out =
                match self.engine.run_path(&pending.input, path_budget, pending.resume.as_ref()) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
            if pending.resume.is_some() {
                self.resumed_paths += 1;
            }
            self.paths += 1;
            self.total_instructions += out.record.instructions;
            self.emulated_instructions += out.emulated;
            self.covered.extend(out.record.probes_hit.iter().copied());
            self.max_constraints = self.max_constraints.max(out.record.constraints.len());
            if let Some(cause) = out.record.hazard_cause {
                *self.hazards.entry(cause.to_string()).or_insert(0) += 1;
            }
            self.max_branches_pre_hazard =
                self.max_branches_pre_hazard.max(out.record.branches_pre_hazard);
            self.audit.explored.push(pending.input.clone());

            let done = match self.goal {
                Goal::Secret { want } => out.record.return_value == want,
                Goal::Coverage { total_probes } => self.covered.len() as u32 >= total_probes,
            };
            if done {
                let outcome = self.outcome(true, Some(pending.input), None);
                return Some((outcome, self.audit.clone()));
            }

            // Generational search: negate each constraint in turn (deepest
            // first so new behaviour near the end of the path is reached
            // quickly, which matters for the final secret check).
            let data = Rc::new(RecordData { constraints: out.record.constraints });
            let n = data.constraints.len();
            let mut first_at: HashMap<Constraint, usize> = HashMap::with_capacity(n);
            for (i, c) in data.constraints.iter().enumerate() {
                first_at.entry(*c).or_insert(i);
            }
            // Per-constraint structural hashes and the running normalized
            // set digest of each prefix (distinct constraints only): the
            // solver-cache key of flip `i` is O(1) to build — and, unlike
            // a bare XOR, cannot collapse when a constraint repeats.
            let hashes: Vec<u128> =
                data.constraints.iter().map(|c| c.structural_hash(&self.engine.arena)).collect();
            let mut prefix = vec![SetDigest::empty(); n + 1];
            for i in 0..n {
                prefix[i + 1] = if first_at[&data.constraints[i]] == i {
                    prefix[i].with(hashes[i])
                } else {
                    prefix[i]
                };
            }
            for i in (0..n).rev() {
                if self.elapsed() > self.attack.budget.max_wall {
                    self.wall_hit = true;
                    break;
                }
                // A repeated constraint is pinned the recorded way by its
                // first occurrence in the prefix: the flip is unsatisfiable,
                // skip it without consulting the solver.
                if first_at[&data.constraints[i]] != i {
                    continue;
                }
                // Normalized query: the set of distinct prefix constraints
                // plus the negated one. Equivalent frontier entries across
                // paths collapse onto one cache slot.
                let (dig_sum, dig_xor) = prefix[i].key();
                let cache_key = (dig_sum, dig_xor, hashes[i]);
                let cand = match self.attack.solve_cache.get(&cache_key) {
                    Some(v) => {
                        self.attack.cache_hits += 1;
                        v.clone()
                    }
                    None => {
                        if self.attack.solver_calls >= self.attack.budget.max_solver_calls {
                            self.solver_capped = true;
                            break;
                        }
                        self.attack.solver_calls += 1;
                        let mut query = data.constraints[..=i].to_vec();
                        query[i].taken = !query[i].taken;
                        let v = self.attack.solver.feasible(
                            &mut self.engine.arena,
                            &query,
                            &self.domain,
                            &pending.input,
                        );
                        self.attack.solve_cache.insert(cache_key, v.clone());
                        v
                    }
                };
                if let Some(cand) = cand {
                    if self.seen.insert(cand.clone()) {
                        if self.queue.len() >= self.attack.budget.max_frontier {
                            self.frontier_dropped = true;
                        } else {
                            self.audit.pushed.push(cand.clone());
                            let resume = if self.queue.len() < FRONTIER_RESUME_CAP {
                                out.forks.get(&i).map(|f| ResumePoint {
                                    fork: f.clone(),
                                    parent: data.clone(),
                                    at: i,
                                })
                            } else {
                                None
                            };
                            self.queue.push_back(Pending { input: cand, resume });
                        }
                    }
                }
            }
        }

        let exhausted = exhausted.or(if self.wall_hit {
            Some(DseExhaustion::Wall)
        } else if self.solver_capped {
            Some(DseExhaustion::SolverCalls)
        } else if self.frontier_dropped {
            Some(DseExhaustion::Frontier)
        } else {
            Some(DseExhaustion::SearchSpace)
        });
        Some((self.outcome(false, None, exhausted), self.audit.clone()))
    }

    fn outcome(
        &self,
        success: bool,
        witness: Option<Vec<u64>>,
        exhausted: Option<DseExhaustion>,
    ) -> DseOutcome {
        DseOutcome {
            success,
            witness,
            paths: self.paths,
            instructions: self.total_instructions,
            emulated_instructions: self.emulated_instructions,
            resumed_paths: self.resumed_paths,
            wall: self.elapsed(),
            probes_covered: self.covered.len(),
            max_constraints: self.max_constraints,
            solver_calls: self.attack.solver_calls,
            solve_cache_hits: self.attack.cache_hits,
            hazard_causes: self.hazards.iter().map(|(k, n)| (k.clone(), *n)).collect(),
            max_branches_pre_hazard: self.max_branches_pre_hazard,
            exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_synth::{codegen, randomfuns, Goal as RfGoal};

    fn small_rf(goal: RfGoal, input_size: usize) -> raindrop_synth::RandomFun {
        randomfuns::generate(raindrop_synth::RandomFunConfig {
            structure: randomfuns::Ctrl::if_(randomfuns::Ctrl::bb(4), randomfuns::Ctrl::bb(4)),
            structure_name: "(if (bb 4) (bb 4))".into(),
            input_size,
            seed: 5,
            goal,
            loop_size: 3,
        })
    }

    #[test]
    fn shadow_run_collects_constraints_and_return_value() {
        let rf = small_rf(RfGoal::SecretFinding, 4);
        let image = codegen::compile(&rf.program).unwrap();
        let spec = InputSpec::RegisterArg { size_bytes: 4 };
        let run = shadow_run(&image, &rf.name, &spec, &[0], 10_000_000).unwrap();
        let rec = &run.record;
        assert_eq!(rec.return_value, 0, "input 0 is (almost surely) not the secret");
        assert!(!rec.constraints.is_empty(), "branches on the input were recorded");
        assert!(rec.instructions > 0);
        // Constraints must be consistent with the concrete run.
        let mut memo = EvalMemo::default();
        for c in &rec.constraints {
            assert!(c.satisfied_as_recorded(&run.arena, &[0], &mut memo));
        }
    }

    #[test]
    fn hazard_free_paths_report_their_full_branch_depth() {
        let rf = small_rf(RfGoal::SecretFinding, 4);
        let image = codegen::compile(&rf.program).unwrap();
        let spec = InputSpec::RegisterArg { size_bytes: 4 };
        let run = shadow_run(&image, &rf.name, &spec, &[0], 10_000_000).unwrap();
        assert_eq!(run.record.hazard_cause, None, "native code stays fully symbolic");
        let distinct: HashSet<Constraint> = run.record.constraints.iter().copied().collect();
        assert_eq!(run.record.branches_pre_hazard, distinct.len());
    }

    #[test]
    fn dse_cracks_an_unprotected_point_test() {
        for size in [1usize, 2, 4, 8] {
            let rf = small_rf(RfGoal::SecretFinding, size);
            let image = codegen::compile(&rf.program).unwrap();
            let mut attack = DseAttack::new(
                &image,
                &rf.name,
                InputSpec::RegisterArg { size_bytes: size },
                DseBudget::default(),
            );
            let outcome = attack.run(Goal::Secret { want: 1 });
            assert!(outcome.success, "native {size}-byte function should be cracked");
            let witness = outcome.witness.unwrap()[0] & raindrop_synth::input_mask(size);
            // The witness must actually pass the check (it may differ from
            // the generator's secret only if a hash collision exists).
            let mut emu = Emulator::new(&image);
            assert_eq!(emu.call_named(&image, &rf.name, &[witness]).unwrap(), 1);
        }
    }

    #[test]
    fn dse_reaches_full_probe_coverage_on_native_code() {
        let rf = small_rf(RfGoal::CodeCoverage, 4);
        let image = codegen::compile(&rf.program).unwrap();
        let mut attack = DseAttack::new(
            &image,
            &rf.name,
            InputSpec::RegisterArg { size_bytes: 4 },
            DseBudget::default(),
        );
        let outcome = attack.run(Goal::Coverage { total_probes: rf.probe_count });
        assert!(outcome.success, "covered {}/{}", outcome.probes_covered, rf.probe_count);
    }

    #[test]
    fn budget_exhaustion_reports_failure_and_the_dimension() {
        let rf = small_rf(RfGoal::SecretFinding, 8);
        let image = codegen::compile(&rf.program).unwrap();
        let tiny = DseBudget {
            total_instructions: 200,
            per_path_instructions: 50,
            max_paths: 2,
            max_wall: Duration::from_millis(200),
            ..DseBudget::default()
        };
        let mut attack =
            DseAttack::new(&image, &rf.name, InputSpec::RegisterArg { size_bytes: 8 }, tiny);
        let outcome = attack.run(Goal::Secret { want: 1 });
        assert!(!outcome.success);
        assert!(outcome.paths <= 3);
        assert!(outcome.exhausted.is_some(), "failure names the exhausted dimension");
    }

    #[test]
    fn fork_and_rerun_modes_explore_identically() {
        let rf = small_rf(RfGoal::SecretFinding, 2);
        let image = codegen::compile(&rf.program).unwrap();
        let budget = DseBudget { max_wall: Duration::from_secs(600), ..DseBudget::default() };
        let spec = InputSpec::RegisterArg { size_bytes: 2 };
        let mut fork = DseAttack::new(&image, &rf.name, spec.clone(), budget);
        let (fork_out, fork_audit) = fork.run_audited(Goal::Secret { want: 1 });
        let mut rerun =
            DseAttack::new(&image, &rf.name, spec, budget).with_mode(ExploreMode::Rerun);
        let (rerun_out, rerun_audit) = rerun.run_audited(Goal::Secret { want: 1 });
        assert_eq!(fork_audit, rerun_audit, "identical exploration schedules");
        assert_eq!(fork_out.success, rerun_out.success);
        assert_eq!(fork_out.witness, rerun_out.witness);
        assert_eq!(fork_out.paths, rerun_out.paths);
        assert_eq!(fork_out.instructions, rerun_out.instructions);
        assert_eq!(fork_out.hazard_causes, rerun_out.hazard_causes);
        assert_eq!(fork_out.max_branches_pre_hazard, rerun_out.max_branches_pre_hazard);
        assert_eq!(rerun_out.resumed_paths, 0);
        assert_eq!(rerun_out.emulated_instructions, rerun_out.instructions);
        assert!(
            fork_out.emulated_instructions <= fork_out.instructions,
            "snapshot-covered prefixes are never re-executed"
        );
    }

    #[test]
    fn attack_instances_reset_per_run_statistics() {
        let rf = small_rf(RfGoal::SecretFinding, 1);
        let image = codegen::compile(&rf.program).unwrap();
        let mut attack = DseAttack::new(
            &image,
            &rf.name,
            InputSpec::RegisterArg { size_bytes: 1 },
            DseBudget { max_solver_calls: 50, ..DseBudget::default() },
        );
        let first = attack.run(Goal::Secret { want: 1 });
        let second = attack.run(Goal::Secret { want: 1 });
        assert_eq!(first.success, second.success, "reuse does not change the outcome");
        assert!(
            second.solver_calls <= first.solver_calls,
            "counters restart (and the carried solve cache can only reduce solving)"
        );
    }

    #[test]
    fn constraint_keys_are_exact_structural_fingerprints() {
        let mut arena = ExprArena::new();
        let x3 = {
            let x = arena.input(0);
            let c = arena.constant(3);
            arena.bin(BinKind::Add, x, c)
        };
        let zero = arena.zero();
        let a = Constraint { lhs: x3, rhs: zero, flag_is_sub: true, cond: Cond::E, taken: true };
        let b = Constraint { lhs: x3, rhs: zero, flag_is_sub: true, cond: Cond::E, taken: true };
        assert_eq!(a.structural_hash(&arena), b.structural_hash(&arena), "structural equality");
        let flipped = Constraint { taken: false, ..b };
        assert_ne!(
            a.structural_hash(&arena),
            flipped.structural_hash(&arena),
            "direction is part of the key"
        );
        let other_cond = Constraint { cond: Cond::Ne, ..b };
        assert_ne!(
            a.structural_hash(&arena),
            other_cond.structural_hash(&arena),
            "condition is part of the key"
        );
        // And the hash does not depend on the arena the ids live in.
        let mut other = ExprArena::new();
        let _pad = other.constant(99);
        let y3 = {
            let x = other.input(0);
            let c = other.constant(3);
            other.bin(BinKind::Add, x, c)
        };
        let z = other.zero();
        let c2 = Constraint { lhs: y3, rhs: z, flag_is_sub: true, cond: Cond::E, taken: true };
        assert_eq!(a.structural_hash(&arena), c2.structural_hash(&other));
    }
}

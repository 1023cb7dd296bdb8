//! # raindrop-obfvm
//!
//! A virtualization (VM) obfuscator in the style of Tigress `Virtualize`,
//! used as the comparison baseline throughout §VII of the paper (Table I:
//! `nVM`, `nVM-IMPx`).
//!
//! The obfuscator compiles a MiniC function into bytecode for a randomly
//! renumbered stack machine and replaces the function with an interpreter
//! (also MiniC, so the result goes through the same RM64 code generator the
//! original went through). It reproduces the three strengths the paper
//! attributes to VM obfuscation: per-program random instruction sets, a
//! dispatcher loop, and — optionally — *implicit* virtual-program-counter
//! updates that copy the new VPC bit by bit through control flow, which
//! frustrates taint tracking and multiplies symbolic states. Layers nest:
//! the interpreter produced by one layer is itself virtualized by the next.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop_synth::minic::{BinOp, Expr, Function, Global, Program, Stmt, UnOp, PROBE_ARRAY};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which virtualization layers use implicit VPC loads (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImplicitAt {
    /// No implicit VPC loads.
    None,
    /// Only the first (innermost) layer.
    First,
    /// Only the last (outermost) layer.
    Last,
    /// Every layer.
    All,
}

/// VM obfuscation configuration (`nVM-IMPx` of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Number of nested virtualization layers.
    pub layers: usize,
    /// Which layers use implicit VPC updates.
    pub implicit: ImplicitAt,
    /// Seed for the per-layer random instruction-set assignment.
    pub seed: u64,
}

impl VmConfig {
    /// `nVM` — `n` layers, no implicit flows.
    pub fn plain(layers: usize) -> VmConfig {
        VmConfig { layers, implicit: ImplicitAt::None, seed: 0x7161 }
    }

    /// `nVM-IMPx`.
    pub fn with_implicit(layers: usize, implicit: ImplicitAt) -> VmConfig {
        VmConfig { layers, implicit, seed: 0x7161 }
    }

    /// Table I-style name, e.g. `2VM-IMPlast`.
    pub fn label(&self) -> String {
        match self.implicit {
            ImplicitAt::None => format!("{}VM", self.layers),
            ImplicitAt::First => format!("{}VM-IMPfirst", self.layers),
            ImplicitAt::Last => format!("{}VM-IMPlast", self.layers),
            ImplicitAt::All => format!("{}VM-IMPall", self.layers),
        }
    }
}

/// Errors produced while virtualizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The function to virtualize does not exist in the program.
    UnknownFunction(String),
    /// The function uses a construct the bytecode compiler does not support.
    Unsupported(String),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            VmError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for VmError {}

// Logical opcodes; the byte value of each is randomized per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    PushConst,
    LoadLocal,
    StoreLocal,
    Arg,
    GlobalAddr,
    Bin(BinOp),
    Un(UnOp),
    Load8,
    Load1,
    Store8,
    Store1,
    Jmp,
    Jz,
    Ret,
    Call,
    Probe,
}

const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

fn all_ops() -> Vec<Op> {
    let mut ops = vec![
        Op::PushConst,
        Op::LoadLocal,
        Op::StoreLocal,
        Op::Arg,
        Op::GlobalAddr,
        Op::Load8,
        Op::Load1,
        Op::Store8,
        Op::Store1,
        Op::Jmp,
        Op::Jz,
        Op::Ret,
        Op::Call,
        Op::Probe,
        Op::Un(UnOp::Neg),
        Op::Un(UnOp::Not),
    ];
    ops.extend(BIN_OPS.iter().copied().map(Op::Bin));
    ops
}

struct BytecodeCompiler {
    code: Vec<u8>,
    opcode_of: HashMap<Op, u8>,
    call_sites: Vec<(String, usize)>,
    globals: Vec<String>,
    discard_slot: u8,
}

impl BytecodeCompiler {
    fn emit_op(&mut self, op: Op) {
        self.code.push(self.opcode_of[&op]);
    }

    fn emit_u8(&mut self, v: u8) {
        self.code.push(v);
    }

    fn emit_u32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn emit_u64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn global_index(&mut self, name: &str) -> u8 {
        if let Some(i) = self.globals.iter().position(|g| g == name) {
            return i as u8;
        }
        self.globals.push(name.to_string());
        (self.globals.len() - 1) as u8
    }

    fn expr(&mut self, e: &Expr) -> Result<(), VmError> {
        match e {
            Expr::Const(v) => {
                self.emit_op(Op::PushConst);
                self.emit_u64(*v as u64);
            }
            Expr::Var(i) => {
                self.emit_op(Op::LoadLocal);
                self.emit_u8(*i as u8);
            }
            Expr::Arg(i) => {
                self.emit_op(Op::Arg);
                self.emit_u8(*i as u8);
            }
            Expr::GlobalAddr(name) => {
                let idx = self.global_index(name);
                self.emit_op(Op::GlobalAddr);
                self.emit_u8(idx);
            }
            Expr::Un(op, a) => {
                self.expr(a)?;
                self.emit_op(Op::Un(*op));
            }
            Expr::Bin(op, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.emit_op(Op::Bin(*op));
            }
            Expr::Load(a) => {
                self.expr(a)?;
                self.emit_op(Op::Load8);
            }
            Expr::LoadByte(a) => {
                self.expr(a)?;
                self.emit_op(Op::Load1);
            }
            Expr::Call(name, args) => {
                if args.len() > 6 {
                    return Err(VmError::Unsupported("call with more than 6 arguments".into()));
                }
                for a in args {
                    self.expr(a)?;
                }
                let site = self.call_sites.len();
                if site > 250 {
                    return Err(VmError::Unsupported("too many call sites".into()));
                }
                self.call_sites.push((name.clone(), args.len()));
                self.emit_op(Op::Call);
                self.emit_u8(site as u8);
            }
        }
        Ok(())
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), VmError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), VmError> {
        match s {
            Stmt::Assign(v, e) => {
                self.expr(e)?;
                self.emit_op(Op::StoreLocal);
                self.emit_u8(*v as u8);
            }
            Stmt::Store(addr, value) => {
                self.expr(addr)?;
                self.expr(value)?;
                self.emit_op(Op::Store8);
            }
            Stmt::StoreByte(addr, value) => {
                self.expr(addr)?;
                self.expr(value)?;
                self.emit_op(Op::Store1);
            }
            Stmt::ExprStmt(e) => {
                self.expr(e)?;
                // Discard the result into a dedicated scratch slot just past
                // the real locals.
                self.emit_op(Op::StoreLocal);
                self.emit_u8(self.discard_slot);
            }
            Stmt::Return(e) => {
                self.expr(e)?;
                self.emit_op(Op::Ret);
            }
            Stmt::Probe(id) => {
                self.emit_op(Op::Probe);
                self.emit_u8(*id as u8);
            }
            Stmt::If(cond, then_branch, else_branch) => {
                self.expr(cond)?;
                self.emit_op(Op::Jz);
                let patch_else = self.code.len();
                self.emit_u32(0);
                self.stmts(then_branch)?;
                self.emit_op(Op::Jmp);
                let patch_end = self.code.len();
                self.emit_u32(0);
                let else_target = self.code.len() as u32;
                self.code[patch_else..patch_else + 4].copy_from_slice(&else_target.to_le_bytes());
                self.stmts(else_branch)?;
                let end_target = self.code.len() as u32;
                self.code[patch_end..patch_end + 4].copy_from_slice(&end_target.to_le_bytes());
            }
            Stmt::While(cond, body) => {
                let head = self.code.len() as u32;
                self.expr(cond)?;
                self.emit_op(Op::Jz);
                let patch_exit = self.code.len();
                self.emit_u32(0);
                self.stmts(body)?;
                self.emit_op(Op::Jmp);
                self.emit_u32(head);
                let exit = self.code.len() as u32;
                self.code[patch_exit..patch_exit + 4].copy_from_slice(&exit.to_le_bytes());
            }
        }
        Ok(())
    }
}

// Local-variable layout of the generated interpreter.
const L_VPC: usize = 0;
const L_SP: usize = 1;
const L_OP: usize = 2;
const L_A: usize = 3;
const L_B: usize = 4;
const L_T: usize = 5;
const L_I: usize = 6;
const L_CALL_ARG_BASE: usize = 8;
const INTERP_LOCALS: usize = 14;

fn c(v: i64) -> Expr {
    Expr::Const(v)
}
fn v(i: usize) -> Expr {
    Expr::Var(i)
}
fn b(op: BinOp, x: Expr, y: Expr) -> Expr {
    Expr::bin(op, x, y)
}
fn gaddr(name: &str) -> Expr {
    Expr::GlobalAddr(name.to_string())
}

struct InterpBuilder {
    prefix: String,
    implicit: bool,
}

impl InterpBuilder {
    fn code_at(&self, offset: Expr) -> Expr {
        b(BinOp::Add, gaddr(&format!("{}_code", self.prefix)), offset)
    }

    fn stack_slot(&self, index: Expr) -> Expr {
        b(BinOp::Add, gaddr(&format!("{}_stack", self.prefix)), b(BinOp::Mul, index, c(8)))
    }

    fn local_slot(&self, index: Expr) -> Expr {
        b(BinOp::Add, gaddr(&format!("{}_locals", self.prefix)), b(BinOp::Mul, index, c(8)))
    }

    fn push(&self, value: Expr) -> Vec<Stmt> {
        vec![
            Stmt::Store(self.stack_slot(v(L_SP)), value),
            Stmt::Assign(L_SP, b(BinOp::Add, v(L_SP), c(1))),
        ]
    }

    fn pop_into(&self, var: usize) -> Vec<Stmt> {
        vec![
            Stmt::Assign(L_SP, b(BinOp::Sub, v(L_SP), c(1))),
            Stmt::Assign(var, Expr::Load(Box::new(self.stack_slot(v(L_SP))))),
        ]
    }

    /// Sets the VPC to `target`: either directly or through the implicit
    /// bit-copy loop (Tigress `InitImplicitFlow bitcopy_loop`).
    fn set_vpc(&self, target: Expr) -> Vec<Stmt> {
        if !self.implicit {
            return vec![Stmt::Assign(L_VPC, target)];
        }
        vec![
            Stmt::Assign(L_T, target),
            Stmt::Assign(L_VPC, c(0)),
            Stmt::Assign(L_I, c(0)),
            Stmt::While(
                b(BinOp::Lt, v(L_I), c(32)),
                vec![
                    Stmt::If(
                        b(BinOp::Eq, b(BinOp::And, b(BinOp::Shr, v(L_T), v(L_I)), c(1)), c(1)),
                        vec![Stmt::Assign(
                            L_VPC,
                            b(BinOp::Or, v(L_VPC), b(BinOp::Shl, c(1), v(L_I))),
                        )],
                        vec![],
                    ),
                    Stmt::Assign(L_I, b(BinOp::Add, v(L_I), c(1))),
                ],
            ),
        ]
    }

    fn advance(&self, operand_bytes: i64) -> Vec<Stmt> {
        self.set_vpc(b(BinOp::Add, v(L_VPC), c(1 + operand_bytes)))
    }
}

/// Result of virtualizing one function.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtualized {
    /// The interpreter that replaces the original function (same name,
    /// same parameter count).
    pub interpreter: Function,
    /// New global data objects (bytecode, operand stack, locals array).
    pub globals: Vec<Global>,
    /// Size of the produced bytecode in bytes.
    pub bytecode_len: usize,
}

/// Virtualizes a single MiniC function into bytecode + interpreter.
///
/// # Errors
///
/// Fails when the function uses a construct the bytecode compiler cannot
/// express.
pub fn virtualize(
    func: &Function,
    implicit: bool,
    seed: u64,
    layer: usize,
) -> Result<Virtualized, VmError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (layer as u64).wrapping_mul(0x9E37_79B9));
    // Random opcode assignment for this layer.
    let mut bytes: Vec<u8> = (0..=255u8).collect();
    bytes.shuffle(&mut rng);
    let ops = all_ops();
    let opcode_of: HashMap<Op, u8> = ops.iter().copied().zip(bytes).collect();

    let mut compiler = BytecodeCompiler {
        code: Vec::new(),
        opcode_of,
        call_sites: Vec::new(),
        globals: Vec::new(),
        discard_slot: func.locals as u8,
    };
    compiler.stmts(&func.body)?;
    // Safety net: return 0 when control falls off the end of the bytecode.
    compiler.expr(&Expr::Const(0))?;
    compiler.emit_op(Op::Ret);

    let prefix = format!("__vm{layer}_{}", func.name);
    let ib = InterpBuilder { prefix: prefix.clone(), implicit };

    let fetch_u8 = |off: i64| Expr::LoadByte(Box::new(ib.code_at(b(BinOp::Add, v(L_VPC), c(off)))));
    let fetch_u32 = |off: i64| {
        let byte = |k: i64| {
            b(
                BinOp::Mul,
                Expr::LoadByte(Box::new(ib.code_at(b(BinOp::Add, v(L_VPC), c(off + k))))),
                c(1i64 << (8 * k)),
            )
        };
        b(BinOp::Add, b(BinOp::Add, byte(0), byte(1)), b(BinOp::Add, byte(2), byte(3)))
    };
    let fetch_u64 = |off: i64| {
        let byte = |k: i64| {
            b(
                BinOp::Mul,
                Expr::LoadByte(Box::new(ib.code_at(b(BinOp::Add, v(L_VPC), c(off + k))))),
                b(BinOp::Shl, c(1), c(8 * k)),
            )
        };
        let mut acc = byte(0);
        for k in 1..8 {
            acc = b(BinOp::Add, acc, byte(k));
        }
        acc
    };

    // Opcode handlers, dispatched through an if-chain on the fetched opcode.
    let mut dispatch: Vec<Stmt> = Vec::new();
    let arm = |op: Op, body: Vec<Stmt>, dispatch: &mut Vec<Stmt>, opcode_of: &HashMap<Op, u8>| {
        let opcode = opcode_of[&op] as i64;
        dispatch.push(Stmt::If(b(BinOp::Eq, v(L_OP), c(opcode)), body, vec![]));
    };
    let opcodes = compiler.opcode_of.clone();

    // PUSHC imm64
    let mut body = ib.push(fetch_u64(1));
    body.extend(ib.advance(8));
    arm(Op::PushConst, body, &mut dispatch, &opcodes);
    // LOADL idx
    let mut body = ib.push(Expr::Load(Box::new(ib.local_slot(fetch_u8(1)))));
    body.extend(ib.advance(1));
    arm(Op::LoadLocal, body, &mut dispatch, &opcodes);
    // STOREL idx
    let mut body = ib.pop_into(L_A);
    body.push(Stmt::Store(ib.local_slot(fetch_u8(1)), v(L_A)));
    body.extend(ib.advance(1));
    arm(Op::StoreLocal, body, &mut dispatch, &opcodes);
    // ARG idx — an if-chain over the (at most 6) parameters.
    {
        let mut body = vec![Stmt::Assign(L_A, c(0))];
        for i in 0..func.params {
            body.push(Stmt::If(
                b(BinOp::Eq, fetch_u8(1), c(i as i64)),
                vec![Stmt::Assign(L_A, Expr::Arg(i))],
                vec![],
            ));
        }
        body.extend(ib.push(v(L_A)));
        body.extend(ib.advance(1));
        arm(Op::Arg, body, &mut dispatch, &opcodes);
    }
    // GLOBALADDR idx — if-chain over the referenced globals.
    {
        let mut body = vec![Stmt::Assign(L_A, c(0))];
        for (i, name) in compiler.globals.iter().enumerate() {
            body.push(Stmt::If(
                b(BinOp::Eq, fetch_u8(1), c(i as i64)),
                vec![Stmt::Assign(L_A, gaddr(name))],
                vec![],
            ));
        }
        body.extend(ib.push(v(L_A)));
        body.extend(ib.advance(1));
        arm(Op::GlobalAddr, body, &mut dispatch, &opcodes);
    }
    // Binary operators.
    for bin in BIN_OPS {
        let mut body = ib.pop_into(L_B);
        body.extend(ib.pop_into(L_A));
        body.extend(ib.push(b(bin, v(L_A), v(L_B))));
        body.extend(ib.advance(0));
        arm(Op::Bin(bin), body, &mut dispatch, &opcodes);
    }
    // Unary operators.
    for un in [UnOp::Neg, UnOp::Not] {
        let mut body = ib.pop_into(L_A);
        body.extend(ib.push(Expr::un(un, v(L_A))));
        body.extend(ib.advance(0));
        arm(Op::Un(un), body, &mut dispatch, &opcodes);
    }
    // Memory.
    let mut body = ib.pop_into(L_A);
    body.extend(ib.push(Expr::Load(Box::new(v(L_A)))));
    body.extend(ib.advance(0));
    arm(Op::Load8, body, &mut dispatch, &opcodes);
    let mut body = ib.pop_into(L_A);
    body.extend(ib.push(Expr::LoadByte(Box::new(v(L_A)))));
    body.extend(ib.advance(0));
    arm(Op::Load1, body, &mut dispatch, &opcodes);
    let mut body = ib.pop_into(L_B);
    body.extend(ib.pop_into(L_A));
    body.push(Stmt::Store(v(L_A), v(L_B)));
    body.extend(ib.advance(0));
    arm(Op::Store8, body, &mut dispatch, &opcodes);
    let mut body = ib.pop_into(L_B);
    body.extend(ib.pop_into(L_A));
    body.push(Stmt::StoreByte(v(L_A), v(L_B)));
    body.extend(ib.advance(0));
    arm(Op::Store1, body, &mut dispatch, &opcodes);
    // Jumps.
    let body = ib.set_vpc(fetch_u32(1));
    arm(Op::Jmp, body, &mut dispatch, &opcodes);
    {
        let mut body = ib.pop_into(L_A);
        let taken = ib.set_vpc(fetch_u32(1));
        let fall = ib.advance(4);
        body.push(Stmt::If(b(BinOp::Eq, v(L_A), c(0)), taken, fall));
        arm(Op::Jz, body, &mut dispatch, &opcodes);
    }
    // Return.
    let mut body = ib.pop_into(L_A);
    body.push(Stmt::Return(v(L_A)));
    arm(Op::Ret, body, &mut dispatch, &opcodes);
    // Calls: per-site dispatch so callee and argument count stay static.
    {
        let mut body = vec![Stmt::Assign(L_A, c(0))];
        for (site, (callee, argc)) in compiler.call_sites.iter().enumerate() {
            let mut site_body = Vec::new();
            for k in (0..*argc).rev() {
                site_body.extend(ib.pop_into(L_CALL_ARG_BASE + k));
            }
            let args: Vec<Expr> = (0..*argc).map(|k| v(L_CALL_ARG_BASE + k)).collect();
            site_body.push(Stmt::Assign(L_A, Expr::Call(callee.clone(), args)));
            body.push(Stmt::If(b(BinOp::Eq, fetch_u8(1), c(site as i64)), site_body, vec![]));
        }
        body.extend(ib.push(v(L_A)));
        body.extend(ib.advance(1));
        arm(Op::Call, body, &mut dispatch, &opcodes);
    }
    // Probe.
    {
        let mut body = vec![Stmt::Store(
            b(BinOp::Add, gaddr(PROBE_ARRAY), b(BinOp::Mul, fetch_u8(1), c(8))),
            c(1),
        )];
        body.extend(ib.advance(1));
        arm(Op::Probe, body, &mut dispatch, &opcodes);
    }

    // The dispatcher loop.
    let interp_body = vec![
        Stmt::Assign(L_VPC, c(0)),
        Stmt::Assign(L_SP, c(0)),
        Stmt::While(c(1), {
            let mut loop_body =
                vec![Stmt::Assign(L_OP, Expr::LoadByte(Box::new(ib.code_at(v(L_VPC)))))];
            loop_body.extend(dispatch);
            loop_body
        }),
        Stmt::Return(c(0)),
    ];

    let interpreter = Function {
        name: func.name.clone(),
        params: func.params,
        locals: INTERP_LOCALS,
        body: interp_body,
    };

    let globals = vec![
        Global { name: format!("{prefix}_code"), bytes: compiler.code.clone() },
        Global { name: format!("{prefix}_stack"), bytes: vec![0u8; 512 * 8] },
        Global { name: format!("{prefix}_locals"), bytes: vec![0u8; 8 * (func.locals + 8)] },
    ];

    Ok(Virtualized { interpreter, globals, bytecode_len: compiler.code.len() })
}

/// The `.data` symbol holding the bytecode of `func`'s virtualization at
/// `layer` (see [`apply_layers`] for how layers are numbered).
pub fn vm_code_symbol(layer: usize, func: &str) -> String {
    format!("__vm{layer}_{func}_code")
}

/// One decoded bytecode instruction of a virtualized function.
///
/// The opcode *byte* is layer-specific (randomly assigned per layer), so the
/// decoded view names the logical operation instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInst {
    /// Byte offset of the opcode within the bytecode blob.
    pub off: usize,
    /// Total encoded length (opcode byte + operand bytes).
    pub len: usize,
    /// Logical operation name (e.g. `pushc`, `bin.Add`, `jz`).
    pub name: String,
    /// Immediate/index operand, when the operation carries one.
    pub operand: Option<u64>,
    /// Absolute bytecode target, for `jmp`/`jz`.
    pub jump_target: Option<u32>,
}

/// Why a bytecode blob failed to decode. Any of these on an emitted blob
/// means the image is corrupted: the compiler only produces well-formed
/// streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BytecodeError {
    /// A byte that is not an assigned opcode of this layer's instruction
    /// set.
    UnknownOpcode {
        /// Offset of the byte.
        off: usize,
        /// The unassigned byte value.
        opcode: u8,
    },
    /// The blob ends in the middle of an operand.
    Truncated {
        /// Offset of the truncated instruction's opcode.
        off: usize,
    },
    /// A `jmp`/`jz` target that is not an instruction boundary (or is out
    /// of bounds).
    BadJumpTarget {
        /// Offset of the jump instruction.
        off: usize,
        /// The invalid target.
        target: u32,
    },
}

impl std::fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BytecodeError::UnknownOpcode { off, opcode } => {
                write!(f, "unknown opcode {opcode:#04x} at offset {off}")
            }
            BytecodeError::Truncated { off } => {
                write!(f, "bytecode truncated inside the instruction at offset {off}")
            }
            BytecodeError::BadJumpTarget { off, target } => {
                write!(f, "jump at offset {off} targets {target}, not an instruction boundary")
            }
        }
    }
}

impl std::error::Error for BytecodeError {}

fn op_name(op: Op) -> String {
    match op {
        Op::PushConst => "pushc".into(),
        Op::LoadLocal => "loadl".into(),
        Op::StoreLocal => "storel".into(),
        Op::Arg => "arg".into(),
        Op::GlobalAddr => "gaddr".into(),
        Op::Bin(b) => format!("bin.{b:?}"),
        Op::Un(u) => format!("un.{u:?}"),
        Op::Load8 => "load8".into(),
        Op::Load1 => "load1".into(),
        Op::Store8 => "store8".into(),
        Op::Store1 => "store1".into(),
        Op::Jmp => "jmp".into(),
        Op::Jz => "jz".into(),
        Op::Ret => "ret".into(),
        Op::Call => "call".into(),
        Op::Probe => "probe".into(),
    }
}

fn operand_len(op: Op) -> usize {
    match op {
        Op::PushConst => 8,
        Op::LoadLocal | Op::StoreLocal | Op::Arg | Op::GlobalAddr | Op::Call | Op::Probe => 1,
        Op::Jmp | Op::Jz => 4,
        _ => 0,
    }
}

/// Rebuilds the per-layer opcode assignment and fully decodes a bytecode
/// blob, validating that every `jmp`/`jz` target is an in-bounds
/// instruction boundary.
///
/// `seed` and `layer` must match what produced the blob ([`virtualize`]'s
/// parameters; for pipeline-produced images, the pass's effective seed and
/// the function's absolute layer number). This is the defensive static
/// audit's view of a VM blob — no interpretation happens.
///
/// # Errors
///
/// Fails on the first unassigned opcode byte, truncated operand, or
/// out-of-boundary jump target.
pub fn decode_program(
    bytes: &[u8],
    seed: u64,
    layer: usize,
) -> Result<Vec<DecodedInst>, BytecodeError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (layer as u64).wrapping_mul(0x9E37_79B9));
    let mut opcode_bytes: Vec<u8> = (0..=255u8).collect();
    opcode_bytes.shuffle(&mut rng);
    let mut op_of: HashMap<u8, Op> = HashMap::new();
    for (op, byte) in all_ops().iter().copied().zip(opcode_bytes) {
        op_of.insert(byte, op);
    }

    let mut insts = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let opcode = bytes[off];
        let op = *op_of.get(&opcode).ok_or(BytecodeError::UnknownOpcode { off, opcode })?;
        let olen = operand_len(op);
        if off + 1 + olen > bytes.len() {
            return Err(BytecodeError::Truncated { off });
        }
        let operand_bytes = &bytes[off + 1..off + 1 + olen];
        let operand = match olen {
            1 => Some(operand_bytes[0] as u64),
            4 => Some(u32::from_le_bytes(operand_bytes.try_into().expect("4 bytes")) as u64),
            8 => Some(u64::from_le_bytes(operand_bytes.try_into().expect("8 bytes"))),
            _ => None,
        };
        let jump_target = match op {
            Op::Jmp | Op::Jz => Some(operand.expect("jump carries a u32") as u32),
            _ => None,
        };
        insts.push(DecodedInst { off, len: 1 + olen, name: op_name(op), operand, jump_target });
        off += 1 + olen;
    }

    let boundaries: std::collections::HashSet<u32> = insts.iter().map(|i| i.off as u32).collect();
    for inst in &insts {
        if let Some(target) = inst.jump_target {
            if !boundaries.contains(&target) {
                return Err(BytecodeError::BadJumpTarget { off: inst.off, target });
            }
        }
    }
    Ok(insts)
}

/// Result of [`apply_layers`]: the transformed program plus per-layer
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// The transformed program.
    pub program: Program,
    /// Bytecode size produced by each layer, innermost first.
    pub bytecode_lens: Vec<usize>,
}

/// Applies `config.layers` layers of virtualization to `func_name` inside
/// `program`, returning the transformed program.
///
/// # Errors
///
/// Fails when the function is unknown or uses unsupported constructs.
pub fn apply(program: &Program, func_name: &str, config: VmConfig) -> Result<Program, VmError> {
    apply_layers(program, func_name, config, 0).map(|a| a.program)
}

/// Like [`apply`], but numbers the generated layers starting at
/// `base_layer`, so repeated virtualization of the same function (e.g. two
/// stacked VM passes in a `raindrop` pipeline) never collides on the
/// per-layer global names (`__vm<layer>_<func>_code` etc.) or reuses a
/// layer's opcode shuffle. `apply_layers(p, f, cfg, 0)` is exactly
/// [`apply`]; implicit-VPC placement (`First`/`Last`) stays relative to this
/// call's own layers.
///
/// # Errors
///
/// Fails when the function is unknown or uses unsupported constructs.
pub fn apply_layers(
    program: &Program,
    func_name: &str,
    config: VmConfig,
    base_layer: usize,
) -> Result<Applied, VmError> {
    let mut out = program.clone();
    let idx = out
        .functions
        .iter()
        .position(|f| f.name == func_name)
        .ok_or_else(|| VmError::UnknownFunction(func_name.to_string()))?;
    let mut current = out.functions[idx].clone();
    let mut bytecode_lens = Vec::with_capacity(config.layers);
    for layer in 0..config.layers {
        let implicit = match config.implicit {
            ImplicitAt::None => false,
            ImplicitAt::First => layer == 0,
            ImplicitAt::Last => layer == config.layers - 1,
            ImplicitAt::All => true,
        };
        let virt = virtualize(&current, implicit, config.seed, base_layer + layer)?;
        out.globals.extend(virt.globals);
        bytecode_lens.push(virt.bytecode_len);
        current = virt.interpreter;
    }
    out.functions[idx] = current;
    Ok(Applied { program: out, bytecode_lens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::Emulator;
    use raindrop_synth::{codegen, randomfuns, workloads};

    fn run(p: &Program, func: &str, args: &[u64]) -> u64 {
        let img = codegen::compile(p).unwrap();
        let mut emu = Emulator::new(&img);
        emu.set_budget(2_000_000_000);
        emu.call_named(&img, func, args).unwrap()
    }

    fn sample_randomfun() -> raindrop_synth::RandomFun {
        randomfuns::generate(raindrop_synth::RandomFunConfig {
            structure: randomfuns::Ctrl::for_(randomfuns::Ctrl::if_(
                randomfuns::Ctrl::bb(4),
                randomfuns::Ctrl::bb(4),
            )),
            structure_name: "(for (if (bb 4) (bb 4)))".into(),
            input_size: 2,
            seed: 11,
            goal: randomfuns::Goal::SecretFinding,
            loop_size: 4,
        })
    }

    #[test]
    fn emitted_bytecode_decodes_fully_with_valid_jumps() {
        let rf = sample_randomfun();
        let func = rf.program.function(&rf.name).unwrap();
        let virt = virtualize(func, false, 0x7161, 0).unwrap();
        let code = &virt.globals[0].bytes;
        assert_eq!(virt.globals[0].name, vm_code_symbol(0, &rf.name));
        let insts = decode_program(code, 0x7161, 0).unwrap();
        assert_eq!(insts.iter().map(|i| i.len).sum::<usize>(), code.len());
        assert!(insts.iter().any(|i| i.jump_target.is_some()), "loops compile to jumps");
        // A different layer has a different random instruction set; its
        // decoder rejects this blob (deterministic for these fixed seeds).
        assert!(decode_program(code, 0x7161, 1).is_err());
    }

    #[test]
    fn one_layer_preserves_semantics() {
        let rf = sample_randomfun();
        let vm = apply(&rf.program, &rf.name, VmConfig::plain(1)).unwrap();
        assert_eq!(run(&vm, &rf.name, &[rf.secret_input]), 1);
        assert_eq!(run(&vm, &rf.name, &[rf.secret_input ^ 1]), 0);
        assert_ne!(
            vm.function(&rf.name),
            rf.program.function(&rf.name),
            "the original body is replaced by a dispatcher"
        );
    }

    #[test]
    fn implicit_vpc_layers_preserve_semantics_and_add_work() {
        let rf = sample_randomfun();
        let plain = apply(&rf.program, &rf.name, VmConfig::plain(1)).unwrap();
        let imp =
            apply(&rf.program, &rf.name, VmConfig::with_implicit(1, ImplicitAt::All)).unwrap();
        assert_eq!(run(&imp, &rf.name, &[rf.secret_input]), 1);

        let count = |p: &Program| {
            let img = codegen::compile(p).unwrap();
            let mut emu = Emulator::new(&img);
            emu.set_budget(2_000_000_000);
            emu.call_named(&img, &rf.name, &[rf.secret_input]).unwrap();
            emu.stats().instructions
        };
        assert!(count(&imp) > count(&plain) * 3, "implicit VPC updates multiply interpreter work");
    }

    #[test]
    fn two_layers_nest_and_preserve_semantics() {
        let rf = sample_randomfun();
        let vm2 =
            apply(&rf.program, &rf.name, VmConfig::with_implicit(2, ImplicitAt::Last)).unwrap();
        assert_eq!(run(&vm2, &rf.name, &[rf.secret_input]), 1);
        assert_eq!(run(&vm2, &rf.name, &[rf.secret_input ^ 3]), 0);
    }

    #[test]
    fn virtualized_workload_with_calls_still_works() {
        let w = workloads::sp_norm();
        let baseline = run(&w.program, &w.entry, &w.args);
        let vm = apply(&w.program, "sp_norm_main", VmConfig::plain(1)).unwrap();
        assert_eq!(run(&vm, &w.entry, &w.args), baseline);
    }

    #[test]
    fn stacked_apply_layers_offset_prefixes_and_preserve_semantics() {
        let rf = sample_randomfun();
        let first = apply_layers(&rf.program, &rf.name, VmConfig::plain(1), 0).unwrap();
        assert_eq!(first.program, apply(&rf.program, &rf.name, VmConfig::plain(1)).unwrap());
        assert_eq!(first.bytecode_lens.len(), 1);
        let second = apply_layers(&first.program, &rf.name, VmConfig::plain(1), 1).unwrap();
        let names: Vec<&String> = second.program.globals.iter().map(|g| &g.name).collect();
        assert!(names.iter().any(|n| n.starts_with("__vm0_")));
        assert!(names.iter().any(|n| n.starts_with("__vm1_")));
        let unique: std::collections::BTreeSet<&&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "layer prefixes never collide");
        assert_eq!(run(&second.program, &rf.name, &[rf.secret_input]), 1);
        assert_eq!(run(&second.program, &rf.name, &[rf.secret_input ^ 1]), 0);
    }

    #[test]
    fn labels_follow_table_i_naming() {
        assert_eq!(VmConfig::plain(2).label(), "2VM");
        assert_eq!(VmConfig::with_implicit(3, ImplicitAt::All).label(), "3VM-IMPall");
        assert_eq!(VmConfig::with_implicit(2, ImplicitAt::Last).label(), "2VM-IMPlast");
    }

    #[test]
    fn unknown_function_is_rejected() {
        let rf = sample_randomfun();
        assert!(matches!(
            apply(&rf.program, "nope", VmConfig::plain(1)),
            Err(VmError::UnknownFunction(_))
        ));
    }
}

//! Gadget representation and classification.
//!
//! A gadget is a short instruction sequence ending in `ret` (or, for the one
//! JOP gadget the design needs, `jmp reg`) that the chain crafter uses as its
//! instruction-selection vocabulary (§IV-B2 of the paper). Each gadget is
//! classified by the *primary operation* it performs; any other register it
//! writes is recorded as a clobber, and any extra `pop` consumes one chain
//! slot (the crafter fills those with junk immediates, which is one source of
//! the "dynamically dead instructions" diversity of §V-D).

use raindrop_machine::{AluOp, Cond, Inst, Mem, Reg, RegSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The semantic operation a gadget provides to the chain crafter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GadgetOp {
    /// `pop reg` — loads the next chain slot into `reg`.
    Pop(Reg),
    /// `add rsp, reg` — the ROP branch primitive.
    AddRsp(Reg),
    /// `mov dst, src`.
    MovRR(Reg, Reg),
    /// `mov dst, qword [src]`.
    Load(Reg, Reg),
    /// `mov qword [dst], src`.
    Store(Reg, Reg),
    /// `movzx dst, byte [src]`.
    LoadByte(Reg, Reg),
    /// `movsx dst, byte [src]`.
    LoadByteSx(Reg, Reg),
    /// `mov byte [dst], src`.
    StoreByte(Reg, Reg),
    /// `op dst, src`.
    Alu(AluOp, Reg, Reg),
    /// `op dst, qword [src]`.
    AluLoad(AluOp, Reg, Reg),
    /// `op qword [dst], src`.
    AluStore(AluOp, Reg, Reg),
    /// `neg reg`.
    Neg(Reg),
    /// `not reg`.
    Not(Reg),
    /// `imul dst, src`.
    Mul(Reg, Reg),
    /// `div dst, src` (unsigned quotient).
    Div(Reg, Reg),
    /// `rem dst, src` (unsigned remainder).
    Rem(Reg, Reg),
    /// `shl reg, imm`.
    ShlImm(Reg, u8),
    /// `shr reg, imm`.
    ShrImm(Reg, u8),
    /// `sar reg, imm`.
    SarImm(Reg, u8),
    /// `shl dst, src`.
    ShlReg(Reg, Reg),
    /// `shr dst, src`.
    ShrReg(Reg, Reg),
    /// `cmp a, b`.
    Cmp(Reg, Reg),
    /// `test a, b`.
    Test(Reg, Reg),
    /// `cmov<cc> dst, src`.
    Cmov(Cond, Reg, Reg),
    /// `set<cc> reg`.
    Set(Cond, Reg),
    /// `xchg rsp, qword [addr]; jmp target` — the stack-switching JOP gadget
    /// used when calling native code (§IV-B2, step C).
    XchgRspMemJmp(Reg, Reg),
    /// A sequence with no recognized primary operation (still interesting
    /// for statistics and for confusing pattern-matching attackers).
    Unclassified,
}

impl GadgetOp {
    /// The primary instruction (without the terminating `ret`) implementing
    /// this operation, when a single instruction suffices.
    pub fn primary_inst(&self) -> Option<Inst> {
        use GadgetOp::*;
        Some(match *self {
            Pop(r) => Inst::Pop(r),
            AddRsp(r) => Inst::Alu(AluOp::Add, Reg::Rsp, r),
            MovRR(d, s) => Inst::MovRR(d, s),
            Load(d, s) => Inst::Load(d, Mem::base(s)),
            Store(d, s) => Inst::Store(Mem::base(d), s),
            LoadByte(d, s) => Inst::LoadB(d, Mem::base(s)),
            LoadByteSx(d, s) => Inst::LoadSxB(d, Mem::base(s)),
            StoreByte(d, s) => Inst::StoreB(Mem::base(d), s),
            Alu(op, d, s) => Inst::Alu(op, d, s),
            AluLoad(op, d, s) => Inst::AluM(op, d, Mem::base(s)),
            AluStore(op, d, s) => Inst::AluStore(op, Mem::base(d), s),
            Neg(r) => Inst::Neg(r),
            Not(r) => Inst::Not(r),
            Mul(d, s) => Inst::Mul(d, s),
            Div(d, s) => Inst::Div(d, s),
            Rem(d, s) => Inst::Rem(d, s),
            ShlImm(r, i) => Inst::Shl(r, i),
            ShrImm(r, i) => Inst::Shr(r, i),
            SarImm(r, i) => Inst::Sar(r, i),
            ShlReg(d, s) => Inst::ShlR(d, s),
            ShrReg(d, s) => Inst::ShrR(d, s),
            Cmp(a, b) => Inst::Cmp(a, b),
            Test(a, b) => Inst::Test(a, b),
            Cmov(c, d, s) => Inst::Cmov(c, d, s),
            Set(c, r) => Inst::Set(c, r),
            XchgRspMemJmp(..) | Unclassified => return None,
        })
    }
}

impl fmt::Display for GadgetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.primary_inst() {
            Some(i) => write!(f, "{i}"),
            None => match self {
                GadgetOp::XchgRspMemJmp(a, t) => write!(f, "xchg rsp, [{a}]; jmp {t}"),
                _ => write!(f, "<unclassified>"),
            },
        }
    }
}

/// How a gadget transfers control onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GadgetEnding {
    /// Ends with `ret` (the normal case).
    Ret,
    /// Ends with `jmp reg` (JOP, used only for the native-call stack switch).
    JmpReg(Reg),
}

/// A classified gadget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gadget {
    /// Absolute address of the first instruction.
    pub addr: u64,
    /// The instructions, *excluding* the terminating `ret`/`jmp`.
    pub insts: Vec<Inst>,
    /// How the gadget ends.
    pub ending: GadgetEnding,
    /// The primary operation the chain crafter can use this gadget for.
    pub op: GadgetOp,
    /// Registers written beyond those of the primary operation.
    pub clobbers: RegSet,
    /// Number of `pop` instructions besides one belonging to the primary
    /// operation: each consumes one 8-byte chain slot that the crafter must
    /// fill with a junk immediate.
    pub junk_pops: Vec<Reg>,
    /// Whether any instruction besides the primary operation writes the
    /// condition flags (relevant when flags are live across the gadget).
    pub pollutes_flags: bool,
    /// Whether the gadget was synthesized by the obfuscator (as opposed to
    /// found in pre-existing code).
    pub artificial: bool,
}

impl Gadget {
    /// Total number of chain slots the gadget consumes when executed: one
    /// for its own address plus one per `pop` (primary or junk).
    pub fn chain_slots(&self) -> usize {
        1 + self.insts.iter().filter(|i| matches!(i, Inst::Pop(_))).count()
    }

    /// Byte length of the encoded gadget, including the terminator.
    pub fn byte_len(&self) -> usize {
        let term = match self.ending {
            GadgetEnding::Ret => raindrop_machine::encoded_len(&Inst::Ret),
            GadgetEnding::JmpReg(r) => raindrop_machine::encoded_len(&Inst::JmpReg(r)),
        };
        self.insts.iter().map(raindrop_machine::encoded_len).sum::<usize>() + term
    }

    /// Encodes the gadget (instructions plus terminator) to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = raindrop_machine::encode_all(self.insts.iter());
        match self.ending {
            GadgetEnding::Ret => out.extend(raindrop_machine::encode(&Inst::Ret)),
            GadgetEnding::JmpReg(r) => out.extend(raindrop_machine::encode(&Inst::JmpReg(r))),
        }
        out
    }
}

impl fmt::Display for Gadget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: ", self.addr)?;
        for i in &self.insts {
            write!(f, "{i}; ")?;
        }
        match self.ending {
            GadgetEnding::Ret => write!(f, "ret"),
            GadgetEnding::JmpReg(r) => write!(f, "jmp {r}"),
        }
    }
}

/// Classifies a ret-terminated instruction sequence (terminator excluded).
///
/// The classification is intentionally conservative: the *last* instruction
/// is taken as the primary operation, every other written register becomes a
/// clobber, and sequences that touch memory or the stack pointer outside the
/// recognized shapes are [`GadgetOp::Unclassified`] (the crafter will not
/// select them, but they still populate the pool an attacker sees).
pub fn classify(insts: &[Inst], ending: GadgetEnding) -> (GadgetOp, RegSet, Vec<Reg>, bool) {
    let mut clobbers = RegSet::new();
    let mut junk_pops = Vec::new();
    let mut pollutes_flags = false;

    // JOP stack-switch gadget: exactly `xchg rsp, [a]` + `jmp t`.
    if let GadgetEnding::JmpReg(target) = ending {
        if insts.len() == 1 {
            if let Inst::XchgRM(Reg::Rsp, m) = insts[0] {
                if m.index.is_none() && m.disp == 0 {
                    if let Some(base) = m.base {
                        return (
                            GadgetOp::XchgRspMemJmp(base, target),
                            RegSet::new(),
                            vec![],
                            false,
                        );
                    }
                }
            }
        }
        return (GadgetOp::Unclassified, RegSet::new(), vec![], false);
    }

    let Some((last, prefix)) = insts.split_last() else {
        return (GadgetOp::Unclassified, RegSet::new(), vec![], false);
    };

    for inst in prefix {
        match inst {
            Inst::Pop(r) => {
                junk_pops.push(*r);
                clobbers.insert(*r);
            }
            Inst::MovRR(d, _) | Inst::MovRI(d, _) | Inst::Not(d) => {
                clobbers.insert(*d);
            }
            Inst::Alu(_, d, _)
            | Inst::AluI(_, d, _)
            | Inst::Neg(d)
            | Inst::Shl(d, _)
            | Inst::Shr(d, _)
            | Inst::Sar(d, _) => {
                clobbers.insert(*d);
                pollutes_flags = true;
            }
            Inst::Nop => {}
            _ => {
                // Anything with memory traffic, control flow or the stack
                // pointer in the prefix makes the gadget unusable for
                // crafting.
                return (GadgetOp::Unclassified, RegSet::new(), vec![], false);
            }
        }
        if inst.regs_written().contains(Reg::Rsp) && !matches!(inst, Inst::Pop(_)) {
            return (GadgetOp::Unclassified, RegSet::new(), vec![], false);
        }
    }

    let op = match *last {
        Inst::Pop(r) => GadgetOp::Pop(r),
        Inst::Alu(AluOp::Add, Reg::Rsp, r) => GadgetOp::AddRsp(r),
        Inst::Alu(op, d, s) if d != Reg::Rsp => GadgetOp::Alu(op, d, s),
        Inst::MovRR(d, s) => GadgetOp::MovRR(d, s),
        Inst::Load(d, m) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::Load(d, m.base.expect("checked"))
        }
        Inst::Store(m, s) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::Store(m.base.expect("checked"), s)
        }
        Inst::LoadB(d, m) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::LoadByte(d, m.base.expect("checked"))
        }
        Inst::LoadSxB(d, m) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::LoadByteSx(d, m.base.expect("checked"))
        }
        Inst::StoreB(m, s) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::StoreByte(m.base.expect("checked"), s)
        }
        Inst::AluM(op, d, m) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::AluLoad(op, d, m.base.expect("checked"))
        }
        Inst::AluStore(op, m, s) if m.index.is_none() && m.disp == 0 && m.base.is_some() => {
            GadgetOp::AluStore(op, m.base.expect("checked"), s)
        }
        Inst::Neg(r) => GadgetOp::Neg(r),
        Inst::Not(r) => GadgetOp::Not(r),
        Inst::Mul(d, s) => GadgetOp::Mul(d, s),
        Inst::Div(d, s) => GadgetOp::Div(d, s),
        Inst::Rem(d, s) => GadgetOp::Rem(d, s),
        Inst::Shl(r, i) => GadgetOp::ShlImm(r, i),
        Inst::Shr(r, i) => GadgetOp::ShrImm(r, i),
        Inst::Sar(r, i) => GadgetOp::SarImm(r, i),
        Inst::ShlR(d, s) => GadgetOp::ShlReg(d, s),
        Inst::ShrR(d, s) => GadgetOp::ShrReg(d, s),
        Inst::Cmp(a, b) => GadgetOp::Cmp(a, b),
        Inst::Test(a, b) => GadgetOp::Test(a, b),
        Inst::Cmov(c, d, s) => GadgetOp::Cmov(c, d, s),
        Inst::Set(c, r) => GadgetOp::Set(c, r),
        _ => GadgetOp::Unclassified,
    };

    if op == GadgetOp::Unclassified {
        return (GadgetOp::Unclassified, clobbers, junk_pops, pollutes_flags);
    }
    (op, clobbers, junk_pops, pollutes_flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_pop_gadget_classifies() {
        let (op, clobbers, pops, flags) = classify(&[Inst::Pop(Reg::Rdi)], GadgetEnding::Ret);
        assert_eq!(op, GadgetOp::Pop(Reg::Rdi));
        assert!(clobbers.is_empty());
        assert!(pops.is_empty());
        assert!(!flags);
    }

    #[test]
    fn junk_pop_prefix_is_tracked() {
        // pop rsi; pop rbp; ret — figure 1 of the paper uses this to discard
        // a 0x10-byte chain segment.
        let (op, clobbers, pops, _) =
            classify(&[Inst::Pop(Reg::Rsi), Inst::Pop(Reg::Rbp)], GadgetEnding::Ret);
        assert_eq!(op, GadgetOp::Pop(Reg::Rbp));
        assert_eq!(pops, vec![Reg::Rsi]);
        assert!(clobbers.contains(Reg::Rsi));
    }

    #[test]
    fn add_rsp_gadget_is_the_branch_primitive() {
        let (op, ..) = classify(&[Inst::Alu(AluOp::Add, Reg::Rsp, Reg::Rsi)], GadgetEnding::Ret);
        assert_eq!(op, GadgetOp::AddRsp(Reg::Rsi));
    }

    #[test]
    fn prefix_alu_marks_flag_pollution_and_clobber() {
        let (op, clobbers, _, flags) = classify(
            &[Inst::AluI(AluOp::Xor, Reg::R10, 1), Inst::MovRR(Reg::Rax, Reg::Rbx)],
            GadgetEnding::Ret,
        );
        assert_eq!(op, GadgetOp::MovRR(Reg::Rax, Reg::Rbx));
        assert!(clobbers.contains(Reg::R10));
        assert!(flags);
    }

    #[test]
    fn memory_prefix_is_rejected() {
        let (op, ..) = classify(
            &[Inst::Store(Mem::base(Reg::Rdi), Reg::Rax), Inst::MovRR(Reg::Rax, Reg::Rbx)],
            GadgetEnding::Ret,
        );
        assert_eq!(op, GadgetOp::Unclassified);
    }

    #[test]
    fn jop_stack_switch_gadget_recognized() {
        let (op, ..) = classify(
            &[Inst::XchgRM(Reg::Rsp, Mem::base(Reg::Rbx))],
            GadgetEnding::JmpReg(Reg::Rcx),
        );
        assert_eq!(op, GadgetOp::XchgRspMemJmp(Reg::Rbx, Reg::Rcx));
    }

    #[test]
    fn gadget_slot_and_length_accounting() {
        let g = Gadget {
            addr: 0x1000,
            insts: vec![Inst::Pop(Reg::Rsi), Inst::Pop(Reg::Rbp)],
            ending: GadgetEnding::Ret,
            op: GadgetOp::Pop(Reg::Rbp),
            clobbers: RegSet::from_regs([Reg::Rsi]),
            junk_pops: vec![Reg::Rsi],
            pollutes_flags: false,
            artificial: true,
        };
        assert_eq!(g.chain_slots(), 3);
        assert_eq!(g.byte_len(), 2 + 2 + 1);
        assert_eq!(g.encode().len(), g.byte_len());
        let shown = format!("{g}");
        assert!(shown.contains("pop rsi"));
        assert!(shown.ends_with("ret"));
    }
}

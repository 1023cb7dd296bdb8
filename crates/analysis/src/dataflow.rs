//! Forward dataflow analyses: input-derived ("symbolic") registers.
//!
//! P3 (§V-C of the paper) must be instantiated on registers that hold
//! *input-derived* data which may later flow to the program output —
//! otherwise taint tracking or backward slicing could simply cut the opaque
//! computation away. The paper uses angr's symbolic execution to find such
//! registers; here a forward taint-style dataflow over the CFG serves the
//! same purpose.

use crate::cfg::{BlockId, Cfg};
use crate::liveness::use_def;
use raindrop_machine::{Inst, Reg, RegSet};

/// Which registers hold input-derived values at each program point.
#[derive(Debug, Clone, PartialEq)]
pub struct InputDerived {
    /// `at_entry[b]` — input-derived registers on entry to block `b`.
    pub at_entry: Vec<RegSet>,
    /// `before[b][i]` — input-derived registers immediately before
    /// instruction `i` of block `b`.
    pub before: Vec<Vec<RegSet>>,
}

fn transfer(inst: &Inst, mut derived: RegSet) -> RegSet {
    use Inst::*;
    let propagate = |derived: &RegSet, srcs: RegSet| srcs.iter().any(|r| derived.contains(r));
    match *inst {
        MovRR(d, s) => {
            if derived.contains(s) {
                derived.insert(d);
            } else {
                derived.remove(d);
            }
        }
        MovRI(d, _) => {
            derived.remove(d);
        }
        Load(d, m) | LoadB(d, m) | LoadSxB(d, m) => {
            // A load is derived when its address depends on derived data
            // (table lookups keyed on the input stay tainted).
            if propagate(&derived, m.regs()) {
                derived.insert(d);
            } else {
                derived.remove(d);
            }
        }
        Lea(d, m) => {
            if propagate(&derived, m.regs()) {
                derived.insert(d);
            } else {
                derived.remove(d);
            }
        }
        Alu(_, d, s) | Mul(d, s) | Div(d, s) | Rem(d, s) | ShlR(d, s) | ShrR(d, s) => {
            if derived.contains(d) || derived.contains(s) {
                derived.insert(d);
            }
        }
        AluI(_, d, _) | Shl(d, _) | Shr(d, _) | Sar(d, _) | Neg(d) | Not(d) => {
            // Unary/immediate operations preserve the derived status of d.
            let _ = d;
        }
        AluM(_, d, m) => {
            if propagate(&derived, m.regs()) {
                derived.insert(d);
            }
        }
        MulI(d, s, _) => {
            if derived.contains(s) {
                derived.insert(d);
            } else {
                derived.remove(d);
            }
        }
        Cmov(_, d, s) => {
            if derived.contains(s) {
                derived.insert(d);
            }
        }
        Set(_, d) => {
            // The condition flags are not tracked; conservatively treat the
            // produced boolean as derived (the comparison that set the flags
            // almost always involves the input in our workloads).
            derived.insert(d);
        }
        Pop(d) => {
            derived.remove(d);
        }
        XchgRR(a, b) => {
            let da = derived.contains(a);
            let db = derived.contains(b);
            if da {
                derived.insert(b);
            } else {
                derived.remove(b);
            }
            if db {
                derived.insert(a);
            } else {
                derived.remove(a);
            }
        }
        XchgRM(r, _) => {
            derived.insert(r);
        }
        _ => {
            // Calls clobber the caller-saved registers; the return value is
            // derived when any argument register was.
            if inst.is_call() {
                let args_derived = Reg::ARGS.iter().any(|r| derived.contains(*r));
                let (_, defs) = use_def(inst, RegSet::from_regs(Reg::ARGS));
                for r in defs.iter() {
                    derived.remove(r);
                }
                if args_derived {
                    derived.insert(Reg::Rax);
                }
            }
        }
    }
    derived
}

/// Computes the input-derived register sets for `cfg`, seeding the analysis
/// with `inputs` (typically the argument registers actually carrying input
/// bytes).
pub fn input_derived(cfg: &Cfg, inputs: RegSet) -> InputDerived {
    let n = cfg.blocks.len();
    let mut at_entry = vec![RegSet::new(); n];
    at_entry[cfg.entry().0] = inputs;

    let rpo = cfg.reverse_post_order();
    let preds = cfg.predecessors();

    let block_exit = |entry: RegSet, b: BlockId, cfg: &Cfg| -> RegSet {
        let mut cur = entry;
        for (_, inst) in &cfg.block(b).insts {
            cur = transfer(inst, cur);
        }
        cur
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let mut inn = if b == cfg.entry() { inputs } else { RegSet::new() };
            for &p in &preds[b.0] {
                inn = inn.union(block_exit(at_entry[p.0], p, cfg));
            }
            if b == cfg.entry() {
                inn = inn.union(inputs);
            }
            if inn != at_entry[b.0] {
                at_entry[b.0] = inn;
                changed = true;
            }
        }
    }

    let mut before = Vec::with_capacity(n);
    for b in &cfg.blocks {
        let mut cur = at_entry[b.id.0];
        let mut v = Vec::with_capacity(b.insts.len());
        for (_, inst) in &b.insts {
            v.push(cur);
            cur = transfer(inst, cur);
        }
        before.push(v);
    }

    InputDerived { at_entry, before }
}

impl InputDerived {
    /// Input-derived registers immediately before instruction `i` of block
    /// `b`.
    pub fn before(&self, b: BlockId, i: usize) -> RegSet {
        self.before[b.0][i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Mem};

    fn analyze(build: impl FnOnce(&mut Assembler), inputs: &[Reg]) -> (Cfg, InputDerived) {
        let mut a = Assembler::new();
        build(&mut a);
        let mut b = ImageBuilder::new();
        b.add_function("f", a);
        let img = b.build().unwrap();
        let cfg = cfg::reconstruct(&img, "f").unwrap();
        let derived = input_derived(&cfg, RegSet::from_regs(inputs.iter().copied()));
        (cfg, derived)
    }

    #[test]
    fn derivation_propagates_through_moves_and_alu() {
        let (cfg, d) = analyze(
            |a| {
                a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi)) // rax derived
                    .inst(Inst::Alu(AluOp::Add, Reg::Rcx, Reg::Rax)) // rcx derived
                    .inst(Inst::MovRI(Reg::Rax, 0)) // rax cleared
                    .inst(Inst::Ret);
            },
            &[Reg::Rdi],
        );
        let b = cfg.entry();
        assert!(d.before(b, 1).contains(Reg::Rax));
        assert!(d.before(b, 2).contains(Reg::Rcx));
        assert!(d.before(b, 3).contains(Reg::Rcx));
        assert!(!d.before(b, 3).contains(Reg::Rax), "constant overwrite clears derivation");
    }

    #[test]
    fn table_lookup_with_derived_index_stays_derived() {
        let (cfg, d) = analyze(
            |a| {
                a.inst(Inst::Load(Reg::Rbx, Mem::base_index(Reg::Rsi, Reg::Rdi, 8, 0)))
                    .inst(Inst::Load(Reg::Rcx, Mem::abs(0x400000)))
                    .inst(Inst::Ret);
            },
            &[Reg::Rdi],
        );
        let b = cfg.entry();
        assert!(d.before(b, 1).contains(Reg::Rbx), "lookup keyed on input is derived");
        assert!(!d.before(b, 2).contains(Reg::Rcx), "constant-address load is not derived");
    }

    #[test]
    fn merge_over_branches_is_a_union() {
        let (cfg, d) = analyze(
            |a| {
                let els = a.new_label();
                let join = a.new_label();
                a.inst(Inst::CmpI(Reg::Rdi, 0));
                a.jcc(Cond::Ne, els);
                a.inst(Inst::MovRR(Reg::Rbx, Reg::Rdi));
                a.jmp(join);
                a.bind(els);
                a.inst(Inst::MovRI(Reg::Rbx, 7));
                a.bind(join);
                a.inst(Inst::MovRR(Reg::Rax, Reg::Rbx));
                a.inst(Inst::Ret);
            },
            &[Reg::Rdi],
        );
        // At the join block, rbx may be derived (one incoming path), so the
        // union keeps it derived.
        let join = cfg
            .blocks
            .iter()
            .find(|b| matches!(b.insts.first(), Some((_, Inst::MovRR(Reg::Rax, Reg::Rbx)))))
            .unwrap();
        assert!(d.at_entry[join.id.0].contains(Reg::Rbx));
    }

    #[test]
    fn call_taints_return_value_when_arguments_are_tainted() {
        let (cfg, d) = analyze(
            |a| {
                a.call_sym("f").inst(Inst::MovRR(Reg::Rbx, Reg::Rax)).inst(Inst::Ret);
            },
            &[Reg::Rdi],
        );
        let b = cfg.entry();
        assert!(d.before(b, 1).contains(Reg::Rax));
        let (cfg2, d2) = analyze(
            |a| {
                a.inst(Inst::MovRI(Reg::Rdi, 1));
                for r in Reg::ARGS.iter().skip(1) {
                    a.inst(Inst::MovRI(*r, 0));
                }
                a.call_sym("f").inst(Inst::MovRR(Reg::Rbx, Reg::Rax)).inst(Inst::Ret);
            },
            &[Reg::Rdi],
        );
        let b2 = cfg2.entry();
        let call_idx = cfg2.block(b2).insts.len() - 2;
        assert!(!d2.before(b2, call_idx).contains(Reg::Rdi), "constant argument not derived");
    }
}

//! Register and flag liveness analysis.
//!
//! A backward dataflow analysis over the reconstructed CFG. The ROP rewriter
//! uses its results in three places, mirroring §IV-B of the paper:
//!
//! * roplets are annotated with the registers live *after* the original
//!   instruction, so the register allocator knows which registers are free
//!   as scratch and which must be preserved;
//! * the flags-liveness component identifies the few program points where a
//!   later instruction may read the condition flags, so the rewriter spills
//!   and restores the status register only when gadget-induced pollution
//!   would actually be observable;
//! * P3 pairs a *dead* register with an input-derived one when building its
//!   opaque recomputations.
//!
//! A direct call reads only the argument registers its callee reads, as
//! worked out over the image's call graph by [`ArgSummary::cover`]. Calls
//! the summary cannot see into read all six, so an empty summary is the
//! conservative ABI model.

use crate::cfg::{self, BlockId, Cfg, CfgError, Terminator};
use raindrop_machine::{encoded_len, Image, Inst, Reg, RegSet};
use std::collections::BTreeMap;

/// The argument registers functions of an image read on entry
/// (`live_in[entry] ∩` [`Reg::ARGS`]), keyed by entry address and filled in
/// by [`cover`](ArgSummary::cover).
///
/// A call target the summary holds no entry for reads all six argument
/// registers, so the empty summary is the conservative ABI model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArgSummary {
    reads: BTreeMap<u64, RegSet>,
}

impl ArgSummary {
    /// Adds `name` and every function it reaches through direct calls that
    /// the summary does not hold yet, and returns the CFG of `name`.
    ///
    /// The added functions start at ∅ and their entry liveness is
    /// recomputed until nothing changes, so a zero-argument wrapper around a
    /// zero-argument callee reads nothing. A function reads all six when
    /// `replaced(name)` holds (its body, e.g. a ROP pivot stub, no longer
    /// shows what it reads) or when its CFG does not reconstruct (as for a
    /// tail jump through a register). Cover a function before its body is
    /// replaced.
    ///
    /// # Errors
    ///
    /// Fails when the CFG of `name` does not reconstruct.
    pub fn cover(
        &mut self,
        image: &Image,
        name: &str,
        replaced: impl Fn(&str) -> bool,
    ) -> Result<Cfg, CfgError> {
        let root = cfg::reconstruct(image, name)?;
        let all = RegSet::from_regs(Reg::ARGS);
        let mut added: Vec<Cfg> = Vec::new();
        let mut next = vec![root.entry_addr];
        while let Some(addr) = next.pop() {
            if self.reads.contains_key(&addr) {
                continue;
            }
            let graph = match image.functions.iter().find(|f| f.addr == addr) {
                Some(f) if replaced(&f.name) => None,
                Some(f) if f.name == name => Some(root.clone()),
                Some(f) => cfg::reconstruct(image, &f.name).ok(),
                None => None,
            };
            let Some(graph) = graph else {
                self.reads.insert(addr, all);
                continue;
            };
            self.reads.insert(addr, RegSet::EMPTY);
            for (at, inst) in graph.blocks.iter().flat_map(|b| &b.insts) {
                next.extend(call_target(*at, inst));
            }
            added.push(graph);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for g in &added {
                let reads = analyze(g, self).live_in[g.entry().0].intersection(all);
                if self.reads.insert(g.entry_addr, reads) != Some(reads) {
                    changed = true;
                }
            }
        }
        Ok(root)
    }

    /// Argument registers a call to `target` reads.
    pub fn reads(&self, target: u64) -> RegSet {
        self.reads.get(&target).copied().unwrap_or(RegSet::from_regs(Reg::ARGS))
    }

    /// Argument registers the call instruction `inst` at `addr` reads (all
    /// six for `call reg`).
    pub fn call_reads(&self, addr: u64, inst: &Inst) -> RegSet {
        call_target(addr, inst).map_or(RegSet::from_regs(Reg::ARGS), |t| self.reads(t))
    }
}

/// Target of the direct call `inst` at `addr`.
fn call_target(addr: u64, inst: &Inst) -> Option<u64> {
    match *inst {
        Inst::Call(rel) => {
            let next = addr + encoded_len(inst) as u64;
            Some(next.wrapping_add(rel as i64 as u64))
        }
        _ => None,
    }
}

/// Per-instruction liveness facts for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct Liveness {
    /// `live_in[b]` — registers live on entry to block `b`.
    pub live_in: Vec<RegSet>,
    /// `live_out[b]` — registers live on exit from block `b`.
    pub live_out: Vec<RegSet>,
    /// `live_after[b][i]` — registers live immediately after instruction `i`
    /// of block `b`.
    pub live_after: Vec<Vec<RegSet>>,
    /// `flags_live_after[b][i]` — whether the condition flags are live
    /// immediately after instruction `i` of block `b`.
    pub flags_live_after: Vec<Vec<bool>>,
}

/// Register use/def sets of one instruction, with calls modeled by the ABI:
/// a call reads `call_args` (the argument registers its target reads, see
/// [`ArgSummary::call_reads`]) and clobbers the caller-saved set.
pub fn use_def(inst: &Inst, call_args: RegSet) -> (RegSet, RegSet) {
    if inst.is_call() {
        let mut uses = call_args;
        uses.insert(Reg::Rsp);
        if let Inst::CallReg(r) = inst {
            uses.insert(*r);
        }
        let mut defs = RegSet::from_regs(Reg::CALLER_SAVED);
        defs.insert(Reg::Rsp);
        (uses, defs)
    } else {
        (inst.regs_read(), inst.regs_written())
    }
}

/// Registers considered live at every function exit: the return value, the
/// stack/frame pointers and the callee-saved set the caller expects back.
pub fn exit_live_set() -> RegSet {
    let mut s = RegSet::from_regs(Reg::CALLEE_SAVED);
    s.insert(Reg::Rax);
    s.insert(Reg::Rsp);
    s
}

/// Computes register and flags liveness for `cfg`, with each direct call
/// reading the argument registers `args` records for its target.
pub fn analyze(cfg: &Cfg, args: &ArgSummary) -> Liveness {
    let n = cfg.blocks.len();

    // Per-block use/def summaries.
    let mut block_use = vec![RegSet::new(); n];
    let mut block_def = vec![RegSet::new(); n];
    for b in &cfg.blocks {
        let mut used = RegSet::new();
        let mut defined = RegSet::new();
        for (addr, inst) in &b.insts {
            let (u, d) = use_def(inst, args.call_reads(*addr, inst));
            used = used.union(u.difference(defined));
            defined = defined.union(d);
        }
        block_use[b.id.0] = used;
        block_def[b.id.0] = defined;
    }

    let mut live_in = vec![RegSet::new(); n];
    let mut live_out = vec![RegSet::new(); n];

    // Iterate to a fixed point (reverse iteration order converges quickly on
    // reducible CFGs; correctness does not depend on the order).
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.blocks.iter().rev() {
            let mut out = RegSet::new();
            match &b.term {
                Terminator::Return => out = exit_live_set(),
                t => {
                    for s in t.successors() {
                        out = out.union(live_in[s.0]);
                    }
                }
            }
            let inn = block_use[b.id.0].union(out.difference(block_def[b.id.0]));
            if out != live_out[b.id.0] || inn != live_in[b.id.0] {
                live_out[b.id.0] = out;
                live_in[b.id.0] = inn;
                changed = true;
            }
        }
    }

    // Per-instruction liveness within each block, walking backwards from the
    // block's live-out set. Flags: live at block exit iff some successor's
    // first flag-reading instruction precedes any flag write; computed with
    // the same backward fixpoint at block granularity first.
    let mut flags_in = vec![false; n];
    let mut flags_out = vec![false; n];
    let mut block_flags_use = vec![false; n];
    let mut block_flags_def = vec![false; n];
    for b in &cfg.blocks {
        let mut used = false;
        let mut defined = false;
        for (_, inst) in &b.insts {
            if inst.reads_flags() && !defined {
                used = true;
            }
            if inst.writes_flags() || inst.is_call() {
                defined = true;
            }
        }
        block_flags_use[b.id.0] = used;
        block_flags_def[b.id.0] = defined;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.blocks.iter().rev() {
            let out = match &b.term {
                Terminator::Return => false,
                t => t.successors().iter().any(|s| flags_in[s.0]),
            };
            let inn = block_flags_use[b.id.0] || (out && !block_flags_def[b.id.0]);
            if out != flags_out[b.id.0] || inn != flags_in[b.id.0] {
                flags_out[b.id.0] = out;
                flags_in[b.id.0] = inn;
                changed = true;
            }
        }
    }

    let mut live_after = Vec::with_capacity(n);
    let mut flags_live_after = Vec::with_capacity(n);
    for b in &cfg.blocks {
        let mut regs_after = vec![RegSet::new(); b.insts.len()];
        let mut flags_after = vec![false; b.insts.len()];
        let mut live = live_out[b.id.0];
        let mut fl = flags_out[b.id.0];
        for (i, (addr, inst)) in b.insts.iter().enumerate().rev() {
            regs_after[i] = live;
            flags_after[i] = fl;
            let (u, d) = use_def(inst, args.call_reads(*addr, inst));
            live = u.union(live.difference(d));
            if inst.writes_flags() || inst.is_call() {
                fl = false;
            }
            if inst.reads_flags() {
                fl = true;
            }
        }
        live_after.push(regs_after);
        flags_live_after.push(flags_after);
    }

    Liveness { live_in, live_out, live_after, flags_live_after }
}

impl Liveness {
    /// Registers live after instruction `i` of block `b`.
    pub fn after(&self, b: BlockId, i: usize) -> RegSet {
        self.live_after[b.0][i]
    }

    /// Whether the flags are live after instruction `i` of block `b`.
    pub fn flags_after(&self, b: BlockId, i: usize) -> bool {
        self.flags_live_after[b.0][i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Reg};

    fn analyze_asm(build: impl FnOnce(&mut Assembler)) -> (Cfg, Liveness) {
        let mut a = Assembler::new();
        build(&mut a);
        let mut b = ImageBuilder::new();
        b.add_function("f", a);
        let img = b.build().unwrap();
        let cfg = cfg::reconstruct(&img, "f").unwrap();
        let live = analyze(&cfg, &ArgSummary::default());
        (cfg, live)
    }

    #[test]
    fn straight_line_liveness() {
        // rax = rdi; rbx unused afterwards.
        let (cfg, live) = analyze_asm(|a| {
            a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
                .inst(Inst::MovRR(Reg::Rcx, Reg::Rax))
                .inst(Inst::MovRR(Reg::Rax, Reg::Rcx))
                .inst(Inst::Ret);
        });
        let b = cfg.entry();
        // rdi is live on entry, dead after the first instruction.
        assert!(live.live_in[b.0].contains(Reg::Rdi));
        assert!(!live.after(b, 0).contains(Reg::Rdi));
        // rcx is live after inst 1 (read by inst 2).
        assert!(live.after(b, 1).contains(Reg::Rcx));
        // rax is live at exit (return value).
        assert!(live.after(b, 3).contains(Reg::Rax));
        // r10 is dead everywhere.
        assert!(!live.after(b, 0).contains(Reg::R10));
    }

    #[test]
    fn branch_merges_liveness_from_both_successors() {
        let (cfg, live) = analyze_asm(|a| {
            let els = a.new_label();
            let join = a.new_label();
            a.inst(Inst::CmpI(Reg::Rdi, 0));
            a.jcc(Cond::Ne, els);
            a.inst(Inst::MovRR(Reg::Rax, Reg::Rsi)); // uses rsi on one path
            a.jmp(join);
            a.bind(els);
            a.inst(Inst::MovRR(Reg::Rax, Reg::Rdx)); // uses rdx on the other
            a.bind(join);
            a.inst(Inst::Ret);
        });
        let entry = cfg.entry();
        assert!(live.live_in[entry.0].contains(Reg::Rsi));
        assert!(live.live_in[entry.0].contains(Reg::Rdx));
        assert!(live.live_in[entry.0].contains(Reg::Rdi));
    }

    #[test]
    fn flags_liveness_spans_interleaved_instructions() {
        // cmp sets the flags; the mov in between must not report flags dead.
        let (cfg, live) = analyze_asm(|a| {
            let l = a.new_label();
            a.inst(Inst::CmpI(Reg::Rdi, 5));
            a.inst(Inst::MovRR(Reg::Rcx, Reg::Rsi));
            a.jcc(Cond::E, l);
            a.inst(Inst::MovRI(Reg::Rax, 0));
            a.bind(l);
            a.inst(Inst::Ret);
        });
        let b = cfg.entry();
        assert!(live.flags_after(b, 0), "flags live after cmp");
        assert!(live.flags_after(b, 1), "flags live across the mov");
        assert!(!live.flags_after(b, 2), "flags dead after the branch");
    }

    #[test]
    fn call_clobbers_caller_saved_registers() {
        let (cfg, live) = analyze_asm(|a| {
            a.inst(Inst::MovRI(Reg::R10, 1));
            a.call_sym("f") // self-call suffices for the ABI model
                .inst(Inst::MovRR(Reg::Rax, Reg::Rbx))
                .inst(Inst::Ret);
        });
        let b = cfg.entry();
        // r10 written before the call is not live across it (clobbered).
        assert!(!live.after(b, 1).contains(Reg::R10));
        // rbx (callee-saved) read after the call is live before it.
        assert!(live.live_in[b.0].contains(Reg::Rbx));
        // Without a summary, argument registers are live right before a call.
        let (uses, defs) =
            use_def(&Inst::Call(0), ArgSummary::default().call_reads(0, &Inst::Call(0)));
        assert!(uses.contains(Reg::Rdi));
        assert!(defs.contains(Reg::R11));
        assert!(!defs.contains(Reg::Rbx));
    }

    #[test]
    fn loop_keeps_induction_variable_live() {
        let (cfg, live) = analyze_asm(|a| {
            let top = a.new_label();
            let done = a.new_label();
            a.inst(Inst::MovRI(Reg::Rax, 0));
            a.bind(top);
            a.inst(Inst::CmpI(Reg::Rdi, 0));
            a.jcc(Cond::E, done);
            a.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rdi));
            a.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
            a.jmp(top);
            a.bind(done);
            a.inst(Inst::Ret);
        });
        // rdi must be live at the loop header (read by cmp and body).
        let header = cfg
            .blocks
            .iter()
            .find(|b| matches!(b.insts.first(), Some((_, Inst::CmpI(Reg::Rdi, 0)))))
            .unwrap();
        assert!(live.live_in[header.id.0].contains(Reg::Rdi));
        assert!(live.live_in[header.id.0].contains(Reg::Rax));
    }

    type Build = fn(&mut Assembler);

    /// Builds an image of `funcs`, covers each in turn and returns what each
    /// one reads.
    fn reads_of(funcs: &[(&str, Build)], replaced: &[&str]) -> Vec<RegSet> {
        let mut b = ImageBuilder::new();
        for (name, build) in funcs {
            let mut a = Assembler::new();
            build(&mut a);
            b.add_function(*name, a);
        }
        let img = b.build().unwrap();
        let mut summary = ArgSummary::default();
        for (name, _) in funcs {
            let _ = summary.cover(&img, name, |name| replaced.contains(&name));
        }
        funcs.iter().map(|(name, _)| summary.reads(img.function(name).unwrap().addr)).collect()
    }

    #[test]
    fn zero_argument_callees_and_recursion_reach_a_fixpoint() {
        let reads = reads_of(
            &[
                ("adds_rsi", |a| {
                    a.inst(Inst::MovRR(Reg::Rax, Reg::Rsi)).call_sym("wrapper").inst(Inst::Ret);
                }),
                // `wrapper` reads what `inner`, later in function order, reads.
                ("wrapper", |a| {
                    a.call_sym("inner").inst(Inst::Ret);
                }),
                ("inner", |a| {
                    a.inst(Inst::MovRI(Reg::Rax, 7)).inst(Inst::Ret);
                }),
                ("rec", |a| {
                    let done = a.new_label();
                    a.inst(Inst::CmpI(Reg::Rdi, 0)).jcc(Cond::E, done);
                    a.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1)).call_sym("rec").bind(done);
                    a.inst(Inst::Ret);
                }),
            ],
            &[],
        );
        let rsi = RegSet::from_regs([Reg::Rsi]);
        assert_eq!(reads, [rsi, RegSet::EMPTY, RegSet::EMPTY, RegSet::from_regs([Reg::Rdi])]);
    }

    #[test]
    fn unseen_callees_read_every_argument_register() {
        let reads = reads_of(
            &[
                // Replaced by a pivot stub, and a caller of it.
                ("wrapper", |a| {
                    a.call_sym("inner").inst(Inst::Ret);
                }),
                ("inner", |a| {
                    a.inst(Inst::MovRI(Reg::Rax, 7)).inst(Inst::Ret);
                }),
                ("indirect", |a| {
                    a.inst(Inst::CallReg(Reg::R11)).inst(Inst::Ret);
                }),
                // A tail jump through a register: no CFG, so no summary.
                ("tail", |a| {
                    a.inst(Inst::JmpReg(Reg::R11));
                }),
                ("calls_tail", |a| {
                    a.call_sym("tail").inst(Inst::Ret);
                }),
            ],
            &["inner"],
        );
        let all = RegSet::from_regs(Reg::ARGS);
        assert_eq!(reads, [all; 5]);
        let empty = ArgSummary::default();
        assert_eq!(empty.call_reads(0, &Inst::CallReg(Reg::R11)), all);
        assert_eq!(empty.reads(0xdead), all);
    }
}

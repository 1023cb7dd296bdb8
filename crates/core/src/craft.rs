//! Chain crafting: lowering roplets to gadgets (§IV-B2) and weaving in the
//! strengthening predicates of §V.
//!
//! The crafter walks the reconstructed CFG block by block, translating every
//! original instruction into a short gadget sequence drawn from the
//! [`GadgetCatalog`], preserving the original register choices whenever
//! possible and drawing scratch registers from the dead set reported by the
//! liveness analysis. Branch terminators become variable RSP additions —
//! protected by P1 when enabled — and equality branches additionally receive
//! the P2 opaque adjustments on their outgoing paths. P3 instances are
//! inserted at a configurable fraction of eligible program points.

use crate::chain::{Chain, ChainItem, DeltaTarget, SwitchPatch};
use crate::config::{P3Variant, RopConfig};
use crate::error::RewriteError;
use crate::predicates::{P1Instance, P2Adjust, P2Operand, P3Policy};
use crate::roplet::{classify, RopletKind};
use crate::runtime::RopRuntime;
use raindrop_analysis::{ArgSummary, BlockId, Cfg, InputDerived, Liveness, Terminator};
use raindrop_gadgets::{GadgetCatalog, GadgetOp};
use raindrop_machine::{AluOp, Cond, Image, Inst, Mem, Reg, RegSet};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Per-function crafting statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CraftStats {
    /// Original instructions translated (program points, column N of
    /// Table III).
    pub program_points: u64,
    /// P3 instances inserted.
    pub p3_sites: u64,
    /// P2 adjustments inserted.
    pub p2_sites: u64,
    /// Gadget-confusion insertions (disguised immediates + unaligned skips).
    pub confusion_sites: u64,
    /// Gadget-address slots emitted into the chain.
    pub gadget_slots: u64,
    /// Conditional/unconditional branch sites encoded.
    pub branch_sites: u64,
}

/// Scratch-register allocation order: caller-saved first, so the original
/// program's long-lived values (usually in callee-saved registers) are
/// disturbed as rarely as possible.
const SCRATCH_ORDER: [Reg; 15] = [
    Reg::R10,
    Reg::R11,
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::Rbx,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
    Reg::Rbp,
];

/// The chain crafter for a single function.
pub struct Crafter<'a> {
    image: &'a mut Image,
    catalog: &'a mut GadgetCatalog,
    runtime: &'a RopRuntime,
    config: &'a RopConfig,
    cfg: &'a Cfg,
    liveness: &'a Liveness,
    derived: &'a InputDerived,
    args: &'a ArgSummary,
    rng: ChaCha8Rng,
    chain: Chain,
    stats: CraftStats,
    p1: Option<P1Instance>,
    p2_plan: HashMap<BlockId, P2Adjust>,
    /// Registers a branch block's lowering must not clobber because the P2
    /// adjustments planned for its successors re-read them (the comparison
    /// operands are usually dead by liveness, but P2 extends their life).
    p2_protect: HashMap<BlockId, RegSet>,
    branch_counter: usize,
    /// Flags-preservation requirement of the instruction currently lowered.
    preserve_flags: bool,
    /// Scratch registers holding live temporaries of the lowering currently
    /// in progress; gadget requests must not clobber them.
    scratch_in_use: RegSet,
    /// Address of the original instruction currently lowered, reported by
    /// [`RewriteError::RegisterPressure`].
    site: u64,
}

impl<'a> Crafter<'a> {
    /// Creates a crafter for one function.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        image: &'a mut Image,
        catalog: &'a mut GadgetCatalog,
        runtime: &'a RopRuntime,
        config: &'a RopConfig,
        cfg: &'a Cfg,
        liveness: &'a Liveness,
        derived: &'a InputDerived,
        args: &'a ArgSummary,
        seed: u64,
    ) -> Crafter<'a> {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p1 = config.p1.map(|p1cfg| {
            let mut inst = P1Instance::generate(p1cfg, &mut rng);
            let name = format!("__rop_p1_{}", cfg.name);
            inst.array_addr = image.append_data(Some(&name), &inst.array_bytes());
            inst
        });
        Crafter {
            image,
            catalog,
            runtime,
            config,
            cfg,
            liveness,
            derived,
            args,
            rng,
            chain: Chain::new(),
            stats: CraftStats::default(),
            p1,
            p2_plan: HashMap::new(),
            p2_protect: HashMap::new(),
            branch_counter: 0,
            preserve_flags: false,
            scratch_in_use: RegSet::new(),
            site: cfg.entry_addr,
        }
    }

    /// Runs the crafting pipeline and returns the symbolic chain.
    ///
    /// # Errors
    ///
    /// Returns a [`RewriteError`] when an instruction cannot be lowered
    /// (unsupported shape, register pressure, flag conflicts).
    pub fn craft(mut self) -> Result<(Chain, CraftStats, Option<P1Instance>), RewriteError> {
        if self.config.p2 {
            self.plan_p2();
        }
        for pos in 0..self.cfg.blocks.len() {
            self.emit_block(pos)?;
        }
        self.stats.gadget_slots = self.chain.gadget_slots() as u64;
        Ok((self.chain, self.stats, self.p1))
    }

    // ----------------------------------------------------------------- P2

    /// Pre-computes the P2 adjustment to place at the entry of branch
    /// successors. Only equality branches whose successor has a single
    /// predecessor are eligible (otherwise other incoming paths would be
    /// broken).
    fn plan_p2(&mut self) {
        let preds = self.cfg.predecessors();
        for b in &self.cfg.blocks {
            let Terminator::Branch { taken, fallthrough } = b.term else { continue };
            if preds[taken.0].len() != 1 || preds[fallthrough.0].len() != 1 {
                continue;
            }
            let n = b.insts.len();
            if n < 2 {
                continue;
            }
            let Some((_, Inst::Jcc(cond, _))) = b.insts.last() else { continue };
            let (lhs, rhs) = match b.insts[n - 2].1 {
                Inst::Cmp(a, bb) => (a, P2Operand::Reg(bb)),
                Inst::CmpI(a, i) => (a, P2Operand::Imm(i as i64)),
                _ => continue,
            };
            if let Some((adj_taken, adj_fall)) =
                P2Adjust::for_branch(*cond, lhs, rhs, &mut self.rng)
            {
                self.p2_plan.insert(taken, adj_taken);
                self.p2_plan.insert(fallthrough, adj_fall);
                let mut protect = RegSet::from_regs([lhs]);
                if let P2Operand::Reg(r) = rhs {
                    protect.insert(r);
                }
                self.p2_protect.insert(b.id, protect);
            }
        }
    }

    // --------------------------------------------------------- emission core

    fn gadget(&mut self, op: GadgetOp, avoid: RegSet, preserve_flags: bool) -> usize {
        let reads_flags = matches!(op, GadgetOp::Cmov(..) | GadgetOp::Set(..))
            || matches!(op, GadgetOp::Alu(o, _, _) | GadgetOp::AluLoad(o, _, _) | GadgetOp::AluStore(o, _, _) if o.reads_carry());
        let pf = preserve_flags || reads_flags;
        let avoid = avoid.union(self.scratch_in_use);
        let g = self.catalog.request(self.image, op, avoid, pf, &mut self.rng);
        let (addr, junk_pops) = (g.addr, g.junk_pops.len());
        let idx = self.chain.items.len();
        self.chain.items.push(ChainItem::Gadget { addr, junk_pops, op });
        for _ in 0..junk_pops {
            let junk = self.rng.gen::<u32>() as u64;
            self.chain.items.push(ChainItem::Imm(junk));
        }
        idx
    }

    /// Emits `pop reg, value`, optionally disguising the immediate as a pair
    /// of gadget-address-looking values recombined at run time (§V-D).
    fn pop_value(&mut self, reg: Reg, value: u64, avoid: RegSet) {
        let avoid = avoid.union(self.scratch_in_use);
        let pf = self.preserve_flags;
        let can_disguise = self.config.gadget_confusion
            && !pf
            && !self.catalog.gadgets().is_empty()
            && self.rng.gen_bool(0.4);
        if can_disguise {
            let mut avoid2 = avoid;
            avoid2.insert(reg);
            if let Ok([t]) = self.pick_scratch(avoid2) {
                let pool = self.catalog.gadgets();
                let cover = pool[self.rng.gen_range(0..pool.len())].addr;
                // reg = cover; t = cover - value; reg -= t  → reg = value.
                self.gadget(GadgetOp::Pop(reg), avoid, pf);
                self.chain.items.push(ChainItem::Imm(cover));
                self.gadget(GadgetOp::Pop(t), avoid, pf);
                self.chain.items.push(ChainItem::Imm(cover.wrapping_sub(value)));
                self.gadget(GadgetOp::Alu(AluOp::Sub, reg, t), avoid, pf);
                self.stats.confusion_sites += 1;
                return;
            }
        }
        self.gadget(GadgetOp::Pop(reg), avoid, pf);
        self.chain.items.push(ChainItem::Imm(value));
    }

    /// Emits `pop reg, <branch delta>` returning the index of the delta item
    /// so its anchor can be patched once the RSP-adding gadget is emitted.
    fn pop_delta(&mut self, reg: Reg, target: DeltaTarget, bias: i64, avoid: RegSet) -> usize {
        let pf = self.preserve_flags;
        self.gadget(GadgetOp::Pop(reg), avoid, pf);
        let idx = self.chain.items.len();
        self.chain.items.push(ChainItem::BranchDelta { target, anchor: usize::MAX, bias });
        idx
    }

    fn set_anchor(&mut self, delta_idx: usize, anchor_idx: usize) {
        if let ChainItem::BranchDelta { anchor, .. } = &mut self.chain.items[delta_idx] {
            *anchor = anchor_idx;
        }
    }

    /// Takes the first `N` scratch registers outside `protected` and the
    /// ones already in use, in [`SCRATCH_ORDER`], and marks them in use.
    fn pick_scratch<const N: usize>(
        &mut self,
        protected: RegSet,
    ) -> Result<[Reg; N], RewriteError> {
        let blocked = protected.union(self.scratch_in_use);
        let mut free = SCRATCH_ORDER.iter().copied().filter(|r| !blocked.contains(*r));
        let mut picked = [Reg::Rax; N];
        for slot in &mut picked {
            *slot = free.next().ok_or(RewriteError::RegisterPressure { addr: self.site })?;
        }
        for r in picked {
            self.scratch_in_use.insert(r);
        }
        Ok(picked)
    }

    fn release_scratch(&mut self) {
        self.scratch_in_use = RegSet::new();
    }

    /// Loads the address of the current `other_rsp` slot (`ss + *ss`) into
    /// `dest`.
    fn emit_other_rsp_ptr(&mut self, dest: Reg, avoid: RegSet) {
        self.pop_value(dest, self.runtime.ss_addr, avoid);
        self.gadget(GadgetOp::AluLoad(AluOp::Add, dest, dest), avoid, self.preserve_flags);
    }

    /// Loads the current `other_rsp` *value* into `dest`.
    fn emit_other_rsp_value(&mut self, dest: Reg, avoid: RegSet) {
        self.emit_other_rsp_ptr(dest, avoid);
        self.gadget(GadgetOp::Load(dest, dest), avoid, self.preserve_flags);
    }

    /// Materializes the effective address of `mem` into `dest`. The address
    /// may involve the original stack pointer, which is redirected through
    /// `other_rsp` (§IV-B1: stack pointer reference roplets).
    fn emit_address(
        &mut self,
        mem: Mem,
        dest: Reg,
        avoid: RegSet,
        addr: u64,
    ) -> Result<(), RewriteError> {
        let uses_sp = mem.uses_sp();
        if uses_sp && mem.index == Some(Reg::Rsp) {
            return Err(RewriteError::UnsupportedInstruction {
                addr,
                inst: format!("address with RSP index {mem}"),
            });
        }
        let mut disp_pending = mem.disp != 0;
        if uses_sp {
            // dest = other_rsp (+ index*scale) + disp
            self.emit_other_rsp_value(dest, avoid);
        } else if let Some(base) = mem.base {
            if base != dest {
                self.gadget(GadgetOp::MovRR(dest, base), avoid, self.preserve_flags);
            }
        } else {
            // Absolute addressing: the displacement is the address.
            self.pop_value(dest, mem.disp as i64 as u64, avoid);
            disp_pending = false;
        }
        if let Some(index) = mem.index {
            if index == Reg::Rsp {
                unreachable!("checked above");
            }
            let mut avoid2 = avoid;
            avoid2.insert(dest);
            let [t] = self.pick_scratch(avoid2)?;
            self.gadget(GadgetOp::MovRR(t, index), avoid2, self.preserve_flags);
            if mem.scale > 1 {
                let shift = mem.scale.trailing_zeros() as u8;
                self.gadget(GadgetOp::ShlImm(t, shift), avoid2, self.preserve_flags);
            }
            self.gadget(GadgetOp::Alu(AluOp::Add, dest, t), avoid2, self.preserve_flags);
        }
        if disp_pending {
            let mut avoid2 = avoid;
            avoid2.insert(dest);
            let [t] = self.pick_scratch(avoid2)?;
            self.pop_value(t, mem.disp as i64 as u64, avoid2);
            self.gadget(GadgetOp::Alu(AluOp::Add, dest, t), avoid2, self.preserve_flags);
        }
        Ok(())
    }

    // -------------------------------------------------------------- blocks

    fn emit_block(&mut self, pos: usize) -> Result<(), RewriteError> {
        let cfg = self.cfg;
        let block = &cfg.blocks[pos];
        let id = block.id;
        self.chain.items.push(ChainItem::BlockStart(id));
        self.site = block.start;

        // P2 adjustment at block entry, when planned.
        if let Some(adj) = self.p2_plan.get(&id).copied() {
            let avoid = self.liveness.live_in[id.0];
            if self.emit_p2(adj, avoid).is_ok() {
                self.stats.p2_sites += 1;
            }
        }

        let n = block.insts.len();
        for (i, (addr, inst)) in block.insts.iter().enumerate() {
            self.site = *addr;
            let is_term = inst.is_terminator();
            if is_term && i == n - 1 && !matches!(inst, Inst::Ret) {
                // Jmp / Jcc / JmpMem terminators are handled below with the
                // block terminator; Ret is an epilogue roplet handled here.
                break;
            }
            self.preserve_flags = if i == 0 { false } else { self.liveness.flags_after(id, i - 1) };

            // P3 at a fraction of eligible program points.
            let policy = P3Policy { fraction: self.config.p3_fraction };
            if !self.preserve_flags && policy.select(&mut self.rng) {
                let live_before = if i == 0 {
                    self.liveness.live_in[id.0]
                } else {
                    self.liveness.after(id, i - 1)
                };
                let derived_before = self.derived.before(id, i);
                if self.emit_p3(live_before, derived_before).unwrap_or(false) {
                    self.stats.p3_sites += 1;
                }
            }

            // Gadget confusion: occasional unaligned RSP skips.
            if self.config.gadget_confusion && !self.preserve_flags && self.rng.gen_bool(0.05) {
                let avoid = if i == 0 {
                    self.liveness.live_in[id.0]
                } else {
                    self.liveness.after(id, i - 1)
                };
                if self.emit_unaligned_skip(avoid).is_ok() {
                    self.stats.confusion_sites += 1;
                }
            }

            self.translate(id, i, *addr, inst)?;
            self.stats.program_points += 1;
        }

        // Terminator.
        let next_block = cfg.blocks.get(pos + 1).map(|b| b.id);
        let live_out = self.liveness.live_out[id.0];
        match block.term {
            Terminator::Return => { /* handled by the Ret epilogue lowering */ }
            Terminator::FallThrough(target) => {
                if Some(target) != next_block {
                    self.emit_branch(None, target, live_out, id)?;
                }
            }
            Terminator::Jump(target) => {
                self.emit_branch(None, target, live_out, id)?;
            }
            Terminator::Branch { taken, fallthrough } => {
                let last = block.insts.last().expect("branch block has a terminator instruction");
                let Inst::Jcc(cond, _) = last.1 else {
                    return Err(RewriteError::UnsupportedInstruction {
                        addr: last.0,
                        inst: format!("{}", last.1),
                    });
                };
                // Keep the comparison operands intact when the successors
                // carry P2 adjustments that re-read them.
                let live_out =
                    live_out.union(self.p2_protect.get(&id).copied().unwrap_or(RegSet::EMPTY));
                self.preserve_flags = true;
                self.emit_branch(Some(cond), taken, live_out, id)?;
                self.stats.program_points += 1;
                self.preserve_flags = false;
                if Some(fallthrough) != next_block {
                    self.emit_branch(None, fallthrough, live_out, id)?;
                }
            }
            Terminator::Switch { ref targets, .. } => {
                let last = block.insts.last().expect("switch block has a terminator instruction");
                let Inst::JmpMem(mem) = last.1 else {
                    return Err(RewriteError::UnsupportedInstruction {
                        addr: last.0,
                        inst: format!("{}", last.1),
                    });
                };
                self.preserve_flags = false;
                self.emit_switch(last.0, mem, targets, live_out)?;
                self.stats.program_points += 1;
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- terminators

    /// Emits a (conditional) intra-procedural transfer to `target`.
    ///
    /// Without P1 this is the `pop L; pop 0; cmov{ncc}; add rsp` scheme of
    /// §IV-B2; with P1 the displacement is composed at run time from the
    /// opaque-array share and the branch-specific remainder (§V-A), using a
    /// `set<cc>`/multiply combination so the flag read happens first.
    fn emit_branch(
        &mut self,
        cond: Option<Cond>,
        target: BlockId,
        live_out: RegSet,
        _from: BlockId,
    ) -> Result<(), RewriteError> {
        self.release_scratch();
        self.stats.branch_sites += 1;
        let branch_index = self.branch_counter;
        self.branch_counter += 1;

        // Copied out: the emission calls below need `self` mutably.
        let p1 = self.p1.as_ref().map(|p1| (p1.config, p1.array_addr, p1.share_for(branch_index)));
        match (p1, cond) {
            (None, None) => {
                // pop t, δ; add rsp, t
                let [t] = self.pick_scratch(live_out)?;
                let delta_idx = self.pop_delta(t, DeltaTarget::Block(target), 0, live_out);
                let anchor = self.gadget(GadgetOp::AddRsp(t), live_out, self.preserve_flags);
                self.set_anchor(delta_idx, anchor);
            }
            (None, Some(cc)) => {
                // pop t1, δ; pop t2, 0; cmov{ncc} t1, t2; add rsp, t1
                let [t1, t2] = self.pick_scratch(live_out)?;
                let delta_idx = self.pop_delta(t1, DeltaTarget::Block(target), 0, live_out);
                self.gadget(GadgetOp::Pop(t2), live_out, true);
                self.chain.items.push(ChainItem::Imm(0));
                self.gadget(GadgetOp::Cmov(cc.negate(), t1, t2), live_out, true);
                let anchor = self.gadget(GadgetOp::AddRsp(t1), live_out, true);
                self.set_anchor(delta_idx, anchor);
            }
            (Some((p1_config, array_addr, (ordinal, share))), maybe_cc) => {
                let (t_cond, t1, t2) = if maybe_cc.is_some() {
                    let [tc, t1, t2] = self.pick_scratch(live_out)?;
                    (Some(tc), t1, t2)
                } else {
                    let [t1, t2] = self.pick_scratch(live_out)?;
                    (None, t1, t2)
                };
                // Consume the flags first so the P1 arithmetic below may
                // pollute them freely.
                if let (Some(cc), Some(tc)) = (maybe_cc, t_cond) {
                    self.gadget(GadgetOp::Set(cc, tc), live_out, true);
                }
                self.preserve_flags = false;
                // f(x): opaquely combine input-derived live registers.
                let mut derived = self
                    .derived
                    .at_entry
                    .get(_from.0)
                    .copied()
                    .unwrap_or(RegSet::EMPTY)
                    .intersection(live_out);
                for t in [Some(t1), Some(t2), t_cond].into_iter().flatten() {
                    derived.remove(t);
                }
                let mut derived_live = derived.iter();
                match derived_live.next() {
                    Some(r) => {
                        self.gadget(GadgetOp::MovRR(t1, r), live_out, false);
                        if let Some(r2) = derived_live.next() {
                            self.gadget(GadgetOp::Alu(AluOp::Xor, t1, r2), live_out, false);
                        }
                    }
                    None => {
                        let v = self.rng.gen::<u32>() as u64;
                        self.pop_value(t1, v, live_out);
                    }
                }
                // t1 = f(x) mod p  → period index.
                self.pop_value(t2, p1_config.p as u64, live_out);
                self.gadget(GadgetOp::Rem(t1, t2), live_out, false);
                // t1 = A + (f(x)*s + ordinal) * 8
                self.pop_value(t2, (p1_config.s * 8) as u64, live_out);
                self.gadget(GadgetOp::Mul(t1, t2), live_out, false);
                self.pop_value(t2, array_addr + (ordinal as u64) * 8, live_out);
                self.gadget(GadgetOp::Alu(AluOp::Add, t1, t2), live_out, false);
                self.gadget(GadgetOp::Load(t1, t1), live_out, false);
                // t1 = a  (the hidden share)
                self.pop_value(t2, p1_config.m, live_out);
                self.gadget(GadgetOp::Rem(t1, t2), live_out, false);
                // t2 = δ - a ; t1 = δ
                self.gadget(GadgetOp::Pop(t2), live_out, false);
                let delta_idx = self.chain.items.len();
                self.chain.items.push(ChainItem::BranchDelta {
                    target: DeltaTarget::Block(target),
                    anchor: usize::MAX,
                    bias: -(share as i64),
                });
                self.gadget(GadgetOp::Alu(AluOp::Add, t1, t2), live_out, false);
                // Conditional: multiply by the 0/1 condition value.
                if let Some(tc) = t_cond {
                    self.gadget(GadgetOp::Mul(t1, tc), live_out, false);
                }
                let anchor = self.gadget(GadgetOp::AddRsp(t1), live_out, false);
                self.set_anchor(delta_idx, anchor);
            }
        }
        Ok(())
    }

    /// Emits a switch-table dispatch (Appendix A): the original jump-table
    /// computation is reused, but the target locations in `.text` are
    /// patched to hold RSP displacements which the chain reads and adds.
    fn emit_switch(
        &mut self,
        addr: u64,
        mem: Mem,
        targets: &[BlockId],
        live_out: RegSet,
    ) -> Result<(), RewriteError> {
        self.release_scratch();
        self.stats.branch_sites += 1;
        let [t1] = self.pick_scratch(live_out.union(mem.regs()))?;
        // t1 = address of the jump-table slot = table + index*8 (+base).
        self.emit_address(mem, t1, live_out.union(mem.regs()), addr)?;
        // t1 = original case address (read from the table in .data).
        self.gadget(GadgetOp::Load(t1, t1), live_out, false);
        // t1 = displacement stored at the original case address.
        self.gadget(GadgetOp::Load(t1, t1), live_out, false);
        let anchor = self.gadget(GadgetOp::AddRsp(t1), live_out, false);

        // Record a patch for every distinct case address: the displacement
        // to that case's chain block will be written into .text at
        // materialization time.
        let mut seen = std::collections::BTreeSet::new();
        for target in targets {
            let case_addr = self.cfg.block(*target).start;
            if seen.insert(case_addr) {
                self.chain.switch_patches.push(SwitchPatch {
                    text_addr: case_addr,
                    target: DeltaTarget::Block(*target),
                    anchor,
                });
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- predicates

    fn emit_p2(&mut self, adj: P2Adjust, live: RegSet) -> Result<(), RewriteError> {
        self.release_scratch();
        match adj {
            P2Adjust::WhenEqual { lhs, rhs, x } => {
                let mut avoid = live;
                avoid.insert(lhs);
                if let P2Operand::Reg(r) = rhs {
                    avoid.insert(r);
                }
                let [t1, t2] = self.pick_scratch(avoid)?;
                // t1 = lhs - rhs; t1 *= x; rsp += t1 (zero on the honest path).
                self.gadget(GadgetOp::MovRR(t1, lhs), avoid, false);
                match rhs {
                    P2Operand::Reg(r) => {
                        self.gadget(GadgetOp::Alu(AluOp::Sub, t1, r), avoid, false);
                    }
                    P2Operand::Imm(i) => {
                        self.pop_value(t2, i as u64, avoid);
                        self.gadget(GadgetOp::Alu(AluOp::Sub, t1, t2), avoid, false);
                    }
                }
                self.pop_value(t2, x, avoid);
                self.gadget(GadgetOp::Mul(t1, t2), avoid, false);
                self.gadget(GadgetOp::AddRsp(t1), avoid, false);
            }
            P2Adjust::WhenNotEqual { lhs, rhs, x } => {
                let mut avoid = live;
                avoid.insert(lhs);
                if let P2Operand::Reg(r) = rhs {
                    avoid.insert(r);
                }
                let [t1, t2, t3] = self.pick_scratch(avoid)?;
                // t1 = lhs - rhs
                self.gadget(GadgetOp::MovRR(t1, lhs), avoid, false);
                match rhs {
                    P2Operand::Reg(r) => {
                        self.gadget(GadgetOp::Alu(AluOp::Sub, t1, r), avoid, false);
                    }
                    P2Operand::Imm(i) => {
                        self.pop_value(t2, i as u64, avoid);
                        self.gadget(GadgetOp::Alu(AluOp::Sub, t1, t2), avoid, false);
                    }
                }
                // t2 = notZero(t1) = (~(~t1 & (t1 + ~0)) >> 63) & 1, flag-free.
                self.gadget(GadgetOp::MovRR(t2, t1), avoid, false);
                self.gadget(GadgetOp::Not(t2), avoid, false);
                self.pop_value(t3, u64::MAX, avoid);
                self.gadget(GadgetOp::Alu(AluOp::Add, t1, t3), avoid, false);
                self.gadget(GadgetOp::Alu(AluOp::And, t2, t1), avoid, false);
                self.gadget(GadgetOp::Not(t2), avoid, false);
                self.gadget(GadgetOp::ShrImm(t2, 63), avoid, false);
                // t3 = x * (1 - notZero)
                self.pop_value(t3, 1, avoid);
                self.gadget(GadgetOp::Alu(AluOp::Sub, t3, t2), avoid, false);
                self.pop_value(t2, x, avoid);
                self.gadget(GadgetOp::Mul(t3, t2), avoid, false);
                self.gadget(GadgetOp::AddRsp(t3), avoid, false);
            }
        }
        Ok(())
    }

    /// Emits one P3 instance; returns `Ok(true)` when a site was actually
    /// instrumented (eligibility can fail when no input-derived live
    /// register or not enough dead registers are available).
    fn emit_p3(&mut self, live: RegSet, derived: RegSet) -> Result<bool, RewriteError> {
        self.release_scratch();
        let sym = match derived.intersection(live).iter().next() {
            Some(r) if r != Reg::Rsp => r,
            _ => return Ok(false),
        };
        let mut avoid = live;
        avoid.insert(sym);
        let variant = match self.config.p3_variant {
            P3Variant::ForLoop => 0,
            P3Variant::ArrayUpdate => 1,
            P3Variant::Mixed => self.rng.gen_range(0..2),
        };
        let p1 = self.p1.as_ref().map(|p1| (p1.config.m, p1.array_addr, p1.cells.len()));
        if let (1, Some((m, array_addr, cells))) = (variant, p1) {
            // Opaque array update: A[cell] += m * (sym & 7); the congruence
            // invariant every later branch relies on is preserved.
            let Ok([t1, t2]) = self.pick_scratch(avoid) else { return Ok(false) };
            self.gadget(GadgetOp::MovRR(t1, sym), avoid, false);
            self.pop_value(t2, 7, avoid);
            self.gadget(GadgetOp::Alu(AluOp::And, t1, t2), avoid, false);
            self.pop_value(t2, m, avoid);
            self.gadget(GadgetOp::Mul(t1, t2), avoid, false);
            let cell = self.rng.gen_range(0..cells);
            self.pop_value(t2, array_addr + (cell as u64) * 8, avoid);
            self.gadget(GadgetOp::AluStore(AluOp::Add, t2, t1), avoid, false);
            return Ok(true);
        }
        // FOR variant: dead = 0; t1 = (sym & 0xff) + 1;
        // do { dead += 1; t1 -= 1 } while t1 != 0;
        // dead -= 1; sym |= dead   (sym is unchanged, the loop is opaque).
        let Ok([dead, t1, t2, t3]) = self.pick_scratch(avoid) else { return Ok(false) };
        self.pop_value(dead, 0, avoid);
        self.gadget(GadgetOp::MovRR(t1, sym), avoid, false);
        self.pop_value(t2, 0xff, avoid);
        self.gadget(GadgetOp::Alu(AluOp::And, t1, t2), avoid, false);
        self.pop_value(t2, 1, avoid);
        self.gadget(GadgetOp::Alu(AluOp::Add, t1, t2), avoid, false);
        // Loop head: the backward branch below targets this item index.
        let loop_head = self.chain.items.len();
        self.pop_value(t2, 1, avoid);
        self.gadget(GadgetOp::Alu(AluOp::Add, dead, t2), avoid, false);
        self.gadget(GadgetOp::Alu(AluOp::Sub, t1, t2), avoid, false);
        self.gadget(GadgetOp::Set(Cond::Ne, t3), avoid, true);
        self.gadget(GadgetOp::Pop(t2), avoid, false);
        let delta_idx = self.chain.items.len();
        self.chain.items.push(ChainItem::BranchDelta {
            target: DeltaTarget::Item(loop_head),
            anchor: usize::MAX,
            bias: 0,
        });
        self.gadget(GadgetOp::Mul(t2, t3), avoid, false);
        let anchor = self.gadget(GadgetOp::AddRsp(t2), avoid, false);
        self.set_anchor(delta_idx, anchor);
        // Loop exit: dead == (sym & 0xff) + 1.
        self.pop_value(t2, 1, avoid);
        self.gadget(GadgetOp::Alu(AluOp::Sub, dead, t2), avoid, false);
        self.gadget(GadgetOp::Alu(AluOp::Or, sym, dead), avoid, false);
        Ok(true)
    }

    /// Gadget confusion: an unaligned RSP skip (`η mod 8 != 0`, §V-D) over a
    /// few bytes of padding that look like gadget-address material.
    fn emit_unaligned_skip(&mut self, avoid: RegSet) -> Result<(), RewriteError> {
        self.release_scratch();
        let [t] = self.pick_scratch(avoid)?;
        let eta: u64 = self.rng.gen_range(1..8u64) + 8 * self.rng.gen_range(0..2u64);
        self.gadget(GadgetOp::Pop(t), avoid, false);
        self.chain.items.push(ChainItem::Imm(eta));
        self.gadget(GadgetOp::AddRsp(t), avoid, false);
        // Padding bytes: slices of plausible gadget addresses.
        let pool = self.catalog.gadgets();
        let seed_addr = if pool.is_empty() {
            self.image.text_base
        } else {
            pool[self.rng.gen_range(0..pool.len())].addr
        };
        let bytes: Vec<u8> =
            seed_addr.to_le_bytes().into_iter().cycle().take(eta as usize).collect();
        self.chain.items.push(ChainItem::Pad(bytes));
        Ok(())
    }

    // -------------------------------------------------- instruction lowering

    fn translate(
        &mut self,
        block: BlockId,
        idx: usize,
        addr: u64,
        inst: &Inst,
    ) -> Result<(), RewriteError> {
        self.release_scratch();
        let live_after = self.liveness.after(block, idx);
        let protected = live_after.union(inst.regs_read()).union(inst.regs_written());
        let pf = self.preserve_flags;
        let kind = classify(inst);

        let unsupported =
            |inst: &Inst| RewriteError::UnsupportedInstruction { addr, inst: format!("{inst}") };

        match kind {
            RopletKind::DataMove | RopletKind::Alu => {
                self.lower_plain(addr, inst, protected, pf)?;
            }
            RopletKind::DirectStackAccess => match *inst {
                Inst::Push(r) => {
                    let [t1, t2, t3] = self.pick_scratch(protected)?;
                    self.emit_other_rsp_ptr(t1, protected);
                    self.gadget(GadgetOp::Load(t2, t1), protected, pf);
                    self.pop_value(t3, 8, protected);
                    self.gadget(GadgetOp::Alu(AluOp::Sub, t2, t3), protected, pf);
                    self.gadget(GadgetOp::Store(t1, t2), protected, pf);
                    self.gadget(GadgetOp::Store(t2, r), protected, pf);
                }
                Inst::PushI(v) => {
                    let [t1, t2, t3] = self.pick_scratch(protected)?;
                    self.emit_other_rsp_ptr(t1, protected);
                    self.gadget(GadgetOp::Load(t2, t1), protected, pf);
                    self.pop_value(t3, 8, protected);
                    self.gadget(GadgetOp::Alu(AluOp::Sub, t2, t3), protected, pf);
                    self.gadget(GadgetOp::Store(t1, t2), protected, pf);
                    self.pop_value(t3, v as i64 as u64, protected);
                    self.gadget(GadgetOp::Store(t2, t3), protected, pf);
                }
                Inst::Pop(r) => {
                    if r == Reg::Rsp {
                        return Err(unsupported(inst));
                    }
                    let [t1, t2, t3] = self.pick_scratch(protected)?;
                    self.emit_other_rsp_ptr(t1, protected);
                    self.gadget(GadgetOp::Load(t2, t1), protected, pf);
                    self.gadget(GadgetOp::Load(r, t2), protected, pf);
                    self.pop_value(t3, 8, protected);
                    self.gadget(GadgetOp::Alu(AluOp::Add, t2, t3), protected, pf);
                    self.gadget(GadgetOp::Store(t1, t2), protected, pf);
                }
                _ => return Err(unsupported(inst)),
            },
            RopletKind::StackPtrRef => self.lower_stack_ptr_ref(addr, inst, protected, pf)?,
            RopletKind::Epilogue => match inst {
                Inst::Leave => {
                    let [t1, t2, t3] = self.pick_scratch(protected)?;
                    // other_rsp = rbp; rbp = *other_rsp; other_rsp += 8.
                    self.emit_other_rsp_ptr(t1, protected);
                    self.gadget(GadgetOp::MovRR(t2, Reg::Rbp), protected, pf);
                    self.gadget(GadgetOp::Load(Reg::Rbp, t2), protected, pf);
                    self.pop_value(t3, 8, protected);
                    self.gadget(GadgetOp::Alu(AluOp::Add, t2, t3), protected, pf);
                    self.gadget(GadgetOp::Store(t1, t2), protected, pf);
                }
                Inst::Ret => self.lower_ret(live_after)?,
                _ => return Err(unsupported(inst)),
            },
            RopletKind::InterCall => match *inst {
                Inst::Call(rel) => {
                    let next = addr + raindrop_machine::encoded_len(inst) as u64;
                    let callee = next.wrapping_add(rel as i64 as u64);
                    self.lower_call(callee, live_after)?;
                }
                _ => return Err(unsupported(inst)),
            },
            RopletKind::IntraTransfer | RopletKind::SwitchTransfer | RopletKind::TailJump => {
                // Terminators are handled by emit_block; reaching here means
                // the instruction appeared mid-block, which the CFG
                // reconstruction rules out.
                return Err(unsupported(inst));
            }
            RopletKind::IpRef => return Err(unsupported(inst)),
        }
        Ok(())
    }

    fn lower_plain(
        &mut self,
        addr: u64,
        inst: &Inst,
        protected: RegSet,
        pf: bool,
    ) -> Result<(), RewriteError> {
        match *inst {
            Inst::Nop => {}
            Inst::MovRR(d, s) => {
                self.gadget(GadgetOp::MovRR(d, s), protected, pf);
            }
            Inst::MovRI(d, v) => self.pop_value(d, v as u64, protected),
            Inst::Alu(op, d, s) => {
                self.gadget(GadgetOp::Alu(op, d, s), protected, pf);
            }
            Inst::AluI(op, d, v) => {
                if pf && !inst.writes_flags() {
                    return Err(RewriteError::FlagsLiveAcrossLowering { addr });
                }
                let [t] = self.pick_scratch(protected)?;
                self.pop_value(t, v as i64 as u64, protected);
                self.gadget(GadgetOp::Alu(op, d, t), protected, pf);
            }
            Inst::Neg(r) => {
                self.gadget(GadgetOp::Neg(r), protected, pf);
            }
            Inst::Not(r) => {
                self.gadget(GadgetOp::Not(r), protected, pf);
            }
            Inst::Mul(d, s) => {
                self.gadget(GadgetOp::Mul(d, s), protected, pf);
            }
            Inst::MulI(d, s, v) => {
                let [t] = self.pick_scratch(protected)?;
                if d != s {
                    self.gadget(GadgetOp::MovRR(d, s), protected, pf);
                }
                self.pop_value(t, v as i64 as u64, protected);
                self.gadget(GadgetOp::Mul(d, t), protected, pf);
            }
            Inst::Div(d, s) => {
                self.gadget(GadgetOp::Div(d, s), protected, pf);
            }
            Inst::Rem(d, s) => {
                self.gadget(GadgetOp::Rem(d, s), protected, pf);
            }
            Inst::Shl(r, i) => {
                self.gadget(GadgetOp::ShlImm(r, i), protected, pf);
            }
            Inst::Shr(r, i) => {
                self.gadget(GadgetOp::ShrImm(r, i), protected, pf);
            }
            Inst::Sar(r, i) => {
                self.gadget(GadgetOp::SarImm(r, i), protected, pf);
            }
            Inst::ShlR(d, s) => {
                self.gadget(GadgetOp::ShlReg(d, s), protected, pf);
            }
            Inst::ShrR(d, s) => {
                self.gadget(GadgetOp::ShrReg(d, s), protected, pf);
            }
            Inst::Cmp(a, b) => {
                self.gadget(GadgetOp::Cmp(a, b), protected, pf);
            }
            Inst::CmpI(a, v) => {
                let [t] = self.pick_scratch(protected)?;
                self.pop_value(t, v as i64 as u64, protected);
                self.gadget(GadgetOp::Cmp(a, t), protected, pf);
            }
            Inst::Test(a, b) => {
                self.gadget(GadgetOp::Test(a, b), protected, pf);
            }
            Inst::TestI(a, v) => {
                let [t] = self.pick_scratch(protected)?;
                self.pop_value(t, v as i64 as u64, protected);
                self.gadget(GadgetOp::Test(a, t), protected, pf);
            }
            Inst::Cmov(c, d, s) => {
                self.gadget(GadgetOp::Cmov(c, d, s), protected, true);
            }
            Inst::Set(c, d) => {
                self.gadget(GadgetOp::Set(c, d), protected, true);
            }
            Inst::Load(d, m) | Inst::LoadB(d, m) | Inst::LoadSxB(d, m) => {
                let addr_reg = if !m.regs().contains(d) && d != Reg::Rsp {
                    d
                } else {
                    let [t] = self.pick_scratch(protected)?;
                    t
                };
                self.emit_address(m, addr_reg, protected, addr)?;
                let op = match inst {
                    Inst::Load(..) => GadgetOp::Load(d, addr_reg),
                    Inst::LoadB(..) => GadgetOp::LoadByte(d, addr_reg),
                    _ => GadgetOp::LoadByteSx(d, addr_reg),
                };
                self.gadget(op, protected, pf);
            }
            Inst::Store(m, s) | Inst::StoreB(m, s) => {
                let mut avoid = protected;
                avoid.insert(s);
                let [t] = self.pick_scratch(avoid)?;
                self.emit_address(m, t, avoid, addr)?;
                let op = match inst {
                    Inst::Store(..) => GadgetOp::Store(t, s),
                    _ => GadgetOp::StoreByte(t, s),
                };
                self.gadget(op, protected, pf);
            }
            Inst::StoreI(m, v) => {
                let [t1, t2] = self.pick_scratch(protected)?;
                self.emit_address(m, t1, protected, addr)?;
                self.pop_value(t2, v as i64 as u64, protected);
                self.gadget(GadgetOp::Store(t1, t2), protected, pf);
            }
            Inst::AluM(op, d, m) => {
                let [t] = self.pick_scratch(protected)?;
                self.emit_address(m, t, protected, addr)?;
                self.gadget(GadgetOp::AluLoad(op, d, t), protected, pf);
            }
            Inst::AluStore(op, m, s) => {
                let mut avoid = protected;
                avoid.insert(s);
                let [t] = self.pick_scratch(avoid)?;
                self.emit_address(m, t, avoid, addr)?;
                self.gadget(GadgetOp::AluStore(op, t, s), protected, pf);
            }
            Inst::CmpMI(m, v) => {
                let [t1, t2] = self.pick_scratch(protected)?;
                self.emit_address(m, t1, protected, addr)?;
                self.gadget(GadgetOp::Load(t1, t1), protected, pf);
                self.pop_value(t2, v as i64 as u64, protected);
                self.gadget(GadgetOp::Cmp(t1, t2), protected, pf);
            }
            Inst::Lea(d, m) => {
                if !m.regs().contains(d) {
                    self.emit_address(m, d, protected, addr)?;
                } else {
                    let [t] = self.pick_scratch(protected)?;
                    self.emit_address(m, t, protected, addr)?;
                    self.gadget(GadgetOp::MovRR(d, t), protected, pf);
                }
            }
            Inst::XchgRR(a, b) => {
                let [t] = self.pick_scratch(protected)?;
                self.gadget(GadgetOp::MovRR(t, a), protected, pf);
                self.gadget(GadgetOp::MovRR(a, b), protected, pf);
                self.gadget(GadgetOp::MovRR(b, t), protected, pf);
            }
            _ => {
                return Err(RewriteError::UnsupportedInstruction { addr, inst: format!("{inst}") })
            }
        }
        Ok(())
    }

    fn lower_stack_ptr_ref(
        &mut self,
        addr: u64,
        inst: &Inst,
        protected: RegSet,
        pf: bool,
    ) -> Result<(), RewriteError> {
        match *inst {
            // mov d, rsp → d = other_rsp
            Inst::MovRR(d, Reg::Rsp) => {
                self.emit_other_rsp_value(d, protected);
            }
            // mov rsp, s → other_rsp = s
            Inst::MovRR(Reg::Rsp, s) => {
                let mut avoid = protected;
                avoid.insert(s);
                let [t] = self.pick_scratch(avoid)?;
                self.emit_other_rsp_ptr(t, avoid);
                self.gadget(GadgetOp::Store(t, s), protected, pf);
            }
            // add/sub rsp, imm → other_rsp ± imm
            Inst::AluI(op @ (AluOp::Add | AluOp::Sub), Reg::Rsp, v) => {
                let [t1, t2] = self.pick_scratch(protected)?;
                self.emit_other_rsp_ptr(t1, protected);
                self.pop_value(t2, v as i64 as u64, protected);
                self.gadget(GadgetOp::AluStore(op, t1, t2), protected, pf);
            }
            // add/sub rsp, reg
            Inst::Alu(op @ (AluOp::Add | AluOp::Sub), Reg::Rsp, s) => {
                let mut avoid = protected;
                avoid.insert(s);
                let [t1] = self.pick_scratch(avoid)?;
                self.emit_other_rsp_ptr(t1, avoid);
                self.gadget(GadgetOp::AluStore(op, t1, s), protected, pf);
            }
            // lea d, [rsp + disp]
            Inst::Lea(d, m) if m.base == Some(Reg::Rsp) && m.index.is_none() => {
                self.emit_other_rsp_value(d, protected);
                if m.disp != 0 {
                    let mut avoid = protected;
                    avoid.insert(d);
                    let [t] = self.pick_scratch(avoid)?;
                    self.pop_value(t, m.disp as i64 as u64, avoid);
                    self.gadget(GadgetOp::Alu(AluOp::Add, d, t), protected, pf);
                }
            }
            // Loads/stores whose address involves rsp: lower through the
            // generic memory path, which redirects rsp to other_rsp.
            Inst::Load(..)
            | Inst::Store(..)
            | Inst::StoreI(..)
            | Inst::LoadB(..)
            | Inst::LoadSxB(..)
            | Inst::StoreB(..)
            | Inst::AluM(..)
            | Inst::AluStore(..)
            | Inst::CmpMI(..) => {
                self.lower_plain(addr, inst, protected, pf)?;
            }
            _ => {
                return Err(RewriteError::UnsupportedInstruction { addr, inst: format!("{inst}") })
            }
        }
        Ok(())
    }

    /// The epilogue lowering (unpivot, Appendix A): release the `ss` slot and
    /// return to the native caller with the original return address.
    fn lower_ret(&mut self, live_after: RegSet) -> Result<(), RewriteError> {
        let avoid = live_after;
        let [t1, t2] = self.pick_scratch(avoid)?;
        self.pop_value(t1, self.runtime.ss_addr, avoid);
        self.pop_value(t2, 8, avoid);
        self.gadget(GadgetOp::AluStore(AluOp::Sub, t1, t2), avoid, false);
        self.gadget(GadgetOp::AluLoad(AluOp::Add, t1, t1), avoid, false);
        self.gadget(GadgetOp::Alu(AluOp::Add, t1, t2), avoid, false);
        // rsp = saved native rsp; this gadget's own `ret` then pops the
        // original return address from the native stack.
        self.gadget(GadgetOp::Load(Reg::Rsp, t1), avoid, false);
        Ok(())
    }

    /// Call to a native (or other ROP) function: the three-step stack switch
    /// of Fig. 4.
    fn lower_call(&mut self, callee: u64, live_after: RegSet) -> Result<(), RewriteError> {
        // Registers that must survive until control reaches the callee: the
        // argument registers it reads plus whatever callee-saved state
        // outlives the call. Caller-saved registers (rax, r10, r11, …) are
        // clobbered by the call anyway, so they are fair game as scratch.
        let avoid = self
            .args
            .reads(callee)
            .union(live_after.difference(RegSet::from_regs(Reg::CALLER_SAVED)));
        let [t1, t2, t3] = self.pick_scratch(avoid)?;

        // Step A: t1 = &other_rsp.
        self.pop_value(t1, self.runtime.ss_addr, avoid);
        self.gadget(GadgetOp::AluLoad(AluOp::Add, t1, t1), avoid, false);
        // Reserve space for the fake return address on the native stack.
        self.pop_value(t2, 8, avoid);
        self.gadget(GadgetOp::AluStore(AluOp::Sub, t1, t2), avoid, false);
        // Step B: write the function-return gadget's address there.
        self.gadget(GadgetOp::Load(t2, t1), avoid, false);
        self.pop_value(t3, self.runtime.func_ret_gadget, avoid);
        self.gadget(GadgetOp::Store(t2, t3), avoid, false);
        // Step C: load the callee address and switch stacks.
        self.pop_value(t2, callee, avoid);
        self.gadget(GadgetOp::XchgRspMemJmp(t1, t2), avoid, false);
        Ok(())
    }
}

//! Control-flow-graph reconstruction from function bytes.
//!
//! This is the reproduction's counterpart of the "CFG reconstruction" element
//! of the rewriter architecture (Fig. 2 of the paper), which the authors
//! delegate to Ghidra/angr/radare2. We reconstruct basic blocks and branch
//! targets directly from decoded RM64 instructions, with a switch-table
//! heuristic for the indirect intra-procedural jumps produced by the MiniC
//! code generator's `switch` lowering (Appendix A of the paper).

use raindrop_machine::{decode, DecodeError, Image, ImageError, Inst, Mem};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a basic block within a [`Cfg`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A decoded function: address-annotated instructions in layout order.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncCode {
    /// Name of the function.
    pub name: String,
    /// Address of the first instruction.
    pub addr: u64,
    /// Instructions with their absolute addresses.
    pub insts: Vec<(u64, Inst)>,
}

impl FuncCode {
    /// Address one past the last instruction.
    pub fn end_addr(&self) -> u64 {
        match self.insts.last() {
            Some((a, i)) => a + raindrop_machine::encoded_len(i) as u64,
            None => self.addr,
        }
    }
}

/// Errors produced during CFG reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgError {
    /// The function is unknown to the image.
    Image(ImageError),
    /// Instruction decoding failed inside the function body.
    Decode {
        /// Address of the undecodable bytes.
        addr: u64,
        /// Decoder error.
        source: DecodeError,
    },
    /// A branch targets an address outside the function.
    TargetOutsideFunction {
        /// Address of the branch instruction.
        from: u64,
        /// The out-of-range target.
        target: u64,
    },
    /// A branch targets the middle of an instruction.
    MisalignedTarget {
        /// The problematic target address.
        target: u64,
    },
    /// An indirect jump's targets could not be recovered.
    UnresolvedIndirectJump {
        /// Address of the indirect jump.
        addr: u64,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Image(e) => write!(f, "image error: {e}"),
            CfgError::Decode { addr, source } => write!(f, "decode error at {addr:#x}: {source}"),
            CfgError::TargetOutsideFunction { from, target } => {
                write!(f, "branch at {from:#x} targets {target:#x} outside the function")
            }
            CfgError::MisalignedTarget { target } => {
                write!(f, "branch target {target:#x} is not an instruction boundary")
            }
            CfgError::UnresolvedIndirectJump { addr } => {
                write!(f, "could not recover targets of indirect jump at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for CfgError {}

impl From<ImageError> for CfgError {
    fn from(e: ImageError) -> Self {
        CfgError::Image(e)
    }
}

/// How a basic block transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// `ret` (or `hlt`): leaves the function.
    Return,
    /// Unconditional jump to another block.
    Jump(BlockId),
    /// Conditional branch.
    Branch {
        /// Block executed when the condition holds.
        taken: BlockId,
        /// Block executed otherwise.
        fallthrough: BlockId,
    },
    /// Indirect jump through a switch table.
    Switch {
        /// Possible successor blocks, in table order.
        targets: Vec<BlockId>,
        /// Address of the jump table in `.data`.
        table_addr: u64,
    },
    /// Execution falls through into the next block (block was split by an
    /// incoming branch target).
    FallThrough(BlockId),
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Return => vec![],
            Terminator::Jump(b) | Terminator::FallThrough(b) => vec![*b],
            Terminator::Branch { taken, fallthrough } => vec![*taken, *fallthrough],
            Terminator::Switch { targets, .. } => {
                let mut seen = BTreeSet::new();
                targets.iter().copied().filter(|t| seen.insert(*t)).collect()
            }
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Identifier within the CFG.
    pub id: BlockId,
    /// Address of the first instruction.
    pub start: u64,
    /// Instructions, including the terminating one (if the block ends with a
    /// control-transfer instruction).
    pub insts: Vec<(u64, Inst)>,
    /// How control leaves the block.
    pub term: Terminator,
}

impl BasicBlock {
    /// Address one past the last instruction of the block.
    pub fn end(&self) -> u64 {
        match self.insts.last() {
            Some((a, i)) => a + raindrop_machine::encoded_len(i) as u64,
            None => self.start,
        }
    }
}

/// A reconstructed control-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    /// Name of the function.
    pub name: String,
    /// Address of the function entry.
    pub entry_addr: u64,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Predecessor map (block → blocks that may transfer control to it).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in b.term.successors() {
                preds[s.0].push(b.id);
            }
        }
        preds
    }

    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Blocks in reverse post order from the entry (useful for forward
    /// dataflow analyses).
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut order = Vec::with_capacity(self.blocks.len());
        self.post_order_visit(self.entry(), &mut visited, &mut order);
        order.reverse();
        order
    }

    fn post_order_visit(&self, b: BlockId, visited: &mut [bool], order: &mut Vec<BlockId>) {
        if visited[b.0] {
            return;
        }
        visited[b.0] = true;
        for s in self.block(b).term.successors() {
            self.post_order_visit(s, visited, order);
        }
        order.push(b);
    }

    /// Number of conditional branches in the function.
    pub fn branch_count(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.term, Terminator::Branch { .. })).count()
    }
}

/// Decodes the named function from the image.
///
/// # Errors
///
/// Fails if the function is unknown or its bytes do not decode.
pub fn decode_function(image: &Image, name: &str) -> Result<FuncCode, CfgError> {
    let sym = image.function(name)?.clone();
    let bytes = image.function_bytes(name)?;
    let mut insts = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let (inst, len) = decode(&bytes[off..])
            .map_err(|source| CfgError::Decode { addr: sym.addr + off as u64, source })?;
        insts.push((sym.addr + off as u64, inst));
        off += len;
    }
    Ok(FuncCode { name: name.to_string(), addr: sym.addr, insts })
}

/// Recovers the targets of a switch-table jump (`jmp qword [table + idx*8]`)
/// by reading table entries from `.data` until one falls outside the
/// function body. This mirrors the "CFG reconstruction heuristics" the paper
/// relies on for compiler-generated switch dispatch.
fn switch_targets(image: &Image, func: &FuncCode, mem: Mem) -> Option<(u64, Vec<u64>)> {
    // Only the absolute-table form produced by the code generator is
    // recognized: no base register, an index register scaled by 8, and the
    // table address in the displacement.
    if mem.base.is_some() || mem.index.is_none() || mem.scale != 8 {
        return None;
    }
    let table_addr = mem.disp as i64 as u64;
    if !image.in_data(table_addr) {
        return None;
    }
    let mut targets = Vec::new();
    let mut addr = table_addr;
    while let Ok(bytes) = image.data_slice(addr, 8) {
        let entry = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
        if entry < func.addr || entry >= func.end_addr() {
            break;
        }
        targets.push(entry);
        addr += 8;
        if targets.len() > 4096 {
            break;
        }
    }
    if targets.is_empty() {
        None
    } else {
        Some((table_addr, targets))
    }
}

/// Reconstructs the CFG of the named function.
///
/// # Errors
///
/// Fails when decoding fails, when a direct branch leaves the function body
/// or does not land on an instruction boundary, or when an indirect jump's
/// table cannot be recovered.
pub fn reconstruct(image: &Image, name: &str) -> Result<Cfg, CfgError> {
    let func = decode_function(image, name)?;
    reconstruct_from_code(image, &func)
}

/// Reconstructs the CFG from already-decoded instructions.
///
/// # Errors
///
/// Same as [`reconstruct`].
pub fn reconstruct_from_code(image: &Image, func: &FuncCode) -> Result<Cfg, CfgError> {
    let inst_addrs: BTreeSet<u64> = func.insts.iter().map(|(a, _)| *a).collect();
    let end_addr = func.end_addr();

    let check_target = |from: u64, target: u64| -> Result<u64, CfgError> {
        if target < func.addr || target >= end_addr {
            return Err(CfgError::TargetOutsideFunction { from, target });
        }
        if !inst_addrs.contains(&target) {
            return Err(CfgError::MisalignedTarget { target });
        }
        Ok(target)
    };

    // Pass 1: find block leaders.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(func.addr);
    let mut switch_info: BTreeMap<u64, (u64, Vec<u64>)> = BTreeMap::new();
    for (addr, inst) in &func.insts {
        let next = addr + raindrop_machine::encoded_len(inst) as u64;
        match inst {
            Inst::Jmp(rel) => {
                let t = check_target(*addr, next.wrapping_add(*rel as i64 as u64))?;
                leaders.insert(t);
                if next < end_addr {
                    leaders.insert(next);
                }
            }
            Inst::Jcc(_, rel) => {
                let t = check_target(*addr, next.wrapping_add(*rel as i64 as u64))?;
                leaders.insert(t);
                if next < end_addr {
                    leaders.insert(next);
                }
            }
            Inst::JmpMem(mem) => {
                let (table, targets) = switch_targets(image, func, *mem)
                    .ok_or(CfgError::UnresolvedIndirectJump { addr: *addr })?;
                for t in &targets {
                    check_target(*addr, *t)?;
                    leaders.insert(*t);
                }
                switch_info.insert(*addr, (table, targets));
                if next < end_addr {
                    leaders.insert(next);
                }
            }
            Inst::JmpReg(_) => {
                // A `jmp reg` has no statically known target: reject the function.
                return Err(CfgError::UnresolvedIndirectJump { addr: *addr });
            }
            Inst::Ret | Inst::Hlt if next < end_addr => {
                leaders.insert(next);
            }
            _ => {}
        }
    }

    // Pass 2: carve blocks between leaders.
    let leader_list: Vec<u64> = leaders.iter().copied().collect();
    let addr_to_block: BTreeMap<u64, BlockId> =
        leader_list.iter().enumerate().map(|(i, a)| (*a, BlockId(i))).collect();

    // The instructions are in address order, so each block is the slice
    // between two partition points.
    let mut blocks = Vec::with_capacity(leader_list.len());
    for (i, &start) in leader_list.iter().enumerate() {
        let block_end = leader_list.get(i + 1).copied().unwrap_or(end_addr);
        let first = func.insts.partition_point(|(a, _)| *a < start);
        let stop = func.insts.partition_point(|(a, _)| *a < block_end);
        let insts = func.insts[first..stop].to_vec();
        let last = insts.last().cloned();
        let term = match last {
            Some((_, Inst::Ret | Inst::Hlt)) => Terminator::Return,
            Some((addr, Inst::Jmp(rel))) => {
                let next = addr + raindrop_machine::encoded_len(&Inst::Jmp(rel)) as u64;
                let t = next.wrapping_add(rel as i64 as u64);
                Terminator::Jump(addr_to_block[&t])
            }
            Some((addr, Inst::Jcc(c, rel))) => {
                let next = addr + raindrop_machine::encoded_len(&Inst::Jcc(c, rel)) as u64;
                let t = next.wrapping_add(rel as i64 as u64);
                let fall = addr_to_block
                    .get(&next)
                    .copied()
                    .ok_or(CfgError::MisalignedTarget { target: next })?;
                Terminator::Branch { taken: addr_to_block[&t], fallthrough: fall }
            }
            Some((addr, Inst::JmpMem(_))) => {
                let (table_addr, targets) = switch_info
                    .get(&addr)
                    .cloned()
                    .ok_or(CfgError::UnresolvedIndirectJump { addr })?;
                Terminator::Switch {
                    targets: targets.iter().map(|t| addr_to_block[t]).collect(),
                    table_addr,
                }
            }
            _ => {
                // The block was split by an incoming branch target, or it is
                // the last block without a terminator: fall through.
                match addr_to_block.get(&block_end) {
                    Some(next) => Terminator::FallThrough(*next),
                    None => Terminator::Return,
                }
            }
        };
        blocks.push(BasicBlock { id: BlockId(i), start, insts, term });
    }

    // The entry must be blocks[0]; leaders are sorted so the function start
    // (the smallest address) is always first.
    debug_assert_eq!(blocks[0].start, func.addr);

    Ok(Cfg { name: func.name.clone(), entry_addr: func.addr, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Reg};

    fn diamond_image() -> Image {
        // if (rdi == 0) rax = 1 else rax = 2; rax += 10; ret
        let mut a = Assembler::new();
        let else_l = a.new_label();
        let join = a.new_label();
        a.inst(Inst::CmpI(Reg::Rdi, 0));
        a.jcc(Cond::Ne, else_l);
        a.inst(Inst::MovRI(Reg::Rax, 1));
        a.jmp(join);
        a.bind(else_l);
        a.inst(Inst::MovRI(Reg::Rax, 2));
        a.bind(join);
        a.inst(Inst::AluI(AluOp::Add, Reg::Rax, 10));
        a.inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("diamond", a);
        b.build().unwrap()
    }

    #[test]
    fn diamond_has_four_blocks() {
        let img = diamond_image();
        let cfg = reconstruct(&img, "diamond").unwrap();
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.branch_count(), 1);
        let entry = cfg.block(cfg.entry());
        assert!(matches!(entry.term, Terminator::Branch { .. }));
        let preds = cfg.predecessors();
        // The join block has two predecessors.
        let join = cfg
            .blocks
            .iter()
            .find(|b| matches!(b.term, Terminator::Return) && b.insts.len() == 2)
            .unwrap();
        assert_eq!(preds[join.id.0].len(), 2);
    }

    #[test]
    fn loop_back_edge_is_reconstructed() {
        let mut a = Assembler::new();
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
        let mut b = ImageBuilder::new();
        b.add_function("loop", a);
        let img = b.build().unwrap();
        let cfg = reconstruct(&img, "loop").unwrap();
        // entry, header, body, exit
        assert_eq!(cfg.len(), 4);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], cfg.entry());
    }

    #[test]
    fn switch_table_targets_recovered() {
        // A three-way switch through a jump table in .data.
        let mut b = ImageBuilder::new();
        // Reserve the table now; fill it after layout by hand: we cheat by
        // building the function with labels, then patching the table with the
        // resolved addresses. To keep the test simple the cases are laid out
        // at fixed distances: each case is `mov rax, imm; ret` = 11 bytes.
        let mut a = Assembler::new();
        let case0 = a.new_label();
        let case1 = a.new_label();
        let case2 = a.new_label();
        a.inst(Inst::MovRR(Reg::Rcx, Reg::Rdi));
        a.inst(Inst::JmpMem(Mem {
            base: None,
            index: Some(Reg::Rcx),
            scale: 8,
            disp: 0, // patched below
        }));
        a.bind(case0);
        a.inst(Inst::MovRI(Reg::Rax, 100));
        a.inst(Inst::Ret);
        a.bind(case1);
        a.inst(Inst::MovRI(Reg::Rax, 200));
        a.inst(Inst::Ret);
        a.bind(case2);
        a.inst(Inst::MovRI(Reg::Rax, 300));
        a.inst(Inst::Ret);
        let table_addr = b.add_data("table", &[0u8; 24]);
        // Rebuild the assembler with the correct displacement now that the
        // table address is known.
        let mut a2 = Assembler::new();
        let c0 = a2.new_label();
        let c1 = a2.new_label();
        let c2 = a2.new_label();
        a2.inst(Inst::MovRR(Reg::Rcx, Reg::Rdi));
        a2.inst(Inst::JmpMem(Mem {
            base: None,
            index: Some(Reg::Rcx),
            scale: 8,
            disp: table_addr as i32,
        }));
        a2.bind(c0);
        a2.inst(Inst::MovRI(Reg::Rax, 100));
        a2.inst(Inst::Ret);
        a2.bind(c1);
        a2.inst(Inst::MovRI(Reg::Rax, 200));
        a2.inst(Inst::Ret);
        a2.bind(c2);
        a2.inst(Inst::MovRI(Reg::Rax, 300));
        a2.inst(Inst::Ret);
        drop(a);
        b.add_function("sw", a2);
        let mut img = b.build().unwrap();
        // Fill the table with the case addresses: entry + 3 (mov rr) + 8 (jmp mem) …
        let f = img.function("sw").unwrap().clone();
        let jmp_len = raindrop_machine::encoded_len(&Inst::JmpMem(Mem::abs(0)));
        let movrr_len = raindrop_machine::encoded_len(&Inst::MovRR(Reg::Rcx, Reg::Rdi));
        let case_len = raindrop_machine::encoded_len(&Inst::MovRI(Reg::Rax, 0)) + 1;
        let first_case = f.addr + (movrr_len + jmp_len) as u64;
        let mut table = Vec::new();
        for i in 0..3u64 {
            table.extend_from_slice(&(first_case + i * case_len as u64).to_le_bytes());
        }
        let off = (table_addr - img.data_base) as usize;
        img.data[off..off + 24].copy_from_slice(&table);

        let cfg = reconstruct(&img, "sw").unwrap();
        let entry = cfg.block(cfg.entry());
        match &entry.term {
            Terminator::Switch { targets, table_addr: t } => {
                assert_eq!(targets.len(), 3);
                assert_eq!(*t, table_addr);
            }
            other => panic!("expected switch terminator, got {other:?}"),
        }
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn branch_outside_function_is_rejected() {
        let mut a = Assembler::new();
        a.inst(Inst::Jmp(1000)).inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("bad", a);
        let img = b.build().unwrap();
        assert!(matches!(reconstruct(&img, "bad"), Err(CfgError::TargetOutsideFunction { .. })));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let img = diamond_image();
        assert!(matches!(reconstruct(&img, "nope"), Err(CfgError::Image(_))));
    }
}

//! Execution traces.
//!
//! A [`Trace`] records what the emulator executed: instruction addresses,
//! stack-pointer evolution, memory accesses and register writes. Traces are
//! the raw material of the dynamic attackers in `raindrop-attacks`
//! (taint-driven simplification consumes register/memory data flows, the
//! ROPMEMU-style explorer looks for variable RSP additions and flag leaks).

use crate::flags::Flags;
use crate::inst::Inst;
use crate::reg::Reg;
use serde::{Deserialize, Serialize};

/// One memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Absolute address of the access.
    pub addr: u64,
    /// Value read or written.
    pub value: u64,
    /// Access size in bytes (1 or 8).
    pub size: u8,
    /// Whether the access was a write.
    pub is_write: bool,
}

/// One executed instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Position in the trace (0-based).
    pub index: u64,
    /// Address the instruction was fetched from.
    pub addr: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Stack pointer before execution.
    pub rsp_before: u64,
    /// Stack pointer after execution.
    pub rsp_after: u64,
    /// Flags after execution.
    pub flags_after: Flags,
    /// Register writes performed by the instruction (destination, new value).
    pub reg_writes: Vec<(Reg, u64)>,
    /// Memory accesses performed by the instruction.
    pub mem: Vec<MemAccess>,
    /// For conditional branches: whether the branch was taken.
    pub branch_taken: Option<bool>,
}

impl TraceEntry {
    /// Net stack-pointer change caused by the instruction.
    pub fn rsp_delta(&self) -> i64 {
        self.rsp_after.wrapping_sub(self.rsp_before) as i64
    }
}

/// A recorded execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Executed instructions in order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of executed instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
    }

    /// Indices of entries executing `ret` (the ROP dispatching points).
    pub fn ret_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.inst, Inst::Ret))
            .map(|(i, _)| i)
            .collect()
    }

    /// Distinct instruction addresses touched by the trace.
    pub fn distinct_addresses(&self) -> std::collections::BTreeSet<u64> {
        self.entries.iter().map(|e| e.addr).collect()
    }

    /// Entries whose instruction added a *register* (i.e. run-time variable)
    /// quantity to the stack pointer — the branching fingerprint ROP-aware
    /// tools look for (§III-B2).
    pub fn variable_rsp_updates(&self) -> Vec<&TraceEntry> {
        use crate::inst::AluOp;
        self.entries
            .iter()
            .filter(|e| {
                matches!(
                    e.inst,
                    Inst::Alu(AluOp::Add | AluOp::Sub, Reg::Rsp, _)
                        | Inst::AluM(AluOp::Add | AluOp::Sub, Reg::Rsp, _)
                )
            })
            .collect()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluOp;

    fn entry(idx: u64, inst: Inst, rsp_before: u64, rsp_after: u64) -> TraceEntry {
        TraceEntry {
            index: idx,
            addr: 0x1000 + idx * 4,
            inst,
            rsp_before,
            rsp_after,
            flags_after: Flags::cleared(),
            reg_writes: vec![],
            mem: vec![],
            branch_taken: None,
        }
    }

    #[test]
    fn ret_indices_and_variable_rsp_updates() {
        let t = Trace {
            entries: vec![
                entry(0, Inst::Pop(Reg::Rsi), 0x100, 0x108),
                entry(1, Inst::Ret, 0x108, 0x110),
                entry(2, Inst::Alu(AluOp::Add, Reg::Rsp, Reg::Rsi), 0x110, 0x128),
                entry(3, Inst::Ret, 0x128, 0x130),
            ],
        };
        assert_eq!(t.ret_indices(), vec![1, 3]);
        assert_eq!(t.variable_rsp_updates().len(), 1);
        assert_eq!(t.entries[2].rsp_delta(), 0x18);
    }

    #[test]
    fn distinct_addresses_deduplicates() {
        let mut t = Trace::new();
        t.entries.push(entry(0, Inst::Nop, 0, 0));
        t.entries.push(entry(0, Inst::Nop, 0, 0));
        assert_eq!(t.distinct_addresses().len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }
}

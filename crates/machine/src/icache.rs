//! Predecoded instruction cache.
//!
//! The emulator decodes each fetched instruction **once** per page
//! generation. Decoded instructions live in per-page run tables (a flat
//! `offset → entry` map plus the backing vector of entries), tagged with the
//! [`Memory`](crate::mem::Memory) write generation of the page they were
//! decoded from. A write into a cached page bumps that generation and the
//! next fetch from the page re-decodes — so self-modifying text is handled
//! exactly, while the dominant case (immutable text pages driven by
//! `ret`-dispatched ROP chains) hits the cache ~100% of the time.
//!
//! Each entry carries its instruction, encoded length and cycle cost, plus
//! the length of the **run** that starts at it: the straight-line sequence
//! of instructions that execution falls through from that entry. A miss
//! decodes forward from the missing offset and stores the whole run
//! contiguously, stopping after the first control transfer (`jmp`, `jcc`,
//! `call`, `ret`, indirect) or `hlt`, and before the page end, an
//! instruction that does not decode within the page, an offset that already
//! has an entry, or [`RETURN_SENTINEL`]. Entry `k` of a run of `n` records
//! a run of `n - k`, so a run entered in the middle is still exact.
//! [`Emulator::run`](crate::Emulator::run) retires a whole run per lookup;
//! it leaves the run early when one of its stores bumps the page's
//! generation, because the rest of the run may then be stale.
//! [`Emulator::step`](crate::Emulator::step) reads one entry per fetch and
//! stays the reference path that the run loop is tested against.
//!
//! Instructions whose encoding straddles a page boundary are never cached:
//! their bytes span two pages and a single generation tag could not cover
//! both. They fall back to the decode-per-fetch slow path, which is exact.
//!
//! Like [`Memory`](crate::mem::Memory), the cache keeps its per-page tables
//! in a flat `Vec` with a `HashMap` index and a one-entry last-page fast
//! path, so a fetch that stays on the same page as the previous one touches
//! no hash table at all.

use crate::emu::cycle_cost;
use crate::encode::decode;
use crate::image::RETURN_SENTINEL;
use crate::inst::Inst;
use crate::mem::{PAGE_SHIFT, PAGE_SIZE};
use std::collections::HashMap;

/// A decoded instruction with what the dispatch loop needs to retire it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decoded {
    /// The instruction.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u8,
    /// Cycle cost (see [`cycle_cost`]).
    pub cost: u8,
    /// Instructions in the straight-line run starting here (≥ 1); 1 for an
    /// uncached decode.
    pub run: u16,
}

impl Decoded {
    /// An entry for `inst` that is its own run of one.
    pub(crate) fn single(inst: Inst, len: usize) -> Decoded {
        Decoded { inst, len: len as u8, cost: cycle_cost(&inst), run: 1 }
    }
}

/// Slot sentinel: offset not decoded yet.
const NO_SLOT: u16 = u16::MAX;

#[derive(Debug, Clone)]
struct PageRuns {
    /// Generation of the memory page these runs were decoded from.
    gen: u64,
    /// Byte offset → index into `insts`, or [`NO_SLOT`].
    slots: Box<[u16; PAGE_SIZE]>,
    /// Decoded instructions; each run occupies consecutive indices.
    insts: Vec<Decoded>,
}

impl PageRuns {
    fn new(gen: u64) -> PageRuns {
        PageRuns { gen, slots: Box::new([NO_SLOT; PAGE_SIZE]), insts: Vec::new() }
    }

    fn clear(&mut self, gen: u64) {
        self.slots.fill(NO_SLOT);
        self.insts.clear();
        self.gen = gen;
    }

    /// Decodes the run starting at `start` on the page at address `base`
    /// from its bytes `page`, appending it to `insts`.
    fn fill(&mut self, base: u64, start: usize, page: &[u8; PAGE_SIZE]) {
        let first = self.insts.len();
        let mut off = start;
        while off < PAGE_SIZE
            && self.slots[off] == NO_SLOT
            && base.wrapping_add(off as u64) != RETURN_SENTINEL
        {
            // Decoding from the page slice reports an instruction that
            // would straddle the page end as truncated.
            let Ok((inst, len)) = decode(&page[off..]) else { break };
            // Every offset holds at most one entry, so indices stay below
            // PAGE_SIZE < NO_SLOT.
            self.slots[off] = self.insts.len() as u16;
            self.insts.push(Decoded::single(inst, len));
            off += len;
            if inst.is_terminator() || inst.is_call() {
                break;
            }
        }
        let n = self.insts.len() - first;
        for (k, d) in self.insts[first..].iter_mut().enumerate() {
            d.run = (n - k) as u16;
        }
    }
}

/// The predecoded instruction cache. One per [`Emulator`](crate::Emulator).
#[derive(Debug, Clone)]
pub(crate) struct ICache {
    pages: Vec<PageRuns>,
    index: HashMap<u64, u32>,
    /// Last page resolved: `(page key, slot)`; `u64::MAX` when empty.
    last: (u64, u32),
}

impl Default for ICache {
    fn default() -> Self {
        ICache { pages: Vec::new(), index: HashMap::new(), last: (u64::MAX, 0) }
    }
}

impl ICache {
    /// Resolves (and revalidates) the run table for page `key` at memory
    /// generation `gen`, creating it on first use.
    #[inline]
    fn page_slot(&mut self, key: u64, gen: u64) -> usize {
        let slot = if self.last.0 == key {
            self.last.1 as usize
        } else {
            match self.index.get(&key) {
                Some(&s) => {
                    self.last = (key, s);
                    s as usize
                }
                None => {
                    let s = self.pages.len();
                    assert!(s < u32::MAX as usize, "icache page count overflow");
                    self.pages.push(PageRuns::new(gen));
                    self.index.insert(key, s as u32);
                    self.last = (key, s as u32);
                    return s;
                }
            }
        };
        let runs = &mut self.pages[slot];
        if runs.gen != gen {
            runs.clear(gen);
        }
        slot
    }

    /// Resolves the entry at (`key`, `off`) for memory generation `gen`,
    /// decoding the run that starts there from the page's bytes `page` on a
    /// miss. Returns `(page slot, entry index)` for [`ICache::entry`]; the
    /// run's remaining entries follow at consecutive indices. `None` when
    /// the bytes at `off` do not decode within the page.
    #[inline]
    pub(crate) fn run_at(
        &mut self,
        key: u64,
        off: usize,
        gen: u64,
        page: &[u8; PAGE_SIZE],
    ) -> Option<(usize, usize)> {
        let slot = self.page_slot(key, gen);
        let runs = &mut self.pages[slot];
        if runs.slots[off] == NO_SLOT {
            runs.fill(key << PAGE_SHIFT, off, page);
        }
        match runs.slots[off] {
            NO_SLOT => None,
            idx => Some((slot, idx as usize)),
        }
    }

    /// The entry at `idx` of the run table in `slot` (from
    /// [`ICache::run_at`]).
    #[inline]
    pub(crate) fn entry(&self, slot: usize, idx: usize) -> Decoded {
        self.pages[slot].insts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::inst::AluOp;
    use crate::reg::Reg;

    /// A page holding `insts` encoded from offset `at`, zeros (`nop`)
    /// elsewhere.
    fn page_with(at: usize, insts: &[Inst]) -> Box<[u8; PAGE_SIZE]> {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        let bytes = encode_all(insts);
        page[at..at + bytes.len()].copy_from_slice(&bytes);
        page
    }

    fn run_insts(ic: &ICache, (slot, idx): (usize, usize)) -> Vec<Inst> {
        let n = ic.entry(slot, idx).run as usize;
        (idx..idx + n).map(|i| ic.entry(slot, i).inst).collect()
    }

    #[test]
    fn lookup_miss_then_hit_then_invalidation() {
        let mut ic = ICache::default();
        let old = page_with(5, &[Inst::Ret]);
        let new = page_with(5, &[Inst::Hlt]);
        let hit = ic.run_at(3, 5, 1, &old).unwrap();
        assert_eq!(ic.entry(hit.0, hit.1), Decoded::single(Inst::Ret, 1));
        // Same generation: served from the table, not from the bytes.
        assert_eq!(ic.run_at(3, 5, 1, &new), Some(hit));
        assert_eq!(ic.entry(hit.0, hit.1).inst, Inst::Ret);
        // Same page, newer generation: the run table is cleared.
        let (slot, idx) = ic.run_at(3, 5, 2, &new).unwrap();
        assert_eq!(ic.entry(slot, idx).inst, Inst::Hlt);
        // And the old generation is gone too (monotonic tags).
        let (slot, idx) = ic.run_at(3, 5, 1, &old).unwrap();
        assert_eq!(ic.entry(slot, idx).inst, Inst::Ret);
    }

    #[test]
    fn pages_are_independent() {
        let mut ic = ICache::default();
        let ret = page_with(0, &[Inst::Ret]);
        let hlt = page_with(0, &[Inst::Hlt]);
        let one = ic.run_at(1, 0, 1, &ret).unwrap();
        let two = ic.run_at(2, 0, 7, &hlt).unwrap();
        assert_eq!(ic.entry(one.0, one.1).inst, Inst::Ret);
        assert_eq!(ic.entry(two.0, two.1).inst, Inst::Hlt);
        // Invalidating page 2 leaves page 1 alone.
        let two = ic.run_at(2, 0, 8, &ret).unwrap();
        assert_eq!(ic.entry(two.0, two.1).inst, Inst::Ret);
        assert_eq!(ic.run_at(1, 0, 1, &hlt), Some(one));
        assert_eq!(ic.entry(one.0, one.1).inst, Inst::Ret);
    }

    #[test]
    fn distinct_offsets_coexist_like_unaligned_gadget_decodes() {
        let mut ic = ICache::default();
        // `pop rax` is two bytes; its register byte (0) decodes as `nop`.
        let page = page_with(100, &[Inst::Pop(Reg::Rax), Inst::Ret]);
        let aligned = ic.run_at(9, 100, 1, &page).unwrap();
        assert_eq!(run_insts(&ic, aligned), [Inst::Pop(Reg::Rax), Inst::Ret]);
        // The unaligned run stops before offset 102, which already has an
        // entry; a lookup there lands inside the first run.
        let unaligned = ic.run_at(9, 101, 1, &page).unwrap();
        assert_eq!(run_insts(&ic, unaligned), [Inst::Nop]);
        let tail = ic.run_at(9, 102, 1, &page).unwrap();
        assert_eq!(tail, (aligned.0, aligned.1 + 1));
        assert_eq!(run_insts(&ic, tail), [Inst::Ret]);
    }

    #[test]
    fn runs_end_after_control_transfers_and_before_bad_bytes() {
        let mut ic = ICache::default();
        let body = [
            Inst::MovRI(Reg::Rax, 7),
            Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rax),
            Inst::Call(0),
            Inst::Ret,
        ];
        let page = page_with(0, &body);
        let first = ic.run_at(4, 0, 1, &page).unwrap();
        assert_eq!(run_insts(&ic, first), body[..3]);
        let costs: Vec<u8> = (0..3).map(|k| ic.entry(first.0, first.1 + k).cost).collect();
        assert_eq!(costs, [1, 1, 2]);

        let mut bad = page_with(0, &[Inst::Nop, Inst::Nop]);
        bad[2] = 0xff;
        let run = ic.run_at(5, 0, 1, &bad).unwrap();
        assert_eq!(run_insts(&ic, run), [Inst::Nop, Inst::Nop]);
        assert_eq!(ic.run_at(5, 2, 1, &bad), None, "undecodable bytes are never cached");
    }

    #[test]
    fn runs_stop_at_the_page_end_and_never_cache_straddlers() {
        let mut ic = ICache::default();
        let last = PAGE_SIZE - 3;
        let page = page_with(last, &[Inst::Ret]);
        let run = ic.run_at(6, last - 2, 1, &page).unwrap();
        assert_eq!(run_insts(&ic, run), [Inst::Nop, Inst::Nop, Inst::Ret]);
        // Two `nop`s then the page ends: the run stops at the boundary.
        let run = ic.run_at(6, PAGE_SIZE - 2, 1, &page).unwrap();
        assert_eq!(run_insts(&ic, run), [Inst::Nop, Inst::Nop]);
        // A `mov rax, imm64` starting two bytes before the end straddles.
        let mut straddle = Box::new([0u8; PAGE_SIZE]);
        straddle[PAGE_SIZE - 2..].copy_from_slice(&encode_all(&[Inst::MovRI(Reg::Rax, -1)])[..2]);
        assert_eq!(ic.run_at(7, PAGE_SIZE - 2, 1, &straddle), None);
        let run = ic.run_at(7, PAGE_SIZE - 4, 1, &straddle).unwrap();
        assert_eq!(run_insts(&ic, run), [Inst::Nop, Inst::Nop]);
    }
}

//! Sparse byte-addressable guest memory.
//!
//! Memory is organized in 4 KiB pages allocated on first touch, which keeps
//! the emulator cheap even though the guest address space spans text, data,
//! heap, the native stack and the separate region ROP chains live in.
//!
//! The layout is built for the emulator's hot path: resident pages live in a
//! flat `Vec` (stable slots — pages are never moved or evicted, only zeroed
//! by [`Memory::restore_from`]) with a `HashMap` index from page key to slot,
//! and two one-entry TLBs — one for the data path, one for instruction fetch
//! — short-circuit the index probe for the common same-page-as-last-time
//! case. Word and bulk accesses operate on page slices with chunked copies
//! instead of byte-at-a-time probes.
//!
//! Every page carries a **generation counter**, bumped on each write that
//! touches it. The emulator's predecoded instruction cache tags its decoded
//! runs with the generation of the page they were decoded from, so any store
//! into a cached page (self-modifying text, a restored snapshot) invalidates
//! exactly the runs that could have changed.

use std::cell::Cell;
use std::collections::HashMap;

/// Size of a memory page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

const _: () = assert!(PAGE_SIZE == 1 << PAGE_SHIFT);

/// The page key containing `addr` (its virtual page number).
#[inline]
pub fn page_key(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// The byte offset of `addr` within its page.
#[inline]
pub fn page_offset(addr: u64) -> usize {
    (addr & (PAGE_SIZE as u64 - 1)) as usize
}

/// TLB sentinel: no page key is ever `u64::MAX` (keys are `addr >> 12`).
const NO_PAGE: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Page {
    /// Write generation: starts at 1 when the page is first touched and is
    /// bumped by every write operation that reaches the page.
    gen: u64,
    bytes: Box<[u8; PAGE_SIZE]>,
}

/// Sparse, paged guest memory.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Resident pages; slots are stable for the lifetime of the memory.
    pages: Vec<Page>,
    /// Page key → slot in `pages`.
    index: HashMap<u64, u32>,
    /// Last page resolved by the data path: `(page key, slot)`.
    data_tlb: Cell<(u64, u32)>,
    /// Last page resolved by instruction fetch: `(page key, slot)`.
    fetch_tlb: Cell<(u64, u32)>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: HashMap::new(),
            data_tlb: Cell::new((NO_PAGE, 0)),
            fetch_tlb: Cell::new((NO_PAGE, 0)),
        }
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Resolves `key` to a slot through a TLB, falling back to the index.
    #[inline]
    fn slot_via(&self, key: u64, tlb: &Cell<(u64, u32)>) -> Option<usize> {
        let (k, s) = tlb.get();
        if k == key {
            return Some(s as usize);
        }
        let s = *self.index.get(&key)?;
        tlb.set((key, s));
        Some(s as usize)
    }

    /// Resolves `addr`'s page for reading through the data TLB.
    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let slot = self.slot_via(page_key(addr), &self.data_tlb)?;
        Some(&self.pages[slot])
    }

    /// Resolves `addr`'s page for writing, allocating it on first touch, and
    /// bumps its generation.
    #[inline]
    fn page_for_write(&mut self, addr: u64) -> &mut Page {
        let key = page_key(addr);
        let slot = match self.slot_via(key, &self.data_tlb) {
            Some(s) => s,
            None => {
                let s = self.pages.len();
                assert!(s < u32::MAX as usize, "guest memory page count overflow");
                self.pages.push(Page { gen: 0, bytes: Box::new([0u8; PAGE_SIZE]) });
                self.index.insert(key, s as u32);
                self.data_tlb.set((key, s as u32));
                s
            }
        };
        let p = &mut self.pages[slot];
        p.gen += 1;
        p
    }

    /// Reads one byte. Untouched memory reads as zero.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p.bytes[page_offset(addr)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = page_offset(addr);
        self.page_for_write(addr).bytes[off] = value;
    }

    /// Reads a little-endian 64-bit word (may cross a page boundary).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = page_offset(addr);
        if off <= PAGE_SIZE - 8 {
            match self.page(addr) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&p.bytes[off..off + 8]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut buf = [0u8; 8];
            self.read_bytes(addr, &mut buf);
            u64::from_le_bytes(buf)
        }
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = page_offset(addr);
        if off <= PAGE_SIZE - 8 {
            let p = self.page_for_write(addr);
            p.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`, one chunked copy per page.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut cur = addr;
        let mut done = 0usize;
        while done < buf.len() {
            let off = page_offset(cur);
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            let dst = &mut buf[done..done + chunk];
            match self.page(cur) {
                Some(p) => dst.copy_from_slice(&p.bytes[off..off + chunk]),
                None => dst.fill(0),
            }
            done += chunk;
            cur = cur.wrapping_add(chunk as u64);
        }
    }

    /// Writes all of `bytes` starting at `addr`, one chunked copy per page.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut cur = addr;
        let mut done = 0usize;
        while done < bytes.len() {
            let off = page_offset(cur);
            let chunk = (PAGE_SIZE - off).min(bytes.len() - done);
            let p = self.page_for_write(cur);
            p.bytes[off..off + chunk].copy_from_slice(&bytes[done..done + chunk]);
            done += chunk;
            cur = cur.wrapping_add(chunk as u64);
        }
    }

    /// The write generation of the page containing `addr`: 0 when the page
    /// has never been touched, otherwise ≥ 1 and bumped by every write that
    /// reaches the page. Consumers caching derived data (the emulator's
    /// instruction cache) tag entries with this value and revalidate by
    /// equality.
    #[inline]
    pub fn page_gen(&self, addr: u64) -> u64 {
        match self.page(addr) {
            Some(p) => p.gen,
            None => 0,
        }
    }

    /// Instruction-fetch view of `addr`'s page, resolved through the
    /// dedicated fetch TLB so data traffic does not evict the fetch entry:
    /// returns the page's generation and its full byte array (`None` when
    /// the page is untouched, in which case the generation is 0).
    #[inline]
    pub fn fetch_page(&self, addr: u64) -> (u64, Option<&[u8; PAGE_SIZE]>) {
        match self.slot_via(page_key(addr), &self.fetch_tlb) {
            Some(slot) => {
                let p = &self.pages[slot];
                (p.gen, Some(&p.bytes))
            }
            None => (0, None),
        }
    }

    /// Reverts this memory to the contents of `other`, reusing resident page
    /// allocations: pages whose bytes already match are left untouched (and
    /// keep their generation, so caches keyed on it stay valid), pages that
    /// differ are overwritten in place with a generation bump, and pages
    /// resident here but not in `other` are zeroed. Nothing is deallocated.
    pub fn restore_from(&mut self, other: &Memory) {
        for (key, &slot) in &self.index {
            if !other.index.contains_key(key) {
                let p = &mut self.pages[slot as usize];
                if p.bytes.iter().any(|b| *b != 0) {
                    p.bytes.fill(0);
                    p.gen += 1;
                }
            }
        }
        for (key, &oslot) in &other.index {
            let op = &other.pages[oslot as usize];
            match self.index.get(key) {
                Some(&slot) => {
                    let p = &mut self.pages[slot as usize];
                    if p.bytes[..] != op.bytes[..] {
                        p.bytes.copy_from_slice(&op.bytes[..]);
                        p.gen += 1;
                    }
                }
                None => {
                    let s = self.pages.len();
                    assert!(s < u32::MAX as usize, "guest memory page count overflow");
                    self.pages.push(op.clone());
                    self.index.insert(*key, s as u32);
                }
            }
        }
    }

    /// Number of pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x1234), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_within_page() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1000), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0x1000), 0x88, "little endian");
    }

    #[test]
    fn u64_roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3;
        m.write_u64(addr, u64::MAX - 1);
        assert_eq!(m.read_u64(addr), u64::MAX - 1);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x8000 - 100, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(0x8000 - 100, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn generations_start_at_one_and_count_writes() {
        let mut m = Memory::new();
        assert_eq!(m.page_gen(0x5000), 0, "untouched page");
        m.write_u8(0x5000, 1);
        assert_eq!(m.page_gen(0x5000), 1);
        m.write_u64(0x5100, 2);
        assert_eq!(m.page_gen(0x5000), 2, "same page");
        m.write_u8(0x6000, 3);
        assert_eq!(m.page_gen(0x5000), 2, "other page untouched");
        assert_eq!(m.page_gen(0x6000), 1);
    }

    #[test]
    fn fetch_page_sees_data_writes() {
        let mut m = Memory::new();
        let (gen, page) = m.fetch_page(0x7000);
        assert_eq!(gen, 0);
        assert!(page.is_none());
        m.write_u8(0x7004, 0xAB);
        let (gen, page) = m.fetch_page(0x7000);
        assert_eq!(gen, 1);
        assert_eq!(page.unwrap()[4], 0xAB);
    }

    #[test]
    fn restore_reuses_pages_and_preserves_matching_generations() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 7); // gen 1
        let snap = m.clone();
        let gen_at_snap = m.page_gen(0x1000);

        m.write_u64(0x1000, 8); // diverge
        m.write_u64(0x9000, 9); // page not in snapshot
        m.restore_from(&snap);

        assert_eq!(m.read_u64(0x1000), 7);
        assert_eq!(m.read_u64(0x9000), 0, "post-snapshot page zeroed");
        assert!(m.page_gen(0x1000) > gen_at_snap, "diverged page re-tagged");
        assert_eq!(m.resident_pages(), 2, "allocations reused, not dropped");

        // A second, no-op restore must not bump any generation.
        let g1 = m.page_gen(0x1000);
        let g9 = m.page_gen(0x9000);
        m.restore_from(&snap);
        assert_eq!(m.page_gen(0x1000), g1);
        assert_eq!(m.page_gen(0x9000), g9);
    }
}

//! A fast, fixed hasher for the crate's hot hash tables.
//!
//! The shadow executor looks up memory addresses and interned expression
//! shapes several times per emulated instruction, and the solver's
//! candidate memo hashes a short `Vec<u64>` per check. Their keys are a
//! few machine words, where SipHash's per-call setup dominates the lookup;
//! none of the tables takes keys an adversary chooses, so SipHash's
//! resistance to crafted collisions buys nothing here. No result depends on
//! a table's iteration order, so the hasher changes speed only.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A [`HashSet`] keyed through [`FastHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate hasher over 64-bit words. `finish` folds the high half
/// into the low one: the table picks buckets from the low bits, and keys
/// such as 8-aligned addresses would otherwise leave them constant.
#[derive(Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut h = FastHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 8-aligned stack addresses must not collapse onto a few buckets.
        let buckets: FastSet<u64> =
            (0..512u64).map(|i| hash_of(|h| h.write_u64(0x7fff_0000 + 8 * i)) & 511).collect();
        assert!(buckets.len() > 256, "only {} of 512 buckets used", buckets.len());
    }

    #[test]
    fn byte_tails_of_different_lengths_differ() {
        let a = hash_of(|h| h.write(&[1, 0]));
        let b = hash_of(|h| h.write(&[1]));
        assert_ne!(a, b);
        assert_ne!(hash_of(|h| h.write(&[0; 9])), hash_of(|h| h.write(&[0; 8])));
    }
}

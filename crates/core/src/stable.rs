//! Stable structural hashing for configuration values.
//!
//! The artifact store in `raindrop-server` keys protection results by
//! `(source hash, config hash, seed)`, so the config hash must be *stable*:
//! independent of struct field declaration order, serialization framework
//! quirks, and pointer identity — two configurations that mean the same
//! thing must hash the same today and after a refactor reorders fields.
//!
//! The scheme is a canonical *field bag*: every config renders its fields
//! into a [`FieldBag`] as `(name, canonical value)` pairs, the bag sorts
//! the pairs by name, and the sorted rendering feeds an FNV-1a 128-bit
//! hash. Reordering `put` calls therefore cannot change the digest (pinned
//! by `field_order_does_not_change_the_hash`), while renaming or retyping a
//! field — a genuine semantic change — does.
//!
//! Floats are canonicalized through their IEEE bit pattern, so `0.25`
//! hashes identically on every platform and NaN payload differences are
//! visible rather than collapsed.

use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::ops::Range;

/// FNV-1a over 128 bits: tiny, dependency-free, and wide enough that the
/// artifact store can treat digest equality as identity.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: FNV128_OFFSET }
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// A hasher is a byte sink: serializers stream straight into it (e.g.
/// `serde_json::to_writer`) instead of rendering a buffer to hash.
impl std::io::Write for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        StableHasher::write(self, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hashes a byte string in one call.
pub fn stable_hash_bytes(bytes: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// A canonical bag of named fields. Fields may be added in any order; the
/// digest is computed over the name-sorted rendering.
#[derive(Debug, Clone, Default)]
pub struct FieldBag {
    /// Every field's rendered value, back to back.
    values: String,
    /// Each field's name and the span of its value in `values`.
    fields: Vec<(&'static str, Range<usize>)>,
}

impl FieldBag {
    /// An empty bag.
    pub fn new() -> FieldBag {
        FieldBag::default()
    }

    fn put(&mut self, name: &'static str, value: fmt::Arguments) -> &mut Self {
        let start = self.values.len();
        let _ = self.values.write_fmt(value);
        self.fields.push((name, start..self.values.len()));
        self
    }

    /// Adds an unsigned integer field.
    pub fn put_u64(&mut self, name: &'static str, v: u64) -> &mut Self {
        self.put(name, format_args!("u{v}"))
    }

    /// Adds a boolean field.
    pub fn put_bool(&mut self, name: &'static str, v: bool) -> &mut Self {
        self.put(name, format_args!("b{v}"))
    }

    /// Adds a float field, canonicalized through its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, name: &'static str, v: f64) -> &mut Self {
        self.put(name, format_args!("f{:016x}", v.to_bits()))
    }

    /// Adds a string field (length-prefixed so adjacent fields cannot blend
    /// into each other).
    pub fn put_str(&mut self, name: &'static str, v: &str) -> &mut Self {
        self.put(name, format_args!("s{}:{v}", v.len()))
    }

    /// Adds a nested bag (canonicalized recursively).
    pub fn put_bag(&mut self, name: &'static str, bag: &FieldBag) -> &mut Self {
        self.put(name, format_args!("{{{bag}}}"))
    }

    /// Adds an optional nested bag; `None` renders distinctly from any
    /// `Some` value.
    pub fn put_opt_bag(&mut self, name: &'static str, bag: Option<&FieldBag>) -> &mut Self {
        match bag {
            Some(b) => self.put_bag(name, b),
            None => self.put(name, format_args!("none")),
        }
    }

    /// The canonical rendering: `name=value` pairs sorted by name, joined
    /// with `;`.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// The 128-bit digest of the canonical rendering.
    pub fn digest(&self) -> u128 {
        let mut h = StableHasher::new();
        let _ = write!(h, "{self}");
        h.finish()
    }
}

/// Writes the canonical rendering (see [`FieldBag::canonical`]).
impl fmt::Display for FieldBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut fields: Vec<(&str, &str)> =
            self.fields.iter().map(|(n, span)| (*n, &self.values[span.clone()])).collect();
        fields.sort_unstable();
        for (i, (name, value)) in fields.into_iter().enumerate() {
            let sep = if i > 0 { ";" } else { "" };
            write!(f, "{sep}{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_does_not_change_the_hash() {
        // The store key's correctness anchor: the same logical
        // configuration rendered with its fields in two different orders
        // (as a struct-field reordering would produce) digests identically.
        let mut declared = FieldBag::new();
        declared
            .put_f64("p3_fraction", 0.25)
            .put_bool("p2", true)
            .put_u64("max_rop_depth", 1024)
            .put_str("variant", "Mixed");
        let mut reordered = FieldBag::new();
        reordered
            .put_str("variant", "Mixed")
            .put_u64("max_rop_depth", 1024)
            .put_f64("p3_fraction", 0.25)
            .put_bool("p2", true);
        assert_eq!(declared.canonical(), reordered.canonical());
        assert_eq!(declared.digest(), reordered.digest());
    }

    #[test]
    fn value_changes_do_change_the_hash() {
        let digest = |k: f64, p2: bool| {
            let mut b = FieldBag::new();
            b.put_f64("p3_fraction", k).put_bool("p2", p2);
            b.digest()
        };
        assert_ne!(digest(0.25, true), digest(0.5, true));
        assert_ne!(digest(0.25, true), digest(0.25, false));
    }

    #[test]
    fn nested_and_missing_bags_are_distinct() {
        let mut inner = FieldBag::new();
        inner.put_u64("n", 4);
        let mut with = FieldBag::new();
        with.put_opt_bag("p1", Some(&inner));
        let mut without = FieldBag::new();
        without.put_opt_bag("p1", None);
        assert_ne!(with.digest(), without.digest());
    }

    #[test]
    fn digest_is_pinned() {
        // Guards the canonical format itself: accidentally changing the
        // rendering would silently invalidate every stored artifact key.
        let mut b = FieldBag::new();
        b.put_u64("a", 1).put_bool("b", false).put_f64("c", 1.5).put_str("d", "x");
        assert_eq!(b.canonical(), "a=u1;b=bfalse;c=f3ff8000000000000;d=s1:x");
        assert_eq!(b.digest(), 0x19a8_619e_b738_c20c_6707_8bbe_4079_f2ec_u128);
    }

    #[test]
    fn strings_cannot_blend_across_fields() {
        let mut a = FieldBag::new();
        a.put_str("x", "ab").put_str("y", "c");
        let mut b = FieldBag::new();
        b.put_str("x", "a").put_str("y", "bc");
        assert_ne!(a.digest(), b.digest());
    }
}

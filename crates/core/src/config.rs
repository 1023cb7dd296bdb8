//! Configuration of the ROP rewriter.
//!
//! The knobs mirror Table I of the paper: `ROPk` means "ROP obfuscation with
//! P3 inserted at a fraction *k* of program points and P1 instantiated with
//! `n = 4, s = n, p = 32`". P2 and gadget confusion have no effect on
//! semantics-driven attackers (DSE), so the paper disables them for the
//! resource-measurement experiments; both are independent switches here.

use raindrop_gadgets::CatalogConfig;
use serde::{Deserialize, Serialize};

/// Parameters of the P1 opaque-array predicate (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct P1Config {
    /// Number of branch ordinals encoded in the array (`n`).
    pub n: usize,
    /// Period length in cells (`s >= n`); cells beyond `n` hold garbage.
    pub s: usize,
    /// Number of periods (`p`).
    pub p: usize,
    /// Modulus used by the congruence invariant (`m > n`).
    pub m: u64,
}

impl Default for P1Config {
    fn default() -> Self {
        // The setting used throughout §VII: n = 4, s = n, p = 32.
        P1Config { n: 4, s: 4, p: 32, m: 7 }
    }
}

impl P1Config {
    /// Total number of 64-bit cells in the opaque array.
    pub fn cells(&self) -> usize {
        self.s * self.p
    }
}

/// Which P3 variant to instantiate (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum P3Variant {
    /// The FOR-style opaque recomputation of an input-derived register.
    ForLoop,
    /// Opaque, invariant-preserving updates of the P1 array (implicit flows).
    ArrayUpdate,
    /// Alternate between the two variants from site to site.
    Mixed,
}

/// Full configuration of the ROP rewriter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RopConfig {
    /// Fraction `k` of eligible program points that receive a P3 instance.
    pub p3_fraction: f64,
    /// P3 variant selection.
    pub p3_variant: P3Variant,
    /// P1 opaque-array branch encoding (`None` falls back to the plain
    /// `pop offset; cmov; add rsp` encoding of §IV-B2).
    pub p1: Option<P1Config>,
    /// Enable P2 opaque stack-pointer adjustments on equality branches.
    pub p2: bool,
    /// Enable gadget confusion (immediate disguising + unaligned RSP
    /// updates, §V-D).
    pub gadget_confusion: bool,
    /// Gadget catalog configuration (diversity, scanning, synthesis).
    #[serde(skip)]
    pub catalog: CatalogConfig,
    /// Seed for every obfuscation-time random choice; the same seed and
    /// input image always produce the same output image.
    pub seed: u64,
    /// Maximum ROP-call nesting depth supported by the stack-switching
    /// array.
    pub max_rop_depth: usize,
}

impl Default for RopConfig {
    fn default() -> Self {
        RopConfig {
            p3_fraction: 0.0,
            p3_variant: P3Variant::Mixed,
            p1: Some(P1Config::default()),
            p2: true,
            gadget_confusion: true,
            catalog: CatalogConfig::default(),
            seed: 0xDA1D_0B5C_u64,
            max_rop_depth: 1024,
        }
    }
}

impl RopConfig {
    /// The `ROPk` configuration of Table I: P1 with the paper's parameters,
    /// P3 at fraction `k`, P2 and gadget confusion disabled (they do not
    /// affect the semantics-driven attacks those experiments measure).
    pub fn ropk(k: f64) -> RopConfig {
        RopConfig {
            p3_fraction: k,
            p3_variant: P3Variant::ForLoop,
            p1: Some(P1Config::default()),
            p2: false,
            gadget_confusion: false,
            ..RopConfig::default()
        }
    }

    /// A plain ROP encoding with every strengthening predicate disabled;
    /// the baseline that §V argues is *not* sufficient on its own.
    pub fn plain() -> RopConfig {
        RopConfig {
            p3_fraction: 0.0,
            p1: None,
            p2: false,
            gadget_confusion: false,
            ..RopConfig::default()
        }
    }

    /// The full-strength configuration: P1 + P2 + P3 everywhere + gadget
    /// confusion.
    pub fn full() -> RopConfig {
        RopConfig {
            p3_fraction: 1.0,
            p3_variant: P3Variant::Mixed,
            p1: Some(P1Config::default()),
            p2: true,
            gadget_confusion: true,
            ..RopConfig::default()
        }
    }

    /// Returns a copy with a different seed (used to diversify per-function
    /// obfuscation choices deterministically).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_p1_matches_paper_setting() {
        let p1 = P1Config::default();
        assert_eq!(p1.n, 4);
        assert_eq!(p1.s, p1.n);
        assert_eq!(p1.p, 32);
        assert_eq!(p1.cells(), 128, "128 statically populated cells, §VII-A1");
        assert!(p1.m > p1.n as u64);
    }

    #[test]
    fn ropk_configuration_shape() {
        let c = RopConfig::ropk(0.25);
        assert_eq!(c.p3_fraction, 0.25);
        assert!(c.p1.is_some());
        assert!(!c.p2);
        assert!(!c.gadget_confusion);
        let plain = RopConfig::plain();
        assert!(plain.p1.is_none());
        let full = RopConfig::full();
        assert_eq!(full.p3_fraction, 1.0);
        assert!(full.p2 && full.gadget_confusion);
    }

    #[test]
    fn seeding_is_explicit() {
        let a = RopConfig::default().with_seed(1);
        let b = RopConfig::default().with_seed(2);
        assert_ne!(a.seed, b.seed);
    }
}

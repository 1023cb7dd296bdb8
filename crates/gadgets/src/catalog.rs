//! The gadget catalog: the rewriter's "gadget finder" (Fig. 2 of the paper).
//!
//! The catalog combines two sources of gadgets, exactly as §IV-A1 describes:
//! gadgets already present in program parts left unobfuscated (found by the
//! [`scan`](crate::scan) module) and *artificial* gadgets appended as dead
//! code to `.text` on demand. Requests are made per semantic operation; the
//! catalog diversifies by keeping several equivalent variants per operation
//! and picking among them at random, and it keeps the usage statistics that
//! Table III of the paper reports (total vs. unique gadgets used).

use crate::gadget::{Gadget, GadgetOp};
use crate::scan::{scan_image, ScanConfig};
use crate::synth::{synthesize, SynthConfig};
use raindrop_machine::{Image, RegSet};
use rand::Rng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Catalog configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Probability of synthesizing a *new* variant when equivalent gadgets
    /// already exist (gadget diversity).
    pub diversity: f64,
    /// Maximum number of variants kept per exact operation.
    pub max_variants_per_op: usize,
    /// Configuration of the initial scan over pre-existing code.
    pub scan: ScanConfig,
    /// Configuration of the artificial-gadget synthesizer.
    pub synth: SynthConfig,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            diversity: 0.35,
            max_variants_per_op: 4,
            scan: ScanConfig::default(),
            synth: SynthConfig::default(),
        }
    }
}

/// Usage statistics (Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GadgetStats {
    /// Total number of gadget uses across all chains (column A).
    pub total_used: u64,
    /// Number of distinct gadgets used at least once (column B).
    pub unique_used: u64,
    /// Number of gadgets in the pool (found + synthesized).
    pub pool_size: u64,
    /// Number of artificial gadgets appended to `.text`.
    pub artificial: u64,
}

/// One live gadget in a per-operation list: everything selection reads,
/// so a request never touches the [`Gadget`] it passes over.
#[derive(Debug, Clone, Copy)]
struct Entry {
    index: u32,
    clobbers: RegSet,
    pollutes_flags: bool,
}

/// Multiply-rotate hasher for [`GadgetOp`] keys: an op hashes as a handful
/// of small integers, where SipHash's per-call setup would dominate. The
/// keys come from a small finite set (one op per instruction shape), so
/// SipHash's resistance to crafted collisions buys nothing here.
#[derive(Default)]
struct OpHasher(u64);

impl Hasher for OpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

/// The gadget catalog.
#[derive(Debug, Clone)]
pub struct GadgetCatalog {
    gadgets: Vec<Gadget>,
    /// The unretired gadgets of each operation, in insertion order.
    by_op: HashMap<GadgetOp, Vec<Entry>, BuildHasherDefault<OpHasher>>,
    usage: Vec<u64>,
    config: CatalogConfig,
}

impl GadgetCatalog {
    /// Creates an empty catalog (gadgets will all be synthesized on demand).
    pub fn new(config: CatalogConfig) -> GadgetCatalog {
        GadgetCatalog { gadgets: Vec::new(), by_op: HashMap::default(), usage: Vec::new(), config }
    }

    /// Creates a catalog seeded with the gadgets already present in the
    /// image's `.text` section.
    pub fn from_image(image: &Image, config: CatalogConfig) -> GadgetCatalog {
        let mut cat = GadgetCatalog::new(config);
        for g in scan_image(image, config.scan) {
            cat.insert(g);
        }
        cat
    }

    fn insert(&mut self, g: Gadget) -> usize {
        let idx = self.gadgets.len();
        let entry = Entry {
            index: u32::try_from(idx).expect("gadget pool fits u32 indices"),
            clobbers: g.clobbers,
            pollutes_flags: g.pollutes_flags,
        };
        self.by_op.entry(g.op).or_default().push(entry);
        self.gadgets.push(g);
        self.usage.push(0);
        idx
    }

    /// Retires every gadget whose first byte lies in `[start, end)`.
    ///
    /// The rewriter calls this for the address range of each function it is
    /// about to rewrite: materialization replaces that body with the pivot
    /// stub plus `hlt` filler, so gadgets scanned from it would be destroyed.
    /// This keeps the pool limited to artificial gadgets and gadgets from
    /// "program parts left unobfuscated" (§IV-A1 of the paper). A retired
    /// gadget stays in [`gadgets`](GadgetCatalog::gadgets) and in the
    /// statistics but is never served again. Returns how many gadgets were
    /// retired.
    pub fn retire_range(&mut self, start: u64, end: u64) -> usize {
        let gadgets = &self.gadgets;
        let mut retired = 0;
        for entries in self.by_op.values_mut() {
            let before = entries.len();
            entries.retain(|e| !(start..end).contains(&gadgets[e.index as usize].addr));
            retired += before - entries.len();
        }
        retired
    }

    /// Number of gadgets currently in the pool.
    pub fn pool_size(&self) -> usize {
        self.gadgets.len()
    }

    /// All gadgets in the pool.
    pub fn gadgets(&self) -> &[Gadget] {
        &self.gadgets
    }

    /// Requests a gadget implementing `op` that clobbers no register in
    /// `avoid_clobber` (and, when `preserve_flags` is set, does not pollute
    /// the condition flags).
    ///
    /// If no suitable gadget exists — or the diversity roll asks for a fresh
    /// variant — a new artificial gadget is synthesized, appended as dead
    /// code to the image's `.text` section, and returned. Otherwise one of
    /// the suitable unretired gadgets is picked uniformly. Every successful
    /// request counts towards the usage statistics.
    ///
    /// The gadget is returned borrowed from the pool: copy out what you need
    /// (usually `addr` and `junk_pops.len()`) before the next request.
    /// Selection allocates nothing; only a synthesis does.
    pub fn request<R: Rng + ?Sized>(
        &mut self,
        image: &mut Image,
        op: GadgetOp,
        avoid_clobber: RegSet,
        preserve_flags: bool,
        rng: &mut R,
    ) -> &Gadget {
        let entries = self.by_op.get(&op).map_or(&[][..], Vec::as_slice);
        let suitable = |e: &&Entry| {
            e.clobbers.intersection(avoid_clobber).is_empty()
                && !(preserve_flags && e.pollutes_flags)
        };
        let count = entries.iter().filter(suitable).count();
        let want_new = count == 0
            || (count < self.config.max_variants_per_op && rng.gen_bool(self.config.diversity));

        let idx = if want_new {
            let mut g = synthesize(op, avoid_clobber, preserve_flags, self.config.synth, rng);
            let addr = image.append_text(None, &g.encode());
            g.addr = addr;
            self.insert(g)
        } else {
            let k = rng.gen_range(0..count);
            entries.iter().filter(suitable).nth(k).expect("k < count").index as usize
        };
        self.usage[idx] += 1;
        &self.gadgets[idx]
    }

    /// Usage statistics accumulated so far.
    pub fn stats(&self) -> GadgetStats {
        GadgetStats {
            total_used: self.usage.iter().sum(),
            unique_used: self.usage.iter().filter(|&&u| u > 0).count() as u64,
            pool_size: self.gadgets.len() as u64,
            artificial: self.gadgets.iter().filter(|g| g.artificial).count() as u64,
        }
    }

    /// Resets usage counters (pool contents are kept).
    pub fn reset_stats(&mut self) {
        self.usage.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Inst, Reg};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The collect-and-clone selection `request` replaced: every request
    /// collects the suitable unretired indices into a `Vec` and returns a
    /// clone. Kept only as the oracle the property test checks against.
    struct Reference {
        gadgets: Vec<Gadget>,
        by_op: HashMap<GadgetOp, Vec<usize>>,
        usage: Vec<u64>,
        retired: Vec<bool>,
        config: CatalogConfig,
    }

    impl Reference {
        fn from_image(image: &Image, config: CatalogConfig) -> Reference {
            let mut r = Reference {
                gadgets: Vec::new(),
                by_op: HashMap::new(),
                usage: Vec::new(),
                retired: Vec::new(),
                config,
            };
            for g in scan_image(image, config.scan) {
                r.insert(g);
            }
            r
        }

        fn insert(&mut self, g: Gadget) -> usize {
            let idx = self.gadgets.len();
            self.by_op.entry(g.op).or_default().push(idx);
            self.gadgets.push(g);
            self.usage.push(0);
            self.retired.push(false);
            idx
        }

        fn retire_range(&mut self, start: u64, end: u64) -> usize {
            let mut retired = 0;
            for (i, g) in self.gadgets.iter().enumerate() {
                if !self.retired[i] && g.addr >= start && g.addr < end {
                    self.retired[i] = true;
                    retired += 1;
                }
            }
            retired
        }

        fn request(
            &mut self,
            image: &mut Image,
            op: GadgetOp,
            avoid_clobber: RegSet,
            preserve_flags: bool,
            rng: &mut ChaCha8Rng,
        ) -> Gadget {
            let candidates: Vec<usize> = self
                .by_op
                .get(&op)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&i| {
                            let g = &self.gadgets[i];
                            !self.retired[i]
                                && g.clobbers.intersection(avoid_clobber).is_empty()
                                && (!preserve_flags || !g.pollutes_flags)
                        })
                        .collect()
                })
                .unwrap_or_default();
            let want_new = candidates.is_empty()
                || (candidates.len() < self.config.max_variants_per_op
                    && rng.gen_bool(self.config.diversity));
            let idx = if want_new {
                let mut g = synthesize(op, avoid_clobber, preserve_flags, self.config.synth, rng);
                g.addr = image.append_text(None, &g.encode());
                self.insert(g)
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            self.usage[idx] += 1;
            self.gadgets[idx].clone()
        }

        fn stats(&self) -> GadgetStats {
            GadgetStats {
                total_used: self.usage.iter().sum(),
                unique_used: self.usage.iter().filter(|&&u| u > 0).count() as u64,
                pool_size: self.gadgets.len() as u64,
                artificial: self.gadgets.iter().filter(|g| g.artificial).count() as u64,
            }
        }
    }

    /// Operations the oracle test requests; the first five also occur in
    /// [`gadget_rich_image`], so scanned gadgets compete with synthesized
    /// ones and retirement has something to remove.
    const ORACLE_OPS: [GadgetOp; 8] = [
        GadgetOp::Pop(Reg::Rdi),
        GadgetOp::Pop(Reg::Rsi),
        GadgetOp::MovRR(Reg::Rax, Reg::Rbx),
        GadgetOp::Alu(AluOp::Add, Reg::Rax, Reg::Rcx),
        GadgetOp::Not(Reg::Rdx),
        GadgetOp::AddRsp(Reg::R10),
        GadgetOp::Load(Reg::R11, Reg::R8),
        GadgetOp::Cmov(Cond::Ne, Reg::R9, Reg::Rbx),
    ];

    /// An image whose functions end in the gadgets the scan classifies as
    /// the first [`ORACLE_OPS`], some with a junk `pop` or a flag-writing
    /// `xor` in front.
    fn gadget_rich_image() -> Image {
        let bodies: [&[Inst]; 6] = [
            &[Inst::MovRI(Reg::Rax, 1), Inst::Pop(Reg::Rdi)],
            &[Inst::Pop(Reg::R8), Inst::Pop(Reg::Rsi)],
            &[Inst::MovRR(Reg::Rax, Reg::Rbx)],
            &[Inst::Alu(AluOp::Xor, Reg::R9, Reg::R9), Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx)],
            &[Inst::Pop(Reg::R12), Inst::Not(Reg::Rdx)],
            &[Inst::Pop(Reg::Rdi), Inst::Pop(Reg::Rsi)],
        ];
        let mut b = ImageBuilder::new();
        for (i, body) in bodies.iter().enumerate() {
            let mut a = Assembler::new();
            for inst in *body {
                a.inst(*inst);
            }
            a.inst(Inst::Ret);
            b.add_function(format!("f{i}"), a);
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `request` and `retire_range` make the same choices as the
        /// reference selection: the same gadgets in the same order, the same
        /// `.text` bytes, the same statistics and the same RNG draws.
        #[test]
        fn selection_matches_the_collect_and_clone_reference(
            diversity in 0u8..=4,
            max_variants in 1usize..6,
            seed in any::<u64>(),
            actions in prop::collection::vec(
                (0u8..8, 0usize..ORACLE_OPS.len(), any::<u16>(), any::<bool>(), any::<u16>(), 0u64..48),
                1..120,
            ),
        ) {
            let config = CatalogConfig {
                diversity: f64::from(diversity) / 4.0,
                max_variants_per_op: max_variants,
                ..CatalogConfig::default()
            };
            let mut img = gadget_rich_image();
            let mut ref_img = img.clone();
            let mut cat = GadgetCatalog::from_image(&img, config);
            let mut reference = Reference::from_image(&ref_img, config);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ref_rng = ChaCha8Rng::seed_from_u64(seed);
            for (kind, op, avoid_bits, preserve_flags, at, len) in actions {
                if kind == 0 {
                    let start = img.text_base + u64::from(at) % img.text.len() as u64;
                    prop_assert_eq!(
                        cat.retire_range(start, start + len),
                        reference.retire_range(start, start + len)
                    );
                } else {
                    let avoid = RegSet::from_regs(
                        Reg::ALL.iter().copied().filter(|r| avoid_bits & (1 << r.index()) != 0),
                    );
                    let op = ORACLE_OPS[op];
                    let want =
                        reference.request(&mut ref_img, op, avoid, preserve_flags, &mut ref_rng);
                    let got = cat.request(&mut img, op, avoid, preserve_flags, &mut rng);
                    prop_assert_eq!(got, &want);
                }
            }
            prop_assert_eq!(&img.text, &ref_img.text);
            prop_assert_eq!(cat.gadgets(), reference.gadgets.as_slice());
            prop_assert_eq!(cat.stats(), reference.stats());
            prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
        }
    }

    fn empty_image() -> Image {
        let mut a = Assembler::new();
        a.inst(Inst::MovRI(Reg::Rax, 0)).inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("noop", a);
        b.build().unwrap()
    }

    #[test]
    fn missing_gadgets_are_synthesized_and_land_in_text() {
        let mut img = empty_image();
        let before = img.text.len();
        let mut cat = GadgetCatalog::from_image(&img, CatalogConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), RegSet::EMPTY, false, &mut rng);
        assert!(g.addr >= img.text_base + before as u64);
        assert!(img.text.len() > before);
        // The appended bytes really are the gadget.
        let slice = img.text_slice(g.addr, g.byte_len()).unwrap();
        assert_eq!(slice, g.encode().as_slice());
    }

    #[test]
    fn preexisting_gadgets_are_reused() {
        let mut img = empty_image();
        // The noop function itself contains a `ret`, and appending a
        // hand-made pop gadget makes it discoverable by the scan.
        img.append_text(None, &raindrop_machine::encode_all(&[Inst::Pop(Reg::Rdi), Inst::Ret]));
        let mut cat = GadgetCatalog::from_image(
            &img,
            CatalogConfig { diversity: 0.0, ..CatalogConfig::default() },
        );
        let pool_before = cat.pool_size();
        assert!(pool_before >= 1);
        let text_before = img.text.len();
        let mut rng = StdRng::seed_from_u64(2);
        let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), RegSet::EMPTY, false, &mut rng);
        assert!(!g.artificial);
        assert_eq!(img.text.len(), text_before, "no new gadget was appended");
    }

    #[test]
    fn avoid_clobber_is_respected() {
        let mut img = empty_image();
        let mut cat = GadgetCatalog::new(CatalogConfig {
            diversity: 1.0,
            max_variants_per_op: 8,
            ..CatalogConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let avoid = RegSet::from_regs([Reg::Rax, Reg::Rbx, Reg::Rcx]);
        for _ in 0..20 {
            let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), avoid, true, &mut rng);
            assert!(g.clobbers.intersection(avoid).is_empty());
            assert!(!g.pollutes_flags);
        }
    }

    #[test]
    fn stats_track_total_and_unique_usage() {
        let mut img = empty_image();
        let mut cat = GadgetCatalog::new(CatalogConfig {
            diversity: 0.5,
            max_variants_per_op: 3,
            ..CatalogConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            cat.request(&mut img, GadgetOp::Pop(Reg::Rsi), RegSet::EMPTY, false, &mut rng);
        }
        let stats = cat.stats();
        assert_eq!(stats.total_used, 40);
        assert!(stats.unique_used >= 1 && stats.unique_used <= 3);
        assert!(stats.unique_used <= stats.pool_size);
        assert_eq!(stats.artificial, stats.pool_size);
        cat.reset_stats();
        assert_eq!(cat.stats().total_used, 0);
    }

    #[test]
    fn diversity_zero_converges_to_a_single_variant() {
        let mut img = empty_image();
        let mut cat =
            GadgetCatalog::new(CatalogConfig { diversity: 0.0, ..CatalogConfig::default() });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            cat.request(&mut img, GadgetOp::Neg(Reg::Rax), RegSet::EMPTY, false, &mut rng);
        }
        assert_eq!(cat.stats().unique_used, 1);
    }
}

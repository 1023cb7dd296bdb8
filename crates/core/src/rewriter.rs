//! The end-to-end ROP rewriter (Fig. 2 of the paper).
//!
//! `Rewriter` owns the per-image state shared by every rewritten function
//! (gadget catalog, stack-switching runtime) and runs the full pipeline per
//! function: CFG reconstruction → liveness / input-derived analysis →
//! translation + chain crafting → materialization. The argument registers
//! each callee reads are kept per image ([`ArgSummary`]), so a call keeps
//! live only the registers its callee actually reads.

use crate::config::RopConfig;
use crate::craft::{CraftStats, Crafter};
use crate::error::RewriteError;
use crate::materialize::{MaterializeCtx, Materialized};
use crate::runtime::RopRuntime;
use raindrop_analysis::{dataflow, liveness, ArgSummary};
use raindrop_gadgets::{GadgetCatalog, GadgetStats};
use raindrop_machine::{Image, Reg, RegSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Per-function rewriting report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteReport {
    /// Function name.
    pub name: String,
    /// Program points (original instructions) translated.
    pub program_points: u64,
    /// Crafting statistics (P2/P3/confusion sites, gadget slots, branches).
    pub stats: CraftStats,
    /// Address of the chain in `.data`.
    pub chain_addr: u64,
    /// Size of the chain in bytes.
    pub chain_len: usize,
    /// Number of basic blocks in the reconstructed CFG.
    pub blocks: usize,
    /// The symbolic chain that was materialized at
    /// [`chain_addr`](RewriteReport::chain_addr). Retained so the static
    /// audit ([`crate::verify::audit_rop_function`]) can re-resolve it and
    /// prove the emitted bytes well-formed without any emulation.
    pub chain: crate::chain::Chain,
}

/// Aggregate report over a whole image (deployability experiment §VII-C1 and
/// Table III statistics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImageReport {
    /// Successfully rewritten functions.
    pub rewritten: Vec<RewriteReport>,
    /// Failures with their typed reason.
    pub failures: Vec<(String, RewriteError)>,
    /// Gadget-pool statistics after rewriting (columns A/B of Table III).
    pub gadgets: GadgetStats,
}

impl ImageReport {
    /// Fraction of attempted functions successfully rewritten.
    pub fn coverage(&self) -> f64 {
        let total = self.rewritten.len() + self.failures.len();
        if total == 0 {
            return 1.0;
        }
        self.rewritten.len() as f64 / total as f64
    }

    /// Total number of program points across rewritten functions (column N).
    pub fn program_points(&self) -> u64 {
        self.rewritten.iter().map(|r| r.program_points).sum()
    }
}

/// Per-image state installed into the image on the first rewrite: the
/// stack-switching runtime, the gadget catalog seeded from the gadgets
/// already present in unobfuscated code, and the argument registers the
/// functions reachable from the rewritten ones read.
struct Attached {
    runtime: RopRuntime,
    catalog: GadgetCatalog,
    args: ArgSummary,
}

/// Whether an earlier ROP pass replaced `name` by a pivot stub: its chain's
/// argument reads are no longer in the text.
fn rewritten_by_earlier_pass(image: &Image, name: &str) -> bool {
    image.symbols.contains_key(&format!("__rop_chain_{name}"))
}

/// The ROP rewriter.
///
/// A `Rewriter` owns configuration and per-image rewriting state (runtime,
/// gadget catalog, reusable materialization buffers) but never borrows the
/// image itself: every method takes the image exactly once. The runtime and
/// catalog are installed lazily on the first `rewrite_*` call, so a rewriter
/// must only ever be used with a single image.
pub struct Rewriter {
    config: RopConfig,
    attached: Option<Attached>,
    rewritten: BTreeSet<String>,
    mat: MaterializeCtx,
}

impl Rewriter {
    /// Creates a rewriter with the given configuration. The stack-switching
    /// runtime is installed (and the gadget catalog seeded) into the image
    /// passed to the first `rewrite_*` call.
    pub fn new(config: RopConfig) -> Rewriter {
        Rewriter { config, attached: None, rewritten: BTreeSet::new(), mat: MaterializeCtx::new() }
    }

    /// Installs the runtime and seeds the catalog on first use.
    ///
    /// # Panics
    ///
    /// Panics when the rewriter is already attached and `image` does not
    /// carry the installed runtime (i.e. a second, different image was
    /// passed): the catalog and runtime addresses would be meaningless
    /// there and the rewrite would corrupt it silently.
    fn attach(&mut self, image: &mut Image) {
        match &self.attached {
            None => {
                let runtime = RopRuntime::install(image, &self.config);
                let catalog = GadgetCatalog::from_image(image, self.config.catalog);
                self.attached = Some(Attached { runtime, catalog, args: ArgSummary::default() });
            }
            Some(att) => {
                assert_eq!(
                    image.symbol(crate::runtime::SS_SYMBOL).ok(),
                    Some(att.runtime.ss_addr),
                    "Rewriter is attached to a different image; use one Rewriter per image"
                );
            }
        }
    }

    /// The configuration the rewriter was created with.
    pub fn config(&self) -> &RopConfig {
        &self.config
    }

    /// Seeds the rewriter with an existing warm [`MaterializeCtx`], so its
    /// materialization buffers are reused instead of reallocated. Output is
    /// bit-identical to a fresh context; only allocation churn changes.
    pub fn with_mat_ctx(mut self, ctx: MaterializeCtx) -> Rewriter {
        self.mat = ctx;
        self
    }

    /// Takes the materialization buffers back out of the rewriter (leaving
    /// a fresh default context behind), so a caller that owns warm state —
    /// e.g. a protection-server worker — can carry them to the next
    /// rewriter.
    pub fn take_mat_ctx(&mut self) -> MaterializeCtx {
        std::mem::take(&mut self.mat)
    }

    /// Gadget-pool statistics accumulated so far (zero before the first
    /// rewrite attaches the catalog).
    pub fn gadget_stats(&self) -> GadgetStats {
        self.attached.as_ref().map(|a| a.catalog.stats()).unwrap_or_default()
    }

    /// Rewrites a single function into a self-contained ROP chain.
    ///
    /// # Errors
    ///
    /// Returns a [`RewriteError`] describing why the function could not be
    /// rewritten; the image is left with whatever gadgets/data were appended
    /// but the function body itself is only replaced on success.
    pub fn rewrite_function(
        &mut self,
        image: &mut Image,
        name: &str,
    ) -> Result<RewriteReport, RewriteError> {
        if self.rewritten.contains(name) {
            return Err(RewriteError::AlreadyRewritten { name: name.to_string() });
        }
        self.attach(image);
        // Size gate first: mirrors the paper's decision to skip functions
        // shorter than the pivoting sequence.
        let func = image.function(name)?.clone();
        let stub_len = RopRuntime::pivot_stub_len();
        if func.size < stub_len {
            return Err(RewriteError::FunctionTooShort { size: func.size, needed: stub_len });
        }

        let att = self.attached.as_mut().expect("attached above");
        let runtime = att.runtime;

        // Gadgets scanned from inside this function must never be used: the
        // materialization step replaces the body with the pivot stub plus
        // `hlt` filler, which would destroy them. The pool is limited to
        // artificial gadgets and gadgets from parts left unobfuscated
        // (§IV-A1).
        att.catalog.retire_range(func.addr, func.addr + func.size);

        // Every function this rewriter replaced was covered before its body
        // became a pivot stub; one an earlier pass replaced reads all six.
        let graph = att.args.cover(image, name, |f| rewritten_by_earlier_pass(image, f))?;
        let live = liveness::analyze(&graph, &att.args);
        let derived = dataflow::input_derived(&graph, RegSet::from_regs(Reg::ARGS));

        // Derive a per-function seed so each function gets independent (but
        // reproducible) obfuscation-time choices.
        let seed = self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(func.addr);

        let crafter = Crafter::new(
            image,
            &mut att.catalog,
            &runtime,
            &self.config,
            &graph,
            &live,
            &derived,
            &att.args,
            seed,
        );
        let (chain, stats, _p1) = crafter.craft()?;
        let materialized: Materialized = self.mat.materialize(image, &runtime, name, &chain)?;

        self.rewritten.insert(name.to_string());
        Ok(RewriteReport {
            name: name.to_string(),
            program_points: stats.program_points,
            stats,
            chain_addr: materialized.chain_addr,
            chain_len: materialized.chain_len,
            blocks: graph.len(),
            chain,
        })
    }

    /// Rewrites every function in `names`, collecting successes and failures
    /// (the deployability experiment of §VII-C1).
    pub fn rewrite_functions<'n, I: IntoIterator<Item = &'n str>>(
        &mut self,
        image: &mut Image,
        names: I,
    ) -> ImageReport {
        let names: Vec<&str> = names.into_iter().collect();
        self.attach(image);
        // Retire the gadgets living inside *any* function scheduled for
        // rewriting up front, so a chain crafted early never references a
        // gadget destroyed when a later function's body is replaced.
        let att = self.attached.as_mut().expect("attached above");
        for name in &names {
            if let Ok(f) = image.function(name) {
                let (addr, size) = (f.addr, f.size);
                att.catalog.retire_range(addr, addr + size);
            }
        }
        let mut report = ImageReport::default();
        for name in names {
            match self.rewrite_function(image, name) {
                Ok(r) => report.rewritten.push(r),
                Err(e) => report.failures.push((name.to_string(), e)),
            }
        }
        report.gadgets = self.gadget_stats();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::{AluOp, Assembler, Cond, Emulator, Inst, Mem, Reg};

    /// Builds an image with a compiler-shaped function computing
    /// `f(a, b) = a > b ? (a - b) * 3 : (b - a) + 7`, with a stack frame.
    fn sample_image() -> Image {
        let mut a = Assembler::new();
        let else_l = a.new_label();
        let join = a.new_label();
        a.inst(Inst::Push(Reg::Rbp));
        a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
        a.inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16));
        a.inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi));
        a.inst(Inst::Cmp(Reg::Rdi, Reg::Rsi));
        a.jcc(Cond::Be, else_l);
        a.inst(Inst::Load(Reg::Rax, Mem::base_disp(Reg::Rbp, -8)));
        a.inst(Inst::Alu(AluOp::Sub, Reg::Rax, Reg::Rsi));
        a.inst(Inst::MulI(Reg::Rax, Reg::Rax, 3));
        a.jmp(join);
        a.bind(else_l);
        a.inst(Inst::MovRR(Reg::Rax, Reg::Rsi));
        a.inst(Inst::Alu(AluOp::Sub, Reg::Rax, Reg::Rdi));
        a.inst(Inst::AluI(AluOp::Add, Reg::Rax, 7));
        a.bind(join);
        a.inst(Inst::Leave);
        a.inst(Inst::Ret);
        let mut b = raindrop_machine::ImageBuilder::new();
        b.add_function("f", a);
        b.build().unwrap()
    }

    fn reference(a: u64, b: u64) -> u64 {
        if a > b {
            (a - b) * 3
        } else {
            (b - a) + 7
        }
    }

    fn check_equivalence(config: RopConfig) {
        let original = sample_image();
        let mut obf = original.clone();
        let mut rewriter = Rewriter::new(config);
        let report = rewriter.rewrite_function(&mut obf, "f").expect("rewrite succeeds");
        assert!(report.program_points > 0);
        assert!(report.chain_len > 0);

        for (a, b) in [(10u64, 3u64), (3, 10), (5, 5), (0, 0), (1000, 999), (7, 123)] {
            let mut emu_orig = Emulator::new(&original);
            let expected = emu_orig.call_named(&original, "f", &[a, b]).unwrap();
            assert_eq!(expected, reference(a, b));
            let mut emu_obf = Emulator::new(&obf);
            let got = emu_obf.call_named(&obf, "f", &[a, b]).unwrap();
            assert_eq!(got, expected, "f({a}, {b}) under {:?}", rewriter.config().p1);
        }
    }

    #[test]
    fn plain_rop_rewrite_preserves_semantics() {
        check_equivalence(RopConfig::plain());
    }

    #[test]
    fn p1_rewrite_preserves_semantics() {
        check_equivalence(RopConfig::ropk(0.0));
    }

    #[test]
    fn full_strength_rewrite_preserves_semantics() {
        check_equivalence(RopConfig::full());
    }

    #[test]
    fn rewriting_twice_is_rejected() {
        let mut img = sample_image();
        let mut rw = Rewriter::new(RopConfig::plain());
        rw.rewrite_function(&mut img, "f").unwrap();
        assert!(matches!(
            rw.rewrite_function(&mut img, "f"),
            Err(RewriteError::AlreadyRewritten { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "different image")]
    fn reusing_a_rewriter_across_images_panics() {
        let mut first = sample_image();
        let mut second = sample_image();
        let mut rw = Rewriter::new(RopConfig::plain());
        rw.rewrite_function(&mut first, "f").unwrap();
        // `second` never saw the runtime install; the attach check must
        // refuse to treat it as the attached image.
        let _ = rw.rewrite_functions(&mut second, ["f"]);
    }

    /// `f` keeps every register but `rax` live across `add rax, 5`, whose
    /// lowering needs a scratch register for the immediate.
    fn pressure_image() -> Image {
        let regs = Reg::ALL.into_iter().filter(|r| !matches!(r, Reg::Rax | Reg::Rsp));
        let mut a = Assembler::new();
        for (i, r) in regs.clone().enumerate() {
            a.inst(Inst::MovRI(r, i as i64));
        }
        a.inst(Inst::MovRI(Reg::Rax, 0)).inst(Inst::AluI(AluOp::Add, Reg::Rax, 5));
        for r in regs {
            a.inst(Inst::Alu(AluOp::Add, Reg::Rax, r));
        }
        a.inst(Inst::Ret);
        let mut b = raindrop_machine::ImageBuilder::new();
        b.add_function("f", a);
        b.build().unwrap()
    }

    #[test]
    fn register_pressure_names_the_instruction_that_could_not_be_lowered() {
        let corpus = raindrop_synth::corpus::generate(120, 8);
        let pressure = corpus.names_of(raindrop_synth::CorpusKind::RegisterPressure);
        let cases = pressure.into_iter().map(|name| (corpus.image.clone(), name));
        for (mut img, name) in cases.chain([(pressure_image(), "f")]) {
            let f = img.function(name).unwrap().clone();
            let err = Rewriter::new(RopConfig::full()).rewrite_function(&mut img, name);
            let Err(RewriteError::RegisterPressure { addr }) = err else {
                panic!("{name}: expected register pressure, got {err:?}");
            };
            assert!(addr > f.addr && addr < f.addr + f.size, "{name}: {addr:#x} not in body");
        }
    }

    #[test]
    fn the_argument_summary_recovers_codegen_arity() {
        use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};
        // `f{n}` returns the sum of its `n` parameters.
        let program = (0..=6).fold(Program::new(), |p, params| {
            let sum = (0..params).fold(Expr::c(1), |e, i| Expr::bin(BinOp::Add, e, Expr::Arg(i)));
            let body = vec![Stmt::Return(sum)];
            p.with_function(Function { name: format!("f{params}"), params, locals: 0, body })
        });
        let img = raindrop_synth::codegen::compile(&program).unwrap();
        let mut args = ArgSummary::default();
        for params in 0..=6 {
            let name = format!("f{params}");
            args.cover(&img, &name, |_| false).unwrap();
            let addr = img.function(&name).unwrap().addr;
            assert_eq!(args.reads(addr), RegSet::from_regs(Reg::ARGS[..params].iter().copied()));
        }
    }

    #[test]
    fn a_callee_an_earlier_pass_rewrote_reads_every_argument() {
        let mut img = sample_image();
        let reads = |img: &Image| {
            let mut args = ArgSummary::default();
            args.cover(img, "f", |name| rewritten_by_earlier_pass(img, name)).unwrap();
            args.reads(img.function("f").unwrap().addr)
        };
        assert_eq!(reads(&img), RegSet::from_regs([Reg::Rdi, Reg::Rsi]));
        Rewriter::new(RopConfig::plain()).rewrite_function(&mut img, "f").unwrap();
        assert_eq!(reads(&img), RegSet::from_regs(Reg::ARGS));
    }

    #[test]
    fn image_report_aggregates_coverage() {
        let mut img = sample_image();
        let mut rw = Rewriter::new(RopConfig::plain());
        let report = rw.rewrite_functions(&mut img, ["f", "missing"]);
        assert_eq!(report.rewritten.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert!((report.coverage() - 0.5).abs() < 1e-9);
        assert!(report.program_points() > 0);
        assert!(report.gadgets.total_used > 0);
        assert!(report.gadgets.unique_used <= report.gadgets.total_used);
    }
}

//! The obfuscation pipeline: one executor for ROP rewriting, VM layering,
//! materialization and differential verification.
//!
//! The paper's experiments are all *compositions* — `ROPk` rewriting, `nVM`
//! interpreter stacks, and mixtures of the two — but each building block
//! lives at a different level: VM virtualization transforms MiniC source,
//! ROP rewriting transforms the compiled image. An [`ObfConfig`] lists the
//! passes in *nesting order* (the first pass is the innermost protection
//! layer); [`ObfConfig::pipeline`] pairs it with one RNG seed into a
//! [`Pipeline`], which plans where each pass runs, compiles the program at
//! the source→image boundary, runs every pass with that seed, and
//! differentially verifies the result against the unobfuscated baseline
//! through [`verify_batch`].
//!
//! Cross-level orders compose too:
//!
//! * **ROP over VM** (`.vm(..)` then `.rop(..)`): the function is
//!   virtualized first and the generated interpreter is then rewritten into
//!   a ROP chain.
//! * **VM over ROP** (`.rop(..)` then `.vm(..)`): the pipeline splits the
//!   target — the original body moves to an inner function
//!   ([`rop_inner_name`]) that the ROP pass rewrites in the image, while a
//!   wrapper with the public name forwards to it and is what the VM pass
//!   virtualizes. The VM interpreter then dispatches into the ROP chain.
//!
//! # Example
//!
//! ```
//! use raindrop::pipeline::{ObfConfig, VerifyPolicy};
//! use raindrop::RopConfig;
//! use raindrop_obfvm::VmConfig;
//! use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};
//!
//! # fn main() -> Result<(), raindrop::PipelineError> {
//! // f(x) = 3*x + 1, as MiniC source.
//! let program = Program::new().with_function(Function {
//!     name: "f".into(),
//!     params: 1,
//!     locals: 0,
//!     body: vec![Stmt::Return(Expr::bin(
//!         BinOp::Add,
//!         Expr::bin(BinOp::Mul, Expr::c(3), Expr::Arg(0)),
//!         Expr::c(1),
//!     ))],
//! });
//!
//! // ROP over VM: virtualize f, then ROP-rewrite the interpreter.
//! let run = ObfConfig::new()
//!     .vm(VmConfig::plain(1))
//!     .rop(RopConfig::full())
//!     .pipeline(7)
//!     .verify(VerifyPolicy::Batch)
//!     .run_program(&program, &["f"])?;
//!
//! assert!(run.report.failures.is_empty());
//! assert!(run.report.all_verified(), "pipeline output matches the baseline");
//! let mut emu = raindrop_machine::Emulator::new(&run.image);
//! assert_eq!(emu.call_named(&run.image, "f", &[5]).unwrap(), 16);
//! # Ok(())
//! # }
//! ```

use crate::config::{P3Variant, RopConfig};
use crate::error::RewriteError;
use crate::lint::{lint_program, RewriteLint};
use crate::materialize::MaterializeCtx;
use crate::rewriter::{ImageReport, Rewriter};
use crate::stable::{FieldBag, StableHasher};
use crate::verify::{
    audit_rop_image, audit_symbols, audit_vm_code, verify_batch, StaticDiagnostic, TestCase,
    Verdict,
};
use raindrop_machine::{AsmError, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig, VmError};
use raindrop_synth::codegen;
use raindrop_synth::minic::{Expr, Function, Program, Stmt};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Errors that abort a whole pipeline run (per-target obfuscation failures
/// are collected in [`ObfReport::failures`] instead).
#[derive(Debug)]
pub enum PipelineError {
    /// A requested target function does not exist in the input.
    UnknownTarget(String),
    /// The same target function was requested twice (the wrapper split
    /// would produce colliding inner names).
    DuplicateTarget(String),
    /// A source-level pass was scheduled on an image-only input
    /// ([`Pipeline::run_image`] cannot go back to source).
    SourcePassOnImage {
        /// Label of the offending pass.
        pass: String,
    },
    /// Compiling the (transformed) program failed.
    Codegen(AsmError),
    /// Strict-mode summary of a per-target failure (see
    /// [`PipelineRun::into_strict`]).
    TargetFailed {
        /// The public name of the function that failed.
        function: String,
        /// The recorded failure reason.
        reason: TargetError,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownTarget(n) => write!(f, "unknown target function `{n}`"),
            PipelineError::DuplicateTarget(n) => {
                write!(f, "target function `{n}` was requested more than once")
            }
            PipelineError::SourcePassOnImage { pass } => {
                write!(f, "source-level pass `{pass}` cannot run on an image-only input")
            }
            PipelineError::Codegen(e) => write!(f, "code generation failed: {e}"),
            PipelineError::TargetFailed { function, reason } => {
                write!(f, "obfuscating `{function}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Why one target function failed in a pipeline pass (collected in
/// [`ObfReport::failures`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TargetError {
    /// The ROP rewriter rejected the function.
    Rop(RewriteError),
    /// The VM obfuscator rejected the function.
    Vm(VmError),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Rop(e) => write!(f, "{e}"),
            TargetError::Vm(e) => write!(f, "vm obfuscation failed: {e}"),
        }
    }
}

impl std::error::Error for TargetError {}

/// Reusable scratch state threaded through pipeline runs.
///
/// A `PipelineWarm` owns the allocation-heavy buffers a run needs (today:
/// the [`MaterializeCtx`] behind every ROP pass). One-shot callers never
/// see it — [`Pipeline::run_program`] creates a fresh one per run — but a
/// long-running service holds one per worker and passes it to
/// [`Pipeline::run_program_with`] so consecutive protection jobs reuse warm
/// buffers. Reuse is invisible in the output: runs with a warm state are
/// bit-identical to fresh runs (pinned by `warm_state_reuse_is_invisible`).
#[derive(Debug, Default)]
pub struct PipelineWarm {
    mat: MaterializeCtx,
}

impl PipelineWarm {
    /// Fresh (cold) scratch state.
    pub fn new() -> PipelineWarm {
        PipelineWarm::default()
    }
}

/// What a pass did, for the [`ObfReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum PassDetail {
    /// ROP rewriting: the full per-image report (per-function coverage,
    /// chain/materialize sizes, gadget statistics).
    Rop(ImageReport),
    /// VM virtualization: layers and per-function bytecode sizes.
    Vm(VmReport),
    /// The pass was skipped — either every one of its targets had already
    /// failed an earlier pass, or a per-pass restriction
    /// ([`ObfConfig::only`]) excluded every target of this run. The image
    /// was left untouched by it.
    Skipped,
}

/// Statistics of one VM pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VmReport {
    /// Layers this pass applied.
    pub layers: usize,
    /// Per-function results: `(public name, bytecode bytes per layer,
    /// innermost first)`.
    pub functions: Vec<(String, Vec<usize>)>,
    /// The seed the pass virtualized with (drives each layer's opcode
    /// shuffle; the static audit re-derives the assignment from it).
    pub seed: u64,
    /// Snapshot of every bytecode blob the pass emitted, so the static
    /// audit can byte-compare and re-decode them in the final image.
    pub code: Vec<VmCode>,
}

/// One bytecode blob a VM pass emitted (see [`VmReport::code`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VmCode {
    /// Public name of the virtualized function.
    pub function: String,
    /// Absolute layer number (accounts for layers stacked by earlier
    /// passes).
    pub layer: usize,
    /// The blob's `.data` symbol (`__vm<layer>_<func>_code`).
    pub symbol: String,
    /// The bytecode bytes as compiled.
    pub bytes: Vec<u8>,
}

/// One entry of [`ObfReport::passes`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// The pass label ([`PassSpec::label`]).
    pub label: String,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Structured statistics.
    pub detail: PassDetail,
}

impl PassReport {
    /// The ROP rewriting report, when this pass was a ROP pass.
    pub fn rop(&self) -> Option<&ImageReport> {
        match &self.detail {
            PassDetail::Rop(r) => Some(r),
            _ => None,
        }
    }

    /// The VM report, when this pass was a VM pass.
    pub fn vm(&self) -> Option<&VmReport> {
        match &self.detail {
            PassDetail::Vm(r) => Some(r),
            _ => None,
        }
    }
}

/// Differential verification result for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOutcome {
    /// The public target name.
    pub function: String,
    /// Per-case verdicts, in case order.
    pub verdicts: Vec<Verdict>,
}

impl VerifyOutcome {
    /// Whether every case matched.
    pub fn all_match(&self) -> bool {
        self.verdicts.iter().all(Verdict::is_match)
    }
}

/// Static-audit findings of one pass (see [`Pipeline::static_audit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// The audited pass's label (or `"image"` for the whole-image symbol
    /// audit appended after the per-pass entries).
    pub pass: String,
    /// Diagnostics the audit raised (empty on a healthy image).
    pub diagnostics: Vec<StaticDiagnostic>,
}

/// The unified report of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObfReport {
    /// Per-pass reports, in declared (nesting) order.
    pub passes: Vec<PassReport>,
    /// Per-target failures, keyed by *public* target name. Targets listed
    /// here were skipped by later passes and excluded from verification.
    pub failures: Vec<(String, TargetError)>,
    /// Differential verification outcomes (empty under
    /// [`VerifyPolicy::None`]).
    pub verify: Vec<VerifyOutcome>,
    /// Static-audit findings, one entry per pass plus a final `"image"`
    /// entry (populated under [`VerifyPolicy::Static`], empty otherwise).
    pub audit: Vec<AuditEntry>,
    /// Pre-flight source lints on the rewrite targets (populated under
    /// [`VerifyPolicy::Static`] when the input was a program). Lints are
    /// advisory — they predict per-target rewrite failures, they do not
    /// make [`ObfReport::audit_clean`] false.
    pub lints: Vec<RewriteLint>,
    /// Wall-clock time of the source→image compilation step (zero when the
    /// input was already an image).
    pub compile_wall: Duration,
    /// Wall-clock time of the verification step.
    pub verify_wall: Duration,
    /// Wall-clock time of the whole run.
    pub total_wall: Duration,
}

impl ObfReport {
    /// The ROP pass reports, in declared order.
    pub fn rop_passes(&self) -> Vec<&ImageReport> {
        self.passes.iter().filter_map(PassReport::rop).collect()
    }

    /// Whether verification ran and every target matched on every case.
    pub fn all_verified(&self) -> bool {
        !self.verify.is_empty() && self.verify.iter().all(VerifyOutcome::all_match)
    }

    /// Whether the static audit ran and raised no diagnostic.
    pub fn audit_clean(&self) -> bool {
        !self.audit.is_empty() && self.audit.iter().all(|e| e.diagnostics.is_empty())
    }

    /// Every static-audit diagnostic, across all passes.
    pub fn audit_diagnostics(&self) -> impl Iterator<Item = &StaticDiagnostic> {
        self.audit.iter().flat_map(|e| e.diagnostics.iter())
    }
}

/// Result of a pipeline run: the obfuscated image plus the unified report.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// The final (obfuscated) image.
    pub image: Image,
    /// The unified report.
    pub report: ObfReport,
}

impl PipelineRun {
    /// Strict-mode accessor: the final image, or the first per-target
    /// failure promoted to a [`PipelineError::TargetFailed`].
    ///
    /// # Errors
    ///
    /// Fails when any target failed in any pass.
    pub fn into_strict(self) -> Result<(Image, ObfReport), PipelineError> {
        if let Some((function, reason)) = self.report.failures.first() {
            return Err(PipelineError::TargetFailed {
                function: function.clone(),
                reason: reason.clone(),
            });
        }
        Ok((self.image, self.report))
    }
}

/// How a pipeline run verifies its output against the unobfuscated
/// baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum VerifyPolicy {
    /// No verification.
    #[default]
    None,
    /// Differential verification over [`default_verify_cases`] via
    /// [`verify_batch`].
    Batch,
    /// Differential verification over caller-provided cases.
    Cases(Vec<TestCase>),
    /// Zero-emulation static audit: every emitted chain is re-resolved and
    /// checked gadget-by-gadget, every VM bytecode blob byte-compared and
    /// re-decoded, and the symbol table bounds-checked — populating
    /// [`ObfReport::audit`] (and, for program inputs, pre-flight
    /// [`ObfReport::lints`]) instead of running test cases. See
    /// [`ObfReport::audit_clean`].
    Static,
}

/// The register-argument corner cases [`VerifyPolicy::Batch`] runs: zero,
/// small values, a byte pattern and the full 64-bit width.
pub fn default_verify_cases() -> Vec<TestCase> {
    [0u64, 1, 5, 0xAB, u64::MAX].iter().map(|v| TestCase::args(&[*v])).collect()
}

/// Name of the inner function an image-stage pass at `pass_index` rewrites
/// when later source passes forced a wrapper split (see the module docs on
/// VM-over-ROP).
pub fn rop_inner_name(pass_index: usize, func: &str) -> String {
    format!("__pipeline_rop{pass_index}_{func}")
}

/// Moves `func`'s body to a new function named `inner` and replaces `func`
/// with a thin wrapper forwarding its arguments to `inner`. This is the
/// source-level split the pipeline applies so an image-stage pass can end up
/// *underneath* later source-stage passes; it is public so direct-call
/// sequences (and the differential tests pinning them) can reproduce
/// pipeline output exactly.
///
/// # Errors
///
/// Fails when `func` does not exist in the program.
pub fn wrap_rop_target(
    program: &mut Program,
    func: &str,
    inner: &str,
) -> Result<(), PipelineError> {
    let idx = program
        .functions
        .iter()
        .position(|f| f.name == func)
        .ok_or_else(|| PipelineError::UnknownTarget(func.to_string()))?;
    let params = program.functions[idx].params;
    program.functions[idx].name = inner.to_string();
    program.functions.push(Function {
        name: func.to_string(),
        params,
        locals: 0,
        body: vec![Stmt::Return(Expr::Call(
            inner.to_string(),
            (0..params).map(Expr::Arg).collect(),
        ))],
    });
    Ok(())
}

/// One pass of an [`ObfConfig`] chain. ROP passes transform the compiled
/// image; VM passes transform the MiniC source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PassSpec {
    /// ROP rewriting with this configuration.
    Rop(RopConfig),
    /// VM virtualization with this configuration.
    Vm(VmConfig),
}

impl PassSpec {
    /// Table I-style label of this pass.
    pub fn label(&self) -> String {
        match self {
            PassSpec::Rop(cfg) if cfg.p1.is_none() && cfg.p3_fraction == 0.0 => {
                "ROPplain".to_string()
            }
            PassSpec::Rop(cfg) => format!("ROP{:.2}", cfg.p3_fraction),
            PassSpec::Vm(cfg) => cfg.label(),
        }
    }

    /// The canonical field bag this pass hashes to. Per-pass RNG seeds are
    /// deliberately excluded: the artifact key carries the seed as its own
    /// component, so two requests differing only in seed share a config
    /// hash (and still get distinct artifacts).
    fn fields(&self) -> FieldBag {
        let mut bag = FieldBag::new();
        match self {
            PassSpec::Rop(cfg) => {
                bag.put_str("kind", "rop");
                bag.put_f64("p3_fraction", cfg.p3_fraction);
                bag.put_str(
                    "p3_variant",
                    match cfg.p3_variant {
                        P3Variant::ForLoop => "for_loop",
                        P3Variant::ArrayUpdate => "array_update",
                        P3Variant::Mixed => "mixed",
                    },
                );
                let p1 = cfg.p1.map(|p1| {
                    let mut b = FieldBag::new();
                    b.put_u64("n", p1.n as u64)
                        .put_u64("s", p1.s as u64)
                        .put_u64("p", p1.p as u64)
                        .put_u64("m", p1.m);
                    b
                });
                bag.put_opt_bag("p1", p1.as_ref());
                bag.put_bool("p2", cfg.p2);
                bag.put_bool("gadget_confusion", cfg.gadget_confusion);
                let mut catalog = FieldBag::new();
                catalog
                    .put_f64("diversity", cfg.catalog.diversity)
                    .put_u64("max_variants_per_op", cfg.catalog.max_variants_per_op as u64)
                    .put_u64("scan_max_insts", cfg.catalog.scan.max_insts as u64)
                    .put_u64("scan_max_lookback", cfg.catalog.scan.max_lookback as u64)
                    .put_u64("synth_max_junk", cfg.catalog.synth.max_junk as u64)
                    .put_f64("synth_junk_prob", cfg.catalog.synth.junk_prob);
                bag.put_bag("catalog", &catalog);
                bag.put_u64("max_rop_depth", cfg.max_rop_depth as u64);
                bag.put_u64("spill_slots", cfg.spill_slots as u64);
            }
            PassSpec::Vm(cfg) => {
                bag.put_str("kind", "vm");
                bag.put_u64("layers", cfg.layers as u64);
                bag.put_str(
                    "implicit",
                    match cfg.implicit {
                        ImplicitAt::None => "none",
                        ImplicitAt::First => "first",
                        ImplicitAt::Last => "last",
                        ImplicitAt::All => "all",
                    },
                );
            }
        }
        bag
    }
}

/// A declarative, *hashable* pipeline configuration: the pass chain in
/// nesting order (innermost first), without seeds.
///
/// This is the serializable half of a protection request — what the server
/// stores, hashes into artifact keys and turns into an executable
/// [`Pipeline`] with [`ObfConfig::pipeline`]. [`ObfConfig::config_hash`]
/// is *stable*: derived from a canonical name-sorted field encoding (see
/// [`crate::stable`]), so struct-field reordering can never silently remap
/// stored artifacts, while any semantic change to a knob does.
///
/// # Example
///
/// ```
/// use raindrop::pipeline::ObfConfig;
/// use raindrop::RopConfig;
/// use raindrop_obfvm::VmConfig;
///
/// // ROP over 1VM, declared innermost-first.
/// let config = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));
/// assert_eq!(config.label(), "ROP0.25-over-1VM");
/// // The hash ignores per-pass seeds: the request seed is keyed separately.
/// let reseeded =
///     ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25).with_seed(99));
/// assert_eq!(config.config_hash(), reseeded.config_hash());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ObfConfig {
    /// Passes in nesting order (the first pass is the innermost layer),
    /// each with its target restriction. `None` applies the pass to the
    /// whole run target list; `Some(set)` intersects with it — see
    /// [`ObfConfig::only`]. Restrictions are set semantics and participate
    /// in [`ObfConfig::config_hash`] only when present, so unrestricted
    /// configurations keep their historical hashes.
    pub passes: Vec<(PassSpec, Option<Vec<String>>)>,
}

impl ObfConfig {
    /// An empty configuration (protecting with it is the identity).
    pub fn new() -> ObfConfig {
        ObfConfig::default()
    }

    /// Appends a ROP pass (builder style; its `seed` field is ignored by
    /// [`ObfConfig::pipeline`] and [`ObfConfig::config_hash`]).
    ///
    /// Two ROP passes may target the same function only when a VM pass
    /// sits between them (the wrapper split then gives each its own body):
    /// ROP-rewriting a function that an earlier ROP pass already replaced
    /// with a pivot stub is meaningless and records a per-target failure.
    pub fn rop(mut self, cfg: RopConfig) -> ObfConfig {
        self.passes.push((PassSpec::Rop(cfg), None));
        self
    }

    /// Appends a VM pass (builder style; its `seed` field is ignored by
    /// [`ObfConfig::pipeline`] and [`ObfConfig::config_hash`]).
    pub fn vm(mut self, cfg: VmConfig) -> ObfConfig {
        self.passes.push((PassSpec::Vm(cfg), None));
        self
    }

    /// Restricts the most recently appended pass to `targets`, so one run
    /// can protect disjoint function subsets with different configurations
    /// (e.g. VM-virtualize `f` while ROP-rewriting `g`). Set semantics:
    /// order and duplicates are ignored; names absent from a run's target
    /// list simply never match. A pass whose restriction excludes every run
    /// target is recorded as [`PassDetail::Skipped`] and leaves the
    /// program/image untouched.
    ///
    /// # Panics
    ///
    /// Panics when no pass has been appended yet.
    pub fn only<S: AsRef<str>>(mut self, targets: &[S]) -> ObfConfig {
        let (_, only) = self.passes.last_mut().expect("`only` must follow a pass");
        *only = Some(normalize_targets(targets));
        self
    }

    /// The executable [`Pipeline`] for this configuration. Every pass runs
    /// with `seed` (per-pass seed fields in the specs are overridden — the
    /// seed is an artifact-key component, not part of the configuration).
    pub fn pipeline(&self, seed: u64) -> Pipeline {
        Pipeline { config: self.clone(), seed, verify: VerifyPolicy::None }
    }

    /// Outer-first composition label (`ROP0.25-over-1VM`, `NATIVE` when
    /// empty), matching the experiment drivers' row labels.
    pub fn label(&self) -> String {
        if self.passes.is_empty() {
            return "NATIVE".to_string();
        }
        let outer_first: Vec<String> = self.passes.iter().rev().map(|(p, _)| p.label()).collect();
        outer_first.join("-over-")
    }

    /// The stable 128-bit configuration hash — one third of the artifact
    /// store key. Pass *order* is semantic (nesting) and therefore part of
    /// the hash; per-pass seeds are not (see [`PassSpec`]).
    pub fn config_hash(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write(b"obfconfig/v1;");
        for (spec, only) in &self.passes {
            h.write(format!("pass={:032x};", spec.fields().digest()).as_bytes());
            // A restriction is part of the configuration (the same pass
            // chain over different subsets produces different artifacts),
            // but an *absent* restriction hashes to nothing so historical
            // unrestricted hashes stay valid.
            if let Some(only) = only {
                h.write(format!("only={};", normalize_targets(only).join(",")).as_bytes());
            }
        }
        h.finish()
    }
}

/// Canonicalizes a target-restriction list: sorted, deduplicated.
fn normalize_targets<S: AsRef<str>>(targets: &[S]) -> Vec<String> {
    let mut list: Vec<String> = targets.iter().map(|s| s.as_ref().to_string()).collect();
    list.sort();
    list.dedup();
    list
}

/// The subset of `list` a pass with restriction `only` may touch (all of it
/// when unrestricted).
fn admitted(only: &Option<Vec<String>>, list: &[String]) -> Vec<String> {
    match only {
        Some(only) => list.iter().filter(|t| only.contains(*t)).cloned().collect(),
        None => list.to_vec(),
    }
}

/// The run's target list, checked: every name passes `exists` and none
/// repeats.
fn check_targets<S: AsRef<str>>(
    targets: &[S],
    exists: impl Fn(&str) -> bool,
) -> Result<Vec<String>, PipelineError> {
    let targets: Vec<String> = targets.iter().map(|s| s.as_ref().to_string()).collect();
    for (i, t) in targets.iter().enumerate() {
        if !exists(t) {
            return Err(PipelineError::UnknownTarget(t.clone()));
        }
        if targets[..i].contains(t) {
            return Err(PipelineError::DuplicateTarget(t.clone()));
        }
    }
    Ok(targets)
}

/// An executable [`ObfConfig`]: its passes in nesting order, the one seed
/// every pass runs with, and a verify policy. Built by
/// [`ObfConfig::pipeline`]; see the [module docs](self) for the execution
/// model.
#[derive(Debug)]
pub struct Pipeline {
    config: ObfConfig,
    seed: u64,
    verify: VerifyPolicy,
}

/// Queued image-stage work for one ROP pass: which stage names it
/// transforms, and whether the run had any live targets when the job was
/// planned (a requested-but-empty job is reported [`PassDetail::Skipped`]
/// instead of running the pass).
struct ImageJob<'a> {
    index: usize,
    config: &'a RopConfig,
    targets: Vec<String>,
    requested: bool,
}

/// Virtualizes `targets` (public names) in `program` with `config`. Each
/// target's layers stack on those earlier VM passes applied (`vm_layers`),
/// so stacked passes never collide on per-layer symbols; a target that
/// fails is recorded in `failures`.
fn run_vm(
    program: &mut Program,
    config: VmConfig,
    targets: &[String],
    vm_layers: &mut BTreeMap<String, usize>,
    failures: &mut Vec<(String, TargetError)>,
) -> PassDetail {
    let mut report = VmReport {
        layers: config.layers,
        functions: Vec::new(),
        seed: config.seed,
        code: Vec::new(),
    };
    for target in targets {
        let base = vm_layers.get(target).copied().unwrap_or(0);
        match raindrop_obfvm::apply_layers(program, target, config, base) {
            Ok(applied) => {
                for l in 0..config.layers {
                    let symbol = raindrop_obfvm::vm_code_symbol(base + l, target);
                    if let Some(g) = applied.program.globals.iter().find(|g| g.name == symbol) {
                        report.code.push(VmCode {
                            function: target.clone(),
                            layer: base + l,
                            symbol,
                            bytes: g.bytes.clone(),
                        });
                    }
                }
                *program = applied.program;
                *vm_layers.entry(target.clone()).or_insert(0) += config.layers;
                report.functions.push((target.clone(), applied.bytecode_lens));
            }
            Err(e) => failures.push((target.clone(), TargetError::Vm(e))),
        }
    }
    PassDetail::Vm(report)
}

/// ROP-rewrites `targets` (stage names) in `image` with `config`, through
/// the warm materialization buffers `mat`; per-target failures are
/// recorded in `failures`.
fn run_rop(
    image: &mut Image,
    config: RopConfig,
    targets: &[String],
    failures: &mut Vec<(String, TargetError)>,
    mat: &mut MaterializeCtx,
) -> PassDetail {
    let mut rewriter = Rewriter::new(config).with_mat_ctx(std::mem::take(mat));
    let report = rewriter.rewrite_functions(image, targets.iter().map(String::as_str));
    *mat = rewriter.take_mat_ctx();
    failures.extend(report.failures.iter().map(|(n, e)| (n.clone(), TargetError::Rop(e.clone()))));
    PassDetail::Rop(report)
}

impl Pipeline {
    /// Sets the verification policy (default: [`VerifyPolicy::None`]).
    pub fn verify(mut self, policy: VerifyPolicy) -> Pipeline {
        self.verify = policy;
        self
    }

    /// Runs the pipeline on MiniC source, compiling at the source→image
    /// boundary. `targets` are the functions to obfuscate.
    ///
    /// # Errors
    ///
    /// Fails when a target is unknown or repeated, or compilation fails;
    /// per-target obfuscation failures are collected in
    /// [`ObfReport::failures`] instead.
    pub fn run_program<S: AsRef<str>>(
        &self,
        program: &Program,
        targets: &[S],
    ) -> Result<PipelineRun, PipelineError> {
        self.run_program_with(program, targets, &mut PipelineWarm::new())
    }

    /// [`run_program`](Pipeline::run_program) with caller-owned warm
    /// scratch state, for services that run many pipelines and want to
    /// amortize buffer allocations across runs. Output is bit-identical to
    /// a cold run.
    ///
    /// # Errors
    ///
    /// Same contract as [`run_program`](Pipeline::run_program).
    pub fn run_program_with<S: AsRef<str>>(
        &self,
        program: &Program,
        targets: &[S],
        warm: &mut PipelineWarm,
    ) -> Result<PipelineRun, PipelineError> {
        let total_start = Instant::now();
        let targets = check_targets(targets, |t| program.function(t).is_some())?;

        // Pre-flight lint under the static policy: flag target shapes the
        // rewriter is known to mishandle before any pass runs.
        let lints = match self.verify {
            VerifyPolicy::Static => lint_program(program, &targets),
            _ => Vec::new(),
        };

        let passes = &self.config.passes;
        let mut working = program.clone();
        let mut failures: Vec<(String, TargetError)> = Vec::new();
        let mut vm_layers: BTreeMap<String, usize> = BTreeMap::new();
        // Maps stage names (e.g. split inner functions) back to the public
        // target name for reporting.
        let mut public_of: BTreeMap<String, String> = BTreeMap::new();
        let mut active: Vec<String> = targets.clone();
        let mut image_jobs: Vec<ImageJob<'_>> = Vec::new();
        let mut source_mutated = false;
        let mut reports: Vec<Option<PassReport>> = Vec::new();
        reports.resize_with(passes.len(), || None);

        // Phase A: walk passes in nesting order, applying VM passes
        // (including wrapper splits for ROP passes that must end up below
        // later VM passes) and queueing ROP work. Each pass sees only the
        // still-active targets its restriction admits.
        for (i, (spec, only)) in passes.iter().enumerate() {
            match spec {
                PassSpec::Vm(cfg) => {
                    let snapshot = admitted(only, &active);
                    if snapshot.is_empty() && !active.is_empty() {
                        // The restriction excluded every live target: do not
                        // run the pass (it could still mutate the program)
                        // and do not force a baseline recompile.
                        reports[i] = Some(skipped(spec));
                        continue;
                    }
                    source_mutated = true;
                    let before = failures.len();
                    let start = Instant::now();
                    let config = VmConfig { seed: self.seed, ..*cfg };
                    let detail =
                        run_vm(&mut working, config, &snapshot, &mut vm_layers, &mut failures);
                    reports[i] =
                        Some(PassReport { label: spec.label(), wall: start.elapsed(), detail });
                    let failed: Vec<String> =
                        failures[before..].iter().map(|(n, _)| n.clone()).collect();
                    active.retain(|t| !failed.contains(t));
                }
                PassSpec::Rop(cfg) => {
                    let pass_active = admitted(only, &active);
                    let needs_split =
                        passes[i + 1..].iter().any(|(p, _)| matches!(p, PassSpec::Vm(_)));
                    let stage_targets = if needs_split {
                        let mut inner_names = Vec::with_capacity(pass_active.len());
                        for t in &pass_active {
                            let inner = rop_inner_name(i, t);
                            wrap_rop_target(&mut working, t, &inner)?;
                            public_of.insert(inner.clone(), t.clone());
                            inner_names.push(inner);
                        }
                        source_mutated = source_mutated || !inner_names.is_empty();
                        inner_names
                    } else {
                        pass_active
                    };
                    image_jobs.push(ImageJob {
                        index: i,
                        config: cfg,
                        targets: stage_targets,
                        requested: !active.is_empty(),
                    });
                }
            }
        }

        // Phase B: compile once, then run the queued ROP passes in order.
        let compile_start = Instant::now();
        let mut image = codegen::compile(&working).map_err(PipelineError::Codegen)?;
        let compile_wall = compile_start.elapsed();
        // When no source pass (and no wrapper split) touched the program,
        // the boundary compile *is* the unobfuscated baseline — keep it and
        // skip the second codegen at verification time.
        let pristine = match (&self.verify, source_mutated) {
            (VerifyPolicy::None, _) | (_, true) => None,
            (_, false) => Some(image.clone()),
        };
        self.run_image_jobs(&mut image, image_jobs, &public_of, &mut failures, &mut reports, warm);

        // Map stage-name failures back to public names.
        let failures: Vec<(String, TargetError)> = failures
            .into_iter()
            .map(|(name, reason)| (public_of.get(&name).cloned().unwrap_or(name), reason))
            .collect();

        // Phase C: differential verification against the unobfuscated
        // baseline (compiled from the *original* program).
        let verify_start = Instant::now();
        let verify = match self.verify_cases() {
            Some(cases) => {
                let baseline = match pristine {
                    Some(b) => b,
                    None => codegen::compile(program).map_err(PipelineError::Codegen)?,
                };
                run_verification(&baseline, &image, &targets, &failures, &cases)
            }
            None => Vec::new(),
        };
        let verify_wall = verify_start.elapsed();

        let mut report = ObfReport {
            passes: reports.into_iter().flatten().collect(),
            failures,
            verify,
            audit: Vec::new(),
            lints,
            compile_wall,
            verify_wall,
            total_wall: Duration::ZERO,
        };
        if matches!(self.verify, VerifyPolicy::Static) {
            report.audit = self.static_audit(&image, &report);
        }
        report.total_wall = total_start.elapsed();
        Ok(PipelineRun { image, report })
    }

    /// Runs the pipeline on an already-compiled image. VM passes are
    /// rejected: an image cannot be lifted back to MiniC.
    ///
    /// # Errors
    ///
    /// Fails when the configuration contains a VM pass, or a target is
    /// unknown or repeated.
    pub fn run_image<S: AsRef<str>>(
        &self,
        image: &Image,
        targets: &[S],
    ) -> Result<PipelineRun, PipelineError> {
        self.run_image_with(image, targets, &mut PipelineWarm::new())
    }

    /// [`run_image`](Pipeline::run_image) with caller-owned warm scratch
    /// state (see [`Pipeline::run_program_with`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`run_image`](Pipeline::run_image).
    pub fn run_image_with<S: AsRef<str>>(
        &self,
        image: &Image,
        targets: &[S],
        warm: &mut PipelineWarm,
    ) -> Result<PipelineRun, PipelineError> {
        let total_start = Instant::now();
        if let Some((spec, _)) =
            self.config.passes.iter().find(|(p, _)| matches!(p, PassSpec::Vm(_)))
        {
            return Err(PipelineError::SourcePassOnImage { pass: spec.label() });
        }
        let targets = check_targets(targets, |t| image.function(t).is_ok())?;

        let mut working = image.clone();
        let mut failures: Vec<(String, TargetError)> = Vec::new();
        let mut reports: Vec<Option<PassReport>> = Vec::new();
        reports.resize_with(self.config.passes.len(), || None);
        let image_jobs = self
            .config
            .passes
            .iter()
            .enumerate()
            .filter_map(|(index, (spec, only))| match spec {
                PassSpec::Rop(config) => Some(ImageJob {
                    index,
                    config,
                    targets: admitted(only, &targets),
                    requested: !targets.is_empty(),
                }),
                PassSpec::Vm(_) => None,
            })
            .collect();
        self.run_image_jobs(
            &mut working,
            image_jobs,
            &BTreeMap::new(),
            &mut failures,
            &mut reports,
            warm,
        );

        let verify_start = Instant::now();
        let verify = match self.verify_cases() {
            Some(cases) => run_verification(image, &working, &targets, &failures, &cases),
            None => Vec::new(),
        };
        let verify_wall = verify_start.elapsed();

        let mut report = ObfReport {
            passes: reports.into_iter().flatten().collect(),
            failures,
            verify,
            audit: Vec::new(),
            lints: Vec::new(),
            compile_wall: Duration::ZERO,
            verify_wall,
            total_wall: Duration::ZERO,
        };
        if matches!(self.verify, VerifyPolicy::Static) {
            report.audit = self.static_audit(&working, &report);
        }
        report.total_wall = total_start.elapsed();
        Ok(PipelineRun { image: working, report })
    }

    fn run_image_jobs(
        &self,
        image: &mut Image,
        jobs: Vec<ImageJob<'_>>,
        public_of: &BTreeMap<String, String>,
        failures: &mut Vec<(String, TargetError)>,
        reports: &mut [Option<PassReport>],
        warm: &mut PipelineWarm,
    ) {
        let public = |name: &String| public_of.get(name).unwrap_or(name).clone();
        for ImageJob { index: i, config, targets: stage_targets, requested } in jobs {
            let spec = &self.config.passes[i].0;
            // Drop targets that already failed (under any stage name mapping
            // to the same public function) in an earlier pass, so one
            // failure never cascades into duplicate entries.
            let failed: Vec<String> = failures.iter().map(|(n, _)| public(n)).collect();
            let stage_targets: Vec<String> =
                stage_targets.into_iter().filter(|t| !failed.contains(&public(t))).collect();
            if stage_targets.is_empty() && requested {
                // The run had targets but none survive for this pass (all
                // failed earlier, or the pass restriction excluded them):
                // running the pass anyway would still mutate the image (the
                // rewriter installs its runtime on attach), diverging from
                // the direct sequence.
                reports[i] = Some(skipped(spec));
                continue;
            }
            let start = Instant::now();
            let config = config.clone().with_seed(self.seed);
            let detail = run_rop(image, config, &stage_targets, failures, &mut warm.mat);
            reports[i] = Some(PassReport { label: spec.label(), wall: start.elapsed(), detail });
        }
    }

    fn verify_cases(&self) -> Option<Vec<TestCase>> {
        match &self.verify {
            VerifyPolicy::None | VerifyPolicy::Static => None,
            VerifyPolicy::Batch => Some(default_verify_cases()),
            VerifyPolicy::Cases(cases) => Some(cases.clone()),
        }
    }

    /// Statically audits `image` against a run's report: each pass's
    /// emitted chains or bytecode, plus a final whole-image symbol audit.
    /// This is what [`VerifyPolicy::Static`] runs; it is public so callers
    /// can re-audit an image later (e.g. after deserializing it, or to pin
    /// that a deliberately corrupted copy is flagged).
    pub fn static_audit(&self, image: &Image, report: &ObfReport) -> Vec<AuditEntry> {
        let mut out: Vec<AuditEntry> = report
            .passes
            .iter()
            .map(|pr| AuditEntry {
                pass: pr.label.clone(),
                diagnostics: match &pr.detail {
                    PassDetail::Rop(r) => audit_rop_image(image, r),
                    PassDetail::Vm(r) => r
                        .code
                        .iter()
                        .flat_map(|c| audit_vm_code(image, &c.symbol, &c.bytes, r.seed, c.layer))
                        .collect(),
                    PassDetail::Skipped => Vec::new(),
                },
            })
            .collect();
        out.push(AuditEntry { pass: "image".to_string(), diagnostics: audit_symbols(image) });
        out
    }
}

/// The report of a pass that did not run (see [`PassDetail::Skipped`]).
fn skipped(spec: &PassSpec) -> PassReport {
    PassReport { label: spec.label(), wall: Duration::ZERO, detail: PassDetail::Skipped }
}

fn run_verification(
    baseline: &Image,
    obfuscated: &Image,
    targets: &[String],
    failures: &[(String, TargetError)],
    cases: &[TestCase],
) -> Vec<VerifyOutcome> {
    targets
        .iter()
        .filter(|t| !failures.iter().any(|(f, _)| f == *t))
        .map(|t| VerifyOutcome {
            function: t.clone(),
            verdicts: verify_batch(baseline, obfuscated, t, cases),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::Emulator;
    use raindrop_synth::minic::BinOp;

    /// f(x) = (x ^ 0x5A) * 3 + 7, compiled-function shaped through codegen.
    fn sample_program() -> Program {
        Program::new().with_function(Function {
            name: "f".into(),
            params: 1,
            locals: 1,
            body: vec![
                Stmt::Assign(0, Expr::bin(BinOp::Xor, Expr::Arg(0), Expr::c(0x5A))),
                Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::Var(0), Expr::c(3)),
                    Expr::c(7),
                )),
            ],
        })
    }

    fn reference(x: u64) -> u64 {
        (x ^ 0x5A).wrapping_mul(3).wrapping_add(7)
    }

    fn run_f(image: &Image, x: u64) -> u64 {
        let mut emu = Emulator::new(image);
        emu.set_budget(2_000_000_000);
        emu.call_named(image, "f", &[x]).unwrap()
    }

    #[test]
    fn empty_pipeline_just_compiles() {
        let p = sample_program();
        let run = ObfConfig::new().pipeline(1).run_program(&p, &["f"]).unwrap();
        assert_eq!(run.image, codegen::compile(&p).unwrap());
        assert!(run.report.passes.is_empty());
    }

    #[test]
    fn rop_over_vm_and_vm_over_rop_both_preserve_semantics() {
        let p = sample_program();
        for (label, config) in [
            ("rop-over-vm", ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::full())),
            ("vm-over-rop", ObfConfig::new().rop(RopConfig::full()).vm(VmConfig::plain(1))),
        ] {
            let run =
                config.pipeline(3).verify(VerifyPolicy::Batch).run_program(&p, &["f"]).unwrap();
            assert!(run.report.failures.is_empty(), "{label}: {:?}", run.report.failures);
            assert!(run.report.all_verified(), "{label}");
            for x in [0u64, 9, 1000] {
                assert_eq!(run_f(&run.image, x), reference(x), "{label} f({x})");
            }
        }
    }

    #[test]
    fn vm_over_rop_keeps_the_rop_chain_underneath() {
        let p = sample_program();
        let run = ObfConfig::new()
            .rop(RopConfig::full())
            .vm(VmConfig::plain(1))
            .pipeline(11)
            .run_program(&p, &["f"])
            .unwrap();
        // The inner function was ROP-rewritten: its chain lives in .data.
        let inner = rop_inner_name(0, "f");
        assert!(run.image.symbol(&format!("__rop_chain_{inner}")).is_ok());
        // And the public entry is the VM interpreter (bytecode global).
        assert!(run.image.symbol("__vm0_f_code").is_ok());
    }

    #[test]
    fn static_policy_audits_cross_layer_runs_clean() {
        let p = sample_program();
        for (label, config) in [
            ("rop", ObfConfig::new().rop(RopConfig::full())),
            ("rop-over-vm", ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::full())),
            ("vm-over-rop", ObfConfig::new().rop(RopConfig::full()).vm(VmConfig::plain(1))),
        ] {
            let run =
                config.pipeline(5).verify(VerifyPolicy::Static).run_program(&p, &["f"]).unwrap();
            assert!(run.report.failures.is_empty(), "{label}: {:?}", run.report.failures);
            assert!(run.report.verify.is_empty(), "{label}: static policy never emulates");
            assert!(
                run.report.audit_clean(),
                "{label}: {:?}",
                run.report.audit_diagnostics().collect::<Vec<_>>()
            );
            assert!(run.report.lints.is_empty(), "{label}");
        }
    }

    #[test]
    fn static_audit_flags_flipped_bytecode_and_chain_words() {
        let p = sample_program();
        let pipeline = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .rop(RopConfig::full())
            .pipeline(5)
            .verify(VerifyPolicy::Static);
        let run = pipeline.run_program(&p, &["f"]).unwrap();
        assert!(run.report.audit_clean());

        // Flip one byte of the VM bytecode blob.
        let mut corrupted = run.image.clone();
        let code_addr = corrupted.symbol("__vm0_f_code").unwrap();
        let off = (code_addr - corrupted.data_base) as usize;
        corrupted.data[off] ^= 0xFF;
        let audit = pipeline.static_audit(&corrupted, &run.report);
        assert!(
            audit.iter().flat_map(|e| &e.diagnostics).any(|d| matches!(
                d,
                StaticDiagnostic::BytecodeMismatch { .. } | StaticDiagnostic::BytecodeDecode { .. }
            )),
            "{audit:?}"
        );

        // Flip one word of the ROP chain.
        let mut corrupted = run.image.clone();
        let chain_addr = corrupted.symbol("__rop_chain_f").unwrap();
        let off = (chain_addr - corrupted.data_base) as usize;
        corrupted.data[off] ^= 0x04;
        let audit = pipeline.static_audit(&corrupted, &run.report);
        assert!(
            audit
                .iter()
                .flat_map(|e| &e.diagnostics)
                .any(|d| matches!(d, StaticDiagnostic::ChainBytesMismatch { .. })),
            "{audit:?}"
        );
    }

    #[test]
    fn static_policy_lints_zero_arg_call_targets() {
        let mut p = sample_program();
        p = p.with_function(Function {
            name: "zero".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(3))],
        });
        p = p.with_function(Function {
            name: "caller".into(),
            params: 1,
            locals: 0,
            body: vec![Stmt::Return(Expr::Call("zero".into(), vec![]))],
        });
        let run = ObfConfig::new()
            .rop(RopConfig::plain())
            .pipeline(1)
            .verify(VerifyPolicy::Static)
            .run_program(&p, &["caller"])
            .unwrap();
        assert_eq!(
            run.report.lints,
            vec![crate::lint::RewriteLint::ZeroArgCall {
                function: "caller".into(),
                callee: "zero".into(),
                sites: 1,
            }]
        );
        // The lint predicted the mid-rewrite failure.
        assert!(!run.report.failures.is_empty());
    }

    #[test]
    fn unknown_targets_and_source_passes_on_images_are_rejected() {
        let p = sample_program();
        assert!(matches!(
            ObfConfig::new().pipeline(1).run_program(&p, &["nope"]),
            Err(PipelineError::UnknownTarget(_))
        ));
        assert!(matches!(
            ObfConfig::new().pipeline(1).run_program(&p, &["f", "f"]),
            Err(PipelineError::DuplicateTarget(_))
        ));
        let image = codegen::compile(&p).unwrap();
        assert!(matches!(
            ObfConfig::new().vm(VmConfig::plain(1)).pipeline(1).run_image(&image, &["f"]),
            Err(PipelineError::SourcePassOnImage { .. })
        ));
    }

    #[test]
    fn per_target_failures_are_collected_not_fatal() {
        // A function too short to hold the pivot stub: the ROP pass records
        // a failure, the run still succeeds, verification skips the target.
        let tiny = Program::new().with_function(Function {
            name: "tiny".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(1))],
        });
        let image = codegen::compile(&tiny).unwrap();
        let run = ObfConfig::new()
            .rop(RopConfig::plain())
            .pipeline(RopConfig::default().seed)
            .verify(VerifyPolicy::Batch)
            .run_image(&image, &["tiny"])
            .unwrap();
        assert_eq!(run.report.failures.len(), 1);
        assert!(run.report.verify.is_empty());
        assert!(run.into_strict().is_err());
    }

    #[test]
    fn target_failures_are_typed_and_keep_their_messages() {
        let tiny = Program::new().with_function(Function {
            name: "tiny".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(1))],
        });
        let image = codegen::compile(&tiny).unwrap();
        let run = ObfConfig::new().rop(RopConfig::plain()).pipeline(1).run_image(&image, &["tiny"]);
        let run = run.unwrap();
        let TargetError::Rop(RewriteError::FunctionTooShort { size, needed }) =
            run.report.failures[0].1
        else {
            panic!("expected a too-short ROP failure: {:?}", run.report.failures);
        };
        let strict = run.into_strict().unwrap_err().to_string();
        assert_eq!(
            strict,
            format!("obfuscating `tiny` failed: function too short for pivot stub ({size} < {needed} bytes)")
        );
        let vm = TargetError::Vm(VmError::Unsupported("x".into()));
        assert_eq!(vm.to_string(), "vm obfuscation failed: unsupported construct: x");
    }

    #[test]
    fn a_failed_target_is_skipped_by_later_image_passes() {
        // A ROP∘VM∘ROP sandwich (two image passes, split by the source
        // pass): "tiny" fails the inner ROP pass (too short for the pivot
        // stub), so the outer ROP pass must skip it — one failure entry,
        // no retry on the failed target — while "f" flows through the full
        // three-layer composition.
        let mut p = sample_program();
        p = p.with_function(Function {
            name: "tiny".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(Expr::c(1))],
        });
        let run = ObfConfig::new()
            .rop(RopConfig::plain())
            .vm(VmConfig::plain(1))
            .rop(RopConfig::full())
            .pipeline(8)
            .run_program(&p, &["f", "tiny"])
            .unwrap();
        assert_eq!(run.report.failures.len(), 1, "{:?}", run.report.failures);
        assert_eq!(run.report.failures[0].0, "tiny");
        let rop = run.report.rop_passes();
        assert_eq!(rop[0].rewritten.len(), 1, "inner pass rewrote f's split body only");
        assert_eq!(rop[1].rewritten.len(), 1, "outer pass rewrote f's interpreter only");
        for x in [1u64, 77] {
            assert_eq!(run_f(&run.image, x), reference(x));
        }
    }

    #[test]
    fn report_carries_pass_structure_and_stats() {
        let p = sample_program();
        let run = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .rop(RopConfig::ropk(1.0))
            .pipeline(2)
            .verify(VerifyPolicy::Batch)
            .run_program(&p, &["f"])
            .unwrap();
        let report = &run.report;
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].label, "1VM");
        assert_eq!(report.passes[1].label, "ROP1.00");
        let vm = report.passes[0].vm().expect("vm detail");
        assert_eq!(vm.functions.len(), 1);
        assert!(vm.functions[0].1[0] > 0, "bytecode produced");
        let rop = report.passes[1].rop().expect("rop detail");
        assert_eq!(rop.rewritten.len(), 1);
        assert!(rop.rewritten[0].chain_len > 0);
        assert!(rop.gadgets.total_used > 0);
        assert!(report.all_verified());
        assert!(report.total_wall >= report.compile_wall);
    }

    #[test]
    fn obf_config_hash_ignores_seeds_but_not_knobs_or_order() {
        let base = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));

        // Per-pass seeds are key components, not configuration.
        let reseeded = ObfConfig::new()
            .vm(VmConfig { seed: 0xDEAD, ..VmConfig::plain(1) })
            .rop(RopConfig::ropk(0.25).with_seed(0xBEEF));
        assert_eq!(base.config_hash(), reseeded.config_hash());

        // Every semantic knob must perturb the hash.
        let k = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.5));
        assert_ne!(base.config_hash(), k.config_hash());
        let layers = ObfConfig::new().vm(VmConfig::plain(2)).rop(RopConfig::ropk(0.25));
        assert_ne!(base.config_hash(), layers.config_hash());
        let implicit = ObfConfig::new()
            .vm(VmConfig::with_implicit(1, ImplicitAt::Last))
            .rop(RopConfig::ropk(0.25));
        assert_ne!(base.config_hash(), implicit.config_hash());

        // Nesting order is semantic: ROP-over-VM != VM-over-ROP.
        let swapped = ObfConfig::new().rop(RopConfig::ropk(0.25)).vm(VmConfig::plain(1));
        assert_ne!(base.config_hash(), swapped.config_hash());

        // And the hash itself is pinned, so a format change (which would
        // silently remap every stored artifact) fails loudly here.
        assert_eq!(base.config_hash(), 0x0719_f939_7885_37ff_bc78_3fad_7764_900b_u128);
    }

    #[test]
    fn obf_config_labels_match_driver_naming() {
        assert_eq!(ObfConfig::new().label(), "NATIVE");
        let c = ObfConfig::new().vm(VmConfig::plain(2)).rop(RopConfig::ropk(0.25));
        assert_eq!(c.label(), "ROP0.25-over-2VM");
        let v = ObfConfig::new().rop(RopConfig::full()).vm(VmConfig::plain(1));
        assert_eq!(v.label(), "1VM-over-ROP1.00");
    }

    #[test]
    fn warm_state_reuse_is_invisible() {
        // The server's per-worker warm state must be undetectable in the
        // output: a pipeline run through a context that already protected
        // other programs is bit-identical to a cold run.
        let p = sample_program();
        let config = ObfConfig::new().rop(RopConfig::full());

        let cold = config.pipeline(5).run_program(&p, &["f"]).unwrap();

        let mut warm = PipelineWarm::new();
        // Dirty the warm state on different programs/configs first.
        let other = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0));
        other.pipeline(11).run_program_with(&p, &["f"], &mut warm).unwrap();
        config.pipeline(3).run_program_with(&p, &["f"], &mut warm).unwrap();

        let reused = config.pipeline(5).run_program_with(&p, &["f"], &mut warm).unwrap();
        assert_eq!(cold.image, reused.image, "warm context changed the output image");
    }

    /// Two independent functions: `f` as in [`sample_program`], plus
    /// `g(x) = (x + 11) ^ 0x21`.
    fn two_function_program() -> Program {
        sample_program().with_function(Function {
            name: "g".into(),
            params: 1,
            locals: 0,
            body: vec![Stmt::Return(Expr::bin(
                BinOp::Xor,
                Expr::bin(BinOp::Add, Expr::Arg(0), Expr::c(11)),
                Expr::c(0x21),
            ))],
        })
    }

    fn reference_g(x: u64) -> u64 {
        x.wrapping_add(11) ^ 0x21
    }

    #[test]
    fn per_pass_restrictions_protect_disjoint_subsets() {
        // One run, two disjoint protections: virtualize `f`, ROP-rewrite
        // `g`. Each pass must touch only its own subset.
        let p = two_function_program();
        let run = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["f"])
            .rop(RopConfig::ropk(1.0))
            .only(&["g"])
            .pipeline(3)
            .verify(VerifyPolicy::Batch)
            .run_program(&p, &["f", "g"])
            .unwrap();
        assert!(run.report.failures.is_empty(), "{:?}", run.report.failures);
        assert!(run.report.all_verified());
        let vm = run.report.passes[0].vm().expect("vm detail");
        let vm_targets: Vec<&str> = vm.functions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(vm_targets, ["f"], "VM pass touched exactly its subset");
        let rop = run.report.passes[1].rop().expect("rop detail");
        let rop_targets: Vec<&str> = rop.rewritten.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(rop_targets, ["g"], "ROP pass touched exactly its subset");
        for x in [0u64, 9, 1000] {
            assert_eq!(run_f(&run.image, x), reference(x), "f({x})");
            let mut emu = Emulator::new(&run.image);
            emu.set_budget(2_000_000_000);
            assert_eq!(emu.call_named(&run.image, "g", &[x]).unwrap(), reference_g(x), "g({x})");
        }
    }

    #[test]
    fn restriction_excluding_every_target_skips_the_pass() {
        let p = sample_program();
        // Image-stage pass restricted to a function this run never targets:
        // skipped, and the output is the plain compile.
        let run = ObfConfig::new()
            .rop(RopConfig::ropk(1.0))
            .only(&["g"])
            .pipeline(1)
            .run_program(&p, &["f"])
            .unwrap();
        assert_eq!(run.report.passes[0].detail, PassDetail::Skipped);
        assert_eq!(run.image, codegen::compile(&p).unwrap(), "image untouched");

        // Source-stage pass likewise — and the skip must not force a
        // wrapper split or baseline recompile.
        let run = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["g"])
            .pipeline(1)
            .run_program(&p, &["f"])
            .unwrap();
        assert_eq!(run.report.passes[0].detail, PassDetail::Skipped);
        assert_eq!(run.image, codegen::compile(&p).unwrap(), "program untouched");
    }

    #[test]
    fn obf_config_restrictions_hash_and_thread_into_pipelines() {
        let base = ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(0.25));
        let restricted = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["f"])
            .rop(RopConfig::ropk(0.25))
            .only(&["g"]);

        // A restriction is semantic: same chain over different subsets
        // yields different artifacts.
        assert_ne!(base.config_hash(), restricted.config_hash());
        // ...and which pass carries which subset matters.
        let swapped = ObfConfig::new()
            .vm(VmConfig::plain(1))
            .only(&["g"])
            .rop(RopConfig::ropk(0.25))
            .only(&["f"]);
        assert_ne!(restricted.config_hash(), swapped.config_hash());

        // Restrictions are sets: order and duplicates are not semantic.
        let a = ObfConfig::new().rop(RopConfig::ropk(0.25)).only(&["b", "a"]);
        let b = ObfConfig::new().rop(RopConfig::ropk(0.25)).only(&["a", "b", "a"]);
        assert_eq!(a.config_hash(), b.config_hash());

        // pipeline() threads the restriction: restricting the pass to `g`
        // over targets [f, g] is the unrestricted pass over [g] alone.
        let p = two_function_program();
        let restricted = ObfConfig::new().rop(RopConfig::ropk(1.0)).only(&["g"]);
        let via_only = restricted.pipeline(9).run_program(&p, &["f", "g"]).unwrap();
        let unrestricted = ObfConfig::new().rop(RopConfig::ropk(1.0));
        let via_targets = unrestricted.pipeline(9).run_program(&p, &["g"]).unwrap();
        assert_eq!(via_only.image, via_targets.image, "identical images byte for byte");
    }
}

//! Static attack surface over the workload-class corpus: what a purely
//! static attacker recovers from each configuration, next to the static
//! image audit the pipeline runs on its own output.
//!
//! Three attackers of increasing strength are scored per class and
//! configuration, with the compiled native image as ground truth:
//!
//! * **linear sweep** — objdump-style decode of the public function body,
//!   scored as the multiset-instruction fraction recovered
//!   ([`recovery_score`]); the paper's "~100% native / ~0% obfuscated"
//!   rows;
//! * **CFG reconstruction** — whether basic-block recovery succeeds on the
//!   obfuscated body at all;
//! * **abstract chain lifting** — per-gadget semantic summaries walked
//!   with a symbolic stack pointer over every `__rop_chain_*` blob
//!   ([`lift_image`]), reporting how far the walk gets before the opaque
//!   predicates stop it.
//!
//! Every obfuscated image is produced under
//! [`VerifyPolicy::Static`], so the defender's zero-emulation audit runs
//! on exactly the artifacts the attacker sees; a dirty audit fails the
//! experiment.
//!
//! * default: every registered class (static analysis never emulates, so
//!   worst-case classes are cheap) under NATIVE, ROP1.00, 2VM-IMPLAST and
//!   both cross-layer compositions;
//! * `--class <name>`: one class, `BENCH_static.json` left untouched;
//! * `--smoke`: the CI gate — first program of each class, asserts
//!   near-total native recovery, near-zero ROP recovery, a clean static
//!   audit and a liftable chain; writes nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::pipeline::VerifyPolicy;
use raindrop::ObfReport;
use raindrop_attacks::static_lift::{lift_image, recovery_score};
use raindrop_bench::{class_filter, write_json, ObfKind};
use raindrop_machine::Image;
use raindrop_obfvm::ImplicitAt;
use raindrop_synth::classes::{self, registry};
use raindrop_synth::Workload;
use serde::Serialize;

/// Matches the corpus seed of `exp_workloads`.
const SEED: u64 = 1;

#[derive(Serialize)]
struct ConfigRow {
    config: String,
    /// Programs measured (rewrite failures are excluded and counted).
    programs: usize,
    /// Obfuscated functions scored by the linear sweep.
    functions: usize,
    rewrite_failures: usize,
    /// Linear-sweep instruction recall (`matched / original`).
    recovery_mean: f64,
    recovery_min: f64,
    recovery_max: f64,
    /// Linear-sweep precision (`matched / decoded`) — the discriminating
    /// number for VM interpreters, whose huge bodies trivially recall the
    /// original's generic instruction multiset.
    precision_mean: f64,
    /// Functions whose CFG reconstruction succeeded.
    cfg_reconstructed: usize,
    /// Whether every program's pipeline-integrated static audit was clean.
    audit_clean: bool,
    /// `__rop_chain_*` blobs found and walked.
    chains: usize,
    chains_hit_opaque: usize,
    chains_reached_unpivot: usize,
    /// Primary instructions the abstract walk recovered across all chains.
    lifted_insts: usize,
}

#[derive(Serialize)]
struct ClassRow {
    class: String,
    description: String,
    rows: Vec<ConfigRow>,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    policy: String,
    classes: Vec<ClassRow>,
}

fn configurations() -> Vec<ObfKind> {
    vec![
        ObfKind::Native,
        ObfKind::Rop { k: 1.0 },
        ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last },
        ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None },
        ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None },
    ]
}

/// Obfuscates `w` under `kind` with the static audit enabled. Returns
/// `None` when any target fails to rewrite (counted, not fatal — mirrors
/// `exp_workloads`).
fn prepare_audited(w: &Workload, kind: &ObfKind) -> Option<(Image, ObfReport)> {
    let run = kind
        .pipeline(SEED)
        .verify(VerifyPolicy::Static)
        .run_program(&w.program, &w.obfuscate)
        .expect("pipeline accepts the workload program");
    if !run.report.failures.is_empty() {
        return None;
    }
    Some((run.image, run.report))
}

fn measure(kind: &ObfKind, workloads: &[Workload]) -> ConfigRow {
    let mut fractions: Vec<f64> = Vec::new();
    let mut precisions: Vec<f64> = Vec::new();
    let mut cfg_reconstructed = 0usize;
    let mut audit_clean = true;
    let mut rewrite_failures = 0usize;
    let mut programs = 0usize;
    let mut chains = 0usize;
    let mut chains_hit_opaque = 0usize;
    let mut chains_reached_unpivot = 0usize;
    let mut lifted_insts = 0usize;
    for w in workloads {
        let native = raindrop_synth::codegen::compile(&w.program).expect("workload compiles");
        let Some((image, report)) = prepare_audited(w, kind) else {
            rewrite_failures += 1;
            continue;
        };
        programs += 1;
        audit_clean &= report.audit_clean();
        for func in &w.obfuscate {
            let score = recovery_score(&native, &image, func);
            fractions.push(score.fraction());
            precisions.push(score.precision());
            cfg_reconstructed += usize::from(score.cfg_ok);
        }
        for lift in lift_image(&image) {
            chains += 1;
            chains_hit_opaque += usize::from(lift.hit_opaque);
            chains_reached_unpivot += usize::from(lift.reached_unpivot);
            lifted_insts += lift.recovered_insts;
        }
    }
    let n = fractions.len().max(1) as f64;
    ConfigRow {
        config: kind.label(),
        programs,
        functions: fractions.len(),
        rewrite_failures,
        recovery_mean: fractions.iter().sum::<f64>() / n,
        recovery_min: fractions.iter().copied().fold(f64::INFINITY, f64::min).min(1.0),
        recovery_max: fractions.iter().copied().fold(0.0, f64::max),
        precision_mean: precisions.iter().sum::<f64>() / n,
        cfg_reconstructed,
        audit_clean,
        chains,
        chains_hit_opaque,
        chains_reached_unpivot,
        lifted_insts,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_gate();
        return;
    }
    let class = class_filter();
    let specs: Vec<_> =
        registry().into_iter().filter(|s| class.map(|c| s.id == c).unwrap_or(true)).collect();

    let mut class_rows = Vec::new();
    for spec in &specs {
        let workloads: Vec<Workload> =
            classes::generate(spec.id, SEED).into_iter().map(|cp| cp.workload).collect();
        let rows: Vec<ConfigRow> =
            configurations().iter().map(|kind| measure(kind, &workloads)).collect();
        println!("[{}] {}", spec.id.name(), spec.description);
        for r in &rows {
            println!(
                "  {:<22} recall={:.3} (min {:.3} / max {:.3}) precision={:.3}  cfg {}/{}  \
                 chains={} opaque={} unpivot={} lifted={}  audit_clean={}{}",
                r.config,
                r.recovery_mean,
                r.recovery_min,
                r.recovery_max,
                r.precision_mean,
                r.cfg_reconstructed,
                r.functions,
                r.chains,
                r.chains_hit_opaque,
                r.chains_reached_unpivot,
                r.lifted_insts,
                r.audit_clean,
                if r.rewrite_failures > 0 {
                    format!("  rewrite_failures={}", r.rewrite_failures)
                } else {
                    String::new()
                },
            );
        }
        class_rows.push(ClassRow {
            class: spec.id.name().to_string(),
            description: spec.description.to_string(),
            rows,
        });
    }

    let dirty: Vec<&str> = class_rows
        .iter()
        .flat_map(|c| c.rows.iter().filter(|r| !r.audit_clean).map(|_| c.class.as_str()))
        .collect();
    assert!(dirty.is_empty(), "static audit dirty on healthy outputs of classes {dirty:?}");

    let report = Report {
        seed: SEED,
        policy: "linear sweep + CFG reconstruction scored against the native ground truth; \
                 abstract chain lifting over every __rop_chain_* blob; every obfuscated \
                 image audited under VerifyPolicy::Static (dirty audit fails the run)"
            .to_string(),
        classes: class_rows,
    };
    if class.is_some() {
        println!("[exp_static] --class run: BENCH_static.json left untouched");
        return;
    }
    write_json("BENCH_static", &report);
}

/// The CI gate: for the first program of every registered class, a linear
/// sweep must recover the native body in full and (near) nothing of the
/// ROP-rewritten body, the pipeline's static audit must be clean on its
/// own output, and the chain blob must be found and walked. Writes
/// nothing.
fn smoke_gate() {
    for spec in registry() {
        let cp = classes::generate(spec.id, SEED).into_iter().next().expect("class generates");
        let w = cp.workload;
        let native = raindrop_synth::codegen::compile(&w.program).expect("workload compiles");
        for func in &w.obfuscate {
            let own = recovery_score(&native, &native, func);
            assert!(
                own.fraction() >= 0.999,
                "{}/{func}: native ground truth must self-recover, got {:.3}",
                spec.id.name(),
                own.fraction()
            );
        }
        let (image, report) =
            prepare_audited(&w, &ObfKind::Rop { k: 1.0 }).expect("ROP1.00 rewrites the workload");
        assert!(
            report.audit_clean(),
            "{}: static audit dirty on a healthy rewrite: {:?}",
            spec.id.name(),
            report.audit_diagnostics().collect::<Vec<_>>()
        );
        for func in &w.obfuscate {
            let score = recovery_score(&native, &image, func);
            assert!(
                score.fraction() <= 0.1,
                "{}/{func}: ROP1.00 body leaks {:.3} of the original instructions",
                spec.id.name(),
                score.fraction()
            );
        }
        let lifts = lift_image(&image);
        assert!(
            !lifts.is_empty() && lifts.iter().all(|l| l.visited > 0),
            "{}: chain blobs must be found and walkable: {lifts:?}",
            spec.id.name()
        );
        println!(
            "[exp_static] {}: native self-recovery ok, ROP sweep blind, audit clean, \
             {} chain(s) lifted",
            spec.id.name(),
            lifts.len()
        );
    }
    println!("[exp_static] smoke gate passed: BENCH_static.json left untouched");
}

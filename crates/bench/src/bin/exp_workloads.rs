//! Per-class overhead and attack outcomes over the workload-class corpus,
//! reported Oxidalloc-style: every registered class is measured, but the
//! adversarial worst-case classes are excluded from the headline rows —
//! runnable on demand via `--include-worst-case` and reported in a separate
//! section with the same columns.
//!
//! * default: headline classes only (`synthetic-stress`, `application`,
//!   `database`); the worst-case classes are listed as excluded;
//! * `--include-worst-case`: also measures `adversarial-icache` and
//!   `adversarial-depth` into the `worst_case` section;
//! * `--class <name>`: restricts the run to one class (headline or not) and
//!   leaves `BENCH_workloads.json` untouched;
//! * `--full`: wider configuration sweep and the full DSE budget;
//! * `--smoke`: the CI class-coverage gate — asserts every registered class
//!   generates programs, agrees with its reference interpreter on the
//!   emulator, and survives a quick ROP differential check; writes nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::{equivalent, TestCase};
use raindrop_attacks::campaign::class_of_label;
use raindrop_attacks::concolic::{Goal, InputSpec};
use raindrop_attacks::fleet::{workers_from_env, DseJob};
use raindrop_bench::*;
use raindrop_machine::Emulator;
use raindrop_obfvm::ImplicitAt;
use raindrop_synth::classes::{self, registry, ClassProgram, ClassSpec};
use raindrop_synth::codegen;
use serde::Serialize;

/// The seed the reported corpus is generated from (the differential test
/// suite sweeps more).
const SEED: u64 = 1;

#[derive(Serialize)]
struct DseRow {
    config: String,
    /// The DSE attack found the secret (the protection was defeated).
    attack_succeeded: bool,
    paths: usize,
    instructions: u64,
    hazards: u64,
}

#[derive(Serialize)]
struct ProgramRow {
    program: String,
    native_cycles: u64,
    /// (configuration label, cycles / native cycles).
    overheads: Vec<(String, f64)>,
    dse: Vec<DseRow>,
}

#[derive(Serialize)]
struct ClassRow {
    class: String,
    description: String,
    programs: Vec<ProgramRow>,
    /// DSE attacks that succeeded / finished across the class.
    attacks_succeeded: usize,
    attempted: usize,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    seed: u64,
    policy: String,
    headline: Vec<ClassRow>,
    worst_case: Vec<ClassRow>,
    excluded: Vec<String>,
}

fn overhead_kinds(full: bool) -> Vec<ObfKind> {
    let mut kinds =
        vec![ObfKind::Rop { k: 1.0 }, ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last }];
    if full {
        kinds.push(ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None });
        kinds.push(ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None });
    }
    kinds
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_gate();
        return;
    }
    let full = is_full_run();
    let include_worst = std::env::args().any(|a| a == "--include-worst-case");
    let class = class_filter();
    let budget = dse_budget(!full);
    let kinds = overhead_kinds(full);

    let mut excluded = Vec::new();
    let specs: Vec<ClassSpec> = registry()
        .into_iter()
        .filter(|spec| match class {
            Some(c) => spec.id == c,
            None => true,
        })
        .filter(|spec| {
            // Worst-case classes run only on demand — unless named directly.
            if spec.headline || include_worst || class.is_some() {
                true
            } else {
                excluded.push(format!(
                    "{} ({}): excluded from headline rows; run with --include-worst-case",
                    spec.id.name(),
                    spec.description
                ));
                false
            }
        })
        .collect();

    // Overhead sweep (sequential: cycle counts, cheap) and DSE job list.
    let mut rows: Vec<(ClassSpec, Vec<ProgramRow>)> = Vec::new();
    let mut jobs: Vec<DseJob> = Vec::new();
    for spec in &specs {
        let mut program_rows = Vec::new();
        for cp in classes::generate(spec.id, SEED) {
            let w = &cp.workload;
            let native = workload_cycles(w, &ObfKind::Native, SEED).expect("native workload runs");
            let mut overheads = Vec::new();
            for kind in &kinds {
                match workload_cycles(w, kind, SEED) {
                    Ok(cycles) => overheads.push((kind.label(), cycles as f64 / native as f64)),
                    Err(e) => eprintln!("{}/{}: {e}", spec.id.name(), w.name),
                }
            }
            // The attack target is the point-test wrapper (want: 1), the
            // paper's secret-finding shape; only the checksum entry under
            // it is obfuscated, as with the randomfun drivers.
            for kind in [ObfKind::Native, ObfKind::Rop { k: 1.0 }] {
                let image = prepare_image(&w.program, &w.obfuscate, &kind, SEED).expect("prepares");
                jobs.push(DseJob::new(
                    format!("{}/{}/{}", spec.id.name(), w.name, kind.label().to_lowercase()),
                    image,
                    cp.check_entry.clone(),
                    InputSpec::RegisterArg { size_bytes: 1 },
                    budget,
                    Goal::Secret { want: 1 },
                ));
            }
            program_rows.push(ProgramRow {
                program: w.name.clone(),
                native_cycles: native,
                overheads,
                dse: Vec::new(),
            });
        }
        rows.push((spec.clone(), program_rows));
    }

    // One batch over every class's jobs; results re-attached per program.
    let results = raindrop_sched::scoped_map(workers_from_env(), jobs, |_, job| job.run());
    for r in &results {
        let class = class_of_label(&r.label).expect("workload job labels carry a class");
        let mut parts = r.label.splitn(3, '/');
        let (_, program, config) = (parts.next(), parts.next().unwrap(), parts.next().unwrap());
        let row = rows
            .iter_mut()
            .find(|(spec, _)| spec.id.name() == class)
            .and_then(|(_, programs)| programs.iter_mut().find(|p| p.program == program))
            .expect("job label maps back to a program row");
        row.dse.push(DseRow {
            config: config.to_string(),
            attack_succeeded: r.outcome.success,
            paths: r.outcome.paths,
            instructions: r.outcome.instructions,
            hazards: r.outcome.hazard_causes.iter().map(|(_, n)| n).sum(),
        });
    }

    let to_class_row = |(spec, programs): (ClassSpec, Vec<ProgramRow>)| {
        let attempted = programs.iter().map(|p| p.dse.len()).sum();
        let attacks_succeeded =
            programs.iter().flat_map(|p| &p.dse).filter(|d| d.attack_succeeded).count();
        ClassRow {
            class: spec.id.name().to_string(),
            description: spec.description.to_string(),
            programs,
            attacks_succeeded,
            attempted,
        }
    };
    let (headline_rows, worst_rows): (Vec<_>, Vec<_>) =
        rows.into_iter().partition(|(spec, _)| spec.headline);
    let report = Report {
        scale: if full { "full" } else { "quick" }.to_string(),
        seed: SEED,
        policy: "headline rows cover the benchmark classes; adversarial worst cases are \
                 measured under --include-worst-case and reported separately, never \
                 averaged into headlines"
            .to_string(),
        headline: headline_rows.into_iter().map(to_class_row).collect(),
        worst_case: worst_rows.into_iter().map(to_class_row).collect(),
        excluded,
    };

    for section in [("HEADLINE", &report.headline), ("WORST CASE", &report.worst_case)] {
        let (title, classes) = section;
        if classes.is_empty() {
            continue;
        }
        println!("== {title} ==");
        for cr in classes {
            println!(
                "[{}] {} — DSE attacks succeeded {}/{}",
                cr.class, cr.description, cr.attacks_succeeded, cr.attempted
            );
            for p in &cr.programs {
                let overheads: Vec<String> =
                    p.overheads.iter().map(|(label, x)| format!("{label} x{x:.1}")).collect();
                println!(
                    "  {:<16} native={:>9} cycles  {}",
                    p.program,
                    p.native_cycles,
                    overheads.join("  ")
                );
                for d in &p.dse {
                    println!(
                        "    dse {:<10} attack_succeeded={} paths={} instructions={} hazards={}",
                        d.config, d.attack_succeeded, d.paths, d.instructions, d.hazards
                    );
                }
            }
        }
    }
    for line in &report.excluded {
        println!("excluded: {line}");
    }

    if class.is_some() {
        println!("[exp_workloads] --class run: BENCH_workloads.json left untouched");
        return;
    }
    write_json("BENCH_workloads", &report);
}

/// The CI gate: every registered class must have generator coverage and
/// survive a quick end-to-end differential check — reference interpreter vs
/// emulator on the native image, and native vs ROP1.00 `verify_batch`
/// equivalence. A class registered without a working generator (or whose
/// programs diverge) fails the gate; the full per-seed sweep lives in
/// `tests/workload_differential.rs`.
fn smoke_gate() {
    let reg = registry();
    assert!(reg.len() >= 5, "registry must keep at least five classes");
    assert!(
        reg.iter().filter(|s| !s.headline).count() >= 2,
        "registry must keep at least two worst-case classes"
    );
    for spec in &reg {
        let programs = classes::generate(spec.id, SEED);
        assert!(!programs.is_empty(), "{}: class has no generator coverage", spec.id.name());
        let cp: &ClassProgram = &programs[0];
        let w = &cp.workload;
        let native = codegen::compile(&w.program).expect("class program compiles");
        let mut emu = Emulator::new(&native);
        emu.set_budget(2_000_000_000);
        let got = emu.call_named(&native, &w.entry, &w.args).expect("class program runs");
        assert_eq!(
            got,
            cp.reference_value(),
            "{}/{}: emulator vs reference interpreter",
            spec.id.name(),
            w.name
        );
        let rewritten = prepare_image(&w.program, &w.obfuscate, &ObfKind::Rop { k: 1.0 }, SEED)
            .expect("ROP pipeline prepares");
        assert!(
            equivalent(&native, &rewritten, &w.entry, &[TestCase::args(&w.args)]),
            "{}/{}: ROP1.00 differential check",
            spec.id.name(),
            w.name
        );
        println!(
            "[exp_workloads] {}: {} programs, differential check ok",
            spec.id.name(),
            programs.len()
        );
    }
    println!("[exp_workloads] smoke gate passed: BENCH_workloads.json left untouched");
}

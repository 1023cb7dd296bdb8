//! §VII-A: per-predicate efficacy — P1/P3 against DSE, P2 against the
//! ROPMEMU-style flag flipping, gadget confusion against gadget guessing,
//! P3 against taint-driven simplification. The DSE section also mounts the
//! attack on the cross-layer compositions (`ROP-over-VM`, `VM-over-ROP`)
//! the pipeline API composes.
//!
//! `--class <name>` replaces the default random-function target with every
//! generated program of the named workload class (seed 1): the same four
//! attack families then run against each class program, with the DSE goal
//! set to each program's reference checksum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::pipeline::ObfConfig;
use raindrop::RopConfig;
use raindrop_attacks::concolic::{Goal, InputSpec};
use raindrop_attacks::fleet::{workers_from_env, DseJob};
use raindrop_attacks::{chain_symbol, flip_exploration, gadget_guess, simplify};
use raindrop_bench::*;
use raindrop_obfvm::ImplicitAt;
use raindrop_synth::{randomfuns, Goal as RfGoal};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Report {
    dse: Vec<(String, bool, u64)>,
    flip: Vec<(String, usize, usize, usize)>,
    guess: Vec<(String, usize, usize)>,
    tds: Vec<(String, usize, usize)>,
}

fn sample(goal: RfGoal) -> raindrop_synth::RandomFun {
    randomfuns::generate(raindrop_synth::RandomFunConfig {
        structure: randomfuns::Ctrl::for_(randomfuns::Ctrl::if_(
            randomfuns::Ctrl::bb(4),
            randomfuns::Ctrl::bb(4),
        )),
        structure_name: "(for (if (bb 4) (bb 4)))".into(),
        input_size: 4,
        seed: 3,
        goal,
        loop_size: 5,
    })
}

/// One attack target: a program, the function the obfuscations rewrite
/// (also the entry point), and the inputs/goal of each attack family.
struct Target {
    /// Label prefix ("" for the default random function, so the default
    /// report keeps its historical labels).
    prefix: String,
    program: raindrop_synth::Program,
    func: String,
    input_size: usize,
    /// Input for the flag-flipping exploration.
    flip_input: u64,
    /// Input for the taint-driven simplification run.
    tds_input: u64,
    /// The secret-finding goal value.
    want: u64,
}

fn targets() -> Vec<Target> {
    match class_filter() {
        None => {
            let rf = sample(RfGoal::SecretFinding);
            vec![Target {
                prefix: String::new(),
                func: rf.name.clone(),
                input_size: rf.config.input_size,
                flip_input: 0,
                tds_input: rf.secret_input,
                want: 1,
                program: rf.program,
            }]
        }
        Some(class) => raindrop_synth::classes::generate(class, 1)
            .into_iter()
            .map(|cp| Target {
                prefix: format!("{}/{}/", class.name(), cp.workload.name),
                func: cp.workload.entry.clone(),
                input_size: 1,
                flip_input: cp.workload.args[0],
                tds_input: cp.workload.args[0],
                want: cp.reference_value(),
                program: cp.workload.program.clone(),
            })
            .collect(),
    }
}

fn main() {
    let full = is_full_run();
    let budget = dse_budget(!full);
    let mut report = Report::default();
    let targets = targets();

    println!("== A1/A3: DSE (secret finding) against P1/P3 and cross-layer pipelines ==");
    let configs = [
        ("NATIVE".to_string(), ObfKind::Native),
        ("ROP-P1 only".to_string(), ObfKind::Rop { k: 0.0 }),
        ("ROP-P1+P3".to_string(), ObfKind::Rop { k: 1.0 }),
        (
            ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None }.label(),
            ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None },
        ),
        (
            ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None }.label(),
            ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None },
        ),
    ];
    let jobs: Vec<DseJob> = targets
        .iter()
        .flat_map(|t| {
            configs.iter().map(|(label, kind)| {
                let image = prepare_image(&t.program, std::slice::from_ref(&t.func), kind, 1)
                    .expect("prepare");
                DseJob::new(
                    format!("{}{label}", t.prefix),
                    image,
                    t.func.clone(),
                    InputSpec::RegisterArg { size_bytes: t.input_size },
                    budget,
                    Goal::Secret { want: t.want },
                )
            })
        })
        .collect();
    for r in raindrop_sched::scoped_map(workers_from_env(), jobs, |_, job| job.run()) {
        let out = r.outcome;
        let exhausted = out.exhausted.map_or_else(|| "-".to_string(), |e| format!("{e} exhausted"));
        // Why a defeated attack was defeated: which shadow-tracking hazard
        // (if any) first forced concretization, and how many distinct
        // branches the explorer forked before that point.
        let hazards = if out.hazard_causes.is_empty() {
            "none".to_string()
        } else {
            out.hazard_causes
                .iter()
                .map(|(cause, n)| format!("{cause} x{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "  {:<14} success={} instructions={} [{exhausted}]",
            r.label, out.success, out.instructions
        );
        println!(
            "  {:<14}   hazards: {hazards}; branches before first hazard: {}",
            "", out.max_branches_pre_hazard
        );
        report.dse.push((r.label, out.success, out.instructions));
    }

    println!("== A2: flag flipping (ROPMEMU) with and without P2 ==");
    for t in &targets {
        for (label, p2) in [("ROP without P2", false), ("ROP with P2", true)] {
            let mut cfg = RopConfig::plain();
            cfg.p2 = p2;
            let seed = cfg.seed;
            let (image, _) = ObfConfig::new()
                .rop(cfg)
                .pipeline(seed)
                .run_program(&t.program, &[&t.func])
                .expect("pipeline runs")
                .into_strict()
                .expect("rewrite succeeds");
            let r = flip_exploration(&image, &t.func, t.flip_input, 100_000_000);
            let label = format!("{}{label}", t.prefix);
            println!(
                "  {label:<16} leaks={} new_blocks={} derailed={}",
                r.leak_sites, r.new_blocks, r.derailed_runs
            );
            report.flip.push((label, r.leak_sites, r.new_blocks, r.derailed_runs));
        }
    }

    println!("== A1: gadget guessing with and without confusion ==");
    for t in &targets {
        for (label, confusion) in [("no confusion", false), ("confusion", true)] {
            let mut cfg = RopConfig::plain();
            cfg.gadget_confusion = confusion;
            let seed = cfg.seed;
            let (image, _) = ObfConfig::new()
                .rop(cfg)
                .pipeline(seed)
                .run_program(&t.program, &[&t.func])
                .expect("pipeline runs")
                .into_strict()
                .expect("rewrite succeeds");
            let g = gadget_guess(&image, &chain_symbol(&t.func));
            let label = format!("{}{label}", t.prefix);
            println!(
                "  {label:<16} plausible={} unaligned_candidates={}",
                g.plausible_pointers, g.unaligned_candidates
            );
            report.guess.push((label, g.plausible_pointers, g.unaligned_candidates));
        }
    }

    println!("== A3: taint-driven simplification against P3 ==");
    for t in &targets {
        for (label, kind) in
            [("ROP plain", ObfKind::Rop { k: 0.0 }), ("ROP P3 k=1", ObfKind::Rop { k: 1.0 })]
        {
            let image = prepare_image(&t.program, std::slice::from_ref(&t.func), &kind, 1)
                .expect("prepare");
            let r = simplify(&image, &t.func, t.tds_input, 200_000_000);
            let label = format!("{}{label}", t.prefix);
            println!("  {label:<14} trace={} relevant={}", r.trace_len, r.relevant);
            report.tds.push((label, r.trace_len, r.relevant));
        }
    }

    match class_filter() {
        Some(class) => write_json(&format!("exp_efficacy_{}", class.name()), &report),
        None => write_json("exp_efficacy", &report),
    }
}

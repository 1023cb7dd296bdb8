//! Differential suite pinning the fork-point explorer bit-identical to the
//! re-run-from-start reference oracle.
//!
//! For every workload the two [`ExploreMode`]s must produce the same
//! exploration schedule (inputs explored in order, inputs pushed to the
//! frontier), the same outcome (success, witness, paths, accounted
//! instructions, coverage), and the fork-point engine must never
//! re-execute a prefix already covered by a snapshot — its
//! `emulated_instructions` stay at or below the accounted total, strictly
//! below whenever a path was resumed. Wall-clock budgets are lifted so the
//! comparison is purely logical.

use raindrop::{Rewriter, RopConfig};
use raindrop_attacks::concolic::{DseAttack, DseBudget, ExploreMode, Goal, InputSpec};
use raindrop_attacks::fleet::DseJob;
use raindrop_machine::Image;
use raindrop_obfvm::{apply, VmConfig};
use raindrop_synth::{codegen, generate_randomfun, paper_structures, Goal as RfGoal, RandomFun};
use std::time::Duration;

/// A work-bounded budget with the wall-clock safety net effectively off,
/// so both modes perform exactly the same logical exploration.
fn logical_budget() -> DseBudget {
    DseBudget {
        total_instructions: 4_000_000,
        per_path_instructions: 500_000,
        max_paths: 40,
        max_wall: Duration::from_secs(3600),
        max_solver_calls: 2_000,
        ..DseBudget::default()
    }
}

fn rf(goal: RfGoal, structure_idx: usize, input_size: usize, seed: u64) -> RandomFun {
    let (name, structure) = paper_structures().into_iter().nth(structure_idx).unwrap();
    generate_randomfun(raindrop_synth::RandomFunConfig {
        structure,
        structure_name: name,
        input_size,
        seed,
        goal,
        loop_size: 2,
    })
}

fn rop_protect(rf: &RandomFun, k: f64, seed: u64) -> Image {
    let mut image = codegen::compile(&rf.program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(k).with_seed(seed));
    rw.rewrite_function(&mut image, &rf.name).unwrap();
    image
}

/// Runs both modes on one target and asserts bit-identical exploration.
/// Returns `(fork resumed_paths, fork emulated, fork accounted)`.
fn assert_equivalent(
    label: &str,
    image: &Image,
    func: &str,
    spec: InputSpec,
    goal: Goal,
) -> (usize, u64, u64) {
    let budget = logical_budget();
    let mut fork = DseAttack::new(image, func, spec.clone(), budget);
    let (fork_out, fork_audit) = fork.run_audited(goal);
    let mut rerun = DseAttack::new(image, func, spec, budget).with_mode(ExploreMode::Rerun);
    let (rerun_out, rerun_audit) = rerun.run_audited(goal);

    assert_eq!(
        fork_audit.explored, rerun_audit.explored,
        "[{label}] same inputs explored in the same order"
    );
    assert_eq!(fork_audit.pushed, rerun_audit.pushed, "[{label}] same frontier pushes");
    assert_eq!(fork_out.success, rerun_out.success, "[{label}] same outcome");
    assert_eq!(fork_out.witness, rerun_out.witness, "[{label}] same solved witness");
    assert_eq!(fork_out.paths, rerun_out.paths, "[{label}] same path count");
    assert_eq!(
        fork_out.instructions, rerun_out.instructions,
        "[{label}] identical instruction accounting (prefix-inclusive)"
    );
    assert_eq!(fork_out.probes_covered, rerun_out.probes_covered, "[{label}] same coverage");
    assert_eq!(fork_out.max_constraints, rerun_out.max_constraints, "[{label}] same records");
    assert_eq!(fork_out.solver_calls, rerun_out.solver_calls, "[{label}] same solver schedule");
    assert_eq!(fork_out.exhausted, rerun_out.exhausted, "[{label}] same exhaustion dimension");
    assert_eq!(
        fork_out.hazard_causes, rerun_out.hazard_causes,
        "[{label}] same per-cause hazard counts"
    );
    assert_eq!(
        fork_out.max_branches_pre_hazard, rerun_out.max_branches_pre_hazard,
        "[{label}] same pre-hazard branch depth"
    );

    // The reference oracle executes everything; the fork engine must never
    // execute more, and never re-execute a snapshot-covered prefix.
    assert_eq!(rerun_out.resumed_paths, 0, "[{label}] the oracle never resumes");
    assert_eq!(
        rerun_out.emulated_instructions, rerun_out.instructions,
        "[{label}] the oracle emulates every accounted instruction"
    );
    assert!(
        fork_out.emulated_instructions <= fork_out.instructions,
        "[{label}] resumed prefixes are accounted but not re-executed"
    );
    if fork_out.resumed_paths > 0 {
        assert!(
            fork_out.emulated_instructions < fork_out.instructions,
            "[{label}] at least one snapshot-covered prefix was skipped"
        );
    }
    (fork_out.resumed_paths, fork_out.emulated_instructions, fork_out.instructions)
}

#[test]
fn fork_restore_is_bit_identical_on_native_corpus_functions() {
    let mut total_resumed = 0;
    for (si, size, seed) in [(0usize, 1usize, 1u64), (0, 4, 2), (1, 2, 3)] {
        let f = rf(RfGoal::SecretFinding, si, size, seed);
        let image = codegen::compile(&f.program).unwrap();
        let (resumed, ..) = assert_equivalent(
            &format!("native/s{si}/in{size}/secret"),
            &image,
            &f.name,
            InputSpec::RegisterArg { size_bytes: size },
            Goal::Secret { want: 1 },
        );
        total_resumed += resumed;
    }
    let f = rf(RfGoal::CodeCoverage, 1, 1, 4);
    let image = codegen::compile(&f.program).unwrap();
    let (resumed, ..) = assert_equivalent(
        "native/s1/in1/coverage",
        &image,
        &f.name,
        InputSpec::RegisterArg { size_bytes: 1 },
        Goal::Coverage { total_probes: f.probe_count },
    );
    total_resumed += resumed;
    assert!(total_resumed > 0, "fork-point restores actually happen on native workloads");
}

#[test]
fn fork_restore_is_bit_identical_on_rop_obfuscated_workloads() {
    let mut total_resumed = 0;
    for (k, seed) in [(0.0f64, 7u64), (1.0, 9)] {
        let f = rf(RfGoal::SecretFinding, 0, 1, seed);
        let image = rop_protect(&f, k, seed);
        let (resumed, ..) = assert_equivalent(
            &format!("rop{k}/secret"),
            &image,
            &f.name,
            InputSpec::RegisterArg { size_bytes: 1 },
            Goal::Secret { want: 1 },
        );
        total_resumed += resumed;

        let fc = rf(RfGoal::CodeCoverage, 1, 1, seed);
        let image = rop_protect(&fc, k, seed);
        assert_equivalent(
            &format!("rop{k}/coverage"),
            &image,
            &fc.name,
            InputSpec::RegisterArg { size_bytes: 1 },
            Goal::Coverage { total_probes: fc.probe_count },
        );
    }
    assert!(total_resumed > 0, "fork-point restores actually happen on ROP chains");
}

#[test]
fn fork_restore_is_bit_identical_under_vm_obfuscation() {
    let f = rf(RfGoal::SecretFinding, 0, 1, 11);
    let vm = apply(&f.program, &f.name, VmConfig::plain(1)).unwrap();
    let image = codegen::compile(&vm).unwrap();
    assert_equivalent(
        "1vm/secret",
        &image,
        &f.name,
        InputSpec::RegisterArg { size_bytes: 1 },
        Goal::Secret { want: 1 },
    );
}

#[test]
fn fork_restore_is_bit_identical_on_memory_buffer_inputs() {
    // The base64 shape: symbolic bytes in guest memory instead of a
    // register argument.
    let w = raindrop_synth::base64();
    let image = codegen::compile(&w.program).unwrap();
    let inp = image.symbol("b64_in").expect("input buffer");
    let len = 3usize;
    let secret = b"Key";
    let mut emu = raindrop_machine::Emulator::new(&image);
    emu.set_budget(1_000_000_000);
    emu.mem.write_bytes(inp, secret);
    let target = emu.call_named(&image, &w.entry, &[len as u64]).unwrap();
    let spec = InputSpec::MemoryBuffer { addr: inp, len, args: vec![len as u64] };
    assert_equivalent("base64/secret", &image, &w.entry, spec, Goal::Secret { want: target });
}

#[test]
fn fleet_results_are_independent_of_worker_count() {
    let jobs = || {
        let mut out = Vec::new();
        for (goal, seed) in [(RfGoal::SecretFinding, 21u64), (RfGoal::CodeCoverage, 22)] {
            for k in [0.0f64, 1.0] {
                let f = rf(goal, 0, 1, seed);
                let image = rop_protect(&f, k, seed);
                let attack_goal = match goal {
                    RfGoal::SecretFinding => Goal::Secret { want: 1 },
                    RfGoal::CodeCoverage => Goal::Coverage { total_probes: f.probe_count },
                };
                out.push(DseJob::new(
                    format!("{goal:?}/rop{k}"),
                    image,
                    f.name.clone(),
                    InputSpec::RegisterArg { size_bytes: 1 },
                    logical_budget(),
                    attack_goal,
                ));
            }
        }
        out
    };
    let one = raindrop_sched::scoped_map(1, jobs(), |_, job| job.run());
    let many = raindrop_sched::scoped_map(3, jobs(), |_, job| job.run());
    assert_eq!(one.len(), many.len());
    for (a, b) in one.iter().zip(&many) {
        assert_eq!(a.label, b.label, "job order is preserved");
        assert_eq!(a.outcome.success, b.outcome.success, "[{}]", a.label);
        assert_eq!(a.outcome.witness, b.outcome.witness, "[{}]", a.label);
        assert_eq!(a.outcome.paths, b.outcome.paths, "[{}]", a.label);
        assert_eq!(a.outcome.instructions, b.outcome.instructions, "[{}]", a.label);
        assert_eq!(a.outcome.probes_covered, b.outcome.probes_covered, "[{}]", a.label);
        assert_eq!(a.outcome.solver_calls, b.outcome.solver_calls, "[{}]", a.label);
    }
}

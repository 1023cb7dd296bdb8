//! Behavioural tests of the attacker toolbox (§III / §VII-A): the DSE
//! engine cracks unprotected and lightly-protected code, the strengthening
//! predicates make it miss within the same budget, TDS strips dispatch but
//! not input-coupled computation, and the ROP-aware tools are stopped by P2
//! and gadget confusion.

use std::time::Duration;

use raindrop::{Rewriter, RopConfig};
use raindrop_attacks::concolic::{DseAttack, DseBudget, Goal as AttackGoal, InputSpec};
use raindrop_attacks::{
    chain_symbol, flip_exploration, gadget_guess, invert, simplify, BinKind, EvalMemo, ExprArena,
};
use raindrop_machine::{Emulator, Image};
use raindrop_obfvm::{apply, ImplicitAt, VmConfig};
use raindrop_synth::{
    codegen, generate_randomfun, paper_structures, Ctrl, Goal, RandomFun, RandomFunConfig,
};

/// A small point-test function (G1 flavour) with a 1-byte input.
fn secret_fun(seed: u64) -> RandomFun {
    let (name, structure) = paper_structures().into_iter().next().unwrap();
    generate_randomfun(RandomFunConfig {
        structure,
        structure_name: name,
        input_size: 1,
        seed,
        goal: Goal::SecretFinding,
        loop_size: 2,
    })
}

/// The same population in the coverage flavour (G2).
fn coverage_fun(seed: u64) -> RandomFun {
    let (name, structure) = paper_structures().into_iter().nth(1).unwrap();
    generate_randomfun(RandomFunConfig {
        structure,
        structure_name: name,
        input_size: 1,
        seed,
        goal: Goal::CodeCoverage,
        loop_size: 2,
    })
}

fn quick_budget() -> DseBudget {
    DseBudget {
        total_instructions: 4_000_000,
        per_path_instructions: 500_000,
        max_paths: 60,
        max_wall: Duration::from_secs(5),
        ..DseBudget::default()
    }
}

fn rop_protect(rf: &RandomFun, k: f64, seed: u64) -> Image {
    let mut image = codegen::compile(&rf.program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(k).with_seed(seed));
    rw.rewrite_function(&mut image, &rf.name).unwrap();
    image
}

// --- DSE (the S2E stand-in) -------------------------------------------------------

#[test]
fn dse_cracks_the_native_secret_and_reports_a_valid_witness() {
    let rf = secret_fun(1);
    let image = codegen::compile(&rf.program).unwrap();
    let mut attack =
        DseAttack::new(&image, &rf.name, InputSpec::RegisterArg { size_bytes: 1 }, quick_budget());
    let outcome = attack.run(AttackGoal::Secret { want: 1 });
    assert!(outcome.success, "native code falls quickly: {outcome:?}");
    let witness = outcome.witness.expect("witness returned")[0];
    // The witness really passes the point test.
    let mut emu = Emulator::new(&image);
    emu.set_budget(500_000_000);
    assert_eq!(emu.call_named(&image, &rf.name, &[witness]).unwrap(), 1);
    assert!(outcome.paths >= 1);
    assert!(outcome.instructions > 0);
}

#[test]
fn dse_reaches_full_coverage_on_native_code() {
    let rf = coverage_fun(2);
    let image = codegen::compile(&rf.program).unwrap();
    let mut attack =
        DseAttack::new(&image, &rf.name, InputSpec::RegisterArg { size_bytes: 1 }, quick_budget());
    let outcome = attack.run(AttackGoal::Coverage { total_probes: rf.probe_count });
    assert!(outcome.success, "all probes reached: {outcome:?}");
    assert_eq!(outcome.probes_covered as u32, rf.probe_count);
}

#[test]
fn p3_at_full_fraction_exhausts_the_budget_that_cracked_native_code() {
    let rf = secret_fun(1);
    let native = codegen::compile(&rf.program).unwrap();
    let protected = rop_protect(&rf, 1.0, 7);

    let mut native_attack =
        DseAttack::new(&native, &rf.name, InputSpec::RegisterArg { size_bytes: 1 }, quick_budget());
    let native_outcome = native_attack.run(AttackGoal::Secret { want: 1 });
    assert!(native_outcome.success);

    let mut rop_attack = DseAttack::new(
        &protected,
        &rf.name,
        InputSpec::RegisterArg { size_bytes: 1 },
        quick_budget(),
    );
    let rop_outcome = rop_attack.run(AttackGoal::Secret { want: 1 });
    // Either the attack fails outright or it needs far more work — the
    // Table II trend. With this budget the expected outcome is failure.
    if rop_outcome.success {
        assert!(
            rop_outcome.instructions > native_outcome.instructions * 5,
            "ROP1.00 must be much more expensive: {} vs {}",
            rop_outcome.instructions,
            native_outcome.instructions
        );
    } else {
        assert!(!rop_outcome.success);
    }
}

#[test]
fn dse_cost_grows_monotonically_with_the_obfuscation_dial() {
    // NATIVE < ROP0.0 (P1 only) <= ROP1.0 in emulated instructions, on the
    // same function and goal, mirroring the shape of Table II.
    let rf = coverage_fun(3);
    let native = codegen::compile(&rf.program).unwrap();
    let rop_p1 = rop_protect(&rf, 0.0, 5);
    let rop_full = rop_protect(&rf, 1.0, 5);

    let mut cost = Vec::new();
    for image in [&native, &rop_p1, &rop_full] {
        let mut attack = DseAttack::new(
            image,
            &rf.name,
            InputSpec::RegisterArg { size_bytes: 1 },
            quick_budget(),
        );
        let outcome = attack.run(AttackGoal::Coverage { total_probes: rf.probe_count });
        cost.push((outcome.success, outcome.instructions));
    }
    assert!(cost[0].0, "native is fully covered");
    assert!(cost[1].1 > cost[0].1, "the ROP encoding alone already costs more to explore");
    assert!(!cost[2].0 || cost[2].1 >= cost[1].1, "P3 does not make exploration cheaper: {cost:?}");
}

#[test]
fn vm_obfuscation_slows_dse_less_than_high_ropk_within_the_quick_budget() {
    let rf = secret_fun(4);
    let vm = apply(&rf.program, &rf.name, VmConfig::with_implicit(1, ImplicitAt::None)).unwrap();
    let vm_image = codegen::compile(&vm).unwrap();
    let budget = DseBudget { total_instructions: 20_000_000, ..quick_budget() };
    let mut vm_attack =
        DseAttack::new(&vm_image, &rf.name, InputSpec::RegisterArg { size_bytes: 1 }, budget);
    let vm_outcome = vm_attack.run(AttackGoal::Secret { want: 1 });
    assert!(vm_outcome.success, "one VM layer barely helps (Table II): {vm_outcome:?}");

    let rop = rop_protect(&rf, 1.0, 11);
    let mut rop_attack =
        DseAttack::new(&rop, &rf.name, InputSpec::RegisterArg { size_bytes: 1 }, budget);
    let rop_outcome = rop_attack.run(AttackGoal::Secret { want: 1 });
    assert!(
        !rop_outcome.success || rop_outcome.instructions > vm_outcome.instructions,
        "ROP1.00 resists at least as well as 1VM"
    );
}

#[test]
fn deep_p3_chain_stays_symbolic_past_the_tree_counted_hazard() {
    // A 40-iteration loop with a branch per iteration under ROP1.00: the P3
    // dispatch builds long dependent expression chains. The DAG-counted
    // size hazard keeps every fork symbolic; the tree-counted engine it
    // replaced forked at most 497 branches on any path before its first
    // hazard, even on the 200-iteration version of this loop.
    let rf = generate_randomfun(RandomFunConfig {
        structure: Ctrl::for_(Ctrl::if_(Ctrl::bb(4), Ctrl::bb(4))),
        structure_name: "(for (if (bb 4) (bb 4)))".into(),
        input_size: 4,
        seed: 7,
        goal: Goal::SecretFinding,
        loop_size: 40,
    });
    let image = rop_protect(&rf, 1.0, 1);
    let budget = DseBudget {
        total_instructions: 120_000_000,
        per_path_instructions: 12_000_000,
        max_paths: 6,
        max_wall: Duration::from_secs(20),
        max_solver_calls: 60,
        ..DseBudget::default()
    };
    let mut attack =
        DseAttack::new(&image, &rf.name, InputSpec::RegisterArg { size_bytes: 4 }, budget);
    let outcome = attack.run(AttackGoal::Secret { want: 1 });
    assert!(outcome.hazard_causes.is_empty(), "no path hit a hazard: {:?}", outcome.hazard_causes);
    assert!(
        outcome.max_branches_pre_hazard > 497,
        "deepest path forked {} branches pre-hazard",
        outcome.max_branches_pre_hazard
    );
}

// --- TDS (taint-driven simplification, A3) ------------------------------------------

#[test]
fn tds_removes_rop_dispatch_but_keeps_input_coupled_work() {
    let rf = secret_fun(6);
    let protected = rop_protect(&rf, 1.0, 13);
    let report = simplify(&protected, &rf.name, rf.secret_input, 60_000_000);
    assert!(report.trace_len > 0);
    assert!(report.dispatch_removed > 0, "ret-driven chain stepping is recognized as dispatch");
    assert!(report.relevant > 0, "input-to-output computation survives");
    assert!(report.reduction > 0.0 && report.reduction < 1.0);
    assert!(report.simplified_unique_addresses > 0);
}

#[test]
fn tds_simplifies_a_vm_interpreter_more_aggressively_than_p3_shielded_rop() {
    let rf = secret_fun(8);
    // 1VM: dispatch dominates the trace and is recognizable.
    let vm = apply(&rf.program, &rf.name, VmConfig::plain(1)).unwrap();
    let vm_image = codegen::compile(&vm).unwrap();
    let vm_report = simplify(&vm_image, &rf.name, rf.secret_input, 100_000_000);

    // ROP1.00: P3 couples the extra work with the input, so a smaller share
    // of the obfuscation can be stripped without breaking semantics.
    let rop = rop_protect(&rf, 1.0, 17);
    let rop_report = simplify(&rop, &rf.name, rf.secret_input, 100_000_000);

    assert!(vm_report.reduction > 0.3, "VM dispatch is largely simplification fodder");
    assert!(
        rop_report.relevant as f64 / rop_report.trace_len as f64
            >= vm_report.relevant as f64 / vm_report.trace_len as f64,
        "a larger fraction of the P3-shielded chain must be kept: rop {:?} vs vm {:?}",
        rop_report,
        vm_report
    );
}

// --- ROP-aware tools (A1 / A2) --------------------------------------------------------

#[test]
fn flag_flipping_reveals_blocks_without_p2_and_is_stopped_by_p2() {
    let rf = coverage_fun(9);

    // Plain ROP (no P2): flipping leaked flags reveals chain offsets that the
    // baseline input did not visit.
    let mut plain_img = codegen::compile(&rf.program).unwrap();
    let mut plain_cfg = RopConfig::plain();
    plain_cfg.p1 = Some(Default::default());
    let mut rw = Rewriter::new(plain_cfg.with_seed(23));
    rw.rewrite_function(&mut plain_img, &rf.name).unwrap();
    let without_p2 = flip_exploration(&plain_img, &rf.name, 1, 50_000_000);
    assert!(without_p2.leak_sites > 0, "branches leak condition flags");
    assert!(without_p2.baseline_blocks > 0);

    // P2 on: the same exploration derails instead of revealing valid blocks.
    let mut p2_img = codegen::compile(&rf.program).unwrap();
    let mut p2_cfg = RopConfig::plain();
    p2_cfg.p1 = Some(Default::default());
    p2_cfg.p2 = true;
    let mut rw = Rewriter::new(p2_cfg.with_seed(23));
    rw.rewrite_function(&mut p2_img, &rf.name).unwrap();
    let with_p2 = flip_exploration(&p2_img, &rf.name, 1, 50_000_000);

    assert!(
        with_p2.derailed_runs > 0 || with_p2.new_blocks < without_p2.new_blocks,
        "P2 must derail or starve the brute-force search: {with_p2:?} vs {without_p2:?}"
    );
}

#[test]
fn gadget_guessing_drowns_in_candidates_under_gadget_confusion() {
    let rf = secret_fun(10);

    let build = |confusion: bool| {
        let mut img = codegen::compile(&rf.program).unwrap();
        let mut cfg = RopConfig::plain();
        cfg.p1 = Some(Default::default());
        cfg.gadget_confusion = confusion;
        let mut rw = Rewriter::new(cfg.with_seed(31));
        rw.rewrite_function(&mut img, &rf.name).unwrap();
        img
    };

    let plain = gadget_guess(&build(false), &chain_symbol(&rf.name));
    let confused = gadget_guess(&build(true), &chain_symbol(&rf.name));
    assert!(plain.chain_bytes > 0 && confused.chain_bytes > 0);
    assert!(plain.plausible_pointers > 0, "gadget addresses are visible as such");
    assert!(confused.plausible_pointers > 0);
    // The attacker-facing explosion §VII-A2 describes: trying every start
    // offset yields at least as many candidate blocks to sift through, and
    // far more candidates than there are real 8-byte strides.
    assert!(confused.unaligned_candidates >= plain.unaligned_candidates);
    assert!(
        confused.unaligned_candidates > confused.decodable * 2,
        "speculative decoding at every offset buries the true positives: {confused:?}"
    );
}

#[test]
fn missing_chain_symbols_yield_an_empty_guess_report() {
    let rf = secret_fun(12);
    let image = codegen::compile(&rf.program).unwrap();
    let report = gadget_guess(&image, &chain_symbol(&rf.name));
    assert_eq!(report.chain_bytes, 0);
    assert_eq!(report.plausible_pointers, 0);
}

// --- the solver (angr/S2E stand-in internals) ------------------------------------------

#[test]
fn the_inversion_solver_handles_the_affine_and_xor_shapes_randomfuns_use() {
    let mut arena = ExprArena::new();
    let mut memo = EvalMemo::default();
    let x = arena.input(0);
    // x + 17 == 59  →  x = 42
    let c17 = arena.constant(17);
    let add = arena.bin(BinKind::Add, x, c17);
    assert_eq!(invert(&mut arena, add, 59, 0, &[0], &mut memo), Some(42));
    // x ^ 0xff == 0x12  →  x = 0xed
    let cff = arena.constant(0xff);
    let xor = arena.bin(BinKind::Xor, x, cff);
    assert_eq!(invert(&mut arena, xor, 0x12, 0, &[0], &mut memo), Some(0xed));
    // (x * 3) + 5 == 3*14+5 → x = 14 (odd multiplier is invertible mod 2^64)
    let c3 = arena.constant(3);
    let mul = arena.bin(BinKind::Mul, x, c3);
    let c5 = arena.constant(5);
    let affine = arena.bin(BinKind::Add, mul, c5);
    let inverted = invert(&mut arena, affine, 3 * 14 + 5, 0, &[0], &mut memo).expect("solvable");
    memo.reset();
    assert_eq!(arena.eval(affine, &[inverted], &mut memo), 3 * 14 + 5);
}

//! Differential suite pinning `raindrop::Pipeline` runs bit-identical to
//! the equivalent direct `Rewriter` / `obfvm::apply` call sequences, across
//! ROP-only, ROP-over-VM, VM-over-ROP and multi-layer-VM orders, plus seed
//! determinism. Any intentional change to how the pipeline plans, splits,
//! seeds or orders passes must update these tests consciously.

use raindrop::pipeline::{rop_inner_name, wrap_rop_target, ObfConfig};
use raindrop::{Rewriter, RopConfig};
use raindrop_machine::{Emulator, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_synth::{codegen, randomfuns, Goal};

const SEED: u64 = 5;

fn sample_rf() -> raindrop_synth::RandomFun {
    randomfuns::generate(raindrop_synth::RandomFunConfig {
        structure: randomfuns::Ctrl::for_(randomfuns::Ctrl::if_(
            randomfuns::Ctrl::bb(4),
            randomfuns::Ctrl::bb(4),
        )),
        structure_name: "(for (if (bb 4) (bb 4)))".into(),
        input_size: 2,
        seed: 7,
        goal: Goal::SecretFinding,
        loop_size: 3,
    })
}

fn vm_cfg(layers: usize) -> VmConfig {
    VmConfig { layers, implicit: ImplicitAt::None, seed: SEED }
}

fn assert_secret_works(image: &Image, name: &str, secret: u64, label: &str) {
    let mut emu = Emulator::new(image);
    emu.set_budget(2_000_000_000);
    assert_eq!(emu.call_named(image, name, &[secret]).unwrap(), 1, "{label}: secret accepted");
    assert_eq!(
        emu.call_named(image, name, &[secret ^ 1]).unwrap(),
        0,
        "{label}: non-secret rejected"
    );
}

#[test]
fn rop_only_pipeline_matches_direct_rewriter() {
    let rf = sample_rf();
    // Direct sequence: compile, then single-borrow Rewriter.
    let mut direct = codegen::compile(&rf.program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(1.0).with_seed(SEED));
    rw.rewrite_function(&mut direct, &rf.name).unwrap();

    let run = ObfConfig::new()
        .rop(RopConfig::ropk(1.0))
        .pipeline(SEED)
        .run_program(&rf.program, &[&rf.name])
        .unwrap();
    assert!(run.report.failures.is_empty());
    assert_eq!(run.image, direct, "pipeline ROP output is bit-identical to the direct rewrite");
}

#[test]
fn rop_over_vm_pipeline_matches_direct_sequence() {
    let rf = sample_rf();
    // Direct sequence: virtualize at the source level, compile, ROP-rewrite
    // the generated interpreter.
    let vm_program = raindrop_obfvm::apply(&rf.program, &rf.name, vm_cfg(1)).unwrap();
    let mut direct = codegen::compile(&vm_program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(0.25).with_seed(SEED));
    rw.rewrite_function(&mut direct, &rf.name).unwrap();

    let run = ObfConfig::new()
        .vm(VmConfig::plain(1))
        .rop(RopConfig::ropk(0.25))
        .pipeline(SEED)
        .run_program(&rf.program, &[&rf.name])
        .unwrap();
    assert!(run.report.failures.is_empty());
    assert_eq!(run.image, direct, "ROP-over-VM is bit-identical to the direct sequence");
    assert_secret_works(&run.image, &rf.name, rf.secret_input, "rop-over-vm");
}

#[test]
fn vm_over_rop_pipeline_matches_direct_sequence() {
    let rf = sample_rf();
    // Direct sequence: split the target (inner body under the pipeline's
    // published inner name, wrapper with the public name), virtualize the
    // wrapper, compile, ROP-rewrite the inner function.
    let inner = rop_inner_name(0, &rf.name);
    let mut split = rf.program.clone();
    wrap_rop_target(&mut split, &rf.name, &inner).unwrap();
    let vm_program = raindrop_obfvm::apply(&split, &rf.name, vm_cfg(1)).unwrap();
    let mut direct = codegen::compile(&vm_program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(0.25).with_seed(SEED));
    rw.rewrite_function(&mut direct, &inner).unwrap();

    let run = ObfConfig::new()
        .rop(RopConfig::ropk(0.25))
        .vm(VmConfig::plain(1))
        .pipeline(SEED)
        .run_program(&rf.program, &[&rf.name])
        .unwrap();
    assert!(run.report.failures.is_empty());
    assert_eq!(run.image, direct, "VM-over-ROP is bit-identical to the direct sequence");
    assert_secret_works(&run.image, &rf.name, rf.secret_input, "vm-over-rop");
}

#[test]
fn two_layer_vm_pipeline_matches_direct_apply() {
    let rf = sample_rf();
    let vm_program = raindrop_obfvm::apply(&rf.program, &rf.name, vm_cfg(2)).unwrap();
    let direct = codegen::compile(&vm_program).unwrap();

    let run = ObfConfig::new()
        .vm(VmConfig::plain(2))
        .pipeline(SEED)
        .run_program(&rf.program, &[&rf.name])
        .unwrap();
    assert_eq!(run.image, direct, "one 2-layer VM pass equals a direct layers=2 apply");
}

#[test]
fn stacked_vm_passes_match_apply_layers_with_base_offsets() {
    let rf = sample_rf();
    // Direct sequence: two apply_layers calls with explicit base layers, so
    // the second layer's symbols/opcode shuffle continue where the first
    // stopped.
    let first = raindrop_obfvm::apply_layers(&rf.program, &rf.name, vm_cfg(1), 0).unwrap();
    let second = raindrop_obfvm::apply_layers(&first.program, &rf.name, vm_cfg(1), 1).unwrap();
    let direct = codegen::compile(&second.program).unwrap();

    let run = ObfConfig::new()
        .vm(VmConfig::plain(1))
        .vm(VmConfig::plain(1))
        .pipeline(SEED)
        .run_program(&rf.program, &[&rf.name])
        .unwrap();
    assert_eq!(run.image, direct, "stacked VM passes equal chained apply_layers calls");
    assert_secret_works(&run.image, &rf.name, rf.secret_input, "vm-over-vm");
}

#[test]
fn multi_function_pipeline_matches_direct_rewrite_functions() {
    // Multi-target ROP follows `rewrite_functions` semantics (all scheduled
    // gadget ranges retired up front — no chain may reference a gadget a
    // later rewrite destroys), not a per-function rewrite loop.
    let w = raindrop_synth::workloads::sp_norm();
    assert!(w.obfuscate.len() >= 2, "workload must exercise multi-function preparation");
    let mut direct = codegen::compile(&w.program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(0.25).with_seed(SEED));
    let report = rw.rewrite_functions(&mut direct, w.obfuscate.iter().map(|s| s.as_str()));
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    let run = ObfConfig::new()
        .rop(RopConfig::ropk(0.25))
        .pipeline(SEED)
        .run_program(&w.program, &w.obfuscate)
        .unwrap();
    assert!(run.report.failures.is_empty());
    assert_eq!(run.image, direct, "multi-function pipeline output matches rewrite_functions");
}

#[test]
fn pipeline_runs_are_seed_deterministic() {
    let rf = sample_rf();
    let build = |seed: u64, rop_first: bool| {
        let p = if rop_first {
            ObfConfig::new().rop(RopConfig::ropk(1.0)).vm(VmConfig::plain(1))
        } else {
            ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0))
        };
        p.pipeline(seed).run_program(&rf.program, &[&rf.name]).unwrap().image
    };
    for rop_first in [false, true] {
        let a = build(3, rop_first);
        let b = build(3, rop_first);
        assert_eq!(a, b, "same seed, same composition, same image (rop_first={rop_first})");
        let c = build(4, rop_first);
        assert_ne!(a, c, "a different seed must change the image (rop_first={rop_first})");
    }
}

#[test]
fn pipeline_prepares_the_same_images_the_dse_speed_suite_froze() {
    // BENCH_dse.json compares wall clock over a fixed job list whose images
    // are now prepared through the pipeline; pin the ROP preparation path
    // to the direct sequence the frozen baseline used.
    let rf = sample_rf();
    let mut direct = codegen::compile(&rf.program).unwrap();
    let mut rw = Rewriter::new(RopConfig::ropk(1.0).with_seed(1));
    rw.rewrite_function(&mut direct, &rf.name).unwrap();
    let via_bench =
        raindrop_bench::prepare_randomfun(&rf, &raindrop_bench::ObfKind::Rop { k: 1.0 }, 1)
            .unwrap();
    assert_eq!(via_bench, direct);
}

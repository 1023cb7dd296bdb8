//! Per-class differential verification of the workload corpus: every
//! registered class, under at least three generation seeds, is pinned
//! end-to-end —
//!
//! * reference semantics: the MiniC interpreter and the native emulator
//!   agree on every generated program;
//! * stepper differential: `verify_batch` equivalence of the native image
//!   against its `ROP1.00` rewrite over a small input sweep;
//! * pipeline bit-identity: the `Pipeline` compositions (ROP, 2VM,
//!   VM-over-ROP) are bit-identical to the equivalent direct
//!   `Rewriter`/`obfvm::apply` sequences, per class.
//!
//! The registry is enumerated, never hard-coded, so a class added without
//! generator coverage fails here (and in the `exp_workloads --smoke` CI
//! gate) instead of silently shipping unverified.

use raindrop::pipeline::{rop_inner_name, wrap_rop_target, ObfConfig};
use raindrop::{verify_batch, Rewriter, RopConfig, TestCase, Verdict};
use raindrop_bench::{prepare_image, ObfKind};
use raindrop_machine::{Emulator, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_synth::classes::{self, ClassId, ClassProgram};
use raindrop_synth::codegen;

const SEEDS: [u64; 3] = [11, 12, 13];

fn run_native(image: &Image, entry: &str, args: &[u64]) -> u64 {
    let mut emu = Emulator::new(image);
    emu.set_budget(20_000_000_000);
    emu.call_named(image, entry, args).expect("class program runs")
}

fn vm_cfg(layers: usize, seed: u64) -> VmConfig {
    VmConfig { layers, implicit: ImplicitAt::None, seed }
}

/// The cheapest program of a class (fewest native cycles), used for the
/// compositions whose images are also *executed* — multi-layer VM
/// interpretation costs ~1e5x, so the sweep runs on the lightest member.
fn cheapest(programs: &[ClassProgram]) -> &ClassProgram {
    programs
        .iter()
        .min_by_key(|cp| {
            let image = codegen::compile(&cp.workload.program).unwrap();
            let mut emu = Emulator::new(&image);
            emu.set_budget(20_000_000_000);
            emu.call_named(&image, &cp.workload.entry, &cp.workload.args).unwrap();
            emu.stats().cycles
        })
        .expect("class generates at least one program")
}

#[test]
fn every_class_agrees_with_its_reference_interpreter_across_seeds() {
    for class in ClassId::all() {
        for seed in SEEDS {
            for cp in classes::generate(class, seed) {
                let w = &cp.workload;
                let image = codegen::compile(&w.program).expect("class program compiles");
                assert_eq!(
                    run_native(&image, &w.entry, &w.args),
                    cp.reference_value(),
                    "{}/{} seed {seed}: emulator vs reference interpreter",
                    class.name(),
                    w.name
                );
                assert_eq!(
                    run_native(&image, &cp.check_entry, &w.args),
                    1,
                    "{}/{} seed {seed}: point-test wrapper accepts the canonical argument",
                    class.name(),
                    w.name
                );
            }
        }
    }
}

#[test]
fn every_class_survives_the_rop_stepper_differential_across_seeds() {
    for class in ClassId::all() {
        for seed in SEEDS {
            for cp in classes::generate(class, seed) {
                let w = &cp.workload;
                let native = codegen::compile(&w.program).unwrap();
                let rewritten =
                    prepare_image(&w.program, &w.obfuscate, &ObfKind::Rop { k: 1.0 }, seed)
                        .expect("ROP pipeline prepares");
                let cases = [
                    TestCase::args(&w.args),
                    TestCase::args(&[w.args[0] ^ 0x55]),
                    TestCase::args(&[0]),
                ];
                for (case, verdict) in
                    cases.iter().zip(verify_batch(&native, &rewritten, &w.entry, &cases))
                {
                    assert!(
                        verdict.is_match(),
                        "{}/{} seed {seed} args {:?}: {verdict:?}",
                        class.name(),
                        w.name,
                        case.args
                    );
                }
            }
        }
    }
}

#[test]
fn rop_pipeline_is_bit_identical_to_the_direct_rewriter_across_seeds() {
    for class in ClassId::all() {
        for seed in SEEDS {
            let programs = classes::generate(class, seed);
            let cp = &programs[0];
            let w = &cp.workload;
            let mut direct = codegen::compile(&w.program).unwrap();
            let mut rw = Rewriter::new(RopConfig::ropk(1.0).with_seed(seed));
            let report = rw.rewrite_functions(&mut direct, w.obfuscate.iter().map(|s| s.as_str()));
            assert!(report.failures.is_empty(), "{}: {:?}", w.name, report.failures);

            let run = ObfConfig::new()
                .rop(RopConfig::ropk(1.0))
                .pipeline(seed)
                .run_program(&w.program, &w.obfuscate)
                .unwrap();
            assert!(run.report.failures.is_empty());
            assert_eq!(
                run.image,
                direct,
                "{}/{} seed {seed}: ROP pipeline vs direct rewrite",
                class.name(),
                w.name
            );
        }
    }
}

#[test]
fn two_layer_vm_pipeline_is_bit_identical_per_class() {
    let seed = SEEDS[0];
    for class in ClassId::all() {
        let programs = classes::generate(class, seed);
        let cp = cheapest(&programs);
        let w = &cp.workload;
        let vm_program = raindrop_obfvm::apply(&w.program, &w.entry, vm_cfg(2, seed)).unwrap();
        let direct = codegen::compile(&vm_program).unwrap();

        let run = ObfConfig::new()
            .vm(VmConfig::plain(2))
            .pipeline(seed)
            .run_program(&w.program, &[&w.entry])
            .unwrap();
        assert_eq!(run.image, direct, "{}/{}: 2VM pipeline vs direct apply", class.name(), w.name);
        assert_eq!(
            run_native(&run.image, &w.entry, &w.args),
            cp.reference_value(),
            "{}/{}: 2VM image still computes the reference checksum",
            class.name(),
            w.name
        );
    }
}

#[test]
fn vm_over_rop_pipeline_is_bit_identical_per_class() {
    let seed = SEEDS[1];
    for class in ClassId::all() {
        let programs = classes::generate(class, seed);
        let cp = cheapest(&programs);
        let w = &cp.workload;
        let inner = rop_inner_name(0, &w.entry);
        let mut split = w.program.clone();
        wrap_rop_target(&mut split, &w.entry, &inner).unwrap();
        let vm_program = raindrop_obfvm::apply(&split, &w.entry, vm_cfg(1, seed)).unwrap();
        let mut direct = codegen::compile(&vm_program).unwrap();
        let mut rw = Rewriter::new(RopConfig::ropk(1.0).with_seed(seed));
        rw.rewrite_function(&mut direct, &inner).unwrap();

        let run = ObfConfig::new()
            .rop(RopConfig::ropk(1.0))
            .vm(VmConfig::plain(1))
            .pipeline(seed)
            .run_program(&w.program, &[&w.entry])
            .unwrap();
        assert!(run.report.failures.is_empty());
        assert_eq!(
            run.image,
            direct,
            "{}/{}: VM-over-ROP pipeline vs direct sequence",
            class.name(),
            w.name
        );
        assert_eq!(
            run_native(&run.image, &w.entry, &w.args),
            cp.reference_value(),
            "{}/{}: VM-over-ROP image still computes the reference checksum",
            class.name(),
            w.name
        );
    }
}

#[test]
fn smc_patch_site_survives_every_composition() {
    // The self-modifying driver publishes the absolute address of the
    // immediate it patches through the `smc_site` global, computed before
    // obfuscation. That is only sound if every composition leaves the cell
    // function's text where it was: pin it across ROP, 2VM and VM-over-ROP.
    let seed = SEEDS[2];
    for cp in classes::generate(ClassId::AdversarialIcache, seed) {
        let w = &cp.workload;
        let native = codegen::compile(&w.program).unwrap();
        let cell = native.function("smc_cell").unwrap().clone();
        for kind in [
            ObfKind::Rop { k: 1.0 },
            ObfKind::Vm { layers: 2, implicit: ImplicitAt::None },
            ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None },
        ] {
            let image = prepare_image(&w.program, &w.obfuscate, &kind, seed).expect("prepares");
            let moved = image.function("smc_cell").unwrap();
            assert_eq!(
                (moved.addr, moved.size),
                (cell.addr, cell.size),
                "{}: smc_cell must not move under {}",
                w.name,
                kind.label()
            );
            assert_eq!(
                run_native(&image, &w.entry, &w.args),
                cp.reference_value(),
                "{}: {} preserves the self-modifying checksum",
                w.name,
                kind.label()
            );
        }
    }
}

#[test]
fn rop_differential_catches_a_sabotaged_rewrite() {
    // Meta-check: the stepper differential actually has teeth. Corrupt one
    // byte of the rewritten chain's text and the verdicts must stop being
    // uniform matches.
    let cp = &classes::generate(ClassId::Application, SEEDS[0])[0];
    let w = &cp.workload;
    let native = codegen::compile(&w.program).unwrap();
    let rewritten =
        prepare_image(&w.program, &w.obfuscate, &ObfKind::Rop { k: 1.0 }, SEEDS[0]).unwrap();
    let cases = [TestCase::args(&w.args), TestCase::args(&[w.args[0] ^ 0x55])];
    assert!(verify_batch(&native, &rewritten, &w.entry, &cases).iter().all(Verdict::is_match));

    let mut sabotaged = rewritten.clone();
    let func = sabotaged.function(&w.entry).unwrap().clone();
    let off = (func.addr - sabotaged.text_base) as usize + 3;
    sabotaged.text[off] ^= 0x40;
    let verdicts = verify_batch(&native, &sabotaged, &w.entry, &cases);
    assert!(
        verdicts.iter().any(|v| !v.is_match()),
        "sabotaged rewrite must be detected, got {verdicts:?}"
    );
}

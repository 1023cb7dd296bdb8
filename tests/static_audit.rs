//! Pipeline-integrated static audit, end to end:
//!
//! * **healthy sweep** — every registered workload class, under ROP, 2VM
//!   and both cross-layer compositions with `VerifyPolicy::Static`,
//!   produces a populated, clean audit without a single emulated
//!   instruction;
//! * **sabotage** — flipping one chain word, one VM bytecode byte or one
//!   switch-table relocation is caught by the static audit, and where the
//!   corruption is semantic the differential suite agrees the image is
//!   broken (the audit is not crying wolf);
//! * the audit's verdicts come typed ([`StaticDiagnostic`]), so each
//!   sabotage pins the *kind* of diagnostic, not just non-emptiness.

use raindrop::pipeline::{ObfConfig, VerifyPolicy};
use raindrop::{
    audit_rop_function, verify_batch, Rewriter, RopConfig, StaticDiagnostic, TestCase, Verdict,
};
use raindrop_bench::ObfKind;
use raindrop_machine::{Assembler, Image, ImageBuilder, Inst, Mem, Reg};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_synth::classes::{self, ClassId};
use raindrop_synth::Workload;

const SEED: u64 = 1;

fn compositions() -> Vec<ObfKind> {
    vec![
        ObfKind::Rop { k: 1.0 },
        ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last },
        ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None },
        ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None },
    ]
}

fn run_static(w: &Workload, kind: &ObfKind) -> raindrop::pipeline::PipelineRun {
    kind.pipeline(SEED)
        .verify(VerifyPolicy::Static)
        .run_program(&w.program, &w.obfuscate)
        .expect("pipeline accepts the workload program")
}

/// The healthy sweep: zero diagnostics on every class under every
/// composition. The registry is enumerated, never hard-coded, so a class
/// added later is audited here automatically.
#[test]
fn every_class_and_composition_audits_clean() {
    for class in ClassId::all() {
        for cp in classes::generate(class, SEED) {
            let w = &cp.workload;
            for kind in compositions() {
                let run = run_static(w, &kind);
                assert!(
                    run.report.failures.is_empty(),
                    "{}/{}/{}: {:?}",
                    class.name(),
                    w.name,
                    kind.label(),
                    run.report.failures
                );
                assert!(run.report.verify.is_empty(), "static policy must not emulate");
                assert!(
                    run.report.audit_clean(),
                    "{}/{}/{}: {:?}",
                    class.name(),
                    w.name,
                    kind.label(),
                    run.report.audit_diagnostics().collect::<Vec<_>>()
                );
            }
        }
    }
}

fn first_workload() -> Workload {
    classes::generate(ClassId::SyntheticStress, SEED)
        .into_iter()
        .next()
        .expect("class generates")
        .workload
}

/// Flipping one 8-byte chain word is caught statically, and the
/// differential suite confirms the image really is broken.
#[test]
fn flipped_chain_word_is_flagged_and_breaks_the_image() {
    let w = first_workload();
    let kind = ObfKind::Rop { k: 1.0 };
    let run = run_static(&w, &kind);
    assert!(run.report.audit_clean());
    let chain_addr = run
        .report
        .passes
        .iter()
        .find_map(|p| p.rop())
        .and_then(|r| r.rewritten.first())
        .map(|r| r.chain_addr)
        .expect("ROP pass rewrote the target");

    let mut bad = run.image.clone();
    let off = (chain_addr - bad.data_base) as usize + 16;
    bad.data[off] ^= 0x20;

    let audit = kind.pipeline(SEED).verify(VerifyPolicy::Static).static_audit(&bad, &run.report);
    assert!(
        audit
            .iter()
            .flat_map(|e| &e.diagnostics)
            .any(|d| matches!(d, StaticDiagnostic::ChainBytesMismatch { .. })),
        "{audit:?}"
    );

    // The audit is not crying wolf: the differential suite disagrees too.
    let native = raindrop_synth::codegen::compile(&w.program).expect("compiles");
    let verdicts = verify_batch(&native, &bad, &w.entry, &[TestCase::args(&w.args)]);
    assert!(
        verdicts.iter().any(|v| !matches!(v, Verdict::Match { .. })),
        "a flipped chain word must not preserve semantics: {verdicts:?}"
    );
}

/// Flipping one VM bytecode byte is caught statically — by byte
/// comparison against the pass's snapshot, and (for structural bytes) by
/// re-decoding the emitted blob.
#[test]
fn flipped_vm_bytecode_byte_is_flagged_and_breaks_the_image() {
    let w = first_workload();
    let kind = ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last };
    let run = run_static(&w, &kind);
    assert!(run.report.audit_clean());
    let target = &w.obfuscate[0];

    let mut bad = run.image.clone();
    let code_addr = bad.symbol(&format!("__vm0_{target}_code")).expect("layer-0 bytecode");
    let off = (code_addr - bad.data_base) as usize;
    bad.data[off] ^= 0xFF;

    let audit = kind.pipeline(SEED).verify(VerifyPolicy::Static).static_audit(&bad, &run.report);
    assert!(
        audit.iter().flat_map(|e| &e.diagnostics).any(|d| matches!(
            d,
            StaticDiagnostic::BytecodeMismatch { .. } | StaticDiagnostic::BytecodeDecode { .. }
        )),
        "{audit:?}"
    );

    let native = raindrop_synth::codegen::compile(&w.program).expect("compiles");
    let verdicts = verify_batch(&native, &bad, &w.entry, &[TestCase::args(&w.args)]);
    assert!(
        verdicts.iter().any(|v| !matches!(v, Verdict::Match { .. })),
        "a flipped opcode must not preserve semantics: {verdicts:?}"
    );
}

/// A compiler-shaped jump-table dispatch whose rewrite patches RSP
/// displacements into the original `.text` case addresses (Appendix A).
fn switch_image() -> Image {
    let mut b = ImageBuilder::new();
    let table_addr = b.add_data("jump_table", &[0u8; 64]);
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRR(Reg::Rcx, Reg::Rdi));
    // Pad the entry block past the pivot-stub region: case blocks starting
    // inside the stub cannot receive their displacement patches.
    for _ in 0..8 {
        asm.inst(Inst::MovRI(Reg::Rax, 0));
    }
    asm.inst(Inst::JmpMem(Mem {
        base: None,
        index: Some(Reg::Rcx),
        scale: 8,
        disp: table_addr as i32,
    }));
    for (i, v) in [100i64, 200, 300, 400, 500, 600, 700, 800].iter().enumerate() {
        let l = asm.new_label();
        asm.bind(l);
        asm.inst(Inst::MovRI(Reg::Rax, *v + i as i64));
        asm.inst(Inst::Ret);
    }
    b.add_function("f", asm);
    let mut img = b.build().unwrap();

    // Patch the table with the laid-out case addresses.
    let code = raindrop_analysis::cfg::decode_function(&img, "f").unwrap();
    let case_addrs: Vec<u64> = code
        .insts
        .iter()
        .filter(|(_, i)| matches!(i, Inst::MovRI(Reg::Rax, v) if *v >= 100))
        .map(|(a, _)| *a)
        .collect();
    assert_eq!(case_addrs.len(), 8);
    let mut table = Vec::new();
    for a in &case_addrs {
        table.extend_from_slice(&a.to_le_bytes());
    }
    let off = (table_addr - img.data_base) as usize;
    img.data[off..off + 64].copy_from_slice(&table);
    img
}

/// Flipping one switch-table relocation (the RSP displacement the rewrite
/// stores at an original case address) is caught statically.
#[test]
fn flipped_switch_relocation_is_flagged() {
    let mut img = switch_image();
    let report = Rewriter::new(RopConfig::full())
        .rewrite_function(&mut img, "f")
        .expect("switch dispatch rewrites");
    let func = img.function("f").expect("retained").clone();
    let ranges = vec![("f".to_string(), func.addr, func.addr + func.size)];
    assert_eq!(audit_rop_function(&img, &report, &ranges), vec![]);

    let resolved = report.chain.resolve().expect("chain resolves");
    let (text_addr, _) =
        *resolved.switch_values.first().expect("a jump-table dispatch must produce switch patches");
    let off = (text_addr - img.text_base) as usize;
    img.text[off] ^= 0x08;
    let diags = audit_rop_function(&img, &report, &ranges);
    assert!(
        diags.iter().any(|d| matches!(d, StaticDiagnostic::SwitchPatchMismatch { .. })),
        "{diags:?}"
    );
}

/// The full pipeline equivalent of `VerifyPolicy::Batch` still passes on
/// an image that also carries a clean static audit: both policies agree
/// on healthy outputs.
#[test]
fn static_and_batch_policies_agree_on_healthy_outputs() {
    let w = first_workload();
    let target = &w.obfuscate[0];
    let static_run = ObfConfig::new()
        .vm(VmConfig::plain(1))
        .rop(RopConfig::full())
        .pipeline(SEED)
        .verify(VerifyPolicy::Static)
        .run_program(&w.program, std::slice::from_ref(target))
        .expect("pipeline runs");
    assert!(static_run.report.audit_clean());

    let batch_run = ObfConfig::new()
        .vm(VmConfig::plain(1))
        .rop(RopConfig::full())
        .pipeline(SEED)
        .verify(VerifyPolicy::Batch)
        .run_program(&w.program, std::slice::from_ref(target))
        .expect("pipeline runs");
    assert!(batch_run.report.all_verified(), "{:?}", batch_run.report.verify);
    assert_eq!(static_run.image, batch_run.image, "policies must not change the artifact");
}

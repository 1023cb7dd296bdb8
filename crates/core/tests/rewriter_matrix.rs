//! End-to-end rewriter tests: a matrix of obfuscation configurations applied
//! to a battery of compiler-shaped functions, each checked for behavioural
//! equivalence against the original via the differential verifier, plus
//! failure-classification and runtime-protocol checks.

use proptest::prelude::*;
use raindrop::{
    equivalent, FailureClass, P3Variant, RewriteError, Rewriter, RopConfig, RopRuntime, TestCase,
    Verdict,
};
use raindrop_machine::{AluOp, Assembler, Cond, Emulator, Image, ImageBuilder, Inst, Mem, Reg};

// --- function zoo -----------------------------------------------------------

/// A common arithmetic tail appended to the smaller zoo functions so that
/// every body is comfortably larger than the 60-byte pivot stub (the same
/// size gate the paper applies to the 119 too-short coreutils functions).
fn tail(a: &mut Assembler) {
    a.inst(Inst::MulI(Reg::Rax, Reg::Rax, 5));
    a.inst(Inst::AluI(AluOp::Add, Reg::Rax, 9));
    a.inst(Inst::AluI(AluOp::Xor, Reg::Rax, 0x77));
    a.inst(Inst::MovRI(Reg::Rcx, 0x1234));
    a.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx));
    a.inst(Inst::Shl(Reg::Rax, 1));
    a.inst(Inst::Not(Reg::Rax));
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rax, 3));
    a.inst(Inst::MovRI(Reg::Rdx, 0x0ff0));
    a.inst(Inst::Alu(AluOp::Xor, Reg::Rax, Reg::Rdx));
}

/// Host-side reference of [`tail`].
fn ref_tail(v: u64) -> u64 {
    let v = v.wrapping_mul(5).wrapping_add(9) ^ 0x77;
    let v = v.wrapping_add(0x1234) << 1;
    (!v).wrapping_sub(3) ^ 0x0ff0
}

/// max(a, b) * 3 with a diamond and a frame.
fn f_diamond(a: &mut Assembler) {
    let else_l = a.new_label();
    let join = a.new_label();
    a.inst(Inst::Push(Reg::Rbp));
    a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    a.inst(Inst::Cmp(Reg::Rdi, Reg::Rsi));
    a.jcc(Cond::B, else_l);
    a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
    a.jmp(join);
    a.bind(else_l);
    a.inst(Inst::MovRR(Reg::Rax, Reg::Rsi));
    a.bind(join);
    a.inst(Inst::MulI(Reg::Rax, Reg::Rax, 3));
    tail(a);
    a.inst(Inst::Leave);
    a.inst(Inst::Ret);
}
fn ref_diamond(a: u64, b: u64) -> u64 {
    ref_tail(a.max(b).wrapping_mul(3))
}

/// An equality branch (the shape P2 protects): f(a, b) = a == b ? 0x11 : a ^ b.
fn f_equality(a: &mut Assembler) {
    let eq = a.new_label();
    let done = a.new_label();
    a.inst(Inst::Cmp(Reg::Rdi, Reg::Rsi));
    a.jcc(Cond::E, eq);
    a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
    a.inst(Inst::Alu(AluOp::Xor, Reg::Rax, Reg::Rsi));
    a.jmp(done);
    a.bind(eq);
    a.inst(Inst::MovRI(Reg::Rax, 0x11));
    a.bind(done);
    tail(a);
    a.inst(Inst::Ret);
}
fn ref_equality(a: u64, b: u64) -> u64 {
    ref_tail(if a == b { 0x11 } else { a ^ b })
}

/// A loop with memory traffic through the stack frame: a small FNV-style
/// hash of the argument, one byte at a time.
fn f_hash_loop(a: &mut Assembler) {
    let head = a.new_label();
    let done = a.new_label();
    a.inst(Inst::Push(Reg::Rbp));
    a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16));
    a.inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi));
    a.inst(Inst::MovRI(Reg::Rax, 0xcbf29ce4_84222325u64 as i64));
    a.inst(Inst::MovRI(Reg::Rcx, 0));
    a.bind(head);
    a.inst(Inst::CmpI(Reg::Rcx, 8));
    a.jcc(Cond::Ae, done);
    a.inst(Inst::Load(Reg::Rdx, Mem::base_disp(Reg::Rbp, -8)));
    a.inst(Inst::ShrR(Reg::Rdx, Reg::Rcx));
    a.inst(Inst::AluI(AluOp::And, Reg::Rdx, 0xff));
    a.inst(Inst::Alu(AluOp::Xor, Reg::Rax, Reg::Rdx));
    a.inst(Inst::MulI(Reg::Rax, Reg::Rax, 0x0100_0193));
    a.inst(Inst::AluI(AluOp::Add, Reg::Rcx, 1));
    a.jmp(head);
    a.bind(done);
    a.inst(Inst::Leave);
    a.inst(Inst::Ret);
}
fn ref_hash_loop(x: u64) -> u64 {
    let mut h = 0xcbf29ce4_84222325u64;
    for i in 0..8u64 {
        // The loop reads the full 64-bit value and shifts by `i` — a shift
        // count in bits, mirroring the assembly (shr by rcx = i).
        let byte = (x >> i) & 0xff;
        h ^= byte;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A function that calls a native (non-rewritten) helper.
fn build_caller_image() -> Image {
    let mut helper = Assembler::new();
    helper
        .inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
        .inst(Inst::MulI(Reg::Rax, Reg::Rax, 7))
        .inst(Inst::Ret);
    let mut caller = Assembler::new();
    caller.inst(Inst::Push(Reg::Rbp));
    caller.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    caller.inst(Inst::AluI(AluOp::Add, Reg::Rdi, 1));
    caller.call_sym("helper");
    caller.inst(Inst::AluI(AluOp::Add, Reg::Rax, 100));
    tail(&mut caller);
    caller.inst(Inst::Leave);
    caller.inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("caller", caller);
    b.add_function("helper", helper);
    b.build().unwrap()
}
fn ref_caller(x: u64) -> u64 {
    ref_tail(x.wrapping_add(1).wrapping_mul(7).wrapping_add(100))
}

/// Recursive factorial — exercises the stack-switching array with nested
/// activations of the *same* ROP chain.
fn f_factorial(a: &mut Assembler) {
    let base = a.new_label();
    a.inst(Inst::Push(Reg::Rbp));
    a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16));
    a.inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi));
    a.inst(Inst::CmpI(Reg::Rdi, 1));
    a.jcc(Cond::Be, base);
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
    a.call_sym("fact");
    a.inst(Inst::Load(Reg::Rcx, Mem::base_disp(Reg::Rbp, -8)));
    a.inst(Inst::Mul(Reg::Rax, Reg::Rcx));
    a.inst(Inst::Leave);
    a.inst(Inst::Ret);
    a.bind(base);
    a.inst(Inst::MovRI(Reg::Rax, 1));
    a.inst(Inst::Leave);
    a.inst(Inst::Ret);
}
fn ref_factorial(n: u64) -> u64 {
    (1..=n.max(1)).product()
}

fn single_function_image(name: &str, build: impl FnOnce(&mut Assembler)) -> Image {
    let mut asm = Assembler::new();
    build(&mut asm);
    let mut b = ImageBuilder::new();
    b.add_function(name, asm);
    b.build().unwrap()
}

/// All the configurations the matrix exercises, labelled.
fn config_matrix() -> Vec<(&'static str, RopConfig)> {
    let mut p2_only = RopConfig::plain();
    p2_only.p2 = true;
    let mut confusion_only = RopConfig::plain();
    confusion_only.gadget_confusion = true;
    let mut p3_for = RopConfig::ropk(1.0);
    p3_for.p3_variant = P3Variant::ForLoop;
    let mut p3_array = RopConfig::ropk(1.0);
    p3_array.p3_variant = P3Variant::ArrayUpdate;
    vec![
        ("plain", RopConfig::plain()),
        ("p1_only", RopConfig::ropk(0.0)),
        ("p2_only", p2_only),
        ("confusion_only", confusion_only),
        ("p3_for_k100", p3_for),
        ("p3_array_k100", p3_array),
        ("ropk_050", RopConfig::ropk(0.5)),
        ("full", RopConfig::full()),
    ]
}

fn arg_cases() -> Vec<TestCase> {
    [
        [0u64, 0u64],
        [1, 0],
        [0, 1],
        [5, 5],
        [123, 45],
        [u64::MAX, 1],
        [0xdead_beef, 0xdead_beef],
        [7, u64::MAX],
    ]
    .iter()
    .map(|a| TestCase::args(a))
    .collect()
}

// --- the matrix ---------------------------------------------------------------

#[test]
fn every_configuration_preserves_the_diamond_semantics() {
    let original = single_function_image("f", f_diamond);
    for (label, config) in config_matrix() {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(config);
        let report = rw.rewrite_function(&mut obf, "f").unwrap_or_else(|e| {
            panic!("{label}: rewrite failed: {e}");
        });
        assert!(report.chain_len > 0);
        assert!(equivalent(&original, &obf, "f", &arg_cases()), "{label} diverges");
        // Spot-check against the host-side reference too.
        let mut emu = Emulator::new(&obf);
        assert_eq!(emu.call_named(&obf, "f", &[9, 4]).unwrap(), ref_diamond(9, 4), "{label}");
    }
}

#[test]
fn every_configuration_preserves_the_equality_branch_semantics() {
    let original = single_function_image("f", f_equality);
    for (label, config) in config_matrix() {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(config.clone());
        let report = rw.rewrite_function(&mut obf, "f").unwrap();
        assert!(equivalent(&original, &obf, "f", &arg_cases()), "{label} diverges");
        if config.p2 {
            assert!(report.stats.p2_sites > 0, "{label}: P2 must fire on an equality branch");
        }
        let mut emu = Emulator::new(&obf);
        assert_eq!(emu.call_named(&obf, "f", &[3, 3]).unwrap(), ref_equality(3, 3), "{label}");
        assert_eq!(emu.call_named(&obf, "f", &[3, 5]).unwrap(), ref_equality(3, 5), "{label}");
    }
}

#[test]
fn every_configuration_preserves_the_hash_loop_semantics() {
    let original = single_function_image("f", f_hash_loop);
    for (label, config) in config_matrix() {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(config);
        rw.rewrite_function(&mut obf, "f").unwrap();
        for x in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            let mut e_orig = Emulator::new(&original);
            let mut e_obf = Emulator::new(&obf);
            let want = e_orig.call_named(&original, "f", &[x]).unwrap();
            assert_eq!(want, ref_hash_loop(x));
            assert_eq!(e_obf.call_named(&obf, "f", &[x]).unwrap(), want, "{label}, x = {x:#x}");
        }
    }
}

#[test]
fn rop_code_calls_native_helpers_through_the_stack_switch() {
    let original = build_caller_image();
    for (label, config) in config_matrix() {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(config);
        rw.rewrite_function(&mut obf, "caller").unwrap();
        for x in [0u64, 3, 999] {
            let mut emu = Emulator::new(&obf);
            assert_eq!(emu.call_named(&obf, "caller", &[x]).unwrap(), ref_caller(x), "{label}");
        }
    }
}

#[test]
fn recursive_rop_functions_nest_activations_correctly() {
    let original = single_function_image("fact", f_factorial);
    for (label, config) in [("plain", RopConfig::plain()), ("full", RopConfig::full())] {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(config);
        rw.rewrite_function(&mut obf, "fact").unwrap();
        for n in [0u64, 1, 2, 5, 10] {
            let mut emu = Emulator::new(&obf);
            emu.set_budget(1_000_000_000);
            assert_eq!(
                emu.call_named(&obf, "fact", &[n]).unwrap(),
                ref_factorial(n),
                "{label}, n = {n}"
            );
        }
    }
}

#[test]
fn rewritten_text_keeps_the_original_function_symbol_but_replaces_its_body() {
    let original = single_function_image("f", f_diamond);
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::full());
    let report = rw.rewrite_function(&mut obf, "f").unwrap();
    let func = obf.function("f").unwrap();
    assert_eq!(func.addr, original.function("f").unwrap().addr, "entry address is stable");
    // The first bytes of the body now differ (the pivot stub).
    let orig_bytes = original.function_bytes("f").unwrap();
    let new_bytes = obf.function_bytes("f").unwrap();
    assert_ne!(orig_bytes, new_bytes);
    // The chain lives in .data.
    assert!(obf.in_data(report.chain_addr));
    assert!(report.chain_len >= 8);
    // The obfuscated image grew: artificial gadgets + chain.
    assert!(obf.text.len() > original.text.len());
    assert!(obf.data.len() > original.data.len());
}

#[test]
fn chain_sizes_grow_with_the_p3_fraction() {
    let original = single_function_image("f", f_hash_loop);
    let mut sizes = Vec::new();
    for k in [0.0, 0.5, 1.0] {
        let mut obf = original.clone();
        let mut rw = Rewriter::new(RopConfig::ropk(k).with_seed(77));
        let report = rw.rewrite_function(&mut obf, "f").unwrap();
        sizes.push((k, report.chain_len, report.stats.p3_sites));
    }
    assert_eq!(sizes[0].2, 0, "k = 0 inserts no P3 site");
    assert!(sizes[2].2 >= sizes[1].2, "more sites at higher k");
    assert!(sizes[2].1 > sizes[0].1, "P3 instances enlarge the chain");
}

#[test]
fn gadget_confusion_reports_sites_and_keeps_equivalence() {
    let original = single_function_image("f", f_equality);
    let mut with = original.clone();
    let mut config = RopConfig::plain();
    config.gadget_confusion = true;
    let mut rw = Rewriter::new(config);
    let report = rw.rewrite_function(&mut with, "f").unwrap();
    assert!(report.stats.confusion_sites > 0, "confusion must fire somewhere");
    assert!(equivalent(&original, &with, "f", &arg_cases()));
}

#[test]
fn different_seeds_produce_different_chains_with_identical_behaviour() {
    let original = single_function_image("f", f_diamond);
    let mut obf_a = original.clone();
    let mut obf_b = original.clone();
    Rewriter::new(RopConfig::full().with_seed(1)).rewrite_function(&mut obf_a, "f").unwrap();
    Rewriter::new(RopConfig::full().with_seed(2)).rewrite_function(&mut obf_b, "f").unwrap();
    assert_ne!(obf_a.data, obf_b.data, "chains are diversified across seeds");
    assert!(equivalent(&original, &obf_a, "f", &arg_cases()));
    assert!(equivalent(&original, &obf_b, "f", &arg_cases()));
}

#[test]
fn same_seed_is_fully_reproducible() {
    let original = single_function_image("f", f_diamond);
    let mut obf_a = original.clone();
    let mut obf_b = original.clone();
    Rewriter::new(RopConfig::full().with_seed(9)).rewrite_function(&mut obf_a, "f").unwrap();
    Rewriter::new(RopConfig::full().with_seed(9)).rewrite_function(&mut obf_b, "f").unwrap();
    assert_eq!(obf_a.text, obf_b.text);
    assert_eq!(obf_a.data, obf_b.data);
}

// --- failure classification and the verifier ------------------------------------

#[test]
fn functions_shorter_than_the_pivot_stub_are_skipped_with_the_right_class() {
    let original = single_function_image("tiny", |a| {
        a.inst(Inst::MovRI(Reg::Rax, 1));
        a.inst(Inst::Ret);
    });
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::plain());
    let err = rw.rewrite_function(&mut obf, "tiny").unwrap_err();
    assert!(matches!(err, RewriteError::FunctionTooShort { .. }));
    assert_eq!(err.failure_class(), FailureClass::TooShort);
}

#[test]
fn missing_functions_are_an_image_failure() {
    let original = single_function_image("f", f_diamond);
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::plain());
    let err = rw.rewrite_function(&mut obf, "nope").unwrap_err();
    assert!(matches!(err.failure_class(), FailureClass::CfgReconstruction | FailureClass::Other));
}

#[test]
fn the_verifier_detects_a_broken_rewrite() {
    // Simulate a miscompilation by patching the rewritten image's chain.
    let original = single_function_image("f", f_diamond);
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::plain());
    let report = rw.rewrite_function(&mut obf, "f").unwrap();
    // Corrupt one immediate slot in the middle of the chain.
    let off = (report.chain_addr - obf.data_base) as usize + report.chain_len / 2;
    obf.data[off] ^= 0xff;
    let cases = arg_cases();
    let verdicts: Vec<Verdict> =
        cases.iter().map(|c| raindrop::check_case(&original, &obf, "f", c)).collect();
    assert!(
        verdicts.iter().any(|v| !v.is_match()),
        "corrupting the chain must be observable: {verdicts:?}"
    );
}

#[test]
fn verify_batch_generates_and_runs_cases() {
    let original = single_function_image("f", f_equality);
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::full());
    rw.rewrite_function(&mut obf, "f").unwrap();
    let verdicts = raindrop::verify_batch(&original, &obf, "f", &arg_cases());
    assert_eq!(verdicts.len(), arg_cases().len());
    assert!(verdicts.iter().all(Verdict::is_match));
}

// --- runtime protocol -------------------------------------------------------------

#[test]
fn the_runtime_is_installed_once_and_reused() {
    let mut img = single_function_image("f", f_diamond);
    let cfg = RopConfig::default();
    let rt1 = RopRuntime::install(&mut img, &cfg);
    let text_len = img.text.len();
    let data_len = img.data.len();
    let rt2 = RopRuntime::install(&mut img, &cfg);
    assert_eq!(rt1, rt2, "installation is idempotent");
    assert_eq!(img.text.len(), text_len);
    assert_eq!(img.data.len(), data_len);
    assert!(img.in_data(rt1.ss_addr));
    assert!(img.in_text(rt1.func_ret_gadget));
}

#[test]
fn the_pivot_stub_length_constant_matches_the_emitted_stub() {
    let mut img = single_function_image("f", f_diamond);
    let rt = RopRuntime::install(&mut img, &RopConfig::default());
    let stub = rt.pivot_stub(0x40_1234);
    assert_eq!(stub.len() as u64, RopRuntime::pivot_stub_len());
}

// --- property test: random straight-line + branch functions ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary small arithmetic functions (straight-line ALU on the two
    /// arguments plus one comparison-driven diamond) survive full-strength
    /// rewriting for random inputs.
    #[test]
    fn random_arithmetic_functions_survive_full_rewriting(
        ops in prop::collection::vec((0u8..5, any::<i32>()), 1..10),
        use_eq_branch in any::<bool>(),
        inputs in prop::collection::vec((any::<u64>(), any::<u64>()), 3),
        seed in any::<u64>(),
    ) {
        let build = |a: &mut Assembler| {
            a.inst(Inst::Push(Reg::Rbp));
            a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
            a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
            for (op, imm) in &ops {
                let inst = match op % 5 {
                    0 => Inst::AluI(AluOp::Add, Reg::Rax, *imm),
                    1 => Inst::AluI(AluOp::Xor, Reg::Rax, *imm),
                    2 => Inst::MulI(Reg::Rax, Reg::Rax, (*imm).max(1)),
                    3 => Inst::Alu(AluOp::Sub, Reg::Rax, Reg::Rsi),
                    _ => Inst::Shl(Reg::Rax, (*imm as u8) % 16),
                };
                a.inst(inst);
            }
            if use_eq_branch {
                let skip = a.new_label();
                a.inst(Inst::Cmp(Reg::Rax, Reg::Rsi));
                a.jcc(Cond::Ne, skip);
                a.inst(Inst::AluI(AluOp::Add, Reg::Rax, 0x1111));
                a.bind(skip);
            }
            tail(a);
            a.inst(Inst::Leave);
            a.inst(Inst::Ret);
        };
        let original = single_function_image("f", build);
        let mut obf = original.clone();
        let mut rw = Rewriter::new(RopConfig::full().with_seed(seed));
        rw.rewrite_function(&mut obf, "f").unwrap();
        for (x, y) in &inputs {
            let mut e1 = Emulator::new(&original);
            let mut e2 = Emulator::new(&obf);
            e2.set_budget(500_000_000);
            let want = e1.call_named(&original, "f", &[*x, *y]).unwrap();
            let got = e2.call_named(&obf, "f", &[*x, *y]).unwrap();
            prop_assert_eq!(want, got, "f({}, {})", x, y);
        }
    }
}

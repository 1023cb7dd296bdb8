//! Differential stepper: the icache-backed fast path must be bit-identical
//! to the reference slow path (icache disabled, re-decode every fetch) —
//! same [`ExecStats`], same [`Trace`] contents, same [`RunExit`] — over
//! corpus workloads, both native and ROP-rewritten.

use raindrop::{Rewriter, RopConfig};
use raindrop_machine::{Emulator, Image, Reg, RunExit};
use raindrop_synth::{codegen, workloads};

/// Runs `entry(args)` to completion and returns (exit, stats, trace).
fn run_mode(
    image: &Image,
    entry: &str,
    args: &[u64],
    icache: bool,
    tracing: bool,
) -> (RunExit, raindrop_machine::ExecStats, raindrop_machine::Trace) {
    let mut emu = Emulator::new(image);
    emu.set_icache_enabled(icache);
    emu.set_tracing(tracing);
    emu.set_budget(50_000_000);
    let f = image.function(entry).expect("entry exists").addr;
    // Drive the run through step() directly (not run()) so the comparison
    // covers the exact per-step dispatch the attacks and verifier use.
    emu.cpu.set_reg(Reg::Rsp, raindrop_machine::STACK_TOP);
    for (r, v) in Reg::ARGS.iter().zip(args) {
        emu.cpu.set_reg(*r, *v);
    }
    let sp = emu.cpu.reg(Reg::Rsp) - 8;
    emu.cpu.set_reg(Reg::Rsp, sp);
    emu.mem.write_u64(sp, raindrop_machine::RETURN_SENTINEL);
    emu.cpu.rip = f;
    let exit = loop {
        if let Some(exit) = emu.step().expect("workload steps cleanly") {
            break exit;
        }
    };
    (exit, emu.stats(), emu.take_trace())
}

/// Asserts fast/reference agreement for one image+entry in all four
/// icache × tracing combinations.
fn assert_identical(image: &Image, entry: &str, args: &[u64], label: &str) {
    let (exit_ref, stats_ref, trace_ref) = run_mode(image, entry, args, false, true);
    let (exit_fast, stats_fast, trace_fast) = run_mode(image, entry, args, true, true);
    assert_eq!(exit_fast, exit_ref, "{label}: RunExit diverged");
    assert_eq!(stats_fast, stats_ref, "{label}: ExecStats diverged");
    assert_eq!(trace_fast.len(), trace_ref.len(), "{label}: trace length diverged");
    for (a, b) in trace_fast.iter().zip(trace_ref.iter()) {
        assert_eq!(a, b, "{label}: trace entry {} diverged", a.index);
    }

    // Non-tracing runs retire the identical instruction stream.
    let (exit_nt, stats_nt, trace_nt) = run_mode(image, entry, args, true, false);
    assert_eq!(exit_nt, exit_ref, "{label}: non-tracing RunExit diverged");
    assert_eq!(stats_nt, stats_ref, "{label}: non-tracing ExecStats diverged");
    assert!(trace_nt.is_empty(), "{label}: non-tracing run recorded a trace");
    let (exit_nt_ref, stats_nt_ref, _) = run_mode(image, entry, args, false, false);
    assert_eq!(exit_nt, exit_nt_ref, "{label}: non-tracing modes diverged");
    assert_eq!(stats_nt, stats_nt_ref, "{label}: non-tracing stats diverged");
}

#[test]
fn native_corpus_workloads_are_bit_identical() {
    for (w, args) in [
        (workloads::fannkuch(), vec![7u64]),
        (workloads::pidigits(), vec![30]),
        (workloads::fasta(), vec![200]),
    ] {
        let image = codegen::compile(&w.program).expect("compiles");
        assert_identical(&image, &w.entry, &args, &w.name);
    }
}

#[test]
fn rop_rewritten_chain_is_bit_identical() {
    // The ROP chain is the icache's worst case: unaligned gadget decodes,
    // dense `ret` dispatch, stack-pivot xchg traffic.
    let w = workloads::pidigits();
    let image = codegen::compile(&w.program).expect("compiles");
    let mut obf = image.clone();
    let mut rw = Rewriter::new(RopConfig::full().with_seed(7));
    for f in &w.obfuscate {
        rw.rewrite_function(&mut obf, f).expect("rewrites");
    }
    assert_identical(&obf, &w.entry, &[20], "pidigits-rop-full");
}

#[test]
fn halted_exit_is_bit_identical() {
    // `hlt` exits through a different path than the return sentinel; pin it.
    use raindrop_machine::{Assembler, ImageBuilder, Inst};
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRI(Reg::Rax, 77)).inst(Inst::Hlt);
    let mut b = ImageBuilder::new();
    b.add_function("stop", asm);
    let img = b.build().unwrap();
    assert_identical(&img, "stop", &[], "hlt-exit");
    let (exit, _, _) = run_mode(&img, "stop", &[], true, false);
    assert_eq!(exit, RunExit::Halted);
}

/// Everything a run leaves behind that `run()` and stepping must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: Result<RunExit, raindrop_machine::EmuError>,
    stats: raindrop_machine::ExecStats,
    cpu: raindrop_machine::Cpu,
    data: Vec<u8>,
}

/// Runs `entry(args)` under `budget` either through `run()` with the icache
/// on (`fast`) or through a `step()` loop with the icache off (the
/// reference), untraced, and returns its [`Outcome`].
fn outcome(image: &Image, entry: &str, args: &[u64], budget: u64, fast: bool) -> Outcome {
    let mut emu = Emulator::new(image);
    emu.set_icache_enabled(fast);
    emu.set_budget(budget);
    let f = image.function(entry).expect("entry exists").addr;
    emu.cpu.set_reg(Reg::Rsp, raindrop_machine::STACK_TOP);
    for (r, v) in Reg::ARGS.iter().zip(args) {
        emu.cpu.set_reg(*r, *v);
    }
    let sp = emu.cpu.reg(Reg::Rsp) - 8;
    emu.cpu.set_reg(Reg::Rsp, sp);
    emu.mem.write_u64(sp, raindrop_machine::RETURN_SENTINEL);
    emu.cpu.rip = f;
    let exit = if fast {
        emu.run()
    } else {
        loop {
            match emu.step() {
                Ok(None) => {}
                Ok(Some(exit)) => break Ok(exit),
                Err(e) => break Err(e),
            }
        }
    };
    let mut data = vec![0u8; image.data.len()];
    emu.mem.read_bytes(image.data_base, &mut data);
    Outcome { exit, stats: emu.stats(), cpu: emu.cpu.clone(), data }
}

/// Asserts that `run()` and the reference stepper agree on `entry(args)`
/// and returns the shared outcome.
fn assert_run_matches_stepper(
    image: &Image,
    entry: &str,
    args: &[u64],
    budget: u64,
    label: &str,
) -> Outcome {
    let fast = outcome(image, entry, args, budget, true);
    let reference = outcome(image, entry, args, budget, false);
    assert_eq!(fast, reference, "{label}: run() diverged from the reference stepper");
    fast
}

#[test]
fn run_matches_the_reference_stepper_on_every_image_family() {
    use raindrop_bench::{prepare_image, ObfKind};
    use raindrop_obfvm::ImplicitAt;
    use raindrop_synth::classes;

    for (w, args) in [(workloads::fannkuch(), vec![7u64]), (workloads::pidigits(), vec![30])] {
        let image = codegen::compile(&w.program).expect("compiles");
        let out = assert_run_matches_stepper(&image, &w.entry, &args, 50_000_000, &w.name);
        assert!(matches!(out.exit, Ok(RunExit::Returned(_))), "{}: {:?}", w.name, out.exit);
    }

    let pi = workloads::pidigits();
    let rop = prepare_image(&pi.program, &pi.obfuscate, &ObfKind::Rop { k: 1.0 }, 7)
        .expect("rop-rewrites");
    assert_run_matches_stepper(&rop, &pi.entry, &[20], 50_000_000, "pidigits/ROP1.00");

    // The smallest class programs that finish under each VM family, and
    // the program that stores into its own text between calls.
    let corpus = classes::generate_all(1);
    let program = |name: &str| {
        &corpus.iter().find(|c| c.workload.name == name).expect("class program exists").workload
    };
    let vm1 = ObfKind::Vm { layers: 1, implicit: ImplicitAt::All };
    let vm2 = ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last };
    let smc = program("smc-cadence1");
    for (w, kind) in [
        (program("depth-recursion"), &vm1),
        (program("stress-s0-0"), &vm2),
        (smc, &ObfKind::Native),
        (smc, &ObfKind::Rop { k: 1.0 }),
        (smc, &vm1),
    ] {
        let image = prepare_image(&w.program, &w.obfuscate, kind, 1).expect("protects");
        let label = format!("{}/{}", w.name, kind.label());
        let out = assert_run_matches_stepper(&image, &w.entry, &w.args, 50_000_000, &label);
        assert!(matches!(out.exit, Ok(RunExit::Returned(_))), "{label}: {:?}", out.exit);
    }
}

#[test]
fn run_matches_the_reference_stepper_at_every_budget_of_a_rop_function() {
    use raindrop_machine::{AluOp, Assembler, Cond, EmuError, ImageBuilder, Inst, Mem};
    let mut a = Assembler::new();
    let swap = a.new_label();
    let done = a.new_label();
    a.inst(Inst::Push(Reg::Rbp));
    a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16));
    a.inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi));
    a.inst(Inst::Load(Reg::Rdi, Mem::base_disp(Reg::Rbp, -8)));
    a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
    a.inst(Inst::Cmp(Reg::Rdi, Reg::Rsi));
    a.jcc(Cond::B, swap);
    a.inst(Inst::Alu(AluOp::Sub, Reg::Rax, Reg::Rsi));
    a.jmp(done);
    a.bind(swap);
    a.inst(Inst::MovRR(Reg::Rax, Reg::Rsi));
    a.inst(Inst::Alu(AluOp::Sub, Reg::Rax, Reg::Rdi));
    a.bind(done);
    a.inst(Inst::Leave);
    a.inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("absdiff", a);
    let mut image = b.build().expect("links");
    Rewriter::new(RopConfig::full().with_seed(3))
        .rewrite_function(&mut image, "absdiff")
        .expect("rewrites");

    let args = [5, 40];
    let full = assert_run_matches_stepper(&image, "absdiff", &args, u64::MAX, "absdiff");
    assert_eq!(full.exit, Ok(RunExit::Returned(35)));
    let count = full.stats.instructions;
    assert!(count > 50, "the chain retires {count} instructions");
    for budget in 0..=count {
        let out = assert_run_matches_stepper(&image, "absdiff", &args, budget, "absdiff");
        if budget < count {
            assert_eq!(out.exit, Err(EmuError::BudgetExceeded { executed: budget }));
        } else {
            assert_eq!(out, full, "the exact budget completes the call");
        }
    }
}

#[test]
fn run_matches_the_reference_stepper_on_exits_and_stores_inside_a_run() {
    use raindrop_machine::{AluOp, Assembler, EmuError, ImageBuilder, Inst};
    let build = |body: &[Inst]| {
        let mut a = Assembler::new();
        for inst in body {
            a.inst(*inst);
        }
        let mut b = ImageBuilder::new();
        b.add_function("f", a);
        b.build().expect("links")
    };
    let straight = [
        Inst::MovRR(Reg::Rax, Reg::Rdi),
        Inst::AluI(AluOp::Add, Reg::Rax, 1),
        Inst::Div(Reg::Rax, Reg::Rsi),
        Inst::MovRI(Reg::Rcx, 9),
        Inst::Ret,
    ];

    // Address of `straight[k]` in an image built from it.
    let at = |image: &Image, k: usize| {
        let f = image.function("f").unwrap().addr;
        f + straight[..k].iter().map(raindrop_machine::encoded_len).sum::<usize>() as u64
    };

    // `div` by zero as the third instruction of a five-instruction run.
    let image = build(&straight);
    let div_at = at(&image, 2);
    let out = assert_run_matches_stepper(&image, "f", &[8, 0], 1_000, "div-by-zero");
    assert_eq!(out.exit, Err(EmuError::DivideByZero { addr: div_at }));
    assert_eq!(out.stats.instructions, 3);

    // Bytes that do not decode in place of the fourth instruction.
    let mut image = build(&straight);
    let bad_at = at(&image, 3);
    image.patch_text(bad_at, &[0xff]).unwrap();
    let out = assert_run_matches_stepper(&image, "f", &[8, 3], 1_000, "decode-fault");
    assert!(
        matches!(out.exit, Err(EmuError::Decode { addr, .. }) if addr == bad_at),
        "{:?}",
        out.exit
    );
    assert_eq!(out.stats.instructions, 3);

    // A store over the immediate of the run's next instruction: the run
    // must leave off and fetch the new bytes. The placeholder `mov rcx, 0`
    // is patched to point at that immediate (past its opcode and register).
    let rewrite = [
        Inst::MovRI(Reg::Rcx, 0),
        Inst::Store(raindrop_machine::Mem::base(Reg::Rcx), Reg::Rdi),
        Inst::MovRI(Reg::Rax, 1),
        Inst::Ret,
    ];
    let mut image = build(&rewrite);
    let f = image.function("f").unwrap().addr;
    let offset = |k: usize| rewrite[..k].iter().map(raindrop_machine::encoded_len).sum::<usize>();
    let imm_at = f + offset(2) as u64 + 2;
    image.patch_text(f + 2, &imm_at.to_le_bytes()).unwrap();
    let out = assert_run_matches_stepper(&image, "f", &[0x1234], 1_000, "self-rewrite");
    assert_eq!(out.exit, Ok(RunExit::Returned(0x1234)));

    // `hlt` in the middle of straight-line code.
    let image = build(&[
        Inst::MovRI(Reg::Rax, 77),
        Inst::AluI(AluOp::Add, Reg::Rax, 1),
        Inst::Hlt,
        Inst::MovRI(Reg::Rax, 1),
        Inst::Ret,
    ]);
    let out = assert_run_matches_stepper(&image, "f", &[], 1_000, "hlt");
    assert_eq!(out.exit, Ok(RunExit::Halted));
    assert_eq!(out.cpu.reg(Reg::Rax), 78);
    assert_eq!(out.stats.instructions, 3);
}

//! Quickstart: compile a small function, rewrite it into a ROP chain
//! through an `ObfConfig` pipeline, run both, and show what the binary looks
//! like afterwards.
//!
//! Run with `cargo run -p raindrop-bench --example quickstart`.

use raindrop::pipeline::{ObfConfig, VerifyPolicy};
use raindrop::RopConfig;
use raindrop_machine::Emulator;
use raindrop_synth::codegen;
use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // f(x) = sum of i*x for i in 1..=10
    let f = Function {
        name: "weighted_sum".into(),
        params: 1,
        locals: 2,
        body: vec![
            Stmt::Assign(0, Expr::c(0)),
            Stmt::Assign(1, Expr::c(1)),
            Stmt::While(
                Expr::bin(BinOp::Le, Expr::Var(1), Expr::c(10)),
                vec![
                    Stmt::Assign(
                        0,
                        Expr::bin(
                            BinOp::Add,
                            Expr::Var(0),
                            Expr::bin(BinOp::Mul, Expr::Var(1), Expr::Arg(0)),
                        ),
                    ),
                    Stmt::Assign(1, Expr::bin(BinOp::Add, Expr::Var(1), Expr::c(1))),
                ],
            ),
            Stmt::Return(Expr::Var(0)),
        ],
    };
    let program = Program::new().with_function(f);
    let original = codegen::compile(&program)?;

    // One pipeline: full-strength ROP rewriting under the default seed, plus
    // built-in differential verification against the unobfuscated baseline.
    let full = RopConfig::full();
    let run = ObfConfig::new()
        .rop(full.clone())
        .pipeline(full.seed)
        .verify(VerifyPolicy::Batch)
        .run_program(&program, &["weighted_sum"])?;
    let protected = run.image.clone();
    assert!(run.report.all_verified(), "pipeline verification must pass");
    let rop = run.report.rop_passes();
    let report = &rop.first().expect("one rop pass").rewritten[0];

    println!("original .text: {} bytes", original.text.len());
    println!("protected .text: {} bytes (artificial gadgets appended)", protected.text.len());
    println!(
        "chain: {} bytes at {:#x}, {} gadget slots, {} program points",
        report.chain_len, report.chain_addr, report.stats.gadget_slots, report.program_points
    );

    for x in [1u64, 7, 123] {
        let mut e1 = Emulator::new(&original);
        let mut e2 = Emulator::new(&protected);
        let a = e1.call_named(&original, "weighted_sum", &[x])?;
        let b = e2.call_named(&protected, "weighted_sum", &[x])?;
        assert_eq!(a, b);
        println!(
            "weighted_sum({x}) = {a}   (native {} instr, ROP {} instr)",
            e1.stats().instructions,
            e2.stats().instructions
        );
    }
    Ok(())
}

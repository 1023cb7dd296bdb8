//! Criterion micro-benchmark of the batched differential verifier against
//! its per-case equivalent.
//!
//! CI runs this as a smoke with `cargo bench --bench verify_batching -- --test`.

use criterion::{criterion_group, criterion_main, Criterion};
use raindrop::{verify_batch, Rewriter, RopConfig, TestCase};
use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Inst, Reg};

fn bench_verify_batching(c: &mut Criterion) {
    // The rewriter_matrix-style setup: one function, many register cases.
    let mut a = Assembler::new();
    let swap = a.new_label();
    let done = a.new_label();
    a.inst(Inst::Push(Reg::Rbp));
    a.inst(Inst::MovRR(Reg::Rbp, Reg::Rsp));
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16));
    a.inst(Inst::Store(raindrop_machine::Mem::base_disp(Reg::Rbp, -8), Reg::Rdi));
    a.inst(Inst::Load(Reg::Rdi, raindrop_machine::Mem::base_disp(Reg::Rbp, -8)));
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
    let original = b.build().expect("links");
    let mut obf = original.clone();
    let mut rw = Rewriter::new(RopConfig::full());
    rw.rewrite_function(&mut obf, "absdiff").expect("rewrites");

    let cases: Vec<TestCase> = (0..32u64).map(|i| TestCase::args(&[i * 7, 100 - i])).collect();

    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    group.bench_function("batch_32_cases", |b| {
        b.iter(|| verify_batch(&original, &obf, "absdiff", &cases));
    });
    group.bench_function("per_case_32_cases", |b| {
        b.iter(|| {
            cases
                .iter()
                .map(|case| raindrop::check_case(&original, &obf, "absdiff", case))
                .filter(raindrop::Verdict::is_match)
                .count()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_verify_batching);
criterion_main!(benches);

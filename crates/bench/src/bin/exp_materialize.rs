//! Chain-materialization throughput: resolve + layout + image patching of
//! ROP chains, written to `BENCH_materialize.json`.
//!
//! Two workloads bracket the allocation-churn hot path the ROADMAP named,
//! each measured in two modes:
//!
//! * `resolve_1024item` — pure chain layout of a synthetic 1024-item chain
//!   (gadgets, immediates, branch deltas, block markers, confusion
//!   padding): `fresh` calls [`raindrop::Chain::resolve`] (allocating
//!   output buffers per call, the pre-pipeline behaviour), `warm` calls
//!   [`raindrop::Chain::resolve_into`] through one reused
//!   [`raindrop::ChainScratch`];
//! * `materialize_1024item` — the full per-function step (resolve + `.data`
//!   append + pivot-stub patch) over a 200-function image: `fresh`
//!   constructs a [`raindrop::MaterializeCtx`] per function (the allocation
//!   profile of the since-removed free `materialize` shim), `warm` reuses
//!   one context across the whole image, as [`raindrop::Rewriter`] now does.
//!
//! The JSON embeds the frozen pre-change baseline (the seed `materialize`
//! measured at the commit before `MaterializeCtx` existed, same workloads,
//! same machine class), mirroring `BENCH_emu.json` / `BENCH_dse.json`.
//!
//! Before timing anything, every run asserts that the two modes agree byte
//! for byte: `resolve_into` through a reused scratch yields the same
//! resolved chain as `resolve`, and a warm context yields the same image as
//! fresh contexts.
//!
//! Usage: `cargo run --release -p raindrop-bench --bin exp_materialize`
//! (`scripts/regen_bench_materialize.sh` wraps this). `--smoke` runs a
//! CI-sized subset and skips the JSON rewrite; CI runs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::{Chain, ChainScratch, MaterializeCtx, ResolvedChain, RopConfig, RopRuntime};
use raindrop_bench::{many_function_image, synthetic_chain, write_json};
use raindrop_machine::Image;
use serde::Serialize;
use std::time::Instant;

/// One measured workload in one mode.
#[derive(Debug, Clone, Serialize)]
struct Measurement {
    /// Workload label.
    name: String,
    /// Buffer mode: `fresh` (per-call allocations) or `warm` (reused).
    mode: String,
    /// Operations timed.
    ops: u64,
    /// Total wall-clock seconds.
    wall_seconds: f64,
    /// Nanoseconds per operation.
    ns_per_op: f64,
}

/// A frozen historical measurement (not regenerated by this binary).
#[derive(Debug, Clone, Serialize)]
struct FrozenEntry {
    /// What the entry describes.
    label: String,
    /// Commit the numbers were measured at.
    git: String,
    /// `(workload, ns_per_op)` pairs.
    ns_per_op: Vec<(String, f64)>,
}

/// Top-level report written to `BENCH_materialize.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    schema: String,
    pre_pr_baseline: FrozenEntry,
    measured: Vec<Measurement>,
    /// `(workload, warm-mode speedup vs the frozen baseline)`.
    speedup_vs_baseline: Vec<(String, f64)>,
}

/// The pre-`MaterializeCtx` hot path (free `materialize` + `Chain::resolve`
/// allocating every buffer per call), measured on the same workloads at the
/// commit before this refactor. Frozen so the trajectory keeps its origin.
fn pre_pr_baseline() -> FrozenEntry {
    FrozenEntry {
        label: "seed materialize (fresh Vec/BTreeMap per chain, per-call body buffer)".into(),
        git: "af71d47".into(),
        ns_per_op: vec![
            ("resolve_1024item".into(), 7733.0),
            ("materialize_1024item".into(), 9959.0),
        ],
    }
}

fn measure(name: &str, mode: &str, ops: u64, wall: f64) -> Measurement {
    let m = Measurement {
        name: name.to_string(),
        mode: mode.to_string(),
        ops,
        wall_seconds: wall,
        ns_per_op: wall * 1e9 / ops as f64,
    };
    println!(
        "{:<24} {:<6} {:>8} ops  {:>10.3}s  {:>12.0} ns/op",
        m.name, m.mode, m.ops, m.wall_seconds, m.ns_per_op
    );
    m
}

/// Materializes `chain` into every function of a clone of `base`, through
/// one reused context (`warm`) or a fresh context per function.
fn sweep(base: &Image, cfg: &RopConfig, names: &[String], chain: &Chain, warm: bool) -> Image {
    let mut img = base.clone();
    let rt = RopRuntime::install(&mut img, cfg);
    let mut ctx = MaterializeCtx::new();
    for name in names {
        if !warm {
            ctx = MaterializeCtx::new();
        }
        ctx.materialize(&mut img, &rt, name, chain).expect("materializes");
    }
    img
}

/// Asserts that fresh and warm buffers produce byte-identical output, for
/// a second resolve through already-used scratch too.
fn assert_modes_agree(chain: &Chain, base: &Image, cfg: &RopConfig, names: &[String]) {
    let fresh = chain.resolve().expect("resolves");
    let mut scratch = ChainScratch::default();
    let mut out = ResolvedChain::default();
    for _ in 0..2 {
        chain.resolve_into(&mut scratch, &mut out).expect("resolves");
        assert_eq!(out, fresh, "warm resolve_into differs from a fresh resolve");
    }
    assert!(
        sweep(base, cfg, names, chain, false) == sweep(base, cfg, names, chain, true),
        "a warm MaterializeCtx produced a different image than fresh contexts"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, funcs, items) = if smoke { (2usize, 20usize, 256usize) } else { (50, 200, 1024) };
    let mut measured = Vec::new();
    let chain = synthetic_chain(items, 0x40_0000);
    let resolve_label = format!("resolve_{items}item");
    let materialize_label = format!("materialize_{items}item");
    let base = many_function_image(funcs);
    let cfg = RopConfig::full();
    // Function names are precomputed so the timed region measures only the
    // materialization path, not name formatting.
    let names: Vec<String> = (0..funcs).map(|i| format!("f{i}")).collect();
    assert_modes_agree(&chain, &base, &cfg, &names);
    println!("fresh and warm modes agree byte for byte");

    // Pure resolve: layout + byte emission, no image mutation.
    let reps = (rounds * funcs) as u64;
    {
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            sink = sink.wrapping_add(chain.resolve().expect("resolves").bytes.len());
        }
        assert!(sink > 0);
        measured.push(measure(&resolve_label, "fresh", reps, start.elapsed().as_secs_f64()));

        let mut scratch = ChainScratch::default();
        let mut out = ResolvedChain::default();
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            chain.resolve_into(&mut scratch, &mut out).expect("resolves");
            sink = sink.wrapping_add(out.bytes.len());
        }
        assert!(sink > 0);
        measured.push(measure(&resolve_label, "warm", reps, start.elapsed().as_secs_f64()));
    }

    // Full materialization over a many-function image, fresh image per
    // round (the clone is outside the timed region).
    {
        for mode in ["fresh", "warm"] {
            let mut wall = 0.0f64;
            for _ in 0..rounds {
                let mut img = base.clone();
                let rt = RopRuntime::install(&mut img, &cfg);
                let mut warm_ctx = MaterializeCtx::new();
                let start = Instant::now();
                for name in &names {
                    match mode {
                        "fresh" => {
                            MaterializeCtx::new()
                                .materialize(&mut img, &rt, name, &chain)
                                .expect("materializes");
                        }
                        _ => {
                            warm_ctx
                                .materialize(&mut img, &rt, name, &chain)
                                .expect("materializes");
                        }
                    }
                }
                wall += start.elapsed().as_secs_f64();
            }
            measured.push(measure(&materialize_label, mode, reps, wall));
        }
    }

    if smoke {
        println!("[exp_materialize] smoke run: BENCH_materialize.json left untouched");
        return;
    }
    let baseline = pre_pr_baseline();
    let mut speedups = Vec::new();
    for (name, base_ns) in &baseline.ns_per_op {
        if let Some(warm) = measured.iter().find(|m| &m.name == name && m.mode == "warm") {
            let speedup = base_ns / warm.ns_per_op.max(1e-9);
            println!("{name}: warm vs frozen baseline {speedup:.2}x");
            speedups.push((name.clone(), speedup));
        }
    }
    let report = Report {
        schema: "bench_materialize/v1".into(),
        pre_pr_baseline: baseline,
        measured,
        speedup_vs_baseline: speedups,
    };
    write_json("BENCH_materialize", &report);
}

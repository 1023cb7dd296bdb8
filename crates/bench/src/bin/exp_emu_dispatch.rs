//! Emulator-dispatch microbenchmark: guest instructions per second on three
//! workload shapes, written to `BENCH_emu.json`.
//!
//! The three shapes bracket what the suites actually execute:
//!
//! * `straight_line` — a tight unrolled ALU loop, pure dispatch cost;
//! * `branchy` — the fannkuch clbg kernel (calls, branches, memory traffic);
//! * `rop_chain` — pidigits with its entry ROP-rewritten (`k = 0`), so every
//!   program point dispatches through `pop`/`ret` gadget sequences.
//!
//! Each shape is measured twice: with the predecoded instruction cache (the
//! production fast path, where `Emulator::run` retires a whole cached
//! straight-line run per lookup) and with it disabled (the reference
//! interpreter that steps and re-decodes every fetch — the differential
//! baseline the stepper test compares against). The JSON also embeds the pre-PR numbers measured at
//! the seed interpreter so the trajectory keeps its origin.
//!
//! Usage: `cargo run --release -p raindrop-bench --bin exp_emu_dispatch`
//! (`scripts/regen_bench_emu.sh` wraps this). `--smoke` runs each shape
//! once per mode, asserts both modes retire identical [`ExecStats`] and
//! return the same value, and leaves `BENCH_emu.json` untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop_bench::{prepare_image, straight_line_image, write_json, ObfKind};
use raindrop_machine::{Emulator, ExecStats, Image};
use raindrop_synth::workloads;
use serde::Serialize;
use std::time::Instant;

/// Result of measuring one workload in one mode.
#[derive(Debug, Clone, Serialize)]
struct WorkloadResult {
    /// Workload label.
    name: String,
    /// Guest instructions retired in the timed region.
    guest_instructions: u64,
    /// Wall-clock seconds of the timed region.
    wall_seconds: f64,
    /// Guest instructions per second.
    instr_per_sec: f64,
}

/// Runs `entry(args)` once on a fresh emulator; returns its value and
/// statistics.
fn run_once(image: &Image, entry: &str, args: &[u64], icache: bool) -> (u64, ExecStats) {
    let mut emu = Emulator::new(image);
    emu.set_icache_enabled(icache);
    emu.set_budget(10_000_000_000);
    let value = emu.call_named(image, entry, args).expect("workload runs");
    (value, emu.stats())
}

/// Runs `entry(args)` on fresh emulators until at least `min_instructions`
/// guest instructions have been retired, and reports the aggregate rate.
/// Emulator construction (image load) is inside the timed region on purpose:
/// the differential verifier pays it per run, so the dispatch number should
/// too.
fn measure(
    name: &str,
    image: &Image,
    entry: &str,
    args: &[u64],
    min_instructions: u64,
    icache: bool,
) -> WorkloadResult {
    // Warm-up run (also validates the workload).
    let per_run = run_once(image, entry, args, icache).1.instructions;

    let mut total = 0u64;
    let start = Instant::now();
    while total < min_instructions {
        total += run_once(image, entry, args, icache).1.instructions;
    }
    let wall = start.elapsed().as_secs_f64();
    let ips = total as f64 / wall;
    println!(
        "  {name:<14} [{}] {total:>12} instr in {wall:>7.3}s = {:>12.0} instr/s  ({per_run} instr/run)",
        if icache { "icache" } else { "refdec" },
        ips
    );
    WorkloadResult {
        name: name.to_string(),
        guest_instructions: total,
        wall_seconds: wall,
        instr_per_sec: ips,
    }
}

/// One measured mode (fast path or reference decoder).
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    /// `fast_icache` or `reference_decode`.
    mode: String,
    /// Per-workload results.
    workloads: Vec<WorkloadResult>,
}

/// A frozen historical measurement (not regenerated by this binary).
#[derive(Debug, Clone, Serialize)]
struct FrozenEntry {
    /// What the entry describes.
    label: String,
    /// Commit the numbers were measured at.
    git: String,
    /// instr/sec per workload.
    instr_per_sec: Vec<(String, f64)>,
    /// Wall seconds of the five emulation-bound suites (single core).
    suite_wall_seconds: Vec<(String, f64)>,
}

/// Top-level report written to `BENCH_emu.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Schema tag for future extensions.
    schema: String,
    /// The pre-PR seed interpreter, measured once and frozen.
    pre_pr_baseline: FrozenEntry,
    /// Freshly measured modes.
    measured: Vec<ModeResult>,
}

/// The seed interpreter (commit dba8c3c, before the fast-core PR), measured
/// on the same machine/methodology as `measure`. Frozen so the trajectory
/// keeps its origin. Suite walls: warm single-suite `cargo test -q -p <pkg>
/// --test <suite>` runs (second of two, binaries prebuilt), default
/// `PROPTEST_CASES`.
fn pre_pr_baseline() -> FrozenEntry {
    FrozenEntry {
        label: "seed interpreter (re-fetch + re-decode every step, HashMap per byte)".into(),
        git: "dba8c3c".into(),
        instr_per_sec: vec![
            ("straight_line".into(), 3.64e6),
            ("branchy".into(), 2.89e6),
            ("rop_chain".into(), 2.84e6),
        ],
        suite_wall_seconds: vec![
            ("attack_behaviour".into(), 88.2),
            ("end_to_end".into(), 18.0),
            ("analyses".into(), 0.1),
            ("vm_equivalence".into(), 77.6),
            ("codegen_differential".into(), 1.2),
        ],
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("[exp_emu_dispatch] building workloads");
    let straight = straight_line_image();
    let fann = workloads::fannkuch();
    let branchy = prepare_image(&fann.program, &[], &ObfKind::Native, 1).expect("compiles");
    let pi = workloads::pidigits();
    let rop = prepare_image(&pi.program, &pi.obfuscate, &ObfKind::Rop { k: 0.0 }, 1)
        .expect("rop-rewrites");

    let shapes: [(&str, &Image, &str, &[u64]); 3] = [
        ("straight_line", &straight, "spin", &[60_000]),
        ("branchy", &branchy, &fann.entry, &fann.args),
        ("rop_chain", &rop, &pi.entry, &[120]),
    ];

    if smoke {
        for (name, image, entry, args) in shapes {
            let fast = run_once(image, entry, args, true);
            let reference = run_once(image, entry, args, false);
            assert_eq!(fast, reference, "{name}: fast_icache and reference_decode diverged");
            println!("  {name:<14} {:>12} instr, identical in both modes", fast.1.instructions);
        }
        println!("[exp_emu_dispatch] smoke run: BENCH_emu.json left untouched");
        return;
    }

    const MIN_INSTR: u64 = 40_000_000;
    let mut measured = Vec::new();
    for icache in [true, false] {
        println!(
            "[exp_emu_dispatch] mode: {}",
            if icache { "fast_icache" } else { "reference_decode" }
        );
        let workloads = shapes
            .iter()
            .map(|&(name, image, entry, args)| measure(name, image, entry, args, MIN_INSTR, icache))
            .collect();
        measured.push(ModeResult {
            mode: if icache { "fast_icache".into() } else { "reference_decode".into() },
            workloads,
        });
    }

    let report =
        Report { schema: "bench_emu/v1".into(), pre_pr_baseline: pre_pr_baseline(), measured };
    write_json("BENCH_emu", &report);
}

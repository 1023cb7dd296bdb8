//! DSE explorer throughput benchmark: wall-clock of the fixed
//! `dse_speed_suite` job list under the re-run reference oracle and the
//! fork-point engine, written to `BENCH_dse.json`.
//!
//! Three passes bracket where the time goes:
//!
//! * `rerun_1worker` — the reference oracle: every flipped branch re-runs
//!   its whole prefix from the entry point (but shares the new solve cache,
//!   so the pass isolates the snapshot-restore win);
//! * `fork_1worker` — fork-point snapshots, single worker: the flipped
//!   branch resumes from the captured snapshot;
//! * `fork_fleet` — fork-point snapshots sharded over
//!   [`raindrop_sched::scoped_map`] on [`workers_from_env`] workers
//!   (`RAINDROP_DSE_WORKERS` / the machine's parallelism).
//!
//! The JSON embeds the frozen pre-PR baseline (the seed explorer before
//! fork points and constraint caching existed, measured on the same job
//! list and machine class) so the trajectory keeps its origin, mirroring
//! `BENCH_emu.json`.
//!
//! A fourth, separately reported measurement is the **depth stress**: a
//! deep P3-heavy ROP chain (200-iteration loop, a branch per iteration)
//! whose shadow expressions grow one long dependent chain. The metric is
//! how many distinct branches the explorer forks before the first
//! expression-size concretization hazard — the number the hash-consed
//! arena (DAG-counted size hazard) moved, with the tree-counted PR 6
//! measurement frozen as the baseline.
//!
//! Usage: `cargo run --release -p raindrop-bench --bin exp_dse_speed`
//! (`scripts/regen_bench_dse.sh` wraps this). `--smoke` runs a CI-sized
//! subset and skips the JSON rewrite; `--depth-stress` runs only the
//! depth-stress measurement (CI runs `--depth-stress --smoke`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop_attacks::concolic::shadow_run;
use raindrop_attacks::fleet::{workers_from_env, DseJob};
use raindrop_attacks::{DseAttack, ExploreMode, Goal, InputSpec};
use raindrop_bench::{
    depth_stress_budget, depth_stress_loop_size, depth_stress_randomfun,
    depth_stress_randomfun_smoke, dse_speed_budget, dse_speed_suite, prepare_randomfun, write_json,
    ObfKind,
};
use serde::Serialize;
use std::time::Instant;

/// Result of one job in one pass.
#[derive(Debug, Clone, Serialize)]
struct JobResult {
    /// Job label (`s<structure>/in<size>/<goal>/<config>`).
    label: String,
    /// Wall-clock seconds of this job.
    wall_seconds: f64,
    /// Whether the attack reached its goal.
    success: bool,
    /// Paths explored.
    paths: usize,
    /// Accounted guest instructions (prefix-inclusive).
    instructions: u64,
    /// Instructions actually stepped (prefix restores excluded).
    emulated_instructions: u64,
    /// Paths resumed from a fork-point snapshot.
    resumed_paths: usize,
    /// Solver invocations.
    solver_calls: u64,
    /// Solver invocations saved by the constraint cache.
    solve_cache_hits: u64,
    /// Per-cause counts of paths that hit a shadow-tracking hazard.
    hazard_causes: Vec<(String, u64)>,
    /// Most distinct branches any path forked before its first hazard.
    max_branches_pre_hazard: usize,
    /// Exhausted budget dimension of a failed attack.
    exhausted: Option<String>,
}

/// One measured pass over the whole suite.
#[derive(Debug, Clone, Serialize)]
struct PassResult {
    /// Pass label (`rerun_1worker`, `fork_1worker`, `fork_fleet`).
    mode: String,
    /// Fleet worker count used.
    workers: usize,
    /// Wall-clock seconds of the whole pass.
    total_wall_seconds: f64,
    /// Per-job results.
    jobs: Vec<JobResult>,
}

/// One frozen per-job measurement.
#[derive(Debug, Clone, Serialize)]
struct FrozenJob {
    /// Job label.
    label: String,
    /// Wall-clock seconds.
    wall_seconds: f64,
    /// Whether the attack reached its goal.
    success: bool,
    /// Paths explored.
    paths: usize,
    /// Accounted guest instructions.
    instructions: u64,
}

/// A frozen historical measurement (not regenerated by this binary).
#[derive(Debug, Clone, Serialize)]
struct FrozenEntry {
    /// What the entry describes.
    label: String,
    /// Commit the numbers were measured at.
    git: String,
    /// Wall-clock seconds of the whole suite.
    total_wall_seconds: f64,
    /// Per-job measurements.
    jobs: Vec<FrozenJob>,
}

/// The frozen depth-stress measurement of the tree-counted explorer
/// (before the hash-consed arena), on the full-size workload.
#[derive(Debug, Clone, Serialize)]
struct DepthStressBaseline {
    /// What the entry describes.
    label: String,
    /// Commit the numbers were measured at.
    git: String,
    /// Distinct branches forked before the run's first expression-size
    /// hazard (the very first explored path concretized).
    branches_before_first_hazard: usize,
    /// Deepest pre-hazard fork depth any path reached.
    deepest_path_branches_pre_hazard: usize,
    /// Distinct constraints the deepest path recorded in total (most of
    /// them behind its hazard, i.e. lost to forking).
    deepest_path_distinct: usize,
    /// Inputs pushed to the frontier over the whole run.
    frontier_pushes: usize,
    /// Exhausted budget dimension.
    exhausted: String,
}

/// One measured depth-stress run.
#[derive(Debug, Clone, Serialize)]
struct DepthStressResult {
    /// Loop trip count of the workload (200 full, 40 smoke).
    loop_size: u64,
    /// Distinct branches the seed path (input 0) forked, and its first
    /// hazard cause if any.
    seed_path_branches_pre_hazard: usize,
    /// The seed path's first hazard cause, if any.
    seed_path_hazard: Option<String>,
    /// Most distinct branches any explored path forked pre-hazard — with
    /// no hazards in the run this is the full symbolic branch population
    /// of the deepest path, the headline depth metric.
    max_branches_pre_hazard: usize,
    /// Constraints collected on the deepest path.
    deepest_path_constraints: usize,
    /// Inputs pushed to the frontier over the whole run.
    frontier_pushes: usize,
    /// Paths explored.
    paths: usize,
    /// Per-cause counts of paths that hit a hazard.
    hazard_causes: Vec<(String, u64)>,
    /// Solver invocations.
    solver_calls: u64,
    /// Wall-clock seconds of the attack.
    wall_seconds: f64,
    /// Exhausted budget dimension of a failed attack.
    exhausted: Option<String>,
}

/// The depth-stress trajectory entry of the JSON report.
#[derive(Debug, Clone, Serialize)]
struct DepthStressEntry {
    /// The frozen tree-counted measurement.
    baseline: DepthStressBaseline,
    /// The fresh DAG-counted measurement (full-size workload).
    measured: DepthStressResult,
    /// `measured.max_branches_pre_hazard /
    /// baseline.branches_before_first_hazard`: how many more distinct
    /// branches the explorer forks before any expression-size hazard.
    depth_gain: f64,
}

/// Top-level report written to `BENCH_dse.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Schema tag for future extensions.
    schema: String,
    /// The pre-PR explorer, measured once and frozen.
    pre_pr_baseline: FrozenEntry,
    /// Freshly measured passes.
    measured: Vec<PassResult>,
    /// `pre_pr_baseline.total_wall_seconds / fork_fleet.total_wall_seconds`.
    speedup_vs_baseline: f64,
    /// Symbolic depth before/after the hash-consed expression arena.
    depth_stress: DepthStressEntry,
}

/// The pre-PR DSE explorer (commit 4532913, before fork-point snapshots,
/// constraint caching and the fleet), measured on the same
/// `dse_speed_suite(false)` job list, sequentially, on the machine class
/// CI uses (single core). Frozen so the trajectory keeps its origin. The
/// failing ROP secret-finding jobs each burned the full 5 s wall budget in
/// the solver (random search over hundreds of duplicated chain
/// constraints) after exploring only ~2 paths.
fn pre_pr_baseline() -> FrozenEntry {
    let jobs: Vec<(&str, f64, bool, usize, u64)> = vec![
        ("s0/in1/secret/native", 0.000, true, 3, 295),
        ("s0/in1/secret/rop0.25", 5.125, false, 2, 13116),
        ("s0/in1/secret/rop1.00", 5.366, false, 2, 23288),
        ("s0/in1/coverage/native", 0.000, true, 2, 195),
        ("s0/in1/coverage/rop0.25", 0.008, true, 2, 12919),
        ("s0/in1/coverage/rop1.00", 0.016, true, 2, 23074),
        ("s0/in4/secret/native", 0.000, true, 3, 295),
        ("s0/in4/secret/rop0.25", 5.300, false, 2, 13116),
        ("s0/in4/secret/rop1.00", 5.132, false, 2, 23288),
        ("s0/in4/coverage/native", 0.000, true, 2, 195),
        ("s0/in4/coverage/rop0.25", 0.009, true, 2, 12919),
        ("s0/in4/coverage/rop1.00", 0.016, true, 2, 23074),
        ("s1/in1/secret/native", 0.001, true, 3, 909),
        ("s1/in1/secret/rop0.25", 5.173, false, 2, 18290),
        ("s1/in1/secret/rop1.00", 5.423, false, 2, 28432),
        ("s1/in1/coverage/native", 0.000, true, 2, 637),
        ("s1/in1/coverage/rop0.25", 0.009, true, 2, 18377),
        ("s1/in1/coverage/rop1.00", 0.020, true, 2, 28473),
        ("s1/in4/secret/native", 0.001, true, 3, 909),
        ("s1/in4/secret/rop0.25", 5.349, false, 2, 18290),
        ("s1/in4/secret/rop1.00", 5.098, false, 2, 28432),
        ("s1/in4/coverage/native", 0.000, true, 2, 637),
        ("s1/in4/coverage/rop0.25", 0.009, true, 2, 18377),
        ("s1/in4/coverage/rop1.00", 0.017, true, 2, 28473),
        ("s3/in1/secret/native", 0.004, true, 3, 2751),
        ("s3/in1/secret/rop0.25", 5.182, false, 2, 33833),
        ("s3/in1/secret/rop1.00", 5.347, false, 2, 43742),
        ("s3/in1/coverage/native", 0.003, true, 2, 1963),
        ("s3/in1/coverage/rop0.25", 0.014, true, 2, 34063),
        ("s3/in1/coverage/rop1.00", 0.020, true, 2, 44274),
        ("s3/in4/secret/native", 0.004, true, 3, 2751),
        ("s3/in4/secret/rop0.25", 5.182, false, 2, 33833),
        ("s3/in4/secret/rop1.00", 5.022, false, 2, 43742),
        ("s3/in4/coverage/native", 0.002, true, 2, 1963),
        ("s3/in4/coverage/rop0.25", 0.012, true, 2, 34063),
        ("s3/in4/coverage/rop1.00", 0.024, true, 2, 44274),
    ];
    FrozenEntry {
        label: "seed explorer (re-run every prefix, no constraint cache, sequential)".into(),
        git: "4532913".into(),
        total_wall_seconds: 62.892,
        jobs: jobs
            .into_iter()
            .map(|(l, w, s, p, i)| FrozenJob {
                label: l.to_string(),
                wall_seconds: w,
                success: s,
                paths: p,
                instructions: i,
            })
            .collect(),
    }
}

/// The tree-counted explorer (commit d8c77df, before the hash-consed
/// arena) on the full-size depth-stress workload: the P3 dispatch chained
/// every shadowed value into one growing expression *tree*, so the
/// 512-node tree cap concretized the very first explored path after 10
/// distinct forked branches; the deepest path got 497 branches in before
/// its hazard and recorded 1998 distinct constraints in total — three
/// quarters of the chain's symbolic branches fell behind a hazard and
/// were lost to forking. Frozen so the depth trajectory keeps its origin.
fn depth_stress_baseline() -> DepthStressBaseline {
    DepthStressBaseline {
        label: "tree-counted size hazard (512-node cap, serialization keys)".into(),
        git: "d8c77df".into(),
        branches_before_first_hazard: 10,
        deepest_path_branches_pre_hazard: 497,
        deepest_path_distinct: 1998,
        frontier_pushes: 2,
        exhausted: "solver-call cap".into(),
    }
}

/// Runs the depth-stress measurement: the seed path's pre-hazard depth via
/// a single shadow run, then the full (budgeted) attack for the
/// whole-exploration numbers.
fn run_depth_stress(smoke: bool) -> DepthStressResult {
    let rf = if smoke { depth_stress_randomfun_smoke() } else { depth_stress_randomfun() };
    let image = prepare_randomfun(&rf, &ObfKind::Rop { k: 1.0 }, 1).expect("workload prepares");
    let spec = InputSpec::RegisterArg { size_bytes: 4 };
    let budget = depth_stress_budget(smoke);

    let seed = shadow_run(&image, &rf.name, &spec, &[0], budget.per_path_instructions)
        .expect("seed path shadow-runs");
    let mut attack = DseAttack::new(&image, &rf.name, spec, budget);
    let (out, audit) = attack.run_audited(Goal::Secret { want: 1 });

    DepthStressResult {
        loop_size: depth_stress_loop_size(smoke),
        seed_path_branches_pre_hazard: seed.record.branches_pre_hazard,
        seed_path_hazard: seed.record.hazard_cause.map(str::to_string),
        max_branches_pre_hazard: out.max_branches_pre_hazard,
        deepest_path_constraints: out.max_constraints,
        frontier_pushes: audit.pushed.len(),
        paths: out.paths,
        hazard_causes: out.hazard_causes,
        solver_calls: out.solver_calls,
        wall_seconds: out.wall.as_secs_f64(),
        exhausted: out.exhausted.map(|e| e.to_string()),
    }
}

fn print_depth_stress(r: &DepthStressResult, smoke: bool) {
    let base = depth_stress_baseline();
    println!(
        "  depth-stress (loop_size={}): deepest path forked {} distinct branches pre-hazard \
         (tree-counted engine: first hazard after {}, deepest pre-hazard {}), \
         {} constraints on the deepest path, {} frontier pushes",
        r.loop_size,
        r.max_branches_pre_hazard,
        base.branches_before_first_hazard,
        base.deepest_path_branches_pre_hazard,
        r.deepest_path_constraints,
        r.frontier_pushes,
    );
    let hazards = if r.hazard_causes.is_empty() {
        "none".to_string()
    } else {
        r.hazard_causes
            .iter()
            .map(|(cause, n)| format!("{cause} x{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "  depth-stress hazards: {hazards}; seed path: {} branches, hazard {}; exhausted: {}",
        r.seed_path_branches_pre_hazard,
        r.seed_path_hazard.as_deref().unwrap_or("none"),
        r.exhausted.as_deref().unwrap_or("-"),
    );
    if !smoke {
        let gain = r.max_branches_pre_hazard as f64 / base.branches_before_first_hazard as f64;
        println!(
            "  depth-stress gain vs tree-counted baseline: {gain:.1}x more branches forked \
             before any expr-size hazard"
        );
    }
}

fn run_pass(mode_label: &str, mode: ExploreMode, workers: usize, smoke: bool) -> PassResult {
    let budget = dse_speed_budget(smoke);
    let jobs: Vec<DseJob> = dse_speed_suite(smoke)
        .into_iter()
        .map(|j| {
            let mut job = DseJob::new(j.label, j.image, j.func, j.spec, budget, j.goal);
            job.mode = mode;
            job
        })
        .collect();
    let start = Instant::now();
    let results = raindrop_sched::scoped_map(workers, jobs, |_, job| job.run());
    let total = start.elapsed().as_secs_f64();
    let jobs: Vec<JobResult> = results
        .into_iter()
        .map(|r| JobResult {
            label: r.label,
            wall_seconds: r.outcome.wall.as_secs_f64(),
            success: r.outcome.success,
            paths: r.outcome.paths,
            instructions: r.outcome.instructions,
            emulated_instructions: r.outcome.emulated_instructions,
            resumed_paths: r.outcome.resumed_paths,
            solver_calls: r.outcome.solver_calls,
            solve_cache_hits: r.outcome.solve_cache_hits,
            hazard_causes: r.outcome.hazard_causes,
            max_branches_pre_hazard: r.outcome.max_branches_pre_hazard,
            exhausted: r.outcome.exhausted.map(|e| e.to_string()),
        })
        .collect();
    println!(
        "  {mode_label:<14} ({} worker{}): {total:>8.3}s total, {} jobs, {} succeeded",
        workers,
        if workers == 1 { "" } else { "s" },
        jobs.len(),
        jobs.iter().filter(|j| j.success).count()
    );
    PassResult { mode: mode_label.to_string(), workers, total_wall_seconds: total, jobs }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let depth_only = std::env::args().any(|a| a == "--depth-stress");

    if depth_only {
        println!(
            "[exp_dse_speed] depth-stress measurement ({})",
            if smoke { "smoke" } else { "full" }
        );
        let r = run_depth_stress(smoke);
        print_depth_stress(&r, smoke);
        println!("[exp_dse_speed] depth-stress run: BENCH_dse.json left untouched");
        return;
    }

    println!("[exp_dse_speed] measuring the {} suite", if smoke { "smoke" } else { "full" });
    let measured = vec![
        run_pass("rerun_1worker", ExploreMode::Rerun, 1, smoke),
        run_pass("fork_1worker", ExploreMode::ForkPoint, 1, smoke),
        run_pass("fork_fleet", ExploreMode::ForkPoint, workers_from_env(), smoke),
    ];

    let baseline = pre_pr_baseline();
    let fork_fleet_wall = measured.last().expect("three passes").total_wall_seconds;
    let speedup = baseline.total_wall_seconds / fork_fleet_wall.max(1e-9);
    for pass in &measured {
        let resumed: usize = pass.jobs.iter().map(|j| j.resumed_paths).sum();
        let hits: u64 = pass.jobs.iter().map(|j| j.solve_cache_hits).sum();
        println!("  {:<14} resumed_paths={resumed} solve_cache_hits={hits}", pass.mode);
    }
    if smoke {
        println!("[exp_dse_speed] smoke run: BENCH_dse.json left untouched");
        return;
    }
    println!("[exp_dse_speed] speedup vs frozen pre-PR baseline: {speedup:.1}x");
    let depth = run_depth_stress(false);
    print_depth_stress(&depth, false);
    let depth_base = depth_stress_baseline();
    let depth_gain =
        depth.max_branches_pre_hazard as f64 / depth_base.branches_before_first_hazard as f64;
    let report = Report {
        schema: "bench_dse/v2".into(),
        pre_pr_baseline: baseline,
        measured,
        speedup_vs_baseline: speedup,
        depth_stress: DepthStressEntry { baseline: depth_base, measured: depth, depth_gain },
    };
    write_json("BENCH_dse", &report);
}

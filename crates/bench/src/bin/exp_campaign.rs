//! `exp_campaign` — checkpointed attack-campaign resilience and overhead.
//!
//! Measures the [`Campaign`] driver end to end over a mixed DSE-job corpus
//! (native, ROP-rewritten, coverage-goal and deliberately path-capped
//! attacks) under work-bounded budgets:
//!
//! 1. **direct** — every job run standalone ([`DseAttack::run_audited`]),
//!    the no-orchestration baseline;
//! 2. **campaign** — the same corpus under an uninterrupted campaign:
//!    checkpoint count/bytes/write-wall quantify what durability costs;
//! 3. **kill+resume** — the campaign is killed mid-run after a fixed
//!    number of checkpoints (a [`FaultPlan`] kill, simulating a crash) and
//!    resumed in a fresh driver; the report gives the resume overhead as
//!    the fraction of emulator work re-executed, since in-flight frontier
//!    entries re-run their path prefix instead of restoring a snapshot.
//!
//! Every phase must converge to identical per-job verdicts, witnesses and
//! schedules — the driver *asserts* this before writing
//! `BENCH_campaign.json` (`scripts/regen_bench_campaign.sh` wraps this).
//!
//! `--smoke` runs a CI-sized corpus through the same scripted
//! kill-and-resume cycle and all assertions, without rewriting the JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::{Rewriter, RopConfig};
use raindrop_attacks::campaign::{Campaign, CampaignConfig, CampaignReport, FaultPlan};
use raindrop_attacks::concolic::{DseAttack, DseAudit, DseBudget, DseOutcome, Goal, InputSpec};
use raindrop_attacks::fleet::DseJob;
use raindrop_bench::write_json;
use raindrop_synth::{codegen, generate_randomfun, paper_structures, Goal as RfGoal, RandomFun};
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Durability cost of the uninterrupted campaign run.
#[derive(Debug, Clone, Serialize)]
struct CheckpointCost {
    /// Checkpoint records written.
    written: u64,
    /// Bytes appended to the log.
    bytes: u64,
    /// Wall seconds spent writing and syncing checkpoints.
    write_wall_seconds: f64,
    /// Campaign wall / direct wall — everything orchestration adds.
    campaign_over_direct: f64,
}

/// Cost of the scripted kill-and-resume cycle.
#[derive(Debug, Clone, Serialize)]
struct ResumeCost {
    /// Checkpoints after which the fault plan killed the campaign.
    kill_after_checkpoints: u64,
    /// Wall seconds of the killed partial run.
    killed_wall_seconds: f64,
    /// Wall seconds of the resumed run to completion.
    resumed_wall_seconds: f64,
    /// Jobs resumed mid-exploration from a persisted frontier.
    jobs_resumed: usize,
    /// Jobs replayed as finished straight from the log.
    jobs_recovered: usize,
    /// Fraction of the baseline emulator work re-executed because of the
    /// kill (resumed frontier entries re-run their path prefix).
    reexecuted_fraction: f64,
}

/// Top-level report written to `BENCH_campaign.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    schema: String,
    /// Job labels, in campaign order.
    jobs: Vec<String>,
    /// Wall seconds running every job standalone, sequentially.
    direct_wall_seconds: f64,
    /// Wall seconds of the uninterrupted campaign.
    campaign_wall_seconds: f64,
    checkpoint: CheckpointCost,
    resume: ResumeCost,
    /// All three phases produced identical per-job results (asserted).
    verdicts_match: bool,
}

/// Work-bounded budget: wall clock effectively off, so verdicts are
/// independent of machine speed, kills and worker scheduling.
fn logical_budget(scale: u64) -> DseBudget {
    DseBudget {
        total_instructions: 4_000_000 * scale,
        per_path_instructions: 500_000 * scale,
        max_paths: 40 * scale as usize,
        max_wall: Duration::from_secs(3600),
        max_solver_calls: 2_000 * scale,
        ..DseBudget::default()
    }
}

fn rf(goal: RfGoal, structure_idx: usize, input_size: usize, seed: u64) -> RandomFun {
    let (name, structure) = paper_structures().into_iter().nth(structure_idx).unwrap();
    generate_randomfun(raindrop_synth::RandomFunConfig {
        structure,
        structure_name: name,
        input_size,
        seed,
        goal,
        loop_size: 2,
    })
}

/// The corpus: regenerated identically for every campaign run, exactly as
/// a restarted campaign binary would.
fn make_jobs(smoke: bool) -> Vec<DseJob> {
    let scale = if smoke { 1 } else { 2 };
    let mut jobs = Vec::new();

    let secret = rf(RfGoal::SecretFinding, 0, 4, 2);
    jobs.push(DseJob::new(
        "native/secret",
        codegen::compile(&secret.program).unwrap(),
        &secret.name,
        InputSpec::RegisterArg { size_bytes: 4 },
        logical_budget(scale),
        Goal::Secret { want: 1 },
    ));

    let coverage = rf(RfGoal::CodeCoverage, 4, 2, 8);
    jobs.push(DseJob::new(
        "native/coverage",
        codegen::compile(&coverage.program).unwrap(),
        &coverage.name,
        InputSpec::RegisterArg { size_bytes: 2 },
        logical_budget(scale),
        Goal::Coverage { total_probes: coverage.probe_count },
    ));

    let rop = rf(RfGoal::SecretFinding, 0, 1, 9);
    let mut rop_image = codegen::compile(&rop.program).unwrap();
    Rewriter::new(RopConfig::ropk(1.0).with_seed(9))
        .rewrite_function(&mut rop_image, &rop.name)
        .unwrap();
    jobs.push(DseJob::new(
        "rop1.0/secret",
        rop_image,
        &rop.name,
        InputSpec::RegisterArg { size_bytes: 1 },
        logical_budget(scale),
        Goal::Secret { want: 1 },
    ));

    let defeated = rf(RfGoal::SecretFinding, 3, 4, 7);
    jobs.push(DseJob::new(
        "defeated/path-cap",
        codegen::compile(&defeated.program).unwrap(),
        &defeated.name,
        InputSpec::RegisterArg { size_bytes: 4 },
        DseBudget { max_paths: 2, ..logical_budget(scale) },
        Goal::Secret { want: 1 },
    ));

    if !smoke {
        for seed in [11u64, 12, 13] {
            let extra = rf(RfGoal::SecretFinding, 1, 2, seed);
            jobs.push(DseJob::new(
                format!("native/secret-s{seed}"),
                codegen::compile(&extra.program).unwrap(),
                &extra.name,
                InputSpec::RegisterArg { size_bytes: 2 },
                logical_budget(scale),
                Goal::Secret { want: 1 },
            ));
        }
    }
    jobs
}

fn config() -> CampaignConfig {
    CampaignConfig { workers: 2, slice: 2, ..CampaignConfig::default() }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("raindrop-exp-campaign-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts a campaign's per-job results equal the direct baseline on every
/// determinism-pinned field (`wall`, `emulated_instructions` and
/// `resumed_paths` legitimately differ across phases).
fn assert_matches_direct(
    label: &str,
    direct: &[(String, DseOutcome, DseAudit)],
    c: &CampaignReport,
) {
    assert!(c.completed(), "[{label}] campaign completed");
    assert_eq!(direct.len(), c.jobs.len(), "[{label}] same job count");
    for ((name, d, da), job) in direct.iter().zip(&c.jobs) {
        assert_eq!(name, &job.label, "[{label}] same job order");
        let o = job.outcome().unwrap_or_else(|| panic!("[{label}] `{name}` not done"));
        assert_eq!(d.success, o.success, "[{label}/{name}] same verdict");
        assert_eq!(d.witness, o.witness, "[{label}/{name}] same witness");
        assert_eq!(d.paths, o.paths, "[{label}/{name}] same path count");
        assert_eq!(d.instructions, o.instructions, "[{label}/{name}] same instructions");
        assert_eq!(d.probes_covered, o.probes_covered, "[{label}/{name}] same coverage");
        assert_eq!(d.solver_calls, o.solver_calls, "[{label}/{name}] same solver schedule");
        assert_eq!(d.exhausted, o.exhausted, "[{label}/{name}] same exhaustion");
        assert_eq!(Some(da), job.audit(), "[{label}/{name}] same exploration schedule");
    }
}

fn emulated_total(c: &CampaignReport) -> u64 {
    c.jobs.iter().filter_map(|j| j.outcome()).map(|o| o.emulated_instructions).sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = make_jobs(smoke);
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    println!("[exp_campaign] corpus: {} jobs{}", labels.len(), if smoke { ", smoke" } else { "" });

    // Phase 1: direct baseline, no orchestration.
    let start = Instant::now();
    let direct: Vec<(String, DseOutcome, DseAudit)> = jobs
        .into_iter()
        .map(|j| {
            let (outcome, audit) =
                DseAttack::new(&j.image, &j.func, j.spec.clone(), j.budget).run_audited(j.goal);
            (j.label, outcome, audit)
        })
        .collect();
    let direct_wall = start.elapsed().as_secs_f64();
    let direct_emulated: u64 = direct.iter().map(|(_, o, _)| o.emulated_instructions).sum();
    println!("direct     {:>8.3}s  {} jobs", direct_wall, direct.len());

    // Phase 2: uninterrupted campaign.
    let dir = fresh_dir("uninterrupted");
    let start = Instant::now();
    let uninterrupted =
        Campaign::open(&dir, config()).expect("campaign opens").run(make_jobs(smoke)).unwrap();
    let campaign_wall = start.elapsed().as_secs_f64();
    assert_matches_direct("uninterrupted", &direct, &uninterrupted);
    let stats = &uninterrupted.stats;
    println!(
        "campaign   {:>8.3}s  {} checkpoints  {} bytes  {:.3}s checkpoint wall",
        campaign_wall,
        stats.checkpoints_written,
        stats.checkpoint_bytes,
        stats.checkpoint_write_wall.as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 3: kill mid-campaign, then resume a fresh driver on the same
    // directory with the regenerated corpus.
    let kill_after = (stats.checkpoints_written / 2).max(1);
    let dir = fresh_dir("kill-resume");
    let start = Instant::now();
    let killed = Campaign::open(&dir, config())
        .expect("campaign opens")
        .with_faults(FaultPlan { kill_after_checkpoints: Some(kill_after), ..FaultPlan::default() })
        .run(make_jobs(smoke))
        .unwrap();
    let killed_wall = start.elapsed().as_secs_f64();
    assert!(!killed.completed(), "the fault plan killed the campaign mid-run");

    let start = Instant::now();
    let resumed =
        Campaign::open(&dir, config()).expect("campaign reopens").run(make_jobs(smoke)).unwrap();
    let resumed_wall = start.elapsed().as_secs_f64();
    assert_matches_direct("resumed", &direct, &resumed);
    let _ = std::fs::remove_dir_all(&dir);

    // Work re-executed because of the kill: everything the killed run
    // emulated plus everything the resumed run emulated, over the baseline.
    let replayed = emulated_total(&killed) + emulated_total(&resumed);
    let reexecuted = (replayed.saturating_sub(direct_emulated)) as f64 / direct_emulated as f64;
    println!(
        "kill+resume  killed after {kill_after} checkpoints: {:>8.3}s + {:>8.3}s, {} resumed, {} recovered, {:.1}% work re-executed",
        killed_wall,
        resumed_wall,
        resumed.stats.jobs_resumed,
        resumed.stats.jobs_recovered,
        reexecuted * 100.0
    );
    assert!(
        resumed.stats.jobs_resumed + resumed.stats.jobs_recovered > 0,
        "the resumed campaign restored state from the log"
    );

    if smoke {
        println!("[exp_campaign] smoke run passed: BENCH_campaign.json left untouched");
        return;
    }
    let report = Report {
        schema: "bench_campaign/v1".into(),
        jobs: labels,
        direct_wall_seconds: direct_wall,
        campaign_wall_seconds: campaign_wall,
        checkpoint: CheckpointCost {
            written: stats.checkpoints_written,
            bytes: stats.checkpoint_bytes,
            write_wall_seconds: stats.checkpoint_write_wall.as_secs_f64(),
            campaign_over_direct: campaign_wall / direct_wall.max(1e-9),
        },
        resume: ResumeCost {
            kill_after_checkpoints: kill_after,
            killed_wall_seconds: killed_wall,
            resumed_wall_seconds: resumed_wall,
            jobs_resumed: resumed.stats.jobs_resumed,
            jobs_recovered: resumed.stats.jobs_recovered,
            reexecuted_fraction: reexecuted,
        },
        verdicts_match: true,
    };
    write_json("BENCH_campaign", &report);
}

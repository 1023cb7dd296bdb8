//! Robustness contract of the [`Campaign`] driver: a campaign killed at
//! checkpoint boundaries — with the checkpoint log optionally corrupted at
//! crash time — and then resumed converges to the same per-job verdicts as
//! an uninterrupted run. Corruption may only ever *remove* checkpointed
//! state (demoting jobs to a restart); it can never alter it.

use raindrop_attacks::campaign::{
    replay_log, Campaign, CampaignConfig, CampaignReport, CampaignStatus, FaultPlan,
};
use raindrop_attacks::concolic::{DseAttack, DseBudget, DseOutcome, Goal, InputSpec};
use raindrop_attacks::fleet::DseJob;
use raindrop_synth::{codegen, generate_randomfun, paper_structures, Goal as RfGoal, RandomFun};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fresh, unique campaign directory per test invocation.
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "raindrop-campaign-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Work-bounded budget: wall clock effectively off, so kills and worker
/// scheduling cannot change which budget dimension ends a run.
fn logical_budget() -> DseBudget {
    DseBudget {
        total_instructions: 4_000_000,
        per_path_instructions: 500_000,
        max_paths: 40,
        max_wall: Duration::from_secs(3600),
        max_solver_calls: 2_000,
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

/// The campaign's job corpus. `DseJob` is deliberately not `Clone`, so each
/// run regenerates the identical list — exactly what a restarted campaign
/// binary would do.
fn make_jobs() -> Vec<DseJob> {
    let secret = rf(RfGoal::SecretFinding, 0, 4, 2);
    let coverage = rf(RfGoal::CodeCoverage, 4, 2, 8);
    let defeated = rf(RfGoal::SecretFinding, 3, 4, 7);
    vec![
        DseJob::new(
            "secret",
            codegen::compile(&secret.program).unwrap(),
            &secret.name,
            InputSpec::RegisterArg { size_bytes: 4 },
            logical_budget(),
            Goal::Secret { want: 1 },
        ),
        DseJob::new(
            "coverage",
            codegen::compile(&coverage.program).unwrap(),
            &coverage.name,
            InputSpec::RegisterArg { size_bytes: 2 },
            logical_budget(),
            Goal::Coverage { total_probes: coverage.probe_count },
        ),
        DseJob::new(
            "defeated",
            codegen::compile(&defeated.program).unwrap(),
            &defeated.name,
            InputSpec::RegisterArg { size_bytes: 4 },
            DseBudget { max_paths: 2, ..logical_budget() },
            Goal::Secret { want: 1 },
        ),
    ]
}

/// Slice of 1 path: every checkpoint boundary is a potential kill site.
fn test_config() -> CampaignConfig {
    CampaignConfig { workers: 2, slice: 1, max_retries: 2, retry_backoff: Duration::from_millis(1) }
}

/// Compares two completed campaigns job by job on every determinism-pinned
/// outcome field. `wall`, `emulated_instructions` and `resumed_paths` are
/// excluded: resumed frontier entries re-execute their path prefix instead
/// of restoring an emulator snapshot.
fn assert_same_results(label: &str, reference: &CampaignReport, resumed: &CampaignReport) {
    assert!(reference.completed(), "[{label}] reference campaign completed");
    assert!(resumed.completed(), "[{label}] resumed campaign completed");
    assert_eq!(reference.jobs.len(), resumed.jobs.len(), "[{label}] same job count");
    for (a, b) in reference.jobs.iter().zip(&resumed.jobs) {
        assert_eq!(a.label, b.label, "[{label}] same job order");
        let (ao, bo) = (
            a.outcome().unwrap_or_else(|| panic!("[{label}] reference `{}` done", a.label)),
            b.outcome().unwrap_or_else(|| panic!("[{label}] resumed `{}` done", b.label)),
        );
        assert_same_outcome(&format!("{label}/{}", a.label), ao, bo);
        assert_eq!(a.audit(), b.audit(), "[{label}/{}] same exploration schedule", a.label);
    }
}

fn assert_same_outcome(label: &str, a: &DseOutcome, b: &DseOutcome) {
    assert_eq!(a.success, b.success, "[{label}] same verdict");
    assert_eq!(a.witness, b.witness, "[{label}] same discovered witness");
    assert_eq!(a.paths, b.paths, "[{label}] same path count");
    assert_eq!(a.instructions, b.instructions, "[{label}] same accounted instructions");
    assert_eq!(a.probes_covered, b.probes_covered, "[{label}] same coverage");
    assert_eq!(a.max_constraints, b.max_constraints, "[{label}] same longest record");
    assert_eq!(a.solver_calls, b.solver_calls, "[{label}] same solver schedule");
    assert_eq!(a.solve_cache_hits, b.solve_cache_hits, "[{label}] same cache behaviour");
    assert_eq!(a.hazard_causes, b.hazard_causes, "[{label}] same hazard accounting");
    assert_eq!(a.max_branches_pre_hazard, b.max_branches_pre_hazard, "[{label}] same fork depth");
    assert_eq!(a.exhausted, b.exhausted, "[{label}] same exhaustion dimension");
}

fn run_uninterrupted(tag: &str) -> CampaignReport {
    let report = Campaign::open(fresh_dir(tag), test_config()).unwrap().run(make_jobs()).unwrap();
    assert!(report.completed());
    report
}

#[test]
fn killed_and_resumed_campaign_converges() {
    let reference = run_uninterrupted("ref-kill");

    // The reference itself matches every job run directly, with no slices
    // and no checkpoints: orchestration changes no result.
    for (job, direct) in reference.jobs.iter().zip(make_jobs()) {
        let label = format!("direct/{}", job.label);
        let (outcome, audit) =
            DseAttack::new(&direct.image, &direct.func, direct.spec.clone(), direct.budget)
                .with_mode(direct.mode)
                .run_audited(direct.goal);
        assert_same_outcome(&label, &outcome, job.outcome().expect("reference job done"));
        assert_eq!(Some(&audit), job.audit(), "[{label}] same exploration schedule");
    }

    // Kill the campaign after every single checkpoint write: the harshest
    // schedule, exercising resume at *every* checkpoint boundary. Each
    // cycle simulates a fresh process: reopen the directory, regenerate the
    // job list, run until the fault kills us again.
    let dir = fresh_dir("kill-cycle");
    let mut cycles = 0u64;
    let mut resumed_total = 0usize;
    let finished = loop {
        cycles += 1;
        assert!(cycles < 500, "kill/resume cycle does not converge");
        let campaign = Campaign::open(&dir, test_config())
            .unwrap()
            .with_faults(FaultPlan { kill_after_checkpoints: Some(1), ..FaultPlan::default() });
        let report = campaign.run(make_jobs()).unwrap();
        resumed_total += report.stats.jobs_resumed;
        match report.status {
            CampaignStatus::Completed => break report,
            CampaignStatus::Killed { after_checkpoints } => {
                assert_eq!(after_checkpoints, 1, "fault plan kills after one checkpoint");
            }
        }
    };
    assert!(cycles >= 3, "the corpus spans several checkpoints (got {cycles} cycles)");
    assert!(resumed_total > 0, "at least one cycle resumed a job mid-exploration");
    assert_same_results("kill-cycle", &reference, &finished);
}

#[test]
fn corrupted_checkpoints_demote_to_restart_never_poison() {
    let reference = run_uninterrupted("ref-corrupt");

    // Build a log with a few checkpoints in it, then study its corruption
    // behaviour offline and end-to-end.
    let dir = fresh_dir("corrupt");
    let killed = Campaign::open(&dir, test_config())
        .unwrap()
        .with_faults(FaultPlan { kill_after_checkpoints: Some(3), ..FaultPlan::default() })
        .run(make_jobs())
        .unwrap();
    assert_eq!(killed.status, CampaignStatus::Killed { after_checkpoints: 3 });

    let log_path = dir.join(raindrop_attacks::campaign::CAMPAIGN_LOG);
    let clean = std::fs::read(&log_path).unwrap();
    let (clean_records, clean_dropped) = replay_log(&clean);
    assert_eq!(clean_records.len(), 3, "three checkpoints were written");
    assert_eq!(clean_dropped, 0, "the clean log replays fully");

    // Offline sweep: flipping any single byte must reduce replay to a
    // strict prefix of the clean record list — records after the damage are
    // dropped (restart), but no record is ever altered.
    let step = (clean.len() / 4096).max(1);
    for at in (0..clean.len()).step_by(step) {
        let mut corrupt = clean.clone();
        corrupt[at] ^= 0xA5;
        let (records, dropped) = replay_log(&corrupt);
        assert!(
            records.len() < clean_records.len()
                || (records.len() == clean_records.len() && dropped == 0),
            "byte {at}: replay never grows"
        );
        assert_eq!(
            records.as_slice(),
            &clean_records[..records.len()],
            "byte {at}: surviving records are an exact prefix of the clean log"
        );
        if records.len() < clean_records.len() {
            assert!(dropped > 0, "byte {at}: dropped bytes are accounted");
        }
    }

    // Truncation at any length is likewise a prefix.
    for cut in [1usize, 7, clean.len() / 2, clean.len().saturating_sub(9)] {
        let truncated = &clean[..clean.len() - cut.min(clean.len())];
        let (records, _) = replay_log(truncated);
        assert_eq!(
            records.as_slice(),
            &clean_records[..records.len()],
            "cut {cut}: truncated replay is a prefix"
        );
    }

    // End-to-end: resume from a handful of corrupted logs (including a
    // destroyed header) and from a truncated log; every resumed campaign
    // must converge to the reference results, re-running whatever the
    // corruption demoted.
    let mut sites =
        vec![0usize, raindrop_server::recfile::HEADER_LEN - 1, clean.len() / 2, clean.len() - 1];
    sites.dedup();
    for (i, at) in sites.into_iter().enumerate() {
        let dir = fresh_dir(&format!("corrupt-e2e-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut corrupt = clean.clone();
        corrupt[at] ^= 0xA5;
        std::fs::write(dir.join(raindrop_attacks::campaign::CAMPAIGN_LOG), &corrupt).unwrap();
        let resumed = Campaign::open(&dir, test_config()).unwrap().run(make_jobs()).unwrap();
        assert_same_results(&format!("corrupt-byte-{at}"), &reference, &resumed);
    }
    {
        let dir = fresh_dir("corrupt-e2e-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(raindrop_attacks::campaign::CAMPAIGN_LOG),
            &clean[..clean.len() - 5],
        )
        .unwrap();
        let resumed = Campaign::open(&dir, test_config()).unwrap().run(make_jobs()).unwrap();
        assert_same_results("corrupt-truncated", &reference, &resumed);
    }
}

#[test]
fn kill_with_torn_write_still_converges() {
    let reference = run_uninterrupted("ref-torn");

    // The kill itself corrupts the log — a torn write at crash time. Flip a
    // byte inside the last record on the first kill, truncate mid-record on
    // the second; both campaigns must still converge.
    let dir = fresh_dir("torn");
    let mut cycles = 0u64;
    let finished = loop {
        cycles += 1;
        assert!(cycles < 500, "torn-write cycle does not converge");
        let faults = match cycles {
            1 => FaultPlan {
                kill_after_checkpoints: Some(2),
                flip_byte_on_kill: Some(u64::MAX), // clamped: last byte of the log
                ..FaultPlan::default()
            },
            2 => FaultPlan {
                kill_after_checkpoints: Some(2),
                truncate_on_kill: Some(3),
                ..FaultPlan::default()
            },
            _ => FaultPlan::default(),
        };
        let report = Campaign::open(&dir, test_config())
            .unwrap()
            .with_faults(faults)
            .run(make_jobs())
            .unwrap();
        if report.completed() {
            break report;
        }
    };
    assert!(cycles >= 3, "both torn-write kills fired (got {cycles} cycles)");
    assert_same_results("torn-write", &reference, &finished);
}

#[test]
fn panic_injection_retries_and_converges() {
    let reference = run_uninterrupted("ref-panic");

    let report = Campaign::open(fresh_dir("panic"), test_config())
        .unwrap()
        .with_faults(FaultPlan { panic_once: vec![0, 1], ..FaultPlan::default() })
        .run(make_jobs())
        .unwrap();
    assert!(report.stats.retries >= 2, "both injected panics were retried");
    assert_same_results("panic-injection", &reference, &report);
}

#[test]
fn results_are_independent_of_worker_count() {
    // Which worker runs a slice, and the order completions reach the
    // driver, must not change any job's result.
    let one =
        Campaign::open(fresh_dir("workers-1"), CampaignConfig { workers: 1, ..test_config() })
            .unwrap()
            .run(make_jobs())
            .unwrap();
    let three =
        Campaign::open(fresh_dir("workers-3"), CampaignConfig { workers: 3, ..test_config() })
            .unwrap()
            .run(make_jobs())
            .unwrap();
    assert_same_results("workers-1-vs-3", &one, &three);
    assert_eq!(one.stats.slices_run, three.stats.slices_run, "same slices");
    assert_eq!(one.stats.checkpoints_written, three.stats.checkpoints_written, "same checkpoints");
    assert_eq!(one.stats.checkpoint_bytes, three.stats.checkpoint_bytes, "same checkpoint bytes");
}

#[test]
fn finished_jobs_replay_without_reexecution() {
    let dir = fresh_dir("replay");
    let first = Campaign::open(&dir, test_config()).unwrap().run(make_jobs()).unwrap();
    assert!(first.completed());
    assert!(first.stats.slices_run > 0);

    // Re-running the identical campaign replays every job from the log.
    let second = Campaign::open(&dir, test_config()).unwrap().run(make_jobs()).unwrap();
    assert!(second.completed());
    assert_eq!(second.stats.jobs_recovered, first.jobs.len(), "all jobs recovered from the log");
    assert_eq!(second.stats.slices_run, 0, "no slice re-executed");
    assert_same_results("replay", &first, &second);

    // Changing a job (here: its budget) changes its fingerprint; the stale
    // record is discarded and only that job restarts.
    let mut jobs = make_jobs();
    jobs[0].budget.max_paths += 1;
    let third = Campaign::open(&dir, test_config()).unwrap().run(jobs).unwrap();
    assert!(third.completed());
    assert_eq!(third.stats.jobs_restarted, 1, "only the changed job restarted");
    assert_eq!(third.stats.jobs_recovered, 2, "unchanged jobs replayed from the log");
}

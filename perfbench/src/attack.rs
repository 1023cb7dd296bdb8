//! The attacker's workload: the fixed 36-job DSE suite (`dse_speed_suite`
//! with `dse_speed_budget`, both from `raindrop-bench`) runs as a
//! checkpointing [`Campaign`] with [`WORKERS`] workers, each campaign into
//! a fresh directory. `attacks` (explorer, expression arena, solver,
//! campaign) and `server::recfile` do the work; the emulator runs short
//! paths with snapshot, fork and restore plus shadow tracking.

use crate::speed::{Background, Speed};
use crate::util::{
    alternate, geomean, median, ms, num, obj, tail, text, timed_setup, write_spans, Outcome, Tracer,
};
use crate::Args;
use raindrop_attacks::campaign::{
    job_fingerprint, Campaign, CampaignConfig, CampaignReport, CheckpointRecord, JobState,
};
use raindrop_attacks::concolic::{
    DseAttack, DseBudget, DseExhaustion, DseExplorer, DseFrontier, DseOutcome, Goal,
};
use raindrop_attacks::fleet::DseJob;
use raindrop_bench::{dse_speed_budget, dse_speed_suite, DseSpeedJob};
use raindrop_machine::Emulator;
use raindrop_server::recfile;
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Campaign scheduler workers (and direct-replay threads).
const WORKERS: usize = 2;
/// Campaigns are at least this many per run, so `pass_s` is a median.
const MIN_CAMPAIGNS: usize = 3;
/// Interval of the probe that runs beside each campaign.
const PROBE_EVERY: Duration = Duration::from_millis(25);
/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [0.99, 0.9, 0.5];

/// The pinned verdict table of the suite: an attack defeats the unprotected
/// function (both goals) and reaches full coverage of every protected one,
/// but finds no secret under `ROP0.25` or `ROP1.00` — 24 of 36 jobs.
fn expected_defeat(label: &str) -> bool {
    label.ends_with("/native") || label.contains("/coverage/")
}

/// The suite, with each job's native image. Its order is the suite's own:
/// with jobs from 0.1 ms to 0.5 s long, submission order moves the
/// campaign's wall, so the seed changes nothing here.
struct Suite {
    jobs: Vec<DseSpeedJob>,
    native: Vec<usize>,
    budget: DseBudget,
}

fn suite() -> Result<Suite, String> {
    let jobs = dse_speed_suite(false);
    let native = jobs
        .iter()
        .map(|j| {
            let stem = j.label.rsplit_once('/').map_or("", |(s, _)| s);
            jobs.iter()
                .position(|n| n.label == format!("{stem}/native"))
                .ok_or(format!("{}: no native job", j.label))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let defeated = jobs.iter().filter(|j| expected_defeat(&j.label)).count();
    if jobs.len() != 36 || defeated != 24 {
        return Err(format!("suite has {} jobs, {defeated} expected defeats", jobs.len()));
    }
    Ok(Suite { jobs, native, budget: dse_speed_budget(false) })
}

fn dse_jobs(s: &Suite) -> Vec<DseJob> {
    s.jobs
        .iter()
        .map(|j| DseJob::new(&j.label, j.image.clone(), &j.func, j.spec.clone(), s.budget, j.goal))
        .collect()
}

fn campaign_config() -> CampaignConfig {
    CampaignConfig { workers: WORKERS, ..CampaignConfig::default() }
}

/// The verdict-bearing fields of an outcome, compared across campaigns and
/// against the direct replay.
fn signature(o: &DseOutcome) -> String {
    format!(
        "success={} paths={} instructions={} solver_calls={} witness={:?} exhausted={:?}",
        o.success, o.paths, o.instructions, o.solver_calls, o.witness, o.exhausted
    )
}

/// Checks one job's outcome: the verdict against the pinned table, and a
/// found secret against the native image. Returns whether the job counts
/// as failed (its verdict depends on load).
fn check_job(s: &Suite, i: usize, outcome: &DseOutcome, o: &mut Outcome) -> bool {
    let job = &s.jobs[i];
    if outcome.exhausted == Some(DseExhaustion::Wall) {
        return true;
    }
    if outcome.success != expected_defeat(&job.label) {
        o.error(format!("{}: success={} against the pinned table", job.label, outcome.success));
    }
    if let (Goal::Secret { want }, Some(witness)) = (job.goal, &outcome.witness) {
        let native = &s.jobs[s.native[i]].image;
        let mut emu = Emulator::new(native);
        match emu.call_named(native, &job.func, witness) {
            Ok(v) if v == want => {}
            other => {
                o.error(format!("{}: witness {witness:?} gives {other:?} natively", job.label))
            }
        }
    }
    false
}

/// One campaign into a fresh directory: wall, report.
fn campaign(args: &Args, s: &Suite, k: usize) -> Result<(f64, CampaignReport), String> {
    let dir = args.work_dir.join(format!("campaign-{k}"));
    let jobs = dse_jobs(s);
    let t = Instant::now();
    let report = Campaign::open(&dir, campaign_config())
        .and_then(|c| c.run(jobs))
        .map_err(|e| format!("campaign: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((wall, report))
}

/// Folds one campaign's per-job results into the run; returns the job
/// signatures for the exact-repeat check.
fn tally(s: &Suite, report: &CampaignReport, o: &mut Outcome) -> Vec<String> {
    if !report.completed() {
        o.error("campaign did not complete".into());
    }
    let mut sigs = Vec::new();
    for (i, job) in report.jobs.iter().enumerate() {
        o.attempted += 1;
        match &job.state {
            JobState::Done { outcome, .. } => {
                if check_job(s, i, outcome, o) {
                    o.failed += 1;
                }
                sigs.push(signature(outcome));
            }
            other => {
                o.failed += 1;
                sigs.push(format!("{other:?}"));
            }
        }
    }
    sigs
}

/// The `attack` workload.
pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let (built, setup) = timed_setup(&mut Speed::new(Duration::ZERO), |_| suite());
    o.metric("setup_s", setup);
    let s = match built {
        Ok(s) => s,
        Err(e) => {
            o.error(e);
            return o;
        }
    };
    let ratio = geomean(
        (0..s.jobs.len())
            .filter(|&i| s.native[i] != i)
            .map(|i| s.jobs[i].image.size() as f64 / s.jobs[s.native[i]].image.size() as f64),
    );
    o.metric("size_ratio", ratio);
    o.count("size_ratio", ratio);
    o.note(
        "method",
        obj(vec![
            ("workload", text("dse_speed_suite(false) as a checkpointing campaign per pass")),
            ("jobs", Value::U64(s.jobs.len() as u64)),
            ("workers", Value::U64(WORKERS as u64)),
            ("slice_paths", Value::U64(campaign_config().slice as u64)),
            ("pinned_defeats", Value::U64(24)),
        ]),
    );
    if args.trace {
        return trace(args, &s, o);
    }
    let (mut walls, mut spans, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<String>, u64, u64)> = None;
    let probing = Background::start(PROBE_EVERY, Speed::new(Duration::ZERO));
    let start = Instant::now();
    while walls.len() < MIN_CAMPAIGNS || start.elapsed() < args.seconds {
        let t = Instant::now();
        let (wall, report) = match campaign(args, &s, walls.len()) {
            Ok(r) => r,
            Err(e) => {
                o.error(e);
                return o;
            }
        };
        walls.push(wall);
        spans.push(t);
        let sigs = tally(&s, &report, &mut o);
        let repeat = (sigs, report.stats.checkpoints_written, report.stats.checkpoint_bytes);
        match &first {
            None => first = Some(repeat),
            Some(f) if *f != repeat => o.error("campaign results differ between passes".into()),
            Some(_) => {}
        }
        reports.push(report);
    }
    let speed = probing.finish();
    if let Some(e) = speed.check() {
        o.error(e);
    }
    // Each campaign, and each of its jobs, at the speed measured during it.
    let mut job_ms = vec![Vec::new(); s.jobs.len()];
    let mut lat = Vec::new();
    let mut scaled = Vec::new();
    for ((&wall, &t), report) in walls.iter().zip(&spans).zip(&reports) {
        let end = t + Duration::from_secs_f64(wall);
        let f = speed.scale(t, end);
        scaled.push(wall * f);
        for (i, job) in report.jobs.iter().enumerate() {
            if let Some(outcome) = job.outcome() {
                job_ms[i].push(ms(outcome.wall) * f);
                lat.push(ms(outcome.wall) * f);
            }
        }
    }
    o.note("speed", speed.summary());
    o.note("raw_pass_s", num(median(&walls)));
    o.note("campaign_s", Value::Seq(walls.iter().map(|&w| num(w)).collect()));
    o.note("campaign_s_at_reference_speed", Value::Seq(scaled.iter().map(|&w| num(w)).collect()));
    o.metric("pass_s", median(&scaled));
    // The median job's wall: per-job medians first, so the jobs' mix (from
    // 0.1 ms to 0.5 s) cannot move it.
    o.metric("op_ms.p50", median(&job_ms.iter().map(|j| median(j)).collect::<Vec<_>>()));
    match tail(&lat, &TAILS) {
        Some(t) => {
            o.metric("op_ms.tail", t.value);
            o.note(
                "op_ms.tail",
                obj(vec![("percentile", num(t.pct)), ("samples", Value::U64(t.samples as u64))]),
            );
        }
        None => o.error(format!("{} job walls: too few for a tail", lat.len())),
    }
    o.note("passes", Value::U64(walls.len() as u64));
    if let Some((sigs, checkpoints, bytes)) = first {
        let mut per_job = BTreeMap::new();
        for (j, sig) in s.jobs.iter().zip(sigs) {
            per_job.insert(j.label.clone(), sig);
        }
        for (label, sig) in per_job {
            o.count(&label, sig);
        }
        o.count("checkpoints", checkpoints);
        o.count("checkpoint_bytes", bytes);
    }
    o
}

/// Layer times of one direct replay pass (seconds).
#[derive(Default)]
struct ReplayTimes {
    wall: f64,
    advance: f64,
    resume: f64,
    frontier: f64,
    encode: f64,
}

/// Drives one job the way a campaign slice sequence does — a fresh
/// [`DseAttack`] per slice, [`DseExplorer::start`] or
/// [`DseExplorer::resume`], `advance(Some(slice))`, then `frontier()` and
/// `recfile::encode_payload` of the checkpoint record — timing each call.
fn replay_job(job: &DseJob, index: u64, slice: usize, tr: &mut Tracer) -> DseOutcome {
    let fingerprint = job_fingerprint(job);
    let mut from: Option<DseFrontier> = None;
    loop {
        let mut attack = DseAttack::new(&job.image, &job.func, job.spec.clone(), job.budget);
        let attack = &mut attack;
        let mut explorer = match &from {
            None => tr.time("attacks.start", index, move |_| DseExplorer::start(attack, job.goal)),
            Some(f) => {
                tr.time("attacks.resume", index, move |_| DseExplorer::resume(attack, job.goal, f))
            }
        };
        let done = tr.time("attacks.advance", index, |_| explorer.advance(Some(slice)));
        let state = match done {
            Some((outcome, audit)) => JobState::Done { outcome, audit },
            None => JobState::InFlight {
                frontier: tr.time("attacks.frontier", index, |_| explorer.frontier()),
                attempts: 0,
            },
        };
        let record = CheckpointRecord { job: index, fingerprint, state };
        tr.time("server.recfile_encode", index, |_| recfile::encode_payload(&record));
        match record.state {
            JobState::Done { outcome, .. } => return outcome,
            JobState::InFlight { frontier, .. } => from = Some(frontier),
            _ => unreachable!("replay records only Done and InFlight"),
        }
    }
}

/// The whole suite, directly, on [`WORKERS`] threads.
fn replay(s: &Suite, origin: Instant, traced: bool) -> (ReplayTimes, Vec<DseOutcome>, Tracer) {
    let slice = campaign_config().slice;
    let jobs = dse_jobs(s);
    let t = Instant::now();
    let results =
        raindrop_sched::scoped_map(WORKERS, jobs.iter().enumerate().collect(), |_, (i, job)| {
            let mut tr = Tracer::new(origin, traced);
            let outcome = replay_job(job, i as u64, slice, &mut tr);
            (outcome, tr)
        });
    let mut times = ReplayTimes { wall: t.elapsed().as_secs_f64(), ..ReplayTimes::default() };
    let mut all = Tracer::new(origin, traced);
    let mut outcomes = Vec::new();
    for (outcome, tr) in results {
        outcomes.push(outcome);
        all.absorb(tr);
    }
    times.advance = all.total_ms("attacks.advance") / 1e3;
    times.resume = all.total_ms("attacks.resume") / 1e3;
    times.frontier = all.total_ms("attacks.frontier") / 1e3;
    times.encode = all.total_ms("server.recfile_encode") / 1e3;
    (times, outcomes, all)
}

/// Traced `attack`: alternates an untraced campaign (campaign counters), an
/// untraced direct replay and a traced direct replay until the window
/// closes.
fn trace(args: &Args, s: &Suite, mut o: Outcome) -> Outcome {
    let origin = Instant::now();
    let mut all = Tracer::new(origin, true);
    let (mut campaigns, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = Vec::new();
    let mut outcomes = Vec::new();
    while traced.is_empty() || origin.elapsed() < args.seconds {
        let (wall, report) = match campaign(args, s, campaigns.len()) {
            Ok(r) => r,
            Err(e) => {
                o.error(e);
                return o;
            }
        };
        campaigns.push(wall);
        let sigs = tally(s, &report, &mut o);
        stats.push(report.stats);
        for on in alternate(campaigns.len()) {
            let (times, direct, tr) = replay(s, origin, on);
            let direct_sigs: Vec<String> = direct.iter().map(signature).collect();
            if direct_sigs != sigs {
                o.error("direct replay and campaign disagree on a verdict field".into());
            }
            if on {
                all.absorb(tr);
                outcomes = direct;
                traced.push(times);
            } else {
                plain.push(times.wall);
            }
        }
    }
    let med = |f: fn(&ReplayTimes) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let advance_s = med(|t| t.advance);
    o.metric("attacks.advance_s", advance_s);
    o.metric("attacks.resume_s", med(|t| t.resume));
    o.metric("attacks.frontier_ms", med(|t| t.frontier) * 1e3);
    o.metric("server.recfile_encode_ms", med(|t| t.encode) * 1e3);
    let sum = |f: fn(&DseOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let (calls, hits) = (sum(|d| d.solver_calls), sum(|d| d.solve_cache_hits));
    o.metric("attacks.solver_calls", calls);
    o.metric("attacks.solve_cache_hit_ratio", hits / (calls + hits).max(1.0));
    o.metric("attacks.paths", sum(|d| d.paths as u64));
    let emulated = sum(|d| d.emulated_instructions);
    o.metric("attacks.emulated_over_counted", emulated / sum(|d| d.instructions).max(1.0));
    o.metric("attacks.emulated_mips", emulated / advance_s.max(1e-9) / 1e6);
    let last = stats.last().cloned().unwrap_or_default();
    o.metric("campaign.checkpoints", last.checkpoints_written as f64);
    o.metric("campaign.checkpoint_bytes", last.checkpoint_bytes as f64);
    o.metric("campaign.slices", last.slices_run as f64);
    o.metric("campaign.retries", last.retries as f64);
    o.metric(
        "campaign.stragglers",
        median(&stats.iter().map(|c| c.stragglers_demoted as f64).collect::<Vec<_>>()),
    );
    o.metric(
        "campaign.write_s",
        median(&stats.iter().map(|c| c.checkpoint_write_wall.as_secs_f64()).collect::<Vec<_>>()),
    );
    o.metric("campaign.over_direct", median(&campaigns) / median(&plain));
    o.metric("trace.overhead", med(|t| t.wall) / median(&plain) - 1.0);
    o.metric("trace.spans", all.spans().len() as f64);
    o.note(
        "trace",
        obj(vec![
            ("campaign_s", Value::Seq(campaigns.iter().map(|&x| num(x)).collect())),
            ("untraced_direct_s", Value::Seq(plain.iter().map(|&x| num(x)).collect())),
            ("traced_direct_s", Value::Seq(traced.iter().map(|t| num(t.wall)).collect())),
            (
                "overhead",
                text("median traced direct replay over median untraced direct replay, minus one"),
            ),
        ]),
    );
    write_spans(args, &all);
    o
}

//! Checkpointed, resumable attack campaigns with fault injection.
//!
//! A [`Campaign`] is the long-running driver for a set of [`DseJob`]s: it
//! schedules them on a [`raindrop_sched::Scheduler`], advances every attack
//! in bounded *slices* (a few explored paths per scheduler submission), and
//! checkpoints durable state to disk between slices so a killed process
//! loses at most one slice of work per job. The checkpoint file reuses the
//! [`recfile`] discipline of the artifact store: a magic+version header,
//! framed records each sealed with an XXH64 checksum
//! ([`recfile::xxh64`]), and tolerant replay — a torn or corrupted
//! record demotes the affected jobs to "restart from scratch" instead of
//! poisoning the campaign.
//!
//! # What is (and is not) persisted
//!
//! Per job, the log carries the latest of:
//!
//! * `Done { outcome, audit }` — the finished result, replayed verbatim;
//! * `InFlight { frontier, .. }` — a serialized [`DseFrontier`]: pending
//!   flip candidates (the solved-input queue), the dedup set, solve-cache
//!   digests, counters and the solver's RNG position. Fork-point emulator
//!   snapshots are deliberately **not** serialized — on resume, restored
//!   frontier entries re-execute their path deterministically, which the
//!   `frontier_resume` suite pins result-identical;
//! * `Failed { reason, .. }` — a job that exhausted its retry budget.
//!
//! Jobs are keyed by a *fingerprint* (stable hash of label, function,
//! input spec, budget, goal, explore mode and the encoded image), not by
//! position alone: resuming a campaign against a changed job list restarts
//! the changed jobs from scratch.
//!
//! # The driver loop
//!
//! Every job holds at most one slice in the scheduler's FIFO queue, so jobs
//! interleave slice by slice. Each slice job catches its own panic and
//! sends `(job, result)` on one channel; the driver blocks on that channel
//! and, for each completion, checkpoints and then submits the job's next
//! slice (or a retry). Nothing is polled and no slice is ever cancelled
//! while it runs: a slice's cost is bounded by its path cap and the job's
//! [`DseBudget::max_wall`](crate::concolic::DseBudget::max_wall).
//!
//! * slices that panic are retried with exponential backoff up to
//!   [`CampaignConfig::max_retries`], then recorded as `Failed`;
//! * a [`FaultPlan`] injects the failures the integration tests drive:
//!   kill the campaign after K checkpoint writes (optionally flipping or
//!   truncating checkpoint bytes, simulating a torn write at crash time)
//!   and panic inside a worker. A kill cancels the slices still queued.
//!
//! Under work-bounded budgets a killed-and-resumed campaign converges to
//! the same per-job verdicts, witnesses and schedules as an uninterrupted
//! run — only wall-clock and re-execution counters differ.
//!
//! [`recfile`]: raindrop_server::recfile

use crate::concolic::{DseAttack, DseAudit, DseExplorer, DseFrontier, DseOutcome};
use crate::fleet::{workers_from_env, DseJob};
use raindrop::stable_hash_bytes;
use raindrop_sched::{panic_message, JobHandle, Scheduler};
use raindrop_server::encode_image;
use raindrop_server::recfile::{self, FramedReader};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Magic of the campaign checkpoint log.
pub const CAMPAIGN_MAGIC: [u8; 4] = *b"RDCM";
/// Version stamped into the log header.
pub const CAMPAIGN_VERSION: u32 = 2;
/// File name of the checkpoint log inside the campaign directory.
pub const CAMPAIGN_LOG: &str = "campaign.rdc";

/// Tuning knobs of the campaign driver.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Scheduler worker threads (0 = [`workers_from_env`]).
    pub workers: usize,
    /// Paths explored per slice: the checkpoint granularity. Smaller slices
    /// lose less work per crash but pay more checkpoint and re-execution
    /// overhead.
    pub slice: usize,
    /// Consecutive panicked attempts a slice may burn before the job is
    /// recorded as `Failed`.
    pub max_retries: u32,
    /// Base backoff before retrying a failed slice; doubles per attempt.
    pub retry_backoff: Duration,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            workers: 0,
            slice: 4,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// Injected faults, driven by the robustness integration tests.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Abort [`Campaign::run`] (a simulated process kill) right after this
    /// many checkpoint writes.
    pub kill_after_checkpoints: Option<u64>,
    /// When the kill fires, XOR-flip the byte at this offset of the log
    /// (clamped to the file) — a torn-write simulation.
    pub flip_byte_on_kill: Option<u64>,
    /// When the kill fires, truncate this many bytes off the log tail.
    pub truncate_on_kill: Option<u64>,
    /// Jobs (by index) whose first scheduled slice panics in the worker.
    pub panic_once: Vec<usize>,
}

/// Durable per-job state, exactly as persisted in the checkpoint log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// No checkpoint has been written yet (never persisted; reported for
    /// jobs a killed campaign had not reached).
    Pending,
    /// The job is mid-exploration; `frontier` is everything a fresh
    /// process needs to continue it.
    InFlight {
        /// The serialized exploration state at the last slice boundary.
        frontier: DseFrontier,
        /// Consecutive failed attempts of the current slice.
        attempts: u32,
    },
    /// The job finished; the result streams back verbatim on resume.
    Done {
        /// The attack outcome.
        outcome: DseOutcome,
        /// The exploration schedule.
        audit: DseAudit,
    },
    /// The job exhausted its retry budget.
    Failed {
        /// The last failure reason (the panic message).
        reason: String,
        /// Attempts burned.
        attempts: u32,
    },
}

/// One replayed checkpoint record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Index of the job in the submitted job list.
    pub job: u64,
    /// Fingerprint of the job the record belongs to.
    pub fingerprint: u128,
    /// The persisted state.
    pub state: JobState,
}

/// Replays a checkpoint log image: the decoded records in file order, plus
/// the number of trailing bytes dropped as torn/corrupt. Replay is
/// all-or-prefix — a damaged frame (bad length, bad checksum, undecodable
/// payload) ends it, so a corrupted byte can only ever *remove* state
/// (demoting jobs to restart), never alter it.
pub fn replay_log(bytes: &[u8]) -> (Vec<CheckpointRecord>, u64) {
    if recfile::read_header(bytes, CAMPAIGN_MAGIC) != Some(CAMPAIGN_VERSION) {
        return (Vec::new(), bytes.len() as u64);
    }
    let mut records = Vec::new();
    let mut end = recfile::HEADER_LEN;
    let mut reader = FramedReader::new(bytes, recfile::HEADER_LEN);
    // Not a `for` loop: `reader.pos()` is consulted between items.
    #[allow(clippy::while_let_on_iterator)]
    while let Some(body) = reader.next() {
        match recfile::decode_payload::<CheckpointRecord>(body) {
            Some(rec) => records.push(rec),
            None => break,
        }
        end = reader.pos();
    }
    (records, (bytes.len() - end) as u64)
}

/// How a campaign run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CampaignStatus {
    /// Every job reached a terminal state (`Done` or `Failed`).
    Completed,
    /// A [`FaultPlan`] kill fired; resume with a fresh [`Campaign::open`].
    Killed {
        /// Checkpoints written when the kill fired.
        after_checkpoints: u64,
    },
}

/// Aggregate counters of one campaign run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignStats {
    /// Checkpoint records written.
    pub checkpoints_written: u64,
    /// Bytes appended to the log (frames, including seals).
    pub checkpoint_bytes: u64,
    /// Wall time spent writing and syncing checkpoints.
    pub checkpoint_write_wall: Duration,
    /// Slices submitted to the scheduler (a retried slice counts again).
    pub slices_run: u64,
    /// Failed slice attempts that were retried.
    pub retries: u64,
    /// Always 0: the driver does not demote slow jobs, because slices
    /// already interleave through the FIFO queue. Kept so readers of this
    /// report's schema keep working.
    pub stragglers_demoted: u64,
    /// Jobs restored as `Done`/`Failed` straight from the log.
    pub jobs_recovered: usize,
    /// Jobs resumed mid-exploration from an `InFlight` frontier.
    pub jobs_resumed: usize,
    /// Jobs whose log record had a stale fingerprint and restarted.
    pub jobs_restarted: usize,
    /// Torn/corrupt bytes dropped from the log tail at open.
    pub log_bytes_dropped: u64,
}

/// Per-job result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJobReport {
    /// The job's label ([`DseJob::label`]).
    pub label: String,
    /// Terminal or last-checkpointed state.
    pub state: JobState,
}

impl CampaignJobReport {
    /// The finished outcome, when the job completed.
    pub fn outcome(&self) -> Option<&DseOutcome> {
        match &self.state {
            JobState::Done { outcome, .. } => Some(outcome),
            _ => None,
        }
    }

    /// The exploration audit, when the job completed.
    pub fn audit(&self) -> Option<&DseAudit> {
        match &self.state {
            JobState::Done { audit, .. } => Some(audit),
            _ => None,
        }
    }
}

/// The report of one [`Campaign::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// How the run ended.
    pub status: CampaignStatus,
    /// Per-job states, in submission order.
    pub jobs: Vec<CampaignJobReport>,
    /// Aggregate counters.
    pub stats: CampaignStats,
}

impl CampaignReport {
    /// Whether every job reached a terminal state.
    pub fn completed(&self) -> bool {
        self.status == CampaignStatus::Completed
    }

    /// Groups job outcomes by workload class (the `class/` prefix of each
    /// label, see [`class_of_label`]), in first-appearance order. Jobs
    /// without a class prefix are grouped under `"unclassified"`.
    pub fn class_summary(&self) -> Vec<ClassOutcomes> {
        let mut out: Vec<ClassOutcomes> = Vec::new();
        for job in &self.jobs {
            let class = class_of_label(&job.label).unwrap_or("unclassified");
            let entry = match out.iter_mut().find(|c| c.class == class) {
                Some(e) => e,
                None => {
                    out.push(ClassOutcomes {
                        class: class.to_string(),
                        jobs: 0,
                        finished: 0,
                        defeated: 0,
                    });
                    out.last_mut().unwrap()
                }
            };
            entry.jobs += 1;
            if let Some(outcome) = job.outcome() {
                entry.finished += 1;
                if outcome.success {
                    entry.defeated += 1;
                }
            }
        }
        out
    }
}

/// Aggregated attack outcomes for one workload class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ClassOutcomes {
    /// Class name (label prefix).
    pub class: String,
    /// Jobs submitted under this class.
    pub jobs: usize,
    /// Jobs that reached a terminal outcome.
    pub finished: usize,
    /// Finished jobs whose goal was reached (the obfuscation was defeated).
    pub defeated: usize,
}

/// The workload class a job label belongs to: the segment before the first
/// `/` of a `class/program/config` label, or `None` for unprefixed labels.
pub fn class_of_label(label: &str) -> Option<&str> {
    match label.split_once('/') {
        Some((class, _)) if !class.is_empty() => Some(class),
        _ => None,
    }
}

/// The identity of a job for resume purposes: any change to what the job
/// *is* (not how long it has run) must change the fingerprint.
#[derive(Serialize)]
struct FingerprintParts {
    label: String,
    func: String,
    spec: crate::concolic::InputSpec,
    budget: crate::concolic::DseBudget,
    goal: crate::concolic::Goal,
    mode: crate::concolic::ExploreMode,
}

/// Stable fingerprint of a job: label, target, spec, budget, goal, mode
/// and the full encoded image.
pub fn job_fingerprint(job: &DseJob) -> u128 {
    let mut bytes = recfile::encode_payload(&FingerprintParts {
        label: job.label.clone(),
        func: job.func.clone(),
        spec: job.spec.clone(),
        budget: job.budget,
        goal: job.goal,
        mode: job.mode,
    });
    bytes.extend_from_slice(&encode_image(&job.image));
    stable_hash_bytes(&bytes)
}

/// What one scheduled slice produced.
enum SliceRun {
    /// The attack ran to completion inside this slice.
    Done(Box<(DseOutcome, DseAudit)>),
    /// The slice cap paused the attack; here is the frontier to persist.
    Paused(Box<DseFrontier>),
}

/// Runs one slice of `job`, starting fresh or resuming `from` a frontier.
/// Self-contained: builds a fresh attack instance per slice, exactly like
/// a post-crash resume would, so in-process and post-kill execution take
/// the identical code path.
fn run_slice(
    job: &DseJob,
    from: Option<&DseFrontier>,
    slice: usize,
    panic_fault: bool,
) -> SliceRun {
    if panic_fault {
        panic!("fault injection: worker panic in `{}`", job.label);
    }
    let mut attack =
        DseAttack::new(&job.image, &job.func, job.spec.clone(), job.budget).with_mode(job.mode);
    let mut explorer = match from {
        None => DseExplorer::start(&mut attack, job.goal),
        Some(frontier) => DseExplorer::resume(&mut attack, job.goal, frontier),
    };
    match explorer.advance(Some(slice)) {
        Some(done) => SliceRun::Done(Box::new(done)),
        None => SliceRun::Paused(Box::new(explorer.frontier())),
    }
}

/// What a slice job sends back to the driver: the job's index and the
/// slice's result, or its panic message.
type SliceDone = (usize, Result<SliceRun, String>);

/// In-memory tracking of one campaign job.
struct JobSlot {
    /// Index in the submitted job list (the log key).
    index: u64,
    job: Arc<DseJob>,
    fingerprint: u128,
    /// Last checkpointed frontier (the resume point of the next slice).
    frontier: Option<DseFrontier>,
    /// Terminal state, once reached.
    resolved: Option<JobState>,
    /// The slice in flight, kept so a kill can cancel it while queued.
    handle: Option<JobHandle<()>>,
    /// Consecutive failed attempts of the current slice.
    attempts: u32,
    /// One-shot worker-panic fault still to fire.
    panic_armed: bool,
}

/// A checkpointed, resumable attack campaign over one directory.
///
/// # Example
///
/// ```no_run
/// use raindrop_attacks::campaign::{Campaign, CampaignConfig};
/// # fn jobs() -> Vec<raindrop_attacks::DseJob> { Vec::new() }
///
/// let campaign = Campaign::open("/tmp/campaign", CampaignConfig::default()).unwrap();
/// let report = campaign.run(jobs()).unwrap();
/// assert!(report.completed());
/// // Killed mid-run? `Campaign::open` the same directory again and re-run
/// // the same job list: finished jobs replay from the log, in-flight jobs
/// // resume from their frontier, and the aggregate results converge.
/// ```
pub struct Campaign {
    dir: PathBuf,
    log: File,
    config: CampaignConfig,
    faults: FaultPlan,
    /// Latest replayed record per job index.
    recovered: BTreeMap<u64, CheckpointRecord>,
    stats: CampaignStats,
}

impl Campaign {
    /// Opens (or creates) a campaign directory and replays its checkpoint
    /// log. Following the artifact-store discipline, the log is rewritten
    /// to its longest valid prefix — torn or corrupt tail bytes are
    /// dropped here, demoting the affected jobs to a restart.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory or log file.
    pub fn open(dir: impl AsRef<Path>, config: CampaignConfig) -> io::Result<Campaign> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(CAMPAIGN_LOG);
        let bytes = std::fs::read(&path).unwrap_or_default();
        let (records, dropped) = replay_log(&bytes);
        let mut recovered = BTreeMap::new();
        let mut log = File::create(&path)?;
        recfile::write_header(&mut log, CAMPAIGN_MAGIC, CAMPAIGN_VERSION)?;
        for rec in records {
            log.write_all(&recfile::frame_record(&recfile::encode_payload(&rec)))?;
            recovered.insert(rec.job, rec);
        }
        log.sync_data()?;
        let stats = CampaignStats { log_bytes_dropped: dropped, ..CampaignStats::default() };
        Ok(Campaign { dir, log, config, faults: FaultPlan::default(), recovered, stats })
    }

    /// Installs a fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Campaign {
        self.faults = faults;
        self
    }

    /// The states replayed from the checkpoint log at open, keyed by job
    /// index. Corruption never alters a record — it only removes it and
    /// everything after it (see [`replay_log`]).
    pub fn recovered(&self) -> Vec<(u64, u128, JobState)> {
        self.recovered.values().map(|r| (r.job, r.fingerprint, r.state.clone())).collect()
    }

    /// Drives `jobs` to terminal states, checkpointing between slices.
    /// Jobs already `Done`/`Failed` in the log (with matching
    /// fingerprints) are replayed without re-execution; `InFlight` jobs
    /// resume from their persisted frontier; fingerprint mismatches and
    /// corruption-dropped records restart from scratch.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-write I/O failures. Job-level failures never
    /// error — they are bounded-retried and then recorded as
    /// [`JobState::Failed`].
    pub fn run(mut self, jobs: Vec<DseJob>) -> io::Result<CampaignReport> {
        let workers = match self.config.workers {
            0 => workers_from_env(),
            n => n,
        };
        let mut slots = self.seed_slots(jobs);
        let sched: Scheduler<(), ()> = Scheduler::new(workers);
        let (done_tx, done_rx) = mpsc::channel::<SliceDone>();
        for slot in slots.iter_mut() {
            if slot.resolved.is_none() {
                self.submit_slice(&sched, &done_tx, slot);
            }
        }

        let mut killed = false;
        while slots.iter().any(|s| s.handle.is_some()) {
            let (i, result) = done_rx.recv().expect("the driver holds a sender");
            let slot = &mut slots[i];
            slot.handle = None;
            killed = match result {
                Ok(SliceRun::Done(result)) => {
                    let (outcome, audit) = *result;
                    let state = JobState::Done { outcome, audit };
                    let kill = self.checkpoint(slot, &state)?;
                    slot.resolved = Some(state);
                    kill
                }
                Ok(SliceRun::Paused(frontier)) => {
                    slot.attempts = 0;
                    let state = JobState::InFlight { frontier: (*frontier).clone(), attempts: 0 };
                    slot.frontier = Some(*frontier);
                    let kill = self.checkpoint(slot, &state)?;
                    if !kill {
                        self.submit_slice(&sched, &done_tx, slot);
                    }
                    kill
                }
                Err(reason) => self.fail_or_retry(&sched, &done_tx, slot, reason)?,
            };
            if killed {
                break;
            }
        }

        if killed {
            for handle in slots.iter().filter_map(|s| s.handle.as_ref()) {
                handle.cancel();
            }
        }
        // Drains the slices still running; their results are not needed.
        drop(sched);
        let status = if killed {
            self.apply_kill_corruption()?;
            CampaignStatus::Killed { after_checkpoints: self.stats.checkpoints_written }
        } else {
            CampaignStatus::Completed
        };
        Ok(self.report(slots, status))
    }

    /// Builds the per-job slots, consuming the replayed log states.
    fn seed_slots(&mut self, jobs: Vec<DseJob>) -> Vec<JobSlot> {
        jobs.into_iter()
            .enumerate()
            .map(|(i, job)| {
                let fingerprint = job_fingerprint(&job);
                let mut slot = JobSlot {
                    index: i as u64,
                    job: Arc::new(job),
                    fingerprint,
                    frontier: None,
                    resolved: None,
                    handle: None,
                    attempts: 0,
                    panic_armed: self.faults.panic_once.contains(&i),
                };
                match self.recovered.get(&(i as u64)) {
                    Some(rec) if rec.fingerprint == fingerprint => match &rec.state {
                        JobState::Done { .. } | JobState::Failed { .. } => {
                            self.stats.jobs_recovered += 1;
                            slot.resolved = Some(rec.state.clone());
                        }
                        JobState::InFlight { frontier, attempts } => {
                            self.stats.jobs_resumed += 1;
                            slot.attempts = *attempts;
                            slot.frontier = Some(frontier.clone());
                        }
                        JobState::Pending => {}
                    },
                    Some(_) => self.stats.jobs_restarted += 1,
                    None => {}
                }
                slot
            })
            .collect()
    }

    /// Submits the next slice of `slot`. The slice job catches its own
    /// panic and reports either way on `done`.
    fn submit_slice(
        &mut self,
        sched: &Scheduler<(), ()>,
        done: &mpsc::Sender<SliceDone>,
        slot: &mut JobSlot,
    ) {
        let index = slot.index as usize;
        let job = Arc::clone(&slot.job);
        let from = slot.frontier.clone();
        let slice = self.config.slice.max(1);
        let panic_fault = std::mem::take(&mut slot.panic_armed);
        let done = done.clone();
        self.stats.slices_run += 1;
        slot.handle = Some(sched.submit(move |_: &mut ()| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_slice(&job, from.as_ref(), slice, panic_fault)
            }))
            .map_err(|payload| panic_message(payload.as_ref()));
            // A send fails only once a killed driver has stopped listening.
            let _ = done.send((index, result));
        }));
    }

    /// Retry-with-backoff on a panicked slice; `Failed` once retries are
    /// exhausted. Returns whether a kill fired on the fail checkpoint.
    fn fail_or_retry(
        &mut self,
        sched: &Scheduler<(), ()>,
        done: &mpsc::Sender<SliceDone>,
        slot: &mut JobSlot,
        reason: String,
    ) -> io::Result<bool> {
        slot.attempts += 1;
        if slot.attempts > self.config.max_retries {
            let state = JobState::Failed { reason, attempts: slot.attempts };
            let kill = self.checkpoint(slot, &state)?;
            slot.resolved = Some(state);
            return Ok(kill);
        }
        self.stats.retries += 1;
        std::thread::sleep(self.backoff(slot.attempts));
        self.submit_slice(sched, done, slot);
        Ok(false)
    }

    fn backoff(&self, attempts: u32) -> Duration {
        self.config.retry_backoff * 2u32.saturating_pow(attempts.saturating_sub(1).min(16))
    }

    /// Appends one framed, checksum-sealed record and syncs it. Returns
    /// whether the fault plan's kill fires at this checkpoint.
    fn checkpoint(&mut self, slot: &JobSlot, state: &JobState) -> io::Result<bool> {
        let started = Instant::now();
        let record = CheckpointRecord {
            job: slot.index,
            fingerprint: slot.fingerprint,
            state: state.clone(),
        };
        let framed = recfile::frame_record(&recfile::encode_payload(&record));
        self.log.write_all(&framed)?;
        self.log.sync_data()?;
        self.stats.checkpoint_bytes += framed.len() as u64;
        self.stats.checkpoints_written += 1;
        self.stats.checkpoint_write_wall += started.elapsed();
        Ok(self.faults.kill_after_checkpoints.is_some_and(|k| self.stats.checkpoints_written >= k))
    }

    /// Applies the fault plan's on-kill log corruption (torn-write
    /// simulation).
    fn apply_kill_corruption(&mut self) -> io::Result<()> {
        let path = self.dir.join(CAMPAIGN_LOG);
        if let Some(offset) = self.faults.flip_byte_on_kill {
            let mut bytes = std::fs::read(&path)?;
            if !bytes.is_empty() {
                let at = (offset as usize).min(bytes.len() - 1);
                bytes[at] ^= 0xA5;
                std::fs::write(&path, &bytes)?;
            }
        }
        if let Some(cut) = self.faults.truncate_on_kill {
            let file = OpenOptions::new().write(true).open(&path)?;
            let len = file.metadata()?.len();
            file.set_len(len.saturating_sub(cut))?;
            file.sync_data()?;
        }
        Ok(())
    }

    fn report(&self, slots: Vec<JobSlot>, status: CampaignStatus) -> CampaignReport {
        let jobs = slots
            .into_iter()
            .map(|slot| CampaignJobReport {
                label: slot.job.label.clone(),
                state: match (slot.resolved, slot.frontier) {
                    (Some(state), _) => state,
                    (None, Some(frontier)) => {
                        JobState::InFlight { frontier, attempts: slot.attempts }
                    }
                    (None, None) => JobState::Pending,
                },
            })
            .collect();
        CampaignReport { status, jobs, stats: self.stats.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(label: &str, success: bool) -> CampaignJobReport {
        let outcome = DseOutcome {
            success,
            witness: None,
            paths: 1,
            instructions: 1,
            emulated_instructions: 1,
            resumed_paths: 0,
            wall: Duration::ZERO,
            probes_covered: 0,
            max_constraints: 0,
            solver_calls: 0,
            solve_cache_hits: 0,
            hazard_causes: Vec::new(),
            max_branches_pre_hazard: 0,
            exhausted: None,
        };
        CampaignJobReport {
            label: label.to_string(),
            state: JobState::Done { outcome, audit: DseAudit::default() },
        }
    }

    #[test]
    fn labels_resolve_to_their_class_prefix() {
        assert_eq!(class_of_label("database/db-hash/rop-1.0"), Some("database"));
        assert_eq!(class_of_label("application/app-crc/native"), Some("application"));
        assert_eq!(class_of_label("no-prefix-label"), None);
        assert_eq!(class_of_label("/degenerate"), None);
    }

    #[test]
    fn class_summary_groups_outcomes_by_label_prefix() {
        let report = CampaignReport {
            status: CampaignStatus::Completed,
            jobs: vec![
                done("database/db-hash/native", true),
                done("database/db-btree/rop-1.0", false),
                done("application/app-crc/native", true),
                CampaignJobReport {
                    label: "database/db-hash/vm2".into(),
                    state: JobState::Pending,
                },
                done("bare-label", true),
            ],
            stats: CampaignStats::default(),
        };
        let summary = report.class_summary();
        assert_eq!(summary.len(), 3);
        assert_eq!(summary[0].class, "database");
        assert_eq!((summary[0].jobs, summary[0].finished, summary[0].defeated), (3, 2, 1));
        assert_eq!(summary[1].class, "application");
        assert_eq!((summary[1].jobs, summary[1].finished, summary[1].defeated), (1, 1, 1));
        assert_eq!(summary[2].class, "unclassified");
        assert_eq!(summary[2].jobs, 1);
    }
}

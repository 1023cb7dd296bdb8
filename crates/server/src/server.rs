//! The long-running protection service.
//!
//! A [`Server`] owns a [`Scheduler`] of [`ProtectWorker`]s — each worker
//! thread holds a warm [`PipelineWarm`] reused across protection jobs — and
//! a shared [`ArtifactStore`]. Every [`ProtectRequest`] is keyed by
//! `(source hash, config hash, seed)`; a key already in the store is served
//! from it *without* re-running the pipeline, and warm-state reuse is
//! bit-invisible, so cache hits are byte-identical to a fresh run (pinned
//! by the server test suite).
//!
//! Determinism: the request seed is the only randomness source — it is
//! threaded into every pass by [`ObfConfig::pipeline`], and worker contexts
//! hold scratch only — so results are independent of the worker count
//! (pinned by `one_worker_and_many_workers_protect_identically`).

use crate::store::{ArtifactKey, ArtifactStore, StoreConfig, StoreError, StoreStats};
use raindrop::pipeline::{ObfConfig, PipelineWarm};
use raindrop::stable_hash_bytes;
use raindrop_machine::Image;
use raindrop_sched::{JobHandle, Scheduler, SchedulerStats, WorkerCtx};
use raindrop_synth::minic::Program;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One protection request: a program, the functions to protect, the
/// obfuscation configuration and the seed.
#[derive(Debug, Clone)]
pub struct ProtectRequest {
    /// The MiniC program to protect.
    pub program: Program,
    /// Names of the functions to obfuscate.
    pub targets: Vec<String>,
    /// The (seed-free) obfuscation configuration.
    pub config: ObfConfig,
    /// The protection seed; together with the source and config hashes it
    /// fully determines the artifact.
    pub seed: u64,
}

impl ProtectRequest {
    /// The artifact store key of this request.
    pub fn key(&self) -> ArtifactKey {
        ArtifactKey {
            source_hash: source_hash(&self.program, &self.targets),
            config_hash: self.config.config_hash(),
            seed: self.seed,
        }
    }
}

/// Stable hash of a program *and* its target list — the `source_hash`
/// component of an [`ArtifactKey`]. Uses the deterministic JSON rendering
/// of the program (field order fixed by the derive), so equal programs hash
/// equal across processes.
pub fn source_hash(program: &Program, targets: &[String]) -> u128 {
    let mut rendered = serde_json::to_string(program).unwrap_or_default();
    for t in targets {
        rendered.push_str(";target=");
        rendered.push_str(t);
    }
    stable_hash_bytes(rendered.as_bytes())
}

/// A served protection: the artifact plus provenance.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The store key the artifact lives under.
    pub key: ArtifactKey,
    /// The protected image.
    pub image: Image,
    /// Whether the artifact came from the store (no pipeline execution).
    pub cache_hit: bool,
    /// Wall-clock time inside the job (pipeline run or store read).
    pub wall: Duration,
}

/// Why a request failed.
#[derive(Debug, Clone)]
pub struct ProtectError {
    /// Human-readable failure description (pipeline or store error).
    pub message: String,
}

impl fmt::Display for ProtectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protection failed: {}", self.message)
    }
}

impl std::error::Error for ProtectError {}

/// Warm per-worker state: one [`PipelineWarm`] reused across every job the
/// worker runs. Scratch only — reuse never changes results (pinned by
/// `warm_state_reuse_is_invisible` in `raindrop`).
pub struct ProtectWorker {
    /// The reusable pipeline scratch (materialization buffers).
    pub warm: PipelineWarm,
}

impl WorkerCtx for ProtectWorker {
    fn create(_worker: usize) -> ProtectWorker {
        ProtectWorker { warm: PipelineWarm::new() }
    }
}

#[derive(Default)]
struct ServerCounters {
    requests: AtomicU64,
    pipeline_runs: AtomicU64,
    cache_hits: AtomicU64,
    failures: AtomicU64,
}

/// Aggregate server statistics.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests submitted.
    pub requests: u64,
    /// Requests that executed the protection pipeline.
    pub pipeline_runs: u64,
    /// Requests served from the artifact store.
    pub cache_hits: u64,
    /// Requests that failed (pipeline or store error).
    pub failures: u64,
    /// The underlying scheduler's statistics.
    pub scheduler: SchedulerStats,
    /// The artifact store's statistics.
    pub store: StoreStats,
}

/// The protection-as-a-service front end. See the [module docs](self).
///
/// # Example
///
/// ```no_run
/// use raindrop::{ObfConfig, RopConfig};
/// use raindrop_server::{ProtectRequest, Server, StoreConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let program: raindrop_synth::minic::Program = unimplemented!();
/// let server = Server::start(4, "/tmp/raindrop-store", StoreConfig::default())?;
/// let request = ProtectRequest {
///     program,
///     targets: vec!["f".into()],
///     config: ObfConfig::new().rop(RopConfig::ropk(0.25)),
///     seed: 7,
/// };
/// let first = server.submit(request.clone()).wait().expect_completed()?;
/// assert!(!first.cache_hit, "cold request runs the pipeline");
/// let again = server.submit(request).wait().expect_completed()?;
/// assert!(again.cache_hit, "duplicate request is served from the store");
/// assert_eq!(first.image, again.image, "byte-identical");
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    sched: Scheduler<ProtectWorker, Result<Protected, ProtectError>>,
    store: Arc<Mutex<ArtifactStore>>,
    counters: Arc<ServerCounters>,
}

impl Server {
    /// Starts a server with `workers` protection workers over a store in
    /// `store_dir`.
    pub fn start(
        workers: usize,
        store_dir: impl AsRef<Path>,
        store_config: StoreConfig,
    ) -> Result<Server, StoreError> {
        let store = ArtifactStore::open(store_dir, store_config)?;
        Ok(Server {
            sched: Scheduler::new(workers),
            store: Arc::new(Mutex::new(store)),
            counters: Arc::new(ServerCounters::default()),
        })
    }

    /// The number of protection workers.
    pub fn workers(&self) -> usize {
        self.sched.workers()
    }

    /// Submits a request; requests run in submission order. The returned
    /// handle can be waited on or cancelled; the job first probes the
    /// artifact store and only runs the pipeline on a miss.
    pub fn submit(&self, request: ProtectRequest) -> JobHandle<Result<Protected, ProtectError>> {
        let store = Arc::clone(&self.store);
        let counters = Arc::clone(&self.counters);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        self.sched.submit(move |worker: &mut ProtectWorker| {
            let started = std::time::Instant::now();
            let key = request.key();

            // Fast path: serve from the store, no pipeline execution.
            let cached = store
                .lock()
                .expect("store lock")
                .get(&key)
                .map_err(|e| ProtectError { message: e.to_string() })?;
            if let Some(image) = cached {
                counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Protected { key, image, cache_hit: true, wall: started.elapsed() });
            }

            // Miss: run the pipeline through this worker's warm state. The
            // store lock is *not* held across the run — concurrent identical
            // requests may both compute, but they compute identical bytes.
            counters.pipeline_runs.fetch_add(1, Ordering::Relaxed);
            let (image, _report) = request
                .config
                .pipeline(request.seed)
                .run_program_with(&request.program, &request.targets, &mut worker.warm)
                .and_then(|run| run.into_strict())
                .map_err(|e| {
                    counters.failures.fetch_add(1, Ordering::Relaxed);
                    ProtectError { message: e.to_string() }
                })?;
            store
                .lock()
                .expect("store lock")
                .put(&key, &image)
                .map_err(|e| ProtectError { message: e.to_string() })?;
            Ok(Protected { key, image, cache_hit: false, wall: started.elapsed() })
        })
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            pipeline_runs: self.counters.pipeline_runs.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            failures: self.counters.failures.load(Ordering::Relaxed),
            scheduler: self.sched.stats(),
            store: self.store.lock().expect("store lock").stats(),
        }
    }

    /// Runs `f` against the underlying store (e.g. to evict or compact).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut ArtifactStore) -> R) -> R {
        f(&mut self.store.lock().expect("store lock"))
    }

    /// Drains every submitted job and stops the workers. The store is
    /// flushed by its own writes; dropping the server has the same effect.
    pub fn shutdown(self) {
        self.sched.shutdown();
    }
}

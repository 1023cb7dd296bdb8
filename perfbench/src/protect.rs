//! The protector's workloads.
//!
//! * `protect` — every unique request is sent cold to a [`Server`] with
//!   [`WORKERS`] workers: the pipeline (`core`, `gadgets`, `analysis`,
//!   `obfvm`, `synth` codegen) plus a store write. One pass sends the whole
//!   request set; between passes the store is emptied, so every pass is
//!   cold.
//! * `serve` — set-up protects the request set once into the store; every
//!   timed pass re-sends the requests that succeeded, so each is a store hit
//!   (key + store read, no pipeline).
//!
//! Both are closed loops with one client: it sends its next request only
//! after the previous one returned. One request in flight keeps an
//! operation's latency its own, instead of two requests contending for two
//! cores and the store lock (pass times then varied 7–16 % between runs).

use crate::speed::Speed;
use crate::util::{
    self, alternate, geomean, median, ms, num, obj, tail, text, timed_setup, write_spans, Outcome,
    Rng, Tracer,
};
use crate::Args;
use raindrop::pipeline::{ObfConfig, PassDetail, PipelineWarm};
use raindrop::{stable_hash_bytes, RopConfig};
use raindrop_machine::{EmuError, Emulator, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_sched::{JobOutcome, JobStats};
use raindrop_server::{
    encode_image, ArtifactKey, ArtifactStore, ProtectRequest, Server, StoreConfig,
};
use raindrop_synth::{classes, codegen, ClassProgram, Interp, Workload};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Protection workers in the server: one request is in flight at a time,
/// and a second worker would only make it a coin toss which thread's
/// allocator arena grows (peak memory then varied by 10 % between runs).
const WORKERS: usize = 1;
/// Class-corpus seeds whose programs join the clbg kernels.
const CORPUS_SEEDS: u64 = 4;
/// Protection seeds drawn per (program, configuration) pair.
const SEEDS_PER_PAIR: usize = 4;
/// Cold artifacts run against the reference after the timed passes.
const CHECK_SAMPLE: usize = 8;
/// Instruction cap of one sampled check run; artifacts beyond it are
/// recorded as unchecked and another is drawn.
const CHECK_CAP: u64 = 10_000_000;
/// Step budget of the MiniC reference interpreter.
const REFERENCE_BUDGET: u64 = 2_000_000_000;
/// Least time between two probe bursts, taken between requests.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [0.99, 0.9, 0.5];
/// Traced replays whose spans are kept; later rounds still count towards
/// the tracing overhead.
const SPAN_ROUNDS: usize = 3;

/// The protection configurations every program is requested under.
fn configs() -> Vec<ObfConfig> {
    vec![
        ObfConfig::new().rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(0.25)),
        ObfConfig::new().vm(VmConfig::with_implicit(2, ImplicitAt::Last)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(1.0)).vm(VmConfig::plain(1)),
    ]
}

/// A program the protector submits, with what the output checks need.
struct Source {
    workload: Workload,
    class: Option<ClassProgram>,
    native_size: usize,
}

impl Source {
    /// The value the program must return, from the MiniC reference
    /// interpreter (never from the pipeline).
    fn reference(&self) -> Result<u64, String> {
        match &self.class {
            Some(cp) => Ok(cp.reference_value()),
            None => Interp::with_budget(&self.workload.program, REFERENCE_BUDGET)
                .call(&self.workload.entry, &self.workload.args)
                .map_err(|e| format!("{}: reference interpreter: {e:?}", self.workload.name)),
        }
    }
}

/// One protection request and where it came from.
struct Req {
    request: ProtectRequest,
    key: ArtifactKey,
    source: usize,
    config: String,
}

/// The seeded request set.
struct Inputs {
    sources: Vec<Source>,
    reqs: Vec<Req>,
}

impl Inputs {
    fn keys(&self) -> Vec<ArtifactKey> {
        self.reqs.iter().map(|r| r.key).collect()
    }

    /// Protected over native image size of request `i`'s artifact.
    fn size_ratio(&self, i: usize, image: &Image) -> f64 {
        image.size() as f64 / self.sources[self.reqs[i].source].native_size as f64
    }
}

/// Builds the request set: clbg kernels plus class-corpus programs, under
/// every configuration, with [`SEEDS_PER_PAIR`] seeded protection seeds
/// each, deduplicated by artifact key and shuffled by the seed.
fn inputs(seed: u64) -> Inputs {
    let mut sources: Vec<Source> = raindrop_synth::clbg_suite()
        .into_iter()
        .map(|workload| Source { workload, class: None, native_size: 0 })
        .collect();
    for corpus_seed in 0..CORPUS_SEEDS {
        for cp in classes::generate_all(corpus_seed) {
            sources.push(Source { workload: cp.workload.clone(), class: Some(cp), native_size: 0 });
        }
    }
    for s in &mut sources {
        s.native_size = codegen::compile(&s.workload.program).expect("source compiles").size();
    }
    let mut rng = Rng::new(seed, 0x7072_6f74);
    let mut keys = BTreeSet::new();
    let mut reqs = Vec::new();
    for (index, s) in sources.iter().enumerate() {
        for config in configs() {
            for _ in 0..SEEDS_PER_PAIR {
                let request = ProtectRequest {
                    program: s.workload.program.clone(),
                    targets: s.workload.obfuscate.clone(),
                    config: config.clone(),
                    seed: rng.next_u64(),
                };
                let key = request.key();
                if keys.insert(key) {
                    reqs.push(Req { request, key, source: index, config: config.label() });
                }
            }
        }
    }
    rng.shuffle(&mut reqs);
    Inputs { sources, reqs }
}

/// What the server returned for one request, as the client observed it.
struct Served {
    start: Instant,
    latency: Duration,
    stats: JobStats,
    result: Result<(Image, bool), String>,
}

/// Sends `reqs` one at a time (the closed loop) and hands each result to
/// `check` before the next request goes out, outside the request's latency.
/// With a probe, a burst runs between requests at the probe's interval,
/// also outside their latency.
fn drive<R>(
    server: &Server,
    reqs: &[&Req],
    mut speed: Option<&mut Speed>,
    mut check: impl FnMut(usize, Served) -> R,
) -> Vec<R> {
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            if let Some(speed) = speed.as_deref_mut() {
                speed.between();
            }
            let request = req.request.clone();
            let start = Instant::now();
            let done = server.submit(request).wait();
            let latency = start.elapsed();
            let result = match done.outcome {
                JobOutcome::Completed(Ok(p)) => Ok((p.image, p.cache_hit)),
                JobOutcome::Completed(Err(e)) => Err(e.message),
                JobOutcome::Cancelled => Err("job cancelled".into()),
                JobOutcome::Panicked(m) => Err(format!("job panicked: {m}")),
            };
            check(i, Served { start, latency, stats: done.stats, result })
        })
        .collect()
}

/// Request latencies with their pass and start, scaled to the reference
/// speed once the run's last probe burst is in.
#[derive(Default)]
struct Latencies {
    /// (pass, request, start, seconds, succeeded).
    ops: Vec<(usize, usize, Instant, f64, bool)>,
}

impl Latencies {
    fn push(&mut self, pass: usize, request: usize, sv: &Served) {
        let ok = sv.result.is_ok();
        self.ops.push((pass, request, sv.start, sv.latency.as_secs_f64(), ok));
    }

    /// Per-pass sums of every latency (seconds), and each successful
    /// request's median latency over the passes (ms), at the reference
    /// speed. Per-request medians keep a brief slowdown during one pass out
    /// of the percentiles taken over the request set.
    fn scaled(&self, speed: &Speed) -> (Vec<f64>, Vec<f64>) {
        let mut passes: Vec<f64> = Vec::new();
        let mut per_request: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(pass, request, start, secs, ok) in &self.ops {
            let t = speed.scaled(start, secs);
            if passes.len() <= pass {
                passes.resize(pass + 1, 0.0);
            }
            passes[pass] += t;
            if ok {
                per_request.entry(request).or_default().push(t * 1e3);
            }
        }
        (passes, per_request.values().map(|v| median(v)).collect())
    }

    /// The median raw pass (seconds), for the run record.
    fn raw_pass_s(&self) -> f64 {
        let mut passes: Vec<f64> = Vec::new();
        for &(pass, _, _, secs, _) in &self.ops {
            if passes.len() <= pass {
                passes.resize(pass + 1, 0.0);
            }
            passes[pass] += secs;
        }
        median(&passes)
    }
}

/// A failure message without instruction addresses, so equal failures of
/// different artifacts count together.
fn reason(message: &str) -> String {
    message.split(" at 0x").next().unwrap_or(message).to_string()
}

fn artifact_digest(image: &Image) -> u128 {
    stable_hash_bytes(&encode_image(image))
}

/// Digest of every artifact of a pass, in key order (independent of the
/// shuffled request order).
fn pass_digest(inputs: &Inputs, digests: &[Option<u128>]) -> String {
    let mut keyed: Vec<(String, Option<u128>)> =
        inputs.reqs.iter().zip(digests).map(|(r, d)| (r.key.to_string(), *d)).collect();
    keyed.sort();
    let rendered: String = keyed
        .iter()
        .map(|(k, d)| format!("{k}={};", d.map_or("failed".to_string(), util::hex)))
        .collect();
    util::hex(stable_hash_bytes(rendered.as_bytes()))
}

/// The seeded order in which the reference check draws requests.
fn check_order(requests: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests).collect();
    Rng::new(seed, 0x0063_686b).shuffle(&mut order);
    order.truncate(CHECK_SAMPLE * 3);
    order
}

/// Runs sampled artifacts (in [`check_order`]), untimed, until
/// [`CHECK_SAMPLE`] have been compared with the MiniC reference.
fn check_sample(inputs: &Inputs, sample: &[(usize, Image)], o: &mut Outcome) {
    let (mut checked, mut over_cap) = (Vec::new(), Vec::new());
    for (i, image) in sample {
        if checked.len() == CHECK_SAMPLE {
            break;
        }
        let req = &inputs.reqs[*i];
        let source = &inputs.sources[req.source];
        let w = &source.workload;
        let mut emu = Emulator::new(image);
        emu.set_budget(CHECK_CAP);
        let label = format!("{}/{}", w.name, req.config);
        match (emu.call_named(image, &w.entry, &w.args), source.reference()) {
            (Err(EmuError::BudgetExceeded { .. }), _) => over_cap.push(text(label)),
            (Ok(got), Ok(want)) if got == want => checked.push(text(label)),
            (Ok(got), Ok(want)) => o.error(format!("{label}: returned {got}, reference {want}")),
            (Err(e), _) => o.error(format!("{label}: {e}")),
            (_, Err(e)) => o.error(e),
        }
    }
    if checked.is_empty() {
        o.error("no artifact checked against the reference".into());
    }
    o.note(
        "check_sample",
        obj(vec![
            ("checked", Value::Seq(checked)),
            ("unchecked_over_cap", Value::Seq(over_cap)),
            ("cap_instructions", Value::U64(CHECK_CAP)),
        ]),
    );
}

/// Evicts every artifact and compacts the store, so the next request for
/// any of `keys` is cold.
fn empty_store(server: &Server, keys: &[ArtifactKey]) -> Result<(), String> {
    let left = server.with_store(|store| {
        for key in keys {
            store.evict(key)?;
        }
        store.compact().map(|()| store.stats().live_entries)
    });
    match left {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("{n} artifacts left in the store after eviction")),
        Err(e) => Err(format!("emptying the store: {e}")),
    }
}

fn start_server(dir: &Path) -> Result<Server, String> {
    Server::start(WORKERS, dir, StoreConfig::default()).map_err(|e| format!("store: {e}"))
}

fn note_method(o: &mut Outcome, inputs: &Inputs, what: &str) {
    o.note(
        "method",
        obj(vec![
            ("workload", text(what)),
            ("loop", text("closed")),
            ("clients", Value::U64(1)),
            ("workers", Value::U64(WORKERS as u64)),
            ("unique_requests", Value::U64(inputs.reqs.len() as u64)),
            ("programs", Value::U64(inputs.sources.len() as u64)),
            ("configs", Value::Seq(configs().iter().map(|c| text(c.label())).collect())),
            ("pass_s", text("sum of the client-observed latencies of one pass")),
        ]),
    );
}

fn note_latency(o: &mut Outcome, lat: &Latencies, speed: &mut Speed) {
    speed.burst();
    if let Some(e) = speed.check() {
        o.error(e);
    }
    let (passes, ok) = lat.scaled(speed);
    o.metric("pass_s", median(&passes));
    o.metric("op_ms.p50", median(&ok));
    match tail(&ok, &TAILS) {
        Some(t) => {
            o.metric("op_ms.tail", t.value);
            o.note(
                "op_ms.tail",
                obj(vec![("percentile", num(t.pct)), ("samples", Value::U64(t.samples as u64))]),
            );
        }
        None => o.error(format!("{} latency samples: too few for a tail", ok.len())),
    }
    o.note("passes", Value::U64(passes.len() as u64));
    o.note("speed", speed.summary());
    o.note("raw_pass_s", num(lat.raw_pass_s()));
}

/// The `protect` workload: cold requests, the store emptied between passes.
pub fn run_protect(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut speed = Speed::new(PROBE_EVERY);
    let (inputs, setup) = timed_setup(&mut speed, |_| inputs(args.seed));
    o.metric("setup_s", setup);
    note_method(&mut o, &inputs, "cold requests; the store is emptied between passes");
    if args.trace {
        return trace_protect(args, &inputs, o);
    }
    let server = match start_server(&args.work_dir.join("store")) {
        Ok(s) => s,
        Err(e) => {
            o.error(e);
            return o;
        }
    };
    let reqs: Vec<&Req> = inputs.reqs.iter().collect();
    let keys = inputs.keys();
    let candidates = check_order(reqs.len(), args.seed);
    let (mut passes, mut lat, mut ratios) = (0, Latencies::default(), Vec::new());
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let mut first: Option<Vec<Option<u128>>> = None;
    let mut sample: Vec<Option<Image>> = vec![None; candidates.len()];
    let start = Instant::now();
    while passes < 2 || start.elapsed() < args.seconds {
        // The client keeps a digest per artifact, not the artifact; the
        // first pass also keeps the images the reference check may draw.
        let first_pass = first.is_none();
        let digests = drive(&server, &reqs, Some(&mut speed), |i, sv| {
            lat.push(passes, i, &sv);
            o.attempted += 1;
            let req = &reqs[i];
            match sv.result {
                Ok((image, hit)) => {
                    if hit {
                        o.error(format!("cold pass served {} from the store", req.config));
                    }
                    let digest = artifact_digest(&image);
                    if first_pass {
                        ratios.push(inputs.size_ratio(i, &image));
                        if let Some(slot) = candidates.iter().position(|&c| c == i) {
                            sample[slot] = Some(image);
                        }
                    }
                    Some(digest)
                }
                Err(message) => {
                    o.failed += 1;
                    let name = &inputs.sources[req.source].workload.name;
                    let key = format!("{name}/{}: {}", req.config, reason(&message));
                    *failures.entry(key).or_default() += 1;
                    None
                }
            }
        });
        passes += 1;
        if let Err(e) = empty_store(&server, &keys) {
            o.error(e);
        }
        match &first {
            None => first = Some(digests),
            Some(f) if *f != digests => o.error("artifacts differ between passes".into()),
            Some(_) => {}
        }
    }
    server.shutdown();
    note_latency(&mut o, &lat, &mut speed);
    let ratio = geomean(ratios);
    o.metric("size_ratio", ratio);
    o.count("size_ratio", ratio);
    o.count("artifacts", pass_digest(&inputs, first.as_deref().unwrap_or(&[])));
    o.count("failures_per_pass", o.failed / passes as u64);
    o.note("failures", Value::Map(failures.into_iter().map(|(k, n)| (k, Value::U64(n))).collect()));
    let sample: Vec<(usize, Image)> =
        candidates.into_iter().zip(sample).filter_map(|(i, m)| Some((i, m?))).collect();
    check_sample(&inputs, &sample, &mut o);
    o
}

/// Set-up of `serve`: the request set, protected once, cold, into the
/// server's store.
struct Populated {
    inputs: Inputs,
    baseline: Vec<Option<Image>>,
}

fn populate(args: &Args, server: &Server) -> Populated {
    let inputs = inputs(args.seed);
    let reqs: Vec<&Req> = inputs.reqs.iter().collect();
    let baseline = drive(server, &reqs, None, |_, sv| sv.result.ok().map(|(image, _)| image));
    Populated { inputs, baseline }
}

/// The `serve` workload: every timed request is a store hit.
pub fn run_serve(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut speed = Speed::new(PROBE_EVERY);
    // Every rep starts a server on a store of its own; the last one serves.
    let (set_up, setup) = timed_setup(&mut speed, |rep| {
        let dir = args.work_dir.join(format!("store-{rep}"));
        start_server(&dir).map(|server| {
            let populated = populate(args, &server);
            (server, dir, populated)
        })
    });
    o.metric("setup_s", setup);
    let (server, dir, p) = match set_up {
        Ok(s) => s,
        Err(e) => {
            o.error(e);
            return o;
        }
    };
    note_method(&mut o, &p.inputs, "store hits: the requests that succeeded cold, re-sent");
    let hits: Vec<usize> = (0..p.baseline.len()).filter(|&i| p.baseline[i].is_some()).collect();
    o.note("cold_failures_in_setup", Value::U64((p.baseline.len() - hits.len()) as u64));
    let ratio = geomean(
        hits.iter()
            .filter_map(|&i| p.baseline[i].as_ref().map(|image| p.inputs.size_ratio(i, image))),
    );
    o.metric("size_ratio", ratio);
    o.count("size_ratio", ratio);
    let digests: Vec<Option<u128>> =
        p.baseline.iter().map(|i| i.as_ref().map(artifact_digest)).collect();
    o.count("artifacts", pass_digest(&p.inputs, &digests));
    let reqs: Vec<&Req> = hits.iter().map(|&i| &p.inputs.reqs[i]).collect();
    if args.trace {
        let out = trace_serve(args, &server, &dir, &p, &reqs, o);
        server.shutdown();
        return out;
    }
    let (mut passes, mut lat) = (0, Latencies::default());
    let start = Instant::now();
    while passes < 2 || start.elapsed() < args.seconds {
        drive(&server, &reqs, Some(&mut speed), |k, sv| {
            let i = hits[k];
            lat.push(passes, k, &sv);
            o.attempted += 1;
            match sv.result {
                Ok((image, hit)) => {
                    if !hit {
                        o.error(format!("request {i} missed the store"));
                    }
                    if Some(&image) != p.baseline[i].as_ref() {
                        o.error(format!("request {i}: hit differs from its cold artifact"));
                    }
                }
                Err(message) => {
                    o.failed += 1;
                    o.error(format!("request {i}: {message}"));
                }
            }
        });
        passes += 1;
    }
    server.shutdown();
    note_latency(&mut o, &lat, &mut speed);
    let sample: Vec<(usize, Image)> = check_order(p.baseline.len(), args.seed)
        .into_iter()
        .filter_map(|i| Some((i, p.baseline[i].clone()?)))
        .collect();
    check_sample(&p.inputs, &sample, &mut o);
    o
}

/// Layer counts of one replayed pass, read from the reports the API returns.
#[derive(Default, Clone, Copy, PartialEq)]
struct LayerCounts {
    compile_ms: f64,
    rop_pass_ms: f64,
    vm_pass_ms: f64,
    chain_items: u64,
    gadgets_used: u64,
    gadgets_unique: u64,
    gadget_pool: u64,
    cfg_blocks: u64,
    blob_bytes: u64,
    fail_register_pressure: u64,
    fail_other: u64,
}

impl LayerCounts {
    fn fail(&mut self, message: &str) {
        if message.contains("register pressure") {
            self.fail_register_pressure += 1;
        } else {
            self.fail_other += 1;
        }
    }

    /// The counts that must repeat exactly from pass to pass.
    fn exact(&self) -> [u64; 8] {
        [
            self.chain_items,
            self.gadgets_used,
            self.gadgets_unique,
            self.gadget_pool,
            self.cfg_blocks,
            self.blob_bytes,
            self.fail_register_pressure,
            self.fail_other,
        ]
    }
}

/// Replays the server job's call sequence from outside the server —
/// `ProtectRequest::key`, `ArtifactStore::get`, `Pipeline::run_program_with`
/// and `ArtifactStore::put` — one request at a time, timing each call in
/// `tr`. Returns the pass wall in seconds and the layer counts.
fn replay(
    store: &mut ArtifactStore,
    reqs: &[&Req],
    inputs: &Inputs,
    tr: &mut Tracer,
) -> (f64, LayerCounts) {
    let start = Instant::now();
    let mut counts = LayerCounts::default();
    let mut warm = PipelineWarm::new();
    for (i, r) in reqs.iter().enumerate() {
        let (req, id) = (&r.request, i as u64);
        let w = &inputs.sources[r.source].workload;
        tr.time("request", id, |tr| {
            let key = tr.time("server.key", id, |_| req.key());
            let cached = tr.time("server.store_get", id, |_| store.get(&key));
            if !matches!(cached, Ok(None)) {
                return;
            }
            let run = tr.time("core.pipeline", id, |_| {
                req.config.pipeline(req.seed).run_program_with(&w.program, &req.targets, &mut warm)
            });
            let run = match run {
                Ok(run) => run,
                Err(e) => return counts.fail(&e.to_string()),
            };
            counts.compile_ms += ms(run.report.compile_wall);
            for pass in &run.report.passes {
                match &pass.detail {
                    PassDetail::Rop(r) => {
                        counts.rop_pass_ms += ms(pass.wall);
                        counts.gadgets_used += r.gadgets.total_used;
                        counts.gadgets_unique += r.gadgets.unique_used;
                        counts.gadget_pool += r.gadgets.pool_size;
                        for f in &r.rewritten {
                            counts.cfg_blocks += f.blocks as u64;
                            counts.chain_items += f.chain.items.len() as u64;
                        }
                    }
                    PassDetail::Vm(_) => counts.vm_pass_ms += ms(pass.wall),
                    _ => {}
                }
            }
            let image = match run.into_strict() {
                Ok((image, _)) => image,
                Err(e) => return counts.fail(&e.to_string()),
            };
            tr.time("server.store_put", id, |_| store.put(&key, &image)).expect("store put");
            counts.blob_bytes += encode_image(&image).len() as u64;
        });
    }
    (start.elapsed().as_secs_f64(), counts)
}

fn open_store(dir: &Path) -> Result<ArtifactStore, String> {
    ArtifactStore::open(dir, StoreConfig::default()).map_err(|e| format!("store: {e}"))
}

/// A server pass for `JobStats`: queue and run times per request.
fn job_stats(
    server: &Server,
    reqs: &[&Req],
    o: &mut Outcome,
    queued: &mut Vec<f64>,
    run: &mut Vec<f64>,
) {
    for (stats, ok) in drive(server, reqs, None, |_, sv| (sv.stats, sv.result.is_ok())) {
        o.attempted += 1;
        queued.push(ms(stats.queued));
        run.push(ms(stats.run));
        if !ok {
            o.failed += 1;
        }
    }
}

/// Per-layer metrics shared by the traced `protect` and `serve` runs.
fn layer_metrics(
    o: &mut Outcome,
    tracer: &Tracer,
    queued: &[f64],
    run: &[f64],
    plain: &[f64],
    traced: &[f64],
) {
    let us = |name: &str| median(&tracer.durations_ms(name)) * 1e3;
    o.metric("sched.queue_ms.p50", median(queued));
    o.metric("sched.run_ms.p50", median(run));
    o.metric("server.key_us.p50", us("server.key"));
    o.metric("server.store_get_us.p50", us("server.store_get"));
    o.metric("server.store_put_us.p50", us("server.store_put"));
    o.metric("trace.overhead", median(traced) / median(plain) - 1.0);
    o.metric("trace.spans", tracer.spans().len() as f64);
    o.note(
        "trace",
        obj(vec![
            ("untraced_replay_s", Value::Seq(plain.iter().map(|&x| num(x)).collect())),
            ("traced_replay_s", Value::Seq(traced.iter().map(|&x| num(x)).collect())),
            (
                "overhead",
                text(
                    "median traced replay over median untraced replay of the same calls, minus one",
                ),
            ),
        ]),
    );
}

/// Traced `protect`: alternates a server pass (queue and run times from
/// `JobStats`), an untraced replay and a traced replay, each into a fresh
/// store, until the window closes.
fn trace_protect(args: &Args, inputs: &Inputs, mut o: Outcome) -> Outcome {
    let reqs: Vec<&Req> = inputs.reqs.iter().collect();
    let origin = Instant::now();
    let mut all = Tracer::new(origin, true);
    let (mut queued, mut run, mut plain, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut layers: Vec<LayerCounts> = Vec::new();
    let mut round = 0;
    while round < 1 || origin.elapsed() < args.seconds {
        let dir = args.work_dir.join(format!("server-{round}"));
        match start_server(&dir) {
            Ok(server) => {
                job_stats(&server, &reqs, &mut o, &mut queued, &mut run);
                server.shutdown();
            }
            Err(e) => o.error(e),
        }
        let _ = std::fs::remove_dir_all(&dir);
        for on in alternate(round) {
            let dir = args.work_dir.join(format!("replay-{round}-{on}"));
            let mut store = match open_store(&dir) {
                Ok(s) => s,
                Err(e) => {
                    o.error(e);
                    return o;
                }
            };
            let mut tr = Tracer::new(origin, on);
            let (wall, counts) = replay(&mut store, &reqs, inputs, &mut tr);
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            if layers.first().is_some_and(|c| c.exact() != counts.exact()) {
                o.error("replayed passes produced different artifacts".into());
            }
            if on {
                traced.push(wall);
                if traced.len() <= SPAN_ROUNDS {
                    all.absorb(tr);
                }
            } else {
                plain.push(wall);
            }
            layers.push(counts);
        }
        round += 1;
    }
    layer_metrics(&mut o, &all, &queued, &run, &plain, &traced);
    let med = |f: fn(&LayerCounts) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    o.metric("synth.compile_ms", med(|c| c.compile_ms));
    o.metric("core.rop_pass_ms", med(|c| c.rop_pass_ms));
    o.metric("obfvm.vm_pass_ms", med(|c| c.vm_pass_ms));
    let c = layers[0];
    o.metric("core.chain_items", c.chain_items as f64);
    o.metric("core.gadgets_used", c.gadgets_used as f64);
    o.metric("gadgets.unique_used", c.gadgets_unique as f64);
    o.metric("gadgets.pool_size", c.gadget_pool as f64);
    o.metric("analysis.cfg_blocks", c.cfg_blocks as f64);
    o.metric("core.failures.register_pressure", c.fail_register_pressure as f64);
    o.metric("core.failures.other", c.fail_other as f64);
    o.metric("server.blob_bytes", c.blob_bytes as f64);
    o.count("chain_items", c.chain_items);
    o.count("blob_bytes", c.blob_bytes);
    write_spans(args, &all);
    o
}

/// Traced `serve`: server passes for `JobStats`, then untraced and traced
/// replays of the hits (key + store read) against a copy of the populated
/// store, so the server's open store is never shared.
fn trace_serve(
    args: &Args,
    server: &Server,
    dir: &Path,
    p: &Populated,
    reqs: &[&Req],
    mut o: Outcome,
) -> Outcome {
    let origin = Instant::now();
    let mut all = Tracer::new(origin, true);
    let (mut queued, mut run, mut plain, mut traced) = (vec![], vec![], vec![], vec![]);
    let copy = args.work_dir.join("serve-replay");
    let mut store =
        match copy_dir(dir, &copy).map_err(|e| e.to_string()).and_then(|()| open_store(&copy)) {
            Ok(s) => s,
            Err(e) => {
                o.error(format!("copying the store: {e}"));
                return o;
            }
        };
    let mut round = 0;
    while round < 1 || origin.elapsed() < args.seconds {
        job_stats(server, reqs, &mut o, &mut queued, &mut run);
        for on in alternate(round) {
            let mut tr = Tracer::new(origin, on);
            let (wall, counts) = replay(&mut store, reqs, &p.inputs, &mut tr);
            if counts.blob_bytes != 0 {
                o.error("a replayed hit ran the pipeline".into());
            }
            if on {
                traced.push(wall);
                if traced.len() <= SPAN_ROUNDS {
                    all.absorb(tr);
                }
            } else {
                plain.push(wall);
            }
        }
        round += 1;
    }
    layer_metrics(&mut o, &all, &queued, &run, &plain, &traced);
    write_spans(args, &all);
    o
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

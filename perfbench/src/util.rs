//! Seeded inputs, sample statistics, span tracing, the run report and the
//! set-up and trace helpers shared by every workload.

use crate::speed::Speed;
use crate::{Args, SETUP_MAX_REPS, SETUP_MIN_S, SETUP_REPS};
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile, interpolating linearly between closest ranks. Zero for
/// an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean (zero for an empty sample).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// A tail latency: the highest percentile with at least ten samples beyond
/// it, with the sample count it was taken over.
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest of `candidates` (quantiles, highest first) that leaves at
/// least ten samples beyond it, or `None` when the sample is too small for
/// any of them.
pub fn tail(samples: &[f64], candidates: &[f64]) -> Option<Tail> {
    let n = samples.len();
    candidates.iter().find(|&&q| (1.0 - q) * n as f64 >= 10.0).map(|&q| Tail {
        pct: q * 100.0,
        value: quantile(samples, q),
        samples: n,
    })
}

/// One timed call into a layer, recorded by a traced run.
pub struct Span {
    /// Layer-qualified span name (e.g. `server.store_get`).
    pub name: &'static str,
    /// The request, image or job the span belongs to.
    pub req: u64,
    /// Enclosing span, as an index into the same tracer.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. A disabled tracer runs the timed closures and
/// records nothing, so traced and untraced passes share one code path.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span times count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer { origin, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, req, parent, start, end: start });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Moves another tracer's spans (e.g. a worker thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| ms(s.len())).collect()
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// The spans as JSON lines (name, request, parent, start and end in µs).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                s.name,
                s.req,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            ));
        }
        out
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Output-check failures; the run is correct only when this is empty.
    pub errors: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (pipeline error, instruction cap, wall-clock
    /// exhaustion, failed job).
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Counts that must repeat exactly across runs with the same seed.
    pub counts: BTreeMap<String, Value>,
    /// Everything else worth keeping beside the results.
    pub record: Vec<(String, Value)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a count for the exact-repeat check.
    pub fn count(&mut self, name: &str, value: impl Into<CountValue>) {
        self.counts.insert(name.to_string(), value.into().0);
    }

    /// Adds a note to the run record.
    pub fn note(&mut self, key: &str, value: Value) {
        self.record.push((key.to_string(), value));
    }

    /// Flags a failed output check.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// A count as it is compared across runs.
pub struct CountValue(pub Value);

impl From<u64> for CountValue {
    fn from(v: u64) -> CountValue {
        CountValue(Value::U64(v))
    }
}

impl From<f64> for CountValue {
    fn from(v: f64) -> CountValue {
        CountValue(Value::F64(v))
    }
}

impl From<String> for CountValue {
    fn from(v: String) -> CountValue {
        CountValue(Value::Str(v))
    }
}

/// Builds a JSON object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number.
pub fn num(v: f64) -> Value {
    Value::F64(v)
}

/// A JSON string.
pub fn text(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Hex rendering of a 128-bit digest.
pub fn hex(d: u128) -> String {
    format!("{d:032x}")
}

/// Runs `setup` at least [`SETUP_REPS`] times, and again while the reps so
/// far took less than [`SETUP_MIN_S`] (at most [`SETUP_MAX_REPS`] times),
/// with a probe burst before each rep and after the last. Returns the last
/// result and the median rep wall at the reference speed.
pub fn timed_setup<T>(speed: &mut Speed, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let (mut reps, mut out, mut total) = (Vec::new(), None, 0.0);
    while reps.len() < SETUP_REPS || (total < SETUP_MIN_S && reps.len() < SETUP_MAX_REPS) {
        // The previous rep's result is dropped before, and outside, the next.
        drop(out.take());
        speed.burst();
        let t = Instant::now();
        out = Some(setup(reps.len()));
        let wall = t.elapsed().as_secs_f64();
        total += wall;
        reps.push((t, wall));
    }
    speed.burst();
    let walls: Vec<f64> = reps.iter().map(|&(t, wall)| speed.scaled(t, wall)).collect();
    (out.expect("at least one set-up"), median(&walls))
}

/// Writes a traced run's spans where `--spans` points.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    if let Some(path) = &args.spans {
        let _ = std::fs::write(path, tracer.to_jsonl());
    }
}

/// Untraced then traced on even rounds, the reverse on odd ones, so neither
/// side always runs first.
pub fn alternate(round: usize) -> [bool; 2] {
    if round.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

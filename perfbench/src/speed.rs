//! Machine-speed probe: times are reported at a fixed reference speed.
//!
//! The shared host this benchmark was defined on runs each virtual CPU at
//! one of two speeds, about 1.6× apart, and switches between them every few
//! seconds; over minutes the mix drifts, so raw wall times of one build
//! spread between runs by more than any useful regression bound (the same
//! emulated image ran at 27, 50 and 77 guest MIPS within one hour). The
//! speed is per CPU: a probe on the other CPU does not track it, so
//! `run.py` pins a workload that keeps one operation in flight to one CPU.
//!
//! The probe is a fixed kernel in this package — a small register-machine
//! interpreter over a 512 KiB memory plus an allocating ordered map, the two
//! shapes of work the emulator and the pipeline do — that never calls the
//! repository's crates, so a change to the program cannot move it. Bursts of
//! probes run between operations, outside their timing, and each
//! operation's wall is scaled by [`NOMINAL_S`] over the median of the
//! bursts around it. A program that gets faster still reads faster; a host
//! that gets slower does not.

use crate::util::{median, num, obj};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seconds of one probe at the reference speed (about the defining
/// machine's fast state). A time "at the reference speed" is the time the
/// operation would take on a host that runs the probe in exactly this long.
pub const NOMINAL_S: f64 = 0.001;
/// Probes per burst; a burst's time is their median.
const BURST: usize = 5;
/// Interpreter steps of one probe.
const STEPS: usize = 250_000;
/// Words of the interpreter's memory (512 KiB).
const MEM_WORDS: usize = 1 << 16;
/// Instructions of the interpreter's fixed program.
const PROG_LEN: usize = 1 << 12;
/// Entries of the ordered map built by one probe.
const MAP_ENTRIES: usize = 1500;

/// The probe's fixed state and the bursts taken so far.
pub struct Speed {
    prog: Vec<u32>,
    mem: Vec<u64>,
    origin: Instant,
    /// Least time between two bursts taken by [`Speed::between`].
    interval: Duration,
    last: Option<Instant>,
    /// (offset from `origin` of the burst's middle, its probe seconds).
    bursts: Vec<(Duration, f64)>,
    checksum: Option<u64>,
    /// Set when a probe's checksum differed from the first one.
    broken: bool,
}

impl Speed {
    /// A probe whose [`Speed::between`] takes a burst at most every
    /// `interval` (every call for a zero interval).
    pub fn new(interval: Duration) -> Speed {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let prog = (0..PROG_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Speed {
            prog,
            mem: vec![0; MEM_WORDS],
            origin: Instant::now(),
            interval,
            last: None,
            bursts: Vec::new(),
            checksum: None,
            broken: false,
        }
    }

    /// One probe; returns its seconds.
    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let sum = kernel(&self.prog, &mut self.mem);
        let secs = t.elapsed().as_secs_f64();
        match self.checksum {
            None => self.checksum = Some(sum),
            Some(c) if c != sum => self.broken = true,
            Some(_) => {}
        }
        secs
    }

    /// Takes a burst now.
    pub fn burst(&mut self) {
        let start = Instant::now();
        let mut times = [0.0; BURST];
        for t in &mut times {
            *t = self.probe();
        }
        let end = Instant::now();
        self.bursts.push((start + (end - start) / 2 - self.origin, median(&times)));
        self.last = Some(end);
    }

    /// Takes a burst if none was taken in the last `interval`. Call it
    /// between operations, outside their timing.
    pub fn between(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= self.interval) {
            self.burst();
        }
    }

    /// The factor that scales a wall measured over `[start, end]` to the
    /// reference speed: [`NOMINAL_S`] over the median of the bursts taken
    /// in that interval and the nearest one on each side of it.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let a = start.saturating_duration_since(self.origin);
        let b = end.saturating_duration_since(self.origin);
        let first = self.bursts.iter().rposition(|&(t, _)| t <= a).unwrap_or(0);
        let last = self.bursts.iter().position(|&(t, _)| t >= b).unwrap_or(self.bursts.len() - 1);
        let near: Vec<f64> = self.bursts[first..=last.max(first)].iter().map(|&(_, s)| s).collect();
        NOMINAL_S / median(&near)
    }

    /// A wall of `secs` that started at `start`, at the reference speed.
    pub fn scaled(&self, start: Instant, secs: f64) -> f64 {
        secs * self.scale(start, start + Duration::from_secs_f64(secs))
    }

    /// An error when a probe computed a different checksum.
    pub fn check(&self) -> Option<String> {
        self.broken.then(|| "speed probe: checksum differs between probes".to_string())
    }

    /// The run record's summary of the probe.
    pub fn summary(&self) -> Value {
        let secs: Vec<f64> = self.bursts.iter().map(|&(_, s)| s).collect();
        let fold = |f: fn(f64, f64) -> f64, init| secs.iter().copied().fold(init, f);
        obj(vec![
            ("nominal_probe_s", num(NOMINAL_S)),
            ("bursts", Value::U64(secs.len() as u64)),
            ("median_probe_s", num(median(&secs))),
            ("min_probe_s", num(fold(f64::min, f64::INFINITY))),
            ("max_probe_s", num(fold(f64::max, 0.0))),
        ])
    }
}

/// Probes on a thread of its own, one every `interval`, while the
/// workload's own threads run: for operations (a whole campaign) that no
/// burst can be placed inside. The scheduler moves the thread between the
/// CPUs the workload's threads use, so its median follows their mix; its
/// probes take about `NOMINAL_S / interval` of one CPU.
pub struct Background {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Speed>>,
}

impl Background {
    /// Starts the probing thread; its samples count from `speed`'s origin.
    pub fn start(interval: Duration, speed: Speed) -> Background {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut speed = speed;
            while !flag.load(Ordering::Relaxed) {
                let start = Instant::now();
                let secs = speed.probe();
                let middle = start + Duration::from_secs_f64(secs / 2.0);
                speed.bursts.push((middle - speed.origin, secs));
                std::thread::sleep(interval);
            }
            speed
        });
        Background { stop, thread: Some(thread) }
    }

    /// Stops the thread, waits for it and returns its samples.
    pub fn finish(mut self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("probing thread running");
        thread.join().expect("probing thread does not panic")
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One probe: [`STEPS`] steps of a register machine over `mem`, then an
/// ordered map of [`MAP_ENTRIES`] small allocations. Returns a checksum,
/// which is the same on every call.
fn kernel(prog: &[u32], mem: &mut [u64]) -> u64 {
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mask = mem.len() - 1;
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let ins = prog[pc];
        let (a, b) = (((ins >> 3) & 7) as usize, ((ins >> 6) & 7) as usize);
        let imm = u64::from(ins >> 9);
        pc = (pc + 1) & (prog.len() - 1);
        match ins & 7 {
            0 => r[a] = r[a].wrapping_add(r[b] ^ imm),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 | 3 => r[a] = mem[(r[b].wrapping_add(imm) as usize) & mask],
            4 => mem[(r[b].wrapping_add(imm) as usize) & mask] = r[a],
            5 => r[a] = r[a].rotate_left(b as u32 + 1) ^ imm,
            6 => {
                if r[a] & 1 == 0 {
                    pc = (imm as usize) & (prog.len() - 1);
                }
            }
            _ => r[a] = r[b] >> 3,
        }
    }
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = r.iter().fold(0u64, |s, v| s ^ v) | 1;
    for _ in 0..MAP_ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![x as u8; 8 + (x % 56) as usize]);
    }
    map.iter().fold(x, |s, (k, v)| s.wrapping_mul(31).wrapping_add(k ^ v.len() as u64))
}

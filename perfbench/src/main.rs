//! `raindrop-perfbench` — one run of one workload of the raindrop benchmark.
//!
//! ```text
//! raindrop-perfbench --workload <protect|serve|execute|attack> --seed <n>
//!                    --seconds <s> --trace <0|1> --work-dir <dir> [--spans <file>]
//! ```
//!
//! Each workload models one user of raindrop and drives the public API of
//! the workspace crates (see `NOTES.md` beside this package). With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1` it
//! times calls into each layer from this package's code and reports the
//! per-layer metrics, plus the overhead of that tracing. The run checks its
//! outputs and prints one JSON line as the last line of standard output;
//! `run.py` turns it into the benchmark's result line.

#![forbid(unsafe_code)]

mod attack;
mod execute;
mod protect;
mod speed;
mod util;

use serde::Value;
use std::path::PathBuf;
use std::time::Duration;
use util::Outcome;

/// Times the workload's set-up is repeated at least; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;
/// Set-up is repeated until its reps took this many seconds together...
pub const SETUP_MIN_S: f64 = 1.0;
/// ...or this many reps ran.
pub const SETUP_MAX_REPS: usize = 40;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for artifact stores and campaign logs.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).cloned()
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let seed = need("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work_dir: PathBuf::from(need("--work-dir")?),
        spans: get("--spans").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "protect" => protect::run_protect(&args),
        "serve" => protect::run_serve(&args),
        "execute" => execute::run(&args),
        "attack" => attack::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    println!("{}", render(&outcome));
}

/// The run's result line: checks, counts, metrics and the run record.
fn render(o: &Outcome) -> String {
    let metrics = Value::Map(o.metrics.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect());
    let counts = Value::Map(o.counts.iter().map(|(k, v)| (k.clone(), v.clone())).collect());
    let errors = Value::Seq(o.errors.iter().cloned().map(Value::Str).collect());
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(o.errors.is_empty())),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        ("metrics".into(), metrics),
        ("counts".into(), counts),
        ("errors".into(), errors),
        ("record".into(), Value::Map(o.record.clone())),
    ]);
    serde_json::to_string(&line).expect("finite metric values")
}

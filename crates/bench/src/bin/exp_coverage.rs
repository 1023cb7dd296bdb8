//! §VII-C1: rewriting coverage over the coreutils-like corpus, with the
//! failure-class breakdown the paper reports, followed by the paper's
//! "run the test suite over the obfuscated binaries" check. The whole
//! experiment is one [`raindrop::Pipeline`] run: a full-strength ROP pass
//! ([`RopConfig::full`]) plus a [`VerifyPolicy`] that differentially
//! verifies every successfully rewritten function against the original
//! image over the zero/small/full-width register corners (one warm
//! emulator pair per function via `verify_batch`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::pipeline::{ObfConfig, VerifyPolicy};
use raindrop::{FailureClass, RopConfig};
use raindrop_bench::*;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Report {
    total_functions: usize,
    attempted: usize,
    rewritten: usize,
    coverage: f64,
    failures: BTreeMap<String, usize>,
    verified_functions: usize,
    verified_cases: usize,
    verification_mismatches: Vec<String>,
}

fn main() {
    let full = is_full_run();
    let count = if full { 1354 } else { 250 };
    let corpus = raindrop_synth::corpus::generate(count, 8);
    let names: Vec<&str> = corpus.entries.iter().map(|e| e.name.as_str()).collect();
    // VerifyPolicy::Batch runs the default register-argument corner cases
    // (zero, small values, a byte pattern, full 64-bit width).
    let config = RopConfig::full();
    let run = ObfConfig::new()
        .rop(config.clone())
        .pipeline(config.seed)
        .verify(VerifyPolicy::Batch)
        .run_image(&corpus.image, &names)
        .expect("pipeline runs");
    let rop = run.report.rop_passes();
    let report = rop.first().expect("one rop pass");

    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for (_, reason) in &report.failures {
        let class = if reason.contains("pivot stub") {
            format!("{:?}", FailureClass::TooShort)
        } else if reason.contains("register pressure") {
            format!("{:?}", FailureClass::RegisterPressure)
        } else if reason.contains("unsupported") {
            format!("{:?}", FailureClass::UnsupportedInstruction)
        } else {
            format!("{:?}", FailureClass::Other)
        };
        *failures.entry(class).or_default() += 1;
    }

    let verified_functions = run.report.verify.iter().filter(|v| v.all_match()).count();
    let verified_cases: usize = run.report.verify.iter().map(|v| v.verdicts.len()).sum();
    let verification_mismatches: Vec<String> =
        run.report.verify.iter().filter(|v| !v.all_match()).map(|v| v.function.clone()).collect();

    let attempted = report.rewritten.len() + report.failures.len();
    let out = Report {
        total_functions: count,
        attempted,
        rewritten: report.rewritten.len(),
        coverage: report.coverage(),
        failures,
        verified_functions,
        verified_cases,
        verification_mismatches,
    };
    println!(
        "corpus: {} functions, rewritten {}/{} ({:.1}%)",
        out.total_functions,
        out.rewritten,
        out.attempted,
        out.coverage * 100.0
    );
    for (class, n) in &out.failures {
        println!("  failure {class}: {n}");
    }
    println!(
        "verified: {}/{} rewritten functions over {} differential cases ({} mismatches)",
        out.verified_functions,
        out.rewritten,
        out.verified_cases,
        out.verification_mismatches.len()
    );
    write_json("exp_coverage", &out);
}

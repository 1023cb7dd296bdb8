//! Golden pins for the DSE speed suite's verdicts.
//!
//! The benchmark's `attack` workload, Table II's DSE column and every
//! solver speed-up compare wall clock over the fixed 36-job
//! [`dse_speed_suite`]; a speed change is only a speed change if each job
//! still explores the same paths, calls the solver as often, finds the
//! same witness and ends on the same budget dimension. This suite pins that
//! signature for every job, and the solver's RNG position after one short
//! slice of the secret attacks on the 4-byte ROP1.00 images (where the
//! random search does most of its work), so a change that moves a single
//! draw fails here.
//!
//! Wall clock is taken out of the verdict: the budget is
//! [`dse_speed_budget`] with `max_wall` raised to an hour. No suite job
//! ends on wall under the stock budget either, so these are the verdicts
//! the benchmark checks.

use raindrop_attacks::concolic::{DseAttack, DseBudget, DseExplorer, DseOutcome};
use raindrop_bench::{dse_speed_budget, dse_speed_suite};
use std::time::Duration;

/// `(job label, outcome signature)` for all 36 jobs, in suite order.
const OUTCOME_PINS: &[(&str, &str)] = &[
    ("s0/in1/secret/native", "success=true paths=3 instructions=295 solver_calls=4 witness=Some([91]) exhausted=None"),
    ("s0/in1/secret/rop0.25", "success=false paths=40 instructions=422100 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s0/in1/secret/rop1.00", "success=false paths=3 instructions=24795 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s0/in1/coverage/native", "success=true paths=2 instructions=195 solver_calls=1 witness=Some([255]) exhausted=None"),
    ("s0/in1/coverage/rop0.25", "success=true paths=2 instructions=12919 solver_calls=5 witness=Some([255]) exhausted=None"),
    ("s0/in1/coverage/rop1.00", "success=true paths=2 instructions=23074 solver_calls=7 witness=Some([255]) exhausted=None"),
    ("s0/in4/secret/native", "success=true paths=3 instructions=295 solver_calls=4 witness=Some([3151244635]) exhausted=None"),
    ("s0/in4/secret/rop0.25", "success=false paths=40 instructions=422100 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s0/in4/secret/rop1.00", "success=false paths=3 instructions=24795 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s0/in4/coverage/native", "success=true paths=2 instructions=195 solver_calls=1 witness=Some([4294967295]) exhausted=None"),
    ("s0/in4/coverage/rop0.25", "success=true paths=2 instructions=12919 solver_calls=5 witness=Some([4294967295]) exhausted=None"),
    ("s0/in4/coverage/rop1.00", "success=true paths=2 instructions=23074 solver_calls=7 witness=Some([4294967295]) exhausted=None"),
    ("s1/in1/secret/native", "success=true paths=3 instructions=909 solver_calls=4 witness=Some([91]) exhausted=None"),
    ("s1/in1/secret/rop0.25", "success=false paths=40 instructions=526180 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s1/in1/secret/rop1.00", "success=false paths=3 instructions=32465 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s1/in1/coverage/native", "success=true paths=2 instructions=637 solver_calls=1 witness=Some([255]) exhausted=None"),
    ("s1/in1/coverage/rop0.25", "success=true paths=2 instructions=18377 solver_calls=5 witness=Some([255]) exhausted=None"),
    ("s1/in1/coverage/rop1.00", "success=true paths=2 instructions=28473 solver_calls=7 witness=Some([255]) exhausted=None"),
    ("s1/in4/secret/native", "success=true paths=3 instructions=909 solver_calls=4 witness=Some([3151244635]) exhausted=None"),
    ("s1/in4/secret/rop0.25", "success=false paths=40 instructions=526180 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s1/in4/secret/rop1.00", "success=false paths=3 instructions=32465 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s1/in4/coverage/native", "success=true paths=2 instructions=637 solver_calls=1 witness=Some([4294967295]) exhausted=None"),
    ("s1/in4/coverage/rop0.25", "success=true paths=2 instructions=18377 solver_calls=5 witness=Some([4294967295]) exhausted=None"),
    ("s1/in4/coverage/rop1.00", "success=true paths=2 instructions=28473 solver_calls=7 witness=Some([4294967295]) exhausted=None"),
    ("s3/in1/secret/native", "success=true paths=3 instructions=2751 solver_calls=4 witness=Some([91]) exhausted=None"),
    ("s3/in1/secret/rop0.25", "success=false paths=40 instructions=842332 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s3/in1/secret/rop1.00", "success=false paths=3 instructions=55295 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s3/in1/coverage/native", "success=true paths=2 instructions=1963 solver_calls=1 witness=Some([255]) exhausted=None"),
    ("s3/in1/coverage/rop0.25", "success=true paths=2 instructions=34063 solver_calls=5 witness=Some([255]) exhausted=None"),
    ("s3/in1/coverage/rop1.00", "success=true paths=2 instructions=44274 solver_calls=7 witness=Some([255]) exhausted=None"),
    ("s3/in4/secret/native", "success=true paths=3 instructions=2751 solver_calls=4 witness=Some([3151244635]) exhausted=None"),
    ("s3/in4/secret/rop0.25", "success=false paths=40 instructions=842332 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s3/in4/secret/rop1.00", "success=false paths=3 instructions=55295 solver_calls=600 witness=None exhausted=Some(SolverCalls)"),
    ("s3/in4/coverage/native", "success=true paths=2 instructions=1963 solver_calls=1 witness=Some([4294967295]) exhausted=None"),
    ("s3/in4/coverage/rop0.25", "success=true paths=2 instructions=34063 solver_calls=5 witness=Some([4294967295]) exhausted=None"),
    ("s3/in4/coverage/rop1.00", "success=true paths=2 instructions=44274 solver_calls=7 witness=Some([4294967295]) exhausted=None"),
];

/// `(job label, solver RNG draws after one 4-path slice)` for the in4
/// secret-finding ROP jobs.
const DRAW_PINS: &[(&str, u64)] = &[
    ("s0/in4/secret/rop0.25", 29792),
    ("s0/in4/secret/rop1.00", 34912),
    ("s1/in4/secret/rop0.25", 29792),
    ("s1/in4/secret/rop1.00", 34912),
    ("s3/in4/secret/rop0.25", 29792),
    ("s3/in4/secret/rop1.00", 34912),
];

fn budget() -> DseBudget {
    DseBudget { max_wall: Duration::from_secs(3600), ..dse_speed_budget(false) }
}

/// The verdict-bearing fields of an outcome (the benchmark's signature).
fn signature(o: &DseOutcome) -> String {
    format!(
        "success={} paths={} instructions={} solver_calls={} witness={:?} exhausted={:?}",
        o.success, o.paths, o.instructions, o.solver_calls, o.witness, o.exhausted
    )
}

#[test]
fn dse_speed_suite_outcomes_and_solver_draws_are_pinned() {
    let budget = budget();
    let jobs = dse_speed_suite(false);
    assert_eq!(jobs.len(), 36);

    let got: Vec<(String, String)> = jobs
        .iter()
        .map(|j| {
            let mut attack = DseAttack::new(&j.image, &j.func, j.spec.clone(), budget);
            (j.label.clone(), signature(&attack.run(j.goal)))
        })
        .collect();
    let want: Vec<(String, String)> =
        OUTCOME_PINS.iter().map(|&(l, s)| (l.to_string(), s.to_string())).collect();
    assert_eq!(got, want, "a DSE suite verdict moved:\n{}", render(&got));

    let draws: Vec<(String, u64)> = jobs
        .iter()
        .filter(|j| j.label.contains("/in4/secret/rop"))
        .map(|j| {
            let mut attack = DseAttack::new(&j.image, &j.func, j.spec.clone(), budget);
            let mut explorer = DseExplorer::start(&mut attack, j.goal);
            // ROP1.00 jobs end after 3 paths, inside the slice.
            explorer.advance(Some(4));
            (j.label.clone(), explorer.frontier().rng_draws)
        })
        .collect();
    let want: Vec<(String, u64)> = DRAW_PINS.iter().map(|&(l, n)| (l.to_string(), n)).collect();
    assert_eq!(draws, want, "the solver's random stream moved:\n{draws:#?}");
}

fn render(rows: &[(String, String)]) -> String {
    rows.iter().map(|(l, s)| format!("    ({l:?}, {s:?}),\n")).collect()
}

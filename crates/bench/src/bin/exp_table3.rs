//! Table III: rewriter statistics per clbg benchmark (program points N,
//! total gadgets A, unique gadgets B, gadgets per point C) for each ROPk,
//! plus the cross-layer compositions (`ROPk-over-1VM`, `1VM-over-ROPk`)
//! the pipeline API makes expressible. The per-(benchmark, config) runs are
//! independent, so they run as one [`raindrop_sched::scoped_map`] batch
//! sized like the DSE batches ([`workers_from_env`]).
//!
//! `--smoke` runs one benchmark under `ROP0.25` and the `ROP0.25-over-1VM`
//! cross-layer row (the CI composition smoke); `--full` widens the ROPk
//! sweep; `--class <name>` swaps the clbg suite for the named workload
//! class's generated programs (seed 1) so the gadget statistics can be
//! re-read per class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop_attacks::fleet::workers_from_env;
use raindrop_bench::*;
use raindrop_obfvm::ImplicitAt;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    config: String,
    program_points: u64,
    total_gadgets: u64,
    unique_gadgets: u64,
    gadgets_per_point: f64,
}

fn main() {
    let full = is_full_run();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ks = if full { ropk_fractions() } else { vec![0.0, 0.25, 1.00] };
    let mut configs: Vec<ObfKind> = if smoke {
        vec![ObfKind::Rop { k: 0.25 }]
    } else {
        ks.iter().map(|k| ObfKind::Rop { k: *k }).collect()
    };
    // The cross-layer rows: the ROP statistics of a chain rewritten over a
    // VM interpreter (much larger N) and of a chain hidden underneath one.
    let cross_k = 0.25;
    configs.push(ObfKind::RopOverVm { k: cross_k, layers: 1, implicit: ImplicitAt::None });
    if !smoke {
        configs.push(ObfKind::VmOverRop { k: cross_k, layers: 1, implicit: ImplicitAt::None });
    }
    let class = class_filter();
    let suite = match class {
        Some(class) => class_workload_list(class, 1),
        None => raindrop_synth::clbg_suite(),
    };
    let workloads = if smoke { &suite[..1] } else { &suite[..] };
    let items: Vec<(raindrop_synth::Workload, ObfKind)> = workloads
        .iter()
        .flat_map(|w| configs.iter().map(move |c| (w.clone(), c.clone())))
        .collect();
    let rows: Vec<Option<Row>> =
        raindrop_sched::scoped_map(workers_from_env(), items, |_, (w, kind)| {
            let run = match kind.pipeline(1).run_program(&w.program, &w.obfuscate) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{} / {}: {e}", w.name, kind.label());
                    return None;
                }
            };
            for (func, reason) in &run.report.failures {
                eprintln!("{} / {}: {func}: {reason}", w.name, kind.label());
            }
            // Aggregate over the (single) ROP pass of the composition; native /
            // pure-VM configurations would have none.
            let rop = run.report.rop_passes();
            let report = rop.first()?;
            let n = report.program_points();
            let stats = report.gadgets;
            let c = if n > 0 { stats.total_used as f64 / n as f64 } else { 0.0 };
            Some(Row {
                benchmark: w.name.clone(),
                config: kind.label(),
                program_points: n,
                total_gadgets: stats.total_used,
                unique_gadgets: stats.unique_used,
                gadgets_per_point: c,
            })
        });
    let rows: Vec<Row> = rows.into_iter().flatten().collect();
    println!("{:<14} {:<22} {:>8} {:>8} {:>8} {:>8}", "BENCHMARK", "CONFIG", "N", "A", "B", "C");
    for r in &rows {
        println!(
            "{:<14} {:<22} {:>8} {:>8} {:>8} {:>8.2}",
            r.benchmark,
            r.config,
            r.program_points,
            r.total_gadgets,
            r.unique_gadgets,
            r.gadgets_per_point
        );
    }
    if smoke {
        assert!(
            rows.iter().any(|r| r.config.contains("-over-")),
            "smoke must exercise a cross-layer pipeline row"
        );
        println!("[exp_table3] smoke run: exp_table3.json left untouched");
        return;
    }
    if let Some(class) = class {
        // Class-filtered runs are ad-hoc re-reads; keep the canonical clbg
        // report file untouched.
        write_json(&format!("exp_table3_{}", class.name()), &rows);
        return;
    }
    write_json("exp_table3", &rows);
}

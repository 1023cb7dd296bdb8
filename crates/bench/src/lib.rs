//! # raindrop-bench
//!
//! The experiment harness: one driver per table/figure of the paper's
//! evaluation (§VII), plus Criterion micro-benchmarks. Each driver prints
//! the same rows/series the paper reports and writes a JSON file next to the
//! textual output so EXPERIMENTS.md can record paper-vs-measured.
//!
//! Binaries (run with `cargo run -p raindrop-bench --release --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_table2` | Table II — secret finding & code coverage under the Table I configurations |
//! | `exp_fig5` | Fig. 5 — run-time slowdown of ROPk vs 2VM-IMPlast on the clbg kernels |
//! | `exp_table3` | Table III — per-benchmark gadget statistics, incl. cross-layer pipeline rows |
//! | `exp_coverage` | §VII-C1 — rewriting coverage over the corpus |
//! | `exp_base64` | §VII-C3 — base64 case study |
//! | `exp_efficacy` | §VII-A — per-predicate efficacy against DSE/TDS/ROP-aware tools |
//! | `exp_materialize` | — chain materialization throughput (`BENCH_materialize.json`) |
//!
//! Every driver composes its obfuscations through [`ObfKind::pipeline`] —
//! one [`raindrop::ObfConfig`] pass list per configuration, including the
//! cross-layer `ROPk-over-nVM` / `nVM-over-ROPk` rows.
//!
//! Every driver accepts `--full` for a larger run and defaults to a
//! laptop-scale quick run (fewer functions, smaller budgets); the scale used
//! is recorded in the JSON output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raindrop::pipeline::{ObfConfig, Pipeline, PipelineError};
use raindrop::RopConfig;
use raindrop_attacks::concolic::{DseBudget, Goal as AttackGoal, InputSpec};
use raindrop_attacks::fleet::{workers_from_env, DseJob};
use raindrop_machine::{EmuError, Emulator, Image};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_synth::{RandomFun, Workload};
use serde::Serialize;
use std::fmt;
use std::time::Duration;

/// An obfuscation configuration of Table I, plus the cross-layer
/// compositions only the pipeline API makes cheap to express.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ObfKind {
    /// Unprotected baseline.
    Native,
    /// `ROPk` — ROP rewriting with P3 at fraction `k`.
    Rop {
        /// P3 fraction `k`.
        k: f64,
    },
    /// `nVM(-IMPx)` — nested virtualization.
    Vm {
        /// Number of layers.
        layers: usize,
        /// Implicit-VPC placement.
        implicit: ImplicitAt,
    },
    /// `ROPk-over-nVM` — the function is virtualized, then the generated
    /// interpreter is ROP-rewritten (ROP is the outer layer).
    RopOverVm {
        /// P3 fraction `k` of the outer ROP layer.
        k: f64,
        /// Number of VM layers underneath.
        layers: usize,
        /// Implicit-VPC placement of the VM layers.
        implicit: ImplicitAt,
    },
    /// `nVM-over-ROPk` — the original body is ROP-rewritten and a VM
    /// interpreter with the public name dispatches into the chain (VM is
    /// the outer layer).
    VmOverRop {
        /// P3 fraction `k` of the inner ROP layer.
        k: f64,
        /// Number of VM layers on top.
        layers: usize,
        /// Implicit-VPC placement of the VM layers.
        implicit: ImplicitAt,
    },
}

impl ObfKind {
    /// The pass list realizing this configuration, in nesting order
    /// (innermost first), so `RopOverVm` is the VM pass then the ROP pass.
    pub fn config(&self) -> ObfConfig {
        let vm = |layers, implicit| VmConfig::with_implicit(layers, implicit);
        match *self {
            ObfKind::Native => ObfConfig::new(),
            ObfKind::Rop { k } => ObfConfig::new().rop(RopConfig::ropk(k)),
            ObfKind::Vm { layers, implicit } => ObfConfig::new().vm(vm(layers, implicit)),
            ObfKind::RopOverVm { k, layers, implicit } => {
                ObfConfig::new().vm(vm(layers, implicit)).rop(RopConfig::ropk(k))
            }
            ObfKind::VmOverRop { k, layers, implicit } => {
                ObfConfig::new().rop(RopConfig::ropk(k)).vm(vm(layers, implicit))
            }
        }
    }

    /// Table I-style label (cross-layer compositions read outer-first, e.g.
    /// `ROP1.00-over-1VM`).
    pub fn label(&self) -> String {
        self.config().label()
    }

    /// The [`Pipeline`] realizing this configuration, with every pass run
    /// under `seed`.
    pub fn pipeline(&self, seed: u64) -> Pipeline {
        self.config().pipeline(seed)
    }
}

/// The configurations of Table II, in the paper's row order. The quick run
/// drops the 3VM rows (their interpreters are enormous in emulation time);
/// `--full` includes them.
pub fn table2_configurations(full: bool) -> Vec<ObfKind> {
    let mut out = vec![ObfKind::Native];
    for k in [0.05, 0.25, 0.50, 0.75, 1.00] {
        out.push(ObfKind::Rop { k });
    }
    out.push(ObfKind::Vm { layers: 1, implicit: ImplicitAt::All });
    out.push(ObfKind::Vm { layers: 2, implicit: ImplicitAt::None });
    out.push(ObfKind::Vm { layers: 2, implicit: ImplicitAt::First });
    out.push(ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last });
    out.push(ObfKind::Vm { layers: 2, implicit: ImplicitAt::All });
    if full {
        out.push(ObfKind::Vm { layers: 3, implicit: ImplicitAt::None });
        out.push(ObfKind::Vm { layers: 3, implicit: ImplicitAt::First });
        out.push(ObfKind::Vm { layers: 3, implicit: ImplicitAt::Last });
        out.push(ObfKind::Vm { layers: 3, implicit: ImplicitAt::All });
    }
    out
}

/// The ROPk fractions used by Fig. 5 and Table III.
pub fn ropk_fractions() -> Vec<f64> {
    vec![0.0, 0.05, 0.25, 0.50, 0.75, 1.00]
}

/// Compiles `program`, applying the obfuscation `kind` to the listed
/// functions through the [`Pipeline`] API (VM passes at the MiniC level
/// before compilation, ROP passes on the compiled image). Strict: any
/// per-target failure is promoted to an error.
///
/// Multi-function ROP preparation follows `Rewriter::rewrite_functions`
/// semantics: the gadget ranges of *all* scheduled functions are retired up
/// front, so no chain can reference a gadget destroyed by a later rewrite.
/// (The pre-pipeline helper retired lazily per function, which could craft
/// such dangling references; images with ≥ 2 rewritten functions therefore
/// differ bitwise from its output. Single-function preparation — including
/// every `BENCH_dse.json` job — is unchanged.)
pub fn prepare_image(
    program: &raindrop_synth::Program,
    functions: &[String],
    kind: &ObfKind,
    seed: u64,
) -> Result<Image, PipelineError> {
    let run = kind.pipeline(seed).run_program(program, functions)?;
    run.into_strict().map(|(image, _)| image)
}

/// Prepares an image for a [`RandomFun`] under a configuration.
pub fn prepare_randomfun(
    rf: &RandomFun,
    kind: &ObfKind,
    seed: u64,
) -> Result<Image, PipelineError> {
    prepare_image(&rf.program, std::slice::from_ref(&rf.name), kind, seed)
}

/// Why [`workload_cycles`] produced no cycle count.
#[derive(Debug)]
pub enum CyclesError {
    /// The configuration could not protect the workload.
    Prepare(PipelineError),
    /// The protected workload did not run to completion (for example, it
    /// exhausted the instruction budget).
    Run(EmuError),
}

impl fmt::Display for CyclesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CyclesError::Prepare(e) => write!(f, "prepare: {e}"),
            CyclesError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for CyclesError {}

/// Runs a workload under a configuration and returns the emulated cycle
/// count (the run-time proxy used for Fig. 5).
pub fn workload_cycles(w: &Workload, kind: &ObfKind, seed: u64) -> Result<u64, CyclesError> {
    let image =
        prepare_image(&w.program, &w.obfuscate, kind, seed).map_err(CyclesError::Prepare)?;
    let mut emu = Emulator::new(&image);
    emu.set_budget(20_000_000_000);
    emu.call_named(&image, &w.entry, &w.args).map_err(CyclesError::Run)?;
    Ok(emu.stats().cycles)
}

/// DSE budgets: the paper gives each attack one hour on a Xeon server; the
/// quick budget is scaled so an unprotected function is cracked in well
/// under a second while a ~50x slowdown still exhausts it.
pub fn dse_budget(quick: bool) -> DseBudget {
    if quick {
        DseBudget {
            total_instructions: 12_000_000,
            per_path_instructions: 2_000_000,
            max_paths: 100,
            max_wall: Duration::from_secs(5),
            ..DseBudget::default()
        }
    } else {
        DseBudget {
            total_instructions: 400_000_000,
            per_path_instructions: 20_000_000,
            max_paths: 2_000,
            max_wall: Duration::from_secs(120),
            ..DseBudget::default()
        }
    }
}

/// One job of the `exp_dse_speed` suite: a prepared image plus the attack
/// to mount on it. The suite is the DSE-bound slice of the Table II quick
/// run (three structures, two input sizes, both goals, three
/// configurations) and must stay stable across PRs — `BENCH_dse.json`
/// compares wall-clock trajectories over exactly this job list.
pub struct DseSpeedJob {
    /// Human-readable job label (`<structure>/<size>/<goal>/<config>`).
    pub label: String,
    /// The prepared (possibly obfuscated) image.
    pub image: Image,
    /// Target function name.
    pub func: String,
    /// How the symbolic input reaches the target.
    pub spec: InputSpec,
    /// The attack goal.
    pub goal: AttackGoal,
}

/// The fixed job list `exp_dse_speed` measures (see [`DseSpeedJob`]).
/// `smoke` trims it to a CI-sized subset.
pub fn dse_speed_suite(smoke: bool) -> Vec<DseSpeedJob> {
    let structures = raindrop_synth::paper_structures();
    let picks: &[usize] = if smoke { &[0] } else { &[0, 1, 3] };
    let sizes: &[usize] = if smoke { &[1] } else { &[1, 4] };
    let configs: &[ObfKind] = if smoke {
        &[ObfKind::Native, ObfKind::Rop { k: 1.00 }]
    } else {
        &[ObfKind::Native, ObfKind::Rop { k: 0.25 }, ObfKind::Rop { k: 1.00 }]
    };
    let mut jobs = Vec::new();
    for &si in picks {
        let (name, structure) = &structures[si];
        for &input_size in sizes {
            for goal in [raindrop_synth::Goal::SecretFinding, raindrop_synth::Goal::CodeCoverage] {
                let rf = raindrop_synth::generate_randomfun(raindrop_synth::RandomFunConfig {
                    structure: structure.clone(),
                    structure_name: name.clone(),
                    input_size,
                    seed: 1,
                    goal,
                    loop_size: 3,
                });
                for kind in configs {
                    let image = prepare_randomfun(&rf, kind, 1).expect("suite image prepares");
                    let goal_label = match goal {
                        raindrop_synth::Goal::SecretFinding => "secret",
                        raindrop_synth::Goal::CodeCoverage => "coverage",
                    };
                    let attack_goal = match goal {
                        raindrop_synth::Goal::SecretFinding => AttackGoal::Secret { want: 1 },
                        raindrop_synth::Goal::CodeCoverage => {
                            AttackGoal::Coverage { total_probes: rf.probe_count }
                        }
                    };
                    jobs.push(DseSpeedJob {
                        label: format!(
                            "s{si}/in{input_size}/{goal_label}/{}",
                            kind.label().to_lowercase()
                        ),
                        image,
                        func: rf.name.clone(),
                        spec: InputSpec::RegisterArg { size_bytes: input_size },
                        goal: attack_goal,
                    });
                }
            }
        }
    }
    jobs
}

/// The budget `exp_dse_speed` gives every job: the Table II quick budget
/// plus a solver-work cap (`smoke` shrinks everything so the CI step
/// finishes in seconds).
///
/// The solver cap is what lets defeated attacks terminate on *work* rather
/// than wall clock: the frozen pre-PR explorer managed ~17 solver calls in
/// the 5 s wall (the cap never bound — the wall always hit first), so its
/// baseline numbers are valid under this budget definition, while the
/// current engine performs the full 600 calls and exits long before the
/// wall.
pub fn dse_speed_budget(smoke: bool) -> DseBudget {
    if smoke {
        DseBudget {
            total_instructions: 2_000_000,
            per_path_instructions: 500_000,
            max_paths: 40,
            max_wall: Duration::from_secs(2),
            max_solver_calls: 200,
            ..DseBudget::default()
        }
    } else {
        DseBudget { max_solver_calls: 600, ..dse_budget(true) }
    }
}

/// The depth-stress workload: a deep P3-heavy ROP chain (`ROP1.00` over a
/// 200-iteration loop with a branch per iteration) whose shadow run builds
/// long dependent expression chains. Under the tree-counted size hazard
/// this workload concretized after a handful of forked branches; the
/// DAG-counted arena keeps it symbolic far deeper. `exp_dse_speed
/// --depth-stress` measures how many distinct branches the explorer forks
/// before the first expression-size hazard.
pub fn depth_stress_randomfun() -> RandomFun {
    raindrop_synth::generate_randomfun(raindrop_synth::RandomFunConfig {
        structure: raindrop_synth::randomfuns::Ctrl::for_(raindrop_synth::randomfuns::Ctrl::if_(
            raindrop_synth::randomfuns::Ctrl::bb(4),
            raindrop_synth::randomfuns::Ctrl::bb(4),
        )),
        structure_name: "(for (if (bb 4) (bb 4)))".into(),
        input_size: 4,
        seed: 7,
        goal: raindrop_synth::Goal::SecretFinding,
        loop_size: depth_stress_loop_size(false),
    })
}

/// The loop trip count of the depth-stress workload (`smoke` shrinks it so
/// the CI step finishes in seconds while still crossing the old tree-size
/// hazard threshold).
pub fn depth_stress_loop_size(smoke: bool) -> u64 {
    if smoke {
        40
    } else {
        200
    }
}

/// A CI-sized variant of [`depth_stress_randomfun`].
pub fn depth_stress_randomfun_smoke() -> RandomFun {
    raindrop_synth::generate_randomfun(raindrop_synth::RandomFunConfig {
        structure: raindrop_synth::randomfuns::Ctrl::for_(raindrop_synth::randomfuns::Ctrl::if_(
            raindrop_synth::randomfuns::Ctrl::bb(4),
            raindrop_synth::randomfuns::Ctrl::bb(4),
        )),
        structure_name: "(for (if (bb 4) (bb 4)))".into(),
        input_size: 4,
        seed: 7,
        goal: raindrop_synth::Goal::SecretFinding,
        loop_size: depth_stress_loop_size(true),
    })
}

/// The budget of the depth-stress run: generous instruction/wall room (one
/// deep path through a ROP1.00 chain costs tens of millions of guest
/// instructions) with tight path/solver caps, because the measurement is
/// about how deep the *first* paths stay symbolic, not about cracking the
/// secret.
pub fn depth_stress_budget(smoke: bool) -> DseBudget {
    if smoke {
        DseBudget {
            total_instructions: 120_000_000,
            per_path_instructions: 12_000_000,
            max_paths: 6,
            max_wall: Duration::from_secs(20),
            max_solver_calls: 60,
            ..DseBudget::default()
        }
    } else {
        DseBudget {
            total_instructions: 600_000_000,
            per_path_instructions: 60_000_000,
            max_paths: 12,
            max_wall: Duration::from_secs(60),
            max_solver_calls: 300,
            ..DseBudget::default()
        }
    }
}

/// One Table II row: secret-finding and coverage results for a
/// configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Configuration label.
    pub config: String,
    /// Functions whose secret was found.
    pub secrets_found: usize,
    /// Average wall-clock seconds of the successful secret attacks.
    pub avg_secret_seconds: f64,
    /// Functions fully covered.
    pub fully_covered: usize,
    /// Functions attempted.
    pub attempted: usize,
    /// Exhausted budget dimensions of the failed attacks, with counts.
    pub exhausted: Vec<(String, usize)>,
}

/// Runs the Table II experiment over the given random functions and
/// configurations. All attacks of all configurations are sharded over one
/// [`raindrop_sched::scoped_map`] batch (worker count from
/// [`workers_from_env`]); results are aggregated per configuration.
pub fn run_table2(
    secret_funs: &[RandomFun],
    coverage_funs: &[RandomFun],
    configs: &[ObfKind],
    budget: DseBudget,
) -> Vec<Table2Row> {
    // Job construction: images are prepared up front (cheap next to the
    // attacks); each job is tagged with its configuration index and goal.
    let mut jobs = Vec::new();
    let mut tags = Vec::new();
    let mut attempted = vec![0usize; configs.len()];
    for (ci, kind) in configs.iter().enumerate() {
        for (rf_secret, rf_cov) in secret_funs.iter().zip(coverage_funs) {
            attempted[ci] += 1;
            if let Ok(image) = prepare_randomfun(rf_secret, kind, 1) {
                jobs.push(DseJob::new(
                    format!("{}/{}/secret", kind.label(), rf_secret.name),
                    image,
                    rf_secret.name.clone(),
                    InputSpec::RegisterArg { size_bytes: rf_secret.config.input_size },
                    budget,
                    AttackGoal::Secret { want: 1 },
                ));
                tags.push((ci, true));
            }
            if let Ok(image) = prepare_randomfun(rf_cov, kind, 1) {
                jobs.push(DseJob::new(
                    format!("{}/{}/coverage", kind.label(), rf_cov.name),
                    image,
                    rf_cov.name.clone(),
                    InputSpec::RegisterArg { size_bytes: rf_cov.config.input_size },
                    budget,
                    AttackGoal::Coverage { total_probes: rf_cov.probe_count },
                ));
                tags.push((ci, false));
            }
        }
    }

    let results = raindrop_sched::scoped_map(workers_from_env(), jobs, |_, job| job.run());

    let mut rows: Vec<Table2Row> = configs
        .iter()
        .enumerate()
        .map(|(ci, kind)| Table2Row {
            config: kind.label(),
            secrets_found: 0,
            avg_secret_seconds: 0.0,
            fully_covered: 0,
            attempted: attempted[ci],
            exhausted: Vec::new(),
        })
        .collect();
    let mut secret_time = vec![0.0f64; configs.len()];
    let mut exhausted: Vec<std::collections::BTreeMap<String, usize>> =
        vec![Default::default(); configs.len()];
    for ((ci, is_secret), result) in tags.into_iter().zip(results) {
        let outcome = result.outcome;
        if outcome.success {
            if is_secret {
                rows[ci].secrets_found += 1;
                secret_time[ci] += outcome.wall.as_secs_f64();
            } else {
                rows[ci].fully_covered += 1;
            }
        } else if let Some(dim) = outcome.exhausted {
            *exhausted[ci].entry(dim.to_string()).or_insert(0) += 1;
        }
    }
    for (ci, row) in rows.iter_mut().enumerate() {
        if row.secrets_found > 0 {
            row.avg_secret_seconds = secret_time[ci] / row.secrets_found as f64;
        }
        row.exhausted = std::mem::take(&mut exhausted[ci]).into_iter().collect();
        eprintln!("  [{}] done", row.config);
    }
    rows
}

/// Parses the optional `--class <name>` filter shared by `exp_workloads`,
/// `exp_table3` and `exp_efficacy`: restricts a run to one registered
/// workload class. Unknown class names abort with the list of valid ones.
pub fn class_filter() -> Option<raindrop_synth::ClassId> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--class")?;
    let name = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("--class requires a class name");
        std::process::exit(2);
    });
    match raindrop_synth::ClassId::from_name(name) {
        Some(class) => Some(class),
        None => {
            let known: Vec<&str> =
                raindrop_synth::ClassId::all().into_iter().map(|c| c.name()).collect();
            eprintln!("unknown workload class {name:?}; known classes: {}", known.join(", "));
            std::process::exit(2);
        }
    }
}

/// The runnable workloads of one class at `seed`, in generation order.
pub fn class_workload_list(class: raindrop_synth::ClassId, seed: u64) -> Vec<Workload> {
    raindrop_synth::classes::generate(class, seed).into_iter().map(|cp| cp.workload).collect()
}

/// Writes a JSON report next to the textual output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = format!("{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("[report written to {path}]");
            }
        }
        Err(e) => eprintln!("could not serialize report: {e}"),
    }
}

/// Parses the common `--full` flag.
pub fn is_full_run() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The `straight_line` dispatch workload shared by the `emu_dispatch`
/// criterion bench and the `exp_emu_dispatch` driver: `rdi` iterations of a
/// 64-instruction unrolled register-only ALU kernel (plus the 2-instruction
/// loop tail), entry `spin`. One builder so both report the same kernel
/// under the same label.
pub fn straight_line_image() -> Image {
    use raindrop_machine::{AluOp, Assembler, Cond, ImageBuilder, Inst, Reg};
    let mut a = Assembler::new();
    let top = a.new_label();
    a.inst(Inst::MovRI(Reg::Rax, 1));
    a.inst(Inst::MovRI(Reg::Rcx, 3));
    a.inst(Inst::MovRI(Reg::Rdx, 5));
    a.bind(top);
    for _ in 0..16 {
        a.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx));
        a.inst(Inst::Alu(AluOp::Xor, Reg::Rcx, Reg::Rdx));
        a.inst(Inst::Alu(AluOp::Add, Reg::Rdx, Reg::Rax));
        a.inst(Inst::Shl(Reg::Rax, 1));
    }
    a.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
    a.jcc(Cond::Ne, top);
    a.inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("spin", a);
    b.build().expect("straight-line image links")
}

/// A synthetic chain shaped like a crafted one — mostly gadget+imm pairs
/// with branch deltas, block markers and unaligned confusion padding —
/// shared by the `materialize` criterion bench and the `exp_materialize`
/// driver so both measure the same layout under the same label.
pub fn synthetic_chain(items: usize, gadget_addr: u64) -> raindrop::Chain {
    use raindrop::{Chain, ChainItem, DeltaTarget};
    use raindrop_analysis::BlockId;
    use raindrop_gadgets::GadgetOp;
    let mut chain = Chain::new();
    let mut block = 0usize;
    for i in 0..items {
        match i % 8 {
            0 => {
                chain.items.push(ChainItem::BlockStart(BlockId(block)));
                block += 1;
            }
            1 | 4 | 6 => chain.items.push(ChainItem::Gadget {
                addr: gadget_addr,
                junk_pops: usize::from(i % 16 == 4),
                op: GadgetOp::Unclassified,
            }),
            2 | 5 => chain.items.push(ChainItem::Imm(i as u64)),
            3 => chain.items.push(ChainItem::BranchDelta {
                target: DeltaTarget::Item(i - 2),
                anchor: i - 2,
                bias: 0,
            }),
            _ => chain.items.push(ChainItem::Pad(vec![0xAA; 3])),
        }
    }
    chain
}

/// An image with `funcs` rewritable functions (`f0`..), each big enough for
/// the pivot stub — the materialization-bench workload image.
pub fn many_function_image(funcs: usize) -> Image {
    use raindrop_machine::{Assembler, ImageBuilder, Inst, Reg};
    let mut b = ImageBuilder::new();
    for i in 0..funcs {
        let mut a = Assembler::new();
        for _ in 0..12 {
            a.inst(Inst::MovRI(Reg::Rax, 7));
        }
        a.inst(Inst::Ret);
        b.add_function(format!("f{i}"), a);
    }
    b.build().expect("image links")
}

/// Generates a laptop-scale subset of the 72-function population: one seed
/// per structure and the two smallest input sizes (quick) or the full 72
/// (`full`).
pub fn randomfun_population(goal: raindrop_synth::Goal, full: bool) -> Vec<RandomFun> {
    if full {
        raindrop_synth::paper_suite(goal, 8)
    } else {
        raindrop_synth::paper_structures()
            .into_iter()
            .flat_map(|(name, structure)| {
                [1usize, 4].into_iter().map(move |input_size| {
                    raindrop_synth::generate_randomfun(raindrop_synth::RandomFunConfig {
                        structure: structure.clone(),
                        structure_name: name.clone(),
                        input_size,
                        seed: 1,
                        goal,
                        loop_size: 3,
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_synth::{randomfuns, Goal};

    fn tiny_rf(goal: Goal) -> RandomFun {
        randomfuns::generate(raindrop_synth::RandomFunConfig {
            structure: randomfuns::Ctrl::if_(randomfuns::Ctrl::bb(4), randomfuns::Ctrl::bb(4)),
            structure_name: "(if (bb 4) (bb 4))".into(),
            input_size: 1,
            seed: 2,
            goal,
            loop_size: 2,
        })
    }

    #[test]
    fn table2_configuration_list_matches_table_i() {
        let configs = table2_configurations(true);
        assert_eq!(configs.len(), 15);
        assert_eq!(configs[0].label(), "NATIVE");
        assert_eq!(configs[1].label(), "ROP0.05");
        assert_eq!(configs.last().unwrap().label(), "3VM-IMPall");
        assert!(table2_configurations(false).len() < 15);
    }

    #[test]
    fn prepare_image_supports_all_kinds() {
        let rf = tiny_rf(Goal::SecretFinding);
        for kind in [
            ObfKind::Native,
            ObfKind::Rop { k: 0.0 },
            ObfKind::Vm { layers: 1, implicit: ImplicitAt::None },
            ObfKind::RopOverVm { k: 0.0, layers: 1, implicit: ImplicitAt::None },
            ObfKind::VmOverRop { k: 0.0, layers: 1, implicit: ImplicitAt::None },
        ] {
            let image = prepare_randomfun(&rf, &kind, 1).expect("prepares");
            let mut emu = Emulator::new(&image);
            emu.set_budget(200_000_000);
            assert_eq!(
                emu.call_named(&image, &rf.name, &[rf.secret_input]).unwrap(),
                1,
                "{} preserves semantics",
                kind.label()
            );
        }
    }

    #[test]
    fn native_is_cracked_and_not_easier_than_rop_under_the_quick_budget() {
        let rf = tiny_rf(Goal::SecretFinding);
        let budget = dse_budget(true);
        let rows = run_table2(
            std::slice::from_ref(&rf),
            &[tiny_rf(Goal::CodeCoverage)],
            &[ObfKind::Native, ObfKind::Rop { k: 1.0 }],
            budget,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].secrets_found, 1, "native function cracked");
        assert!(rows[1].secrets_found <= rows[0].secrets_found);
    }

    #[test]
    fn cross_layer_labels_read_outer_first() {
        let rop_over_vm = ObfKind::RopOverVm { k: 1.0, layers: 2, implicit: ImplicitAt::Last };
        assert_eq!(rop_over_vm.label(), "ROP1.00-over-2VM-IMPlast");
        let vm_over_rop = ObfKind::VmOverRop { k: 0.25, layers: 1, implicit: ImplicitAt::None };
        assert_eq!(vm_over_rop.label(), "1VM-over-ROP0.25");
    }

    #[test]
    fn workload_cycles_grow_with_obfuscation() {
        let w = raindrop_synth::workloads::pidigits();
        let native = workload_cycles(&w, &ObfKind::Native, 1).unwrap();
        let rop = workload_cycles(&w, &ObfKind::Rop { k: 0.05 }, 1).unwrap();
        assert!(native > 0);
        assert!(rop > native, "ROP rewriting costs cycles ({rop} vs {native})");
    }
}

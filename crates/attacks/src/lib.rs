//! # raindrop-attacks
//!
//! The attacker toolbox of the *raindrop* reproduction: the automated
//! deobfuscation techniques §III and §VII of the paper measure the
//! obfuscation against.
//!
//! * [`sym`] — the symbolic-expression language: a hash-consed arena of
//!   interned [`ExprId`] nodes with algebraic simplification at
//!   construction time, plus the inversion helper the search solver leans
//!   on;
//! * [`solver`] — constraint feasibility: the inversion-plus-random
//!   [`SearchSolver`] and the duplicate-safe [`SetDigest`] used for
//!   solve-cache keys;
//! * [`concolic`] — dynamic symbolic execution (the S2E stand-in): shadowed
//!   concrete runs, path constraints, generational search with fork-point
//!   snapshot restores and a normalized constraint/solve cache, goals G1
//!   (secret finding) and G2 (code coverage), all under explicit work
//!   budgets;
//! * [`fleet`] — self-contained [`DseJob`]s and [`workers_from_env`], the
//!   worker count batches of them run on through
//!   [`raindrop_sched::scoped_map`];
//! * [`campaign`] — a checkpointed, resumable [`Campaign`] driver over many
//!   DSE jobs: one completion-driven loop over a FIFO scheduler, durable
//!   checksum-sealed checkpoints, kill-and-resume convergence, bounded
//!   retry of panicked slices and a fault-injection harness;
//! * [`tds`] — taint-driven simplification of execution traces (attack
//!   surface A3);
//! * [`ropaware`] — ROPMEMU-style flag-flip exploration and
//!   ROPDissector-style gadget guessing (attack surfaces A2/A1);
//! * [`static_lift`] — the strongest static attacker: per-gadget semantic
//!   summaries walked with a symbolic stack pointer, stopped only by the
//!   paper's opaque predicates (attack surface A1, done properly).
//!
//! # Example
//!
//! ```
//! use raindrop_attacks::concolic::{DseAttack, DseBudget, Goal, InputSpec};
//! use raindrop_synth::{codegen, randomfuns};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small point-test function and crack its secret.
//! let rf = randomfuns::generate(raindrop_synth::RandomFunConfig {
//!     structure: randomfuns::Ctrl::if_(randomfuns::Ctrl::bb(4), randomfuns::Ctrl::bb(4)),
//!     structure_name: "(if (bb 4) (bb 4))".into(),
//!     input_size: 2,
//!     seed: 1,
//!     goal: randomfuns::Goal::SecretFinding,
//!     loop_size: 2,
//! });
//! let image = codegen::compile(&rf.program)?;
//! let mut attack = DseAttack::new(
//!     &image,
//!     &rf.name,
//!     InputSpec::RegisterArg { size_bytes: 2 },
//!     DseBudget::default(),
//! );
//! let outcome = attack.run(Goal::Secret { want: 1 });
//! assert!(outcome.success);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod concolic;
pub mod fleet;
mod hashing;
pub mod ropaware;
pub mod solver;
pub mod static_lift;
pub mod sym;
pub mod tds;

pub use campaign::{
    job_fingerprint, replay_log, Campaign, CampaignConfig, CampaignJobReport, CampaignReport,
    CampaignStats, CampaignStatus, CheckpointRecord, FaultPlan, JobState,
};
pub use concolic::{
    shadow_run, DseAttack, DseAudit, DseBudget, DseExhaustion, DseExplorer, DseFrontier,
    DseOutcome, ExploreMode, Goal, InputSpec, PathRecord, ShadowRun,
};
pub use fleet::{workers_from_env, DseJob, DseJobResult};
pub use ropaware::{chain_symbol, flip_exploration, gadget_guess, FlipReport, GuessReport};
pub use solver::{Assignment, Constraint, SearchSolver, SetDigest, VarDomain};
pub use static_lift::{lift_function, lift_image, LiftReport};
pub use sym::{invert, BinKind, EvalMemo, ExprArena, ExprId, UnKind};
pub use tds::{simplify, simplify_trace, TdsReport};

//! Self-contained DSE jobs, and the worker count that batches of them run
//! on.
//!
//! The DSE-bound experiment suites (`exp_table2`, `exp_efficacy`,
//! `exp_dse_speed`) attack many corpus functions independently: each
//! [`DseJob`] is one attack, and a batch of them runs through
//! [`raindrop_sched::scoped_map`] (`|_, job| job.run()`) on
//! [`workers_from_env`] threads — the same work-stealing primitives that
//! drive the protection server. Each worker owns its emulators outright —
//! the fork-point engine inside every [`DseAttack`] keeps one warm emulator
//! per job and revives it between paths with [`Snapshot`] restores (and
//! forks of it are cheap, see [`Emulator::fork`]), and each attack owns its
//! hash-consed expression arena and solver outright (`ExprId`s never cross
//! a job boundary; the solve cache's structural-hash keys are
//! arena-independent but private to the attack), so no state is shared and
//! no locking happens on the hot path; the queue is touched once per job.
//!
//! Jobs are deterministic and independent, so under *work-bounded*
//! budgets (instructions, paths, solver calls) the result of a batch does
//! not depend on the worker count — 1 and N workers produce identical
//! outcomes in identical order (pinned by the
//! `fleet_results_are_independent_of_worker_count` test). The one caveat
//! is [`DseBudget::max_wall`]: it measures real time, so oversubscribing
//! workers past the machine's cores slows every attack down and can push
//! a wall-bounded attack over its limit that a 1-worker run would finish.
//!
//! [`Emulator::fork`]: raindrop_machine::Emulator::fork
//! [`Snapshot`]: raindrop_machine::Snapshot

use crate::concolic::{DseAttack, DseBudget, DseOutcome, ExploreMode, Goal, InputSpec};
use raindrop_machine::Image;

/// One DSE job: everything needed to mount a self-contained
/// attack on one function of one prepared image.
pub struct DseJob {
    /// Job label carried through to the result (e.g. `"<config>/<fun>"`).
    pub label: String,
    /// The prepared (possibly obfuscated) image.
    pub image: Image,
    /// Target function name.
    pub func: String,
    /// How the symbolic input reaches the target.
    pub spec: InputSpec,
    /// Work limits for this attack.
    pub budget: DseBudget,
    /// The attack goal.
    pub goal: Goal,
    /// Explore mode (fork-point snapshots or the re-run reference oracle).
    pub mode: ExploreMode,
}

impl DseJob {
    /// Convenience constructor using the production fork-point mode.
    pub fn new(
        label: impl Into<String>,
        image: Image,
        func: impl Into<String>,
        spec: InputSpec,
        budget: DseBudget,
        goal: Goal,
    ) -> DseJob {
        DseJob {
            label: label.into(),
            image,
            func: func.into(),
            spec,
            budget,
            goal,
            mode: ExploreMode::ForkPoint,
        }
    }

    /// Runs this job to completion (self-contained, so it can run on any
    /// worker of a [`raindrop_sched::scoped_map`] batch).
    pub fn run(self) -> DseJobResult {
        let mut attack = DseAttack::new(&self.image, &self.func, self.spec.clone(), self.budget)
            .with_mode(self.mode);
        let outcome = attack.run(self.goal);
        DseJobResult { label: self.label, outcome }
    }
}

/// The outcome of one [`DseJob`], tagged with its label.
#[derive(Debug, Clone)]
pub struct DseJobResult {
    /// The label of the job that produced this result.
    pub label: String,
    /// The attack outcome.
    pub outcome: DseOutcome,
}

/// The worker count for DSE batches and campaigns: `RAINDROP_DSE_WORKERS`
/// when it is set to a number, otherwise the machine's available
/// parallelism; never less than 1.
pub fn workers_from_env() -> usize {
    std::env::var("RAINDROP_DSE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_clamped_and_env_independent_by_default() {
        assert!(workers_from_env() >= 1);
    }
}

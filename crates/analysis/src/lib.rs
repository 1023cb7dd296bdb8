//! # raindrop-analysis
//!
//! Binary analyses supporting the ROP rewriter of the *raindrop*
//! reproduction. These stand in for the off-the-shelf tooling the paper
//! leans on (Ghidra/angr/radare2 for CFG reconstruction, angr for liveness
//! and symbolic-register discovery):
//!
//! * [`absint`] — gadget-semantics summaries and stack-delta abstract
//!   interpretation over ROP chain data (the attacker's static model);
//! * [`mod@cfg`] — control-flow-graph reconstruction from function bytes,
//!   including the switch-table heuristic of the paper's appendix;
//! * [`liveness`] — backward register and condition-flag liveness, with
//!   the argument registers each callee of an image reads;
//! * [`dataflow`] — forward "input-derived register" analysis used to place
//!   the P3 predicate.
//!
//! # Example
//!
//! ```
//! use raindrop_machine::{Assembler, ImageBuilder, Inst, Reg};
//! use raindrop_analysis::{liveness, ArgSummary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! asm.inst(Inst::MovRR(Reg::Rax, Reg::Rdi)).inst(Inst::Ret);
//! let mut builder = ImageBuilder::new();
//! builder.add_function("id", asm);
//! let image = builder.build()?;
//! let mut args = ArgSummary::default();
//! let graph = args.cover(&image, "id", |_| false)?;
//! let live = liveness::analyze(&graph, &args);
//! assert!(live.live_in[graph.entry().0].contains(Reg::Rdi));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod liveness;

pub use absint::{
    recovery_score, summarize, AbsVal, ChainWalk, ChainWalker, GadgetExit, GadgetSummary,
    RecoveryScore, StopReason, SummaryError,
};
pub use cfg::{BasicBlock, BlockId, Cfg, CfgError, FuncCode, Terminator};
pub use dataflow::{input_derived, InputDerived};
pub use liveness::{ArgSummary, Liveness};

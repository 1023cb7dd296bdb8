//! # raindrop
//!
//! A Rust reproduction of the ROP-based program obfuscator from
//! *"Hiding in the Particles: When Return-Oriented Programming Meets Program
//! Obfuscation"* (Borrello, Coppa, D'Elia — DSN 2021).
//!
//! The crate rewrites compiled RM64 functions (see `raindrop-machine`) into
//! self-contained ROP chains stored in the binary's data section, preserving
//! the original stack behaviour through a stack-switching runtime so that
//! ROP and native code interoperate seamlessly. Three strengthening
//! predicates raise the bar against automated deobfuscation:
//!
//! * **P1** hides branch displacements behind a periodic opaque array;
//! * **P2** ties the control flow to data through opaque stack-pointer
//!   adjustments on equality branches;
//! * **P3** widens the explorable state space with input-coupled opaque
//!   loops and implicit-flow array updates.
//!
//! Gadget confusion (diversified artificial gadgets, disguised immediates,
//! unaligned RSP updates) additionally defeats byte-pattern scanning.
//!
//! Obfuscations compose through the [`pipeline`] module: an [`ObfConfig`]
//! lists ROP and VM passes in nesting order, and the [`Pipeline`] it builds
//! runs them all with one seed and differentially verifies the result
//! against the unobfuscated baseline.
//!
//! # Example
//!
//! ```
//! use raindrop::pipeline::{ObfConfig, VerifyPolicy};
//! use raindrop::RopConfig;
//! use raindrop_machine::{AluOp, Assembler, Emulator, ImageBuilder, Inst, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy compiled function: f(x) = x * 2 + 1 with a stack frame.
//! use raindrop_machine::Mem;
//! let mut asm = Assembler::new();
//! asm.inst(Inst::Push(Reg::Rbp))
//!     .inst(Inst::MovRR(Reg::Rbp, Reg::Rsp))
//!     .inst(Inst::AluI(AluOp::Sub, Reg::Rsp, 16))
//!     .inst(Inst::Store(Mem::base_disp(Reg::Rbp, -8), Reg::Rdi))
//!     .inst(Inst::StoreI(Mem::base_disp(Reg::Rbp, -16), 0))
//!     .inst(Inst::Load(Reg::Rax, Mem::base_disp(Reg::Rbp, -8)))
//!     .inst(Inst::AluM(AluOp::Add, Reg::Rax, Mem::base_disp(Reg::Rbp, -16)))
//!     .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rax))
//!     .inst(Inst::AluI(AluOp::Add, Reg::Rax, 1))
//!     .inst(Inst::Leave)
//!     .inst(Inst::Ret);
//! let mut builder = ImageBuilder::new();
//! builder.add_function("double_plus_one", asm);
//! let original = builder.build()?;
//!
//! // Rewrite it into a ROP chain through the pipeline, with built-in
//! // differential verification against the original image.
//! let run = ObfConfig::new()
//!     .rop(RopConfig::full())
//!     .pipeline(42)
//!     .verify(VerifyPolicy::Batch)
//!     .run_image(&original, &["double_plus_one"])?;
//! assert!(run.report.all_verified());
//!
//! // Same observable behaviour.
//! let obfuscated = run.image;
//! let mut emu = Emulator::new(&obfuscated);
//! assert_eq!(emu.call_named(&obfuscated, "double_plus_one", &[20])?, 41);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod config;
pub mod craft;
pub mod error;
pub mod lint;
pub mod materialize;
pub mod pipeline;
pub mod predicates;
pub mod rewriter;
pub mod roplet;
pub mod runtime;
pub mod stable;
pub mod verify;

pub use chain::{Chain, ChainItem, ChainScratch, DeltaTarget, ResolvedChain, SwitchPatch};
pub use config::{P1Config, P3Variant, RopConfig};
pub use craft::{CraftStats, Crafter};
pub use error::{FailureClass, RewriteError};
pub use lint::{lint_function, lint_program, RewriteLint};
pub use materialize::{MaterializeCtx, Materialized};
pub use pipeline::{
    AuditEntry, ObfConfig, ObfReport, PassReport, PassSpec, Pipeline, PipelineError, PipelineRun,
    PipelineWarm, TargetError, VerifyPolicy, VmCode,
};
pub use predicates::{P1Instance, P2Adjust, P2Operand, P3Policy};
pub use rewriter::{ImageReport, RewriteReport, Rewriter};
pub use roplet::{classify as classify_roplet, Roplet, RopletKind};
pub use runtime::{RopRuntime, FUNC_RET_SYMBOL, SPILL_SYMBOL, SS_SYMBOL};
pub use stable::{stable_hash_bytes, FieldBag, StableHasher};
pub use verify::{
    audit_rop_function, audit_rop_image, audit_symbols, audit_vm_code, check_case, equivalent,
    verify_batch, StaticDiagnostic, TestCase, Verdict,
};

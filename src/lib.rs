//! Workspace-level umbrella crate for the raindrop ROP-obfuscation
//! reproduction (Borrello, Coppa & D'Elia, DSN 2021).
//!
//! This crate carries the repository's end-to-end integration suites
//! (`tests/`) and the paper-figure examples (`examples/`); its library
//! target simply re-exports the workspace crates so downstream users can
//! depend on a single package:
//!
//! * [`machine`] — the RM64 machine model, encoder, and emulator;
//! * [`gadgets`] — gadget scanning, synthesis, and the diversified catalog;
//! * [`analysis`] — CFG / liveness / input-derived dataflow analyses;
//! * [`core`] — the ROP rewriter, strengthening predicates, runtime, and
//!   the composable obfuscation pipeline (`raindrop::pipeline`);
//! * [`synth`] — mini-C workload synthesis and RM64 codegen;
//! * [`obfvm`] — the baseline virtualization obfuscator;
//! * [`attacks`] — the deobfuscation attack models: the fork-point DSE
//!   engine, DSE jobs and campaigns, taint slicing, and the ROP-aware tools;
//! * [`mod@bench`] — experiment drivers for the paper's figures and
//!   tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use raindrop as core;
pub use raindrop_analysis as analysis;
pub use raindrop_attacks as attacks;
pub use raindrop_bench as bench;
pub use raindrop_gadgets as gadgets;
pub use raindrop_machine as machine;
pub use raindrop_obfvm as obfvm;
pub use raindrop_synth as synth;

//! # raindrop-gadgets
//!
//! Gadget discovery, synthesis and management for the *raindrop* ROP
//! obfuscator: the reproduction of the "Gadget Finder" component of the
//! rewriter architecture (Fig. 2 of the DSN'21 paper).
//!
//! * [`gadget`] — gadget model and classification;
//! * [`scan`] — ret-oriented scanning of `.text` (also reused by the
//!   attacker-side gadget-guessing analysis);
//! * [`synth`] — artificial, diversified gadget synthesis;
//! * [`catalog`] — the unified pool the chain crafter draws from, with the
//!   usage statistics reported in Table III.
//!
//! # Example
//!
//! ```
//! use raindrop_gadgets::{CatalogConfig, GadgetCatalog, GadgetOp};
//! use raindrop_machine::{Assembler, ImageBuilder, Inst, Reg, RegSet};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! asm.inst(Inst::Ret);
//! let mut builder = ImageBuilder::new();
//! builder.add_function("stub", asm);
//! let mut image = builder.build()?;
//! let mut catalog = GadgetCatalog::from_image(&image, CatalogConfig::default());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! // `request` lends the gadget out of the pool: copy what you need before
//! // using the catalog again.
//! let addr = catalog
//!     .request(&mut image, GadgetOp::Pop(Reg::Rdi), RegSet::EMPTY, false, &mut rng)
//!     .addr;
//! assert!(image.in_text(addr));
//! assert_eq!(catalog.stats().total_used, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod gadget;
pub mod scan;
pub mod synth;

pub use catalog::{CatalogConfig, GadgetCatalog, GadgetStats};
pub use gadget::{classify, Gadget, GadgetEnding, GadgetOp};
pub use scan::{scan_bytes, scan_image, speculative_decode, ScanConfig};
pub use synth::{synthesize, SynthConfig};

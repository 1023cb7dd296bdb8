//! Rewriting errors.

use raindrop_analysis::CfgError;
use raindrop_machine::{AsmError, ImageError};
use std::fmt;

/// Errors produced by the ROP rewriter.
///
/// Several of these correspond to the failure classes reported for the
/// coreutils coverage experiment of §VII-C1 (register pressure, unsupported
/// stack idioms, CFG reconstruction failures); they are kept distinct so the
/// coverage experiment can bucket them the same way.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// CFG reconstruction failed.
    Cfg(CfgError),
    /// Image manipulation failed.
    Image(ImageError),
    /// Assembling the pivot stub failed.
    Asm(AsmError),
    /// The function body is too short to hold the pivot stub.
    FunctionTooShort {
        /// Size of the function in bytes.
        size: u64,
        /// Bytes required by the pivot stub.
        needed: u64,
    },
    /// Lowering an instruction needed more scratch registers than liveness
    /// leaves free (the rewriter does not spill).
    RegisterPressure {
        /// Address of the instruction that could not be lowered.
        addr: u64,
    },
    /// The translation stage does not handle this instruction.
    UnsupportedInstruction {
        /// Address of the instruction.
        addr: u64,
        /// Rendered instruction text.
        inst: String,
    },
    /// Flags are live across a lowering that must pollute them and no
    /// preservation strategy applies.
    FlagsLiveAcrossLowering {
        /// Address of the instruction.
        addr: u64,
    },
    /// The function was already rewritten.
    AlreadyRewritten {
        /// Function name.
        name: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Cfg(e) => write!(f, "CFG reconstruction failed: {e}"),
            RewriteError::Image(e) => write!(f, "image error: {e}"),
            RewriteError::Asm(e) => write!(f, "assembly error: {e}"),
            RewriteError::FunctionTooShort { size, needed } => {
                write!(f, "function too short for pivot stub ({size} < {needed} bytes)")
            }
            RewriteError::RegisterPressure { addr } => {
                write!(f, "register pressure too high at {addr:#x}")
            }
            RewriteError::UnsupportedInstruction { addr, inst } => {
                write!(f, "unsupported instruction `{inst}` at {addr:#x}")
            }
            RewriteError::FlagsLiveAcrossLowering { addr } => {
                write!(f, "condition flags live across an unpreservable lowering at {addr:#x}")
            }
            RewriteError::AlreadyRewritten { name } => {
                write!(f, "function `{name}` was already rewritten")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<CfgError> for RewriteError {
    fn from(e: CfgError) -> Self {
        RewriteError::Cfg(e)
    }
}

impl From<ImageError> for RewriteError {
    fn from(e: ImageError) -> Self {
        RewriteError::Image(e)
    }
}

impl From<AsmError> for RewriteError {
    fn from(e: AsmError) -> Self {
        RewriteError::Asm(e)
    }
}

/// Coarse failure classes used by the deployability experiment (§VII-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FailureClass {
    /// Lowering ran out of free scratch registers.
    RegisterPressure,
    /// An instruction shape the translator does not handle.
    UnsupportedInstruction,
    /// CFG reconstruction failed.
    CfgReconstruction,
    /// Function shorter than the pivot stub.
    TooShort,
    /// Any other failure.
    Other,
}

impl RewriteError {
    /// Buckets the error into the coverage experiment's failure classes.
    pub fn failure_class(&self) -> FailureClass {
        match self {
            RewriteError::RegisterPressure { .. } => FailureClass::RegisterPressure,
            RewriteError::UnsupportedInstruction { .. } => FailureClass::UnsupportedInstruction,
            RewriteError::Cfg(_) => FailureClass::CfgReconstruction,
            RewriteError::FunctionTooShort { .. } => FailureClass::TooShort,
            _ => FailureClass::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_classes_match_error_kinds() {
        assert_eq!(
            RewriteError::RegisterPressure { addr: 0 }.failure_class(),
            FailureClass::RegisterPressure
        );
        assert_eq!(
            RewriteError::FunctionTooShort { size: 4, needed: 60 }.failure_class(),
            FailureClass::TooShort
        );
        assert_eq!(
            RewriteError::UnsupportedInstruction { addr: 0, inst: "x".into() }.failure_class(),
            FailureClass::UnsupportedInstruction
        );
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = RewriteError::FunctionTooShort { size: 10, needed: 60 };
        assert!(format!("{e}").contains("pivot stub"));
        let e = RewriteError::RegisterPressure { addr: 0x1234 };
        assert!(format!("{e}").contains("0x1234"));
    }
}

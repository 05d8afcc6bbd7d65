//! Error type of the static-timing layer.

use std::fmt;

use tsense_core::ModelError;

/// Errors produced by the STA engine, its delay model and validators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StaError {
    /// An analytical delay-model evaluation failed.
    Model(ModelError),
    /// Building the gate-level netlist of a ring failed.
    Build(dsim::BuildError),
    /// A simulator-side operation failed during cross-validation.
    Sim(dsim::DsimError),
    /// The analyzed netlist contains no combinational loop, so no
    /// oscillation period can be extracted.
    NoOscillator,
    /// The loop has even inversion parity: it latches into one of two
    /// stable states instead of oscillating (`dsim`'s `ring_oscillator`
    /// refuses such a ring as `EvenInversionRing`), so it has **no**
    /// period — reporting one would be bogus.
    NonOscillating {
        /// Gates on the loop.
        stages: usize,
        /// How many of them invert.
        inversions: usize,
    },
    /// The strongly connected component is not a simple ring (some gate
    /// has more than one in-loop input), so a closed-form period does
    /// not exist.
    TangledLoop {
        /// Gates in the component.
        gates: usize,
    },
    /// A ring description was empty or otherwise unusable.
    BadRing {
        /// Why it was rejected.
        reason: String,
    },
    /// A cell-mix specification string did not parse.
    BadMixSpec {
        /// The offending specification.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// STA-vs-simulation cross-validation disagreed beyond tolerance.
    Validation {
        /// Human-readable description of the disagreement.
        message: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Model(e) => write!(f, "delay model error: {e}"),
            StaError::Build(e) => write!(f, "ring construction error: {e}"),
            StaError::Sim(e) => write!(f, "simulator error: {e}"),
            StaError::NoOscillator => {
                write!(
                    f,
                    "netlist has no combinational loop to extract a period from"
                )
            }
            StaError::NonOscillating { stages, inversions } => write!(
                f,
                "loop of {stages} stage(s) has {inversions} inversion(s): even parity \
                 latches instead of oscillating, so it has no period"
            ),
            StaError::TangledLoop { gates } => write!(
                f,
                "combinational loop through {gates} gate(s) is not a simple ring"
            ),
            StaError::BadRing { reason } => write!(f, "invalid ring: {reason}"),
            StaError::BadMixSpec { spec, reason } => {
                write!(f, "cannot parse cell mix `{spec}`: {reason}")
            }
            StaError::Validation { message } => write!(f, "cross-validation failed: {message}"),
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StaError::Model(e) => Some(e),
            StaError::Build(e) => Some(e),
            StaError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StaError {
    fn from(e: ModelError) -> Self {
        StaError::Model(e)
    }
}

impl From<dsim::BuildError> for StaError {
    fn from(e: dsim::BuildError) -> Self {
        StaError::Build(e)
    }
}

impl From<dsim::DsimError> for StaError {
    fn from(e: dsim::DsimError) -> Self {
        StaError::Sim(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = StaError::NonOscillating {
            stages: 4,
            inversions: 4,
        };
        assert!(e.to_string().contains("even parity"), "{e}");
        let e: StaError = dsim::BuildError::RingTooShort { stages: 1 }.into();
        assert!(e.to_string().contains("ring construction"), "{e}");
    }

    #[test]
    fn error_traits() {
        fn ok<E: std::error::Error + Send + Sync + 'static>() {}
        ok::<StaError>();
    }
}

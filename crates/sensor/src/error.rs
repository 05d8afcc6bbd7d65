//! Error type of the smart-sensor layer.

use std::fmt;

use tsense_core::ModelError;

/// Errors produced by the smart unit and its subsystems.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SensorError {
    /// An underlying analytical-model evaluation failed.
    Model(ModelError),
    /// A thermal-substrate operation failed.
    Thermal(thermal::ThermalError),
    /// A gate-level simulator operation failed.
    Sim(dsim::DsimError),
    /// The unit was asked for a reading while no measurement is complete.
    NotReady,
    /// A configuration value was out of its domain.
    InvalidConfig {
        /// Reason the configuration is rejected.
        reason: String,
    },
    /// A multiplexer channel outside the array was addressed.
    BadChannel {
        /// Requested channel.
        channel: usize,
        /// Number of channels present.
        available: usize,
    },
    /// The conversion window never closed — the sensing ring shows no
    /// activity (dead or stuck oscillator).
    ConversionTimeout,
    /// Repeated digitizer captures kept disagreeing (metastable capture
    /// path) even after the bounded retry budget.
    CaptureUnstable {
        /// Double-capture attempts made before giving up.
        attempts: u32,
    },
    /// Every ring of an array is quarantined — no surviving channel can
    /// serve a degraded reading.
    NoHealthyRings {
        /// Total number of sites in the array.
        total: usize,
        /// How many of them are quarantined.
        quarantined: usize,
    },
}

impl fmt::Display for SensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorError::Model(e) => write!(f, "model error: {e}"),
            SensorError::Thermal(e) => write!(f, "thermal error: {e}"),
            SensorError::Sim(e) => write!(f, "simulator error: {e}"),
            SensorError::NotReady => write!(f, "no completed measurement available"),
            SensorError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SensorError::BadChannel { channel, available } => {
                write!(f, "channel {channel} out of range (array has {available})")
            }
            SensorError::ConversionTimeout => {
                write!(f, "conversion window never closed: ring shows no activity")
            }
            SensorError::CaptureUnstable { attempts } => {
                write!(
                    f,
                    "digitizer captures kept disagreeing after {attempts} double-capture attempts"
                )
            }
            SensorError::NoHealthyRings { total, quarantined } => {
                write!(
                    f,
                    "no healthy rings: {quarantined} of {total} sites quarantined"
                )
            }
        }
    }
}

impl std::error::Error for SensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SensorError::Model(e) => Some(e),
            SensorError::Thermal(e) => Some(e),
            SensorError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SensorError {
    fn from(e: ModelError) -> Self {
        SensorError::Model(e)
    }
}

impl From<thermal::ThermalError> for SensorError {
    fn from(e: thermal::ThermalError) -> Self {
        SensorError::Thermal(e)
    }
}

impl From<dsim::DsimError> for SensorError {
    fn from(e: dsim::DsimError) -> Self {
        SensorError::Sim(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: SensorError = ModelError::NoOverdrive { at_celsius: 160.0 }.into();
        assert!(e.to_string().contains("model error"));
        assert!(std::error::Error::source(&e).is_some());
        let e: SensorError = thermal::ThermalError::NoConvergence { sweeps: 3 }.into();
        assert!(e.to_string().contains("thermal"));
        assert!(SensorError::NotReady.to_string().contains("measurement"));
        assert!(SensorError::BadChannel {
            channel: 9,
            available: 4
        }
        .to_string()
        .contains("9"));
    }

    #[test]
    fn error_traits() {
        fn ok<E: std::error::Error + Send + Sync + 'static>() {}
        ok::<SensorError>();
    }
}

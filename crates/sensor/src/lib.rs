//! # sensor — the smart temperature-sensor unit
//!
//! The paper's Section 3 system: a ring-oscillator sensing element wired
//! to a digital processing block that converts the oscillation period to
//! a temperature word, with enable/disable control, a busy flag, and a
//! multiplexer over distributed oscillators for thermal mapping.
//!
//! * [`fsm`] — the measurement controller (Idle → Settle → Measure →
//!   Done), which keeps the oscillator off between conversions;
//! * [`digitizer`] — period-to-count conversion, both behavioural and as
//!   a real gate-level counter design simulated on [`dsim`];
//! * [`mod@unit`] — the assembled [`unit::SmartSensorUnit`] with code-domain
//!   two-point calibration;
//! * [`selfheat`] — quantifies the benefit of the disable feature;
//! * [`noise`] — period jitter and averaging/median filtering;
//! * [`alarm`] — threshold comparator with hysteresis and a polling
//!   thermal watchdog (the thermal-management layer);
//! * [`muxscan`] — the multiplexer at gate level: one shared digitizer
//!   scanned over N ring oscillators through a NAND mux tree;
//! * [`gateunit`] — the complete smart unit as gates: one-hot FSM,
//!   settle/measure timers, oscillator gating, busy/done handshake and
//!   the digitizer in a single netlist;
//! * [`mod@array`] — multiplexed sensor arrays scanned against a
//!   [`thermal`] ground-truth die temperature field, with a
//!   quarantine-aware degraded scan mode;
//! * [`health`] — per-ring health policy and verdicts backing the
//!   degraded scan (plausible period band, neighbor agreement).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Validation deliberately writes `!(x > 0.0)` instead of `x <= 0.0`:
// the negated form also rejects NaN, which the comparison form lets
// through silently.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod alarm;
pub mod array;
pub mod digitizer;
pub mod error;
pub mod fsm;
pub mod gateunit;
pub mod health;
pub mod muxscan;
pub mod noise;
pub mod selfheat;
pub mod unit;

pub use alarm::{AlarmEvent, ThermalAlarm, ThermalWatchdog};
pub use array::{DegradedReading, MapPoint, SensorArray, SensorSite, ThermalMap};
pub use digitizer::{BehavioralDigitizer, GateLevelDigitizer, GateLevelResult};
pub use error::{Result, SensorError};
pub use fsm::{MeasureFsm, Outputs, State};
pub use gateunit::{GateLevelUnit, GateUnitResult};
pub use health::{HealthPolicy, HealthStatus};
pub use muxscan::{ChannelReading, GateLevelMuxScan};
pub use noise::JitterModel;
pub use unit::{CodeCalibration, Measurement, RingFault, SensorConfig, SmartSensorUnit};

/// The static timing engine. Crates without a direct `sta` dependency
/// (`faultsim`, `runtime`) reach `sta::report::json_escape` through this
/// re-export.
pub use sta;

//! Temperature-aware static timing analysis for gate-level sensor
//! netlists.
//!
//! The transient route to a sensor transfer function — simulate the
//! ring at every temperature, count edges — is accurate but slow. This
//! crate reads the same numbers off the structure instead:
//!
//! 1. [`graph`] levelizes a [`dsim`] netlist into a timing DAG and
//!    propagates rise/fall arrival times per edge polarity, honoring
//!    each cell's `t_PLH`/`t_PHL` asymmetry (NAND/NOR stack weighting);
//! 2. [`loops`] classifies every combinational cycle — a simple
//!    odd-parity ring yields the analytic oscillation period
//!    `T = Σ (t_PHL + t_PLH)` (the paper's Eq. 1), even parity is
//!    diagnosed as latching, anything tangled is refused honestly;
//! 3. [`model`] prices the arcs at any temperature in closed form
//!    ([`AnalyticalModel`]);
//! 4. [`mod@transfer`] sweeps temperature to produce the STA-predicted
//!    sensor transfer function and its nonlinearity — no transient
//!    simulation anywhere;
//! 5. [`rings`] cross-validates: for every shipped example ring the
//!    STA prediction must match the event-driven simulator within
//!    [`CROSS_VALIDATION_TOLERANCE`];
//! 6. [`check`] turns the analysis into design-rule findings (the
//!    `NC05xx` family the `sta` CLI's `--check` mode reports).
//!
//! ```
//! use sta::{build_ring, parse_mix, AnalyticalModel};
//!
//! let model = AnalyticalModel::um350(2.0);
//! let kinds = parse_mix("3xINV+2xNAND3").unwrap();
//! let ring = build_ring(&kinds, &model, 27.0).unwrap();
//! let period_fs = ring.sta_period_fs().unwrap();
//! assert!(period_fs > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod check;
pub mod error;
pub mod graph;
pub mod levelize;
pub mod loops;
pub mod model;
pub mod report;
pub mod rings;
pub mod transfer;

pub use check::{
    check_timing, has_errors, Severity, TimingCheckOptions, TimingViolation, NC0501, NC0502, NC0503,
};
pub use error::{Result, StaError};
pub use graph::{
    analyze, cell_delays, netlist_delays, Analysis, Arrival, CellMap, Endpoint, EndpointKind,
    PathPoint, Polarity, TimingPath,
};
pub use levelize::{component_successors, levelize, strongly_connected, Levelization};
pub use loops::{LoopAnalysis, LoopKind};
pub use model::{AnalyticalModel, DelayFs};
pub use rings::{
    build_ring, cross_validate, kind_to_op, parse_mix, shipped_rings, BuiltRing, CrossValidation,
    RingSpec, CROSS_VALIDATION_TOLERANCE,
};
pub use transfer::{period_at, transfer, Transfer, TransferSettings};

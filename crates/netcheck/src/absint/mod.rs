//! Cross-layer abstract interpretation (`NC09xx`/`NC10xx`): prove
//! range, overflow, and freshness properties of a full sensor
//! deployment — netlist-level delay model through runtime deadline —
//! by interval analysis over the certified temperature × supply
//! envelope.
//!
//! The pipeline:
//!
//! 1. [`bundle::CertifyBundle`] parses one INI-style file naming the
//!    ring mix, technology node, digitizer parameters, certified
//!    range, calibration anchors, resolution spec, and runtime knobs;
//! 2. [`engine::certify`] samples the delay model over the envelope
//!    grid, builds sound base intervals ([`interval`]), propagates
//!    them through the conversion arithmetic into a signal-flow graph
//!    ([`ir`]), and discharges each proof obligation;
//! 3. the resulting [`certificate::Certificate`] renders as text/JSON
//!    for `netcheck certify`. Its `NC10xx` obligations are the sound
//!    form of the `runtime` crate's start-up checks, which compare
//!    point estimates and take no certificate.

pub mod bundle;
pub mod certificate;
pub mod engine;
pub mod interval;
pub mod ir;

pub use bundle::{BundleError, CertifyBundle, RuntimeEnvelope};
pub use certificate::{config_fingerprint, Certificate};
pub use engine::{certify, CertifyError};
pub use interval::{Interval, IntervalBuilder};
pub use ir::{FlowGraph, Node, NodeId, NodeKind};

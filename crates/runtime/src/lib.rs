//! `runtime` — the supervised thermal-monitoring service.
//!
//! The paper's smart sensor exists to be *relied on*: a thermal-test
//! flow queries it continuously while stress patterns run. This crate
//! is the reliability layer that makes such reliance honest — a service
//! that owns [`sensor::SensorArray`]s and serves temperature readings
//! under deadlines over TCP, from replicated shard groups, degrading in
//! *typed*, observable ways when the silicon underneath misbehaves:
//!
//! * [`retry`] — bounded retry ladders with exponential backoff and
//!   seeded jitter for transient capture failures;
//! * [`breaker`] — per-unit circuit breakers
//!   (Closed → Open → HalfOpen) so a persistently failing ring stops
//!   consuming deadline budget;
//! * [`service`] — one replica's core and its one read path: the
//!   supervised read, deadline enforcement, and the background health
//!   scan that quarantines and paroles rings;
//! * [`snapshot`] — CRC-checked, atomically written checkpoints
//!   (calibration, quarantine, breaker states, recent readings) and
//!   the paranoid recovery path that skips torn or corrupt files;
//! * [`serve`] and [`client`] — the TCP tier that fronts the cores, and
//!   its retrying client;
//! * [`soak_wire`] — sustained operation against a live server: an
//!   open-loop load, a seeded [`faultsim::FaultSchedule`] silicon storm,
//!   crash recovery past a planted torn snapshot, and the invariants
//!   graded on exit;
//! * [`sim`] — deterministic simulation testing: the same read,
//!   scan, checkpoint, and recovery machinery run single-threaded on a
//!   virtual clock and a torn-write simulated disk, under seeded
//!   schedule exploration with invariants checked after every step and
//!   failing seeds shrunk to minimal byte-for-byte-replayable traces;
//! * `repl` (crate-private) — the replica side of the fleet's
//!   replication protocol as one sans-IO state machine, and the one
//!   election rule both fleet tiers promote and rejoin through;
//! * `small_set` (crate-private) — the inline id set a write's acks
//!   and a route's tried groups are kept in;
//! * [`error`] — the typed failure vocabulary ([`RuntimeError`]).
//!
//! The service's contract, end to end: every request is answered
//! within its deadline or with a typed error; every reading carries
//! its provenance and age; cached data past the staleness bound is
//! rescanned before it is served, never served as a quietly old number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod effect_log;
pub mod error;
mod repl;
pub mod retry;
pub mod route;
pub mod serve;
pub mod service;
pub mod sim;
mod small_set;
pub mod snapshot;
pub mod soak_wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientError, ClientOutcome, MapOutcome, WireClient, WireClientConfig};
pub use effect_log::{EffectLog, EffectRecord, LogRecovery};
pub use error::{Result, RuntimeError};
pub use retry::{Backoff, RetryPolicy};
pub use route::{Route, RoutePlan, RouterPolicy};
pub use serve::{DrainReport, WireServer, WireServerConfig, WireServerStats};
pub use service::{
    reference_array, Field, Provenance, RecoveryReport, RuntimeConfig, ServedReading,
};
pub use sim::fleet::{
    resolve_fleet_events, run_fleet, task_node, FleetConfig, FleetEvent, FleetInvariant,
    FleetMutation, FleetReport,
};
pub use sim::{
    render_trace, run_sim, shrink_failure, sweep, sweep_jobs, Invariant, Mutation, RunReport,
    ShrunkCase, SimConfig, SimReport, Simulation, SweepOutcome, Violation,
};
pub use snapshot::{crc32, RuntimeSnapshot, SiteSnapshot, SnapshotError, SnapshotStore};
pub use soak_wire::{run_wire_soak, LatencyHistogram, WireSoakConfig, WireSoakReport};

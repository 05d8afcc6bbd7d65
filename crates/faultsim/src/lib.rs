//! `faultsim` — deterministic fault-injection campaigns over the
//! smart-sensor stack.
//!
//! Thermal testing only works when the sensors themselves can be
//! trusted; this crate answers *"what happens when they can't?"* by
//! injecting modelled defects at every layer of the reproduction —
//! gate-level netlists ([`dsim`]), the behavioral sensing unit
//! ([`sensor`]), and transistor-level decks ([`spicelite`]) — and
//! classifying how the hardened read path responds.
//!
//! * [`fault`] — the [`Fault`] taxonomy and per-layer injection hooks;
//! * [`campaign`] — the seeded [`run_campaign`] runner, watchdog
//!   budgets, and the [`Outcome`] classification
//!   (detected / benign / silent corruption / hang);
//! * [`schedule`] — seeded [`FaultSchedule`]s of timed fault events,
//!   the chaos source a long-lived monitoring runtime injects mid-run;
//! * [`report`] — text and JSON rendering for the `faultsim` CLI.
//!
//! Campaigns are fully deterministic: the same seed replays the same
//! fault sequence with the same outcomes, so a regression in fault
//! coverage is a reproducible test failure, not a flake.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod report;
pub mod schedule;

pub use campaign::{
    reference_unit, reference_universe, run_campaign, run_fault, CampaignConfig, CampaignResult,
    FaultRun, Outcome,
};
pub use fault::{Fault, FaultClass};
pub use report::{render_json, render_text};
pub use schedule::{FaultEvent, FaultSchedule};

//! `netcheck` — design-rule static analysis for the tsense workspace.
//!
//! A unified lint framework over the four circuit representations this
//! repository models:
//!
//! | bank     | target                     | example rules |
//! |----------|----------------------------|---------------|
//! | `NC02xx` | `spicelite` circuits/decks | dangling nodes, no DC path to ground, extreme device values |
//! | `NC03xx` | `stdcell` timing libraries | delay-vs-temperature monotonicity, Fig. 2 sizing range, Liberty round-trip |
//! | `NC04xx` | `sensor` configurations    | stage-count parity, Fig. 3 cell mixes, transfer function over −50…150 °C |
//! | `NC09xx` | abstract interpretation    | counter overflow, quantization step vs spec, anchor bracketing, word width, toggle-loop floor |
//! | `NC10xx` | abstract interpretation    | provable conversion vs deadline, staleness vs checkpoint + conversion |
//! | `NC11xx` | dataflow: clock domains    | unsynchronized crossings, single-flop sync, uncoded multi-bit capture, latch capture |
//! | `NC12xx` | dataflow: X-propagation    | sequential elements that may never initialize, X clocks/enables, X primary outputs |
//! | `NC13xx` | dataflow: hazards          | reconvergent (glitch-prone) clock/enable cones, XOR in a clock cone |
//! | `NC14xx` | dataflow: structure        | floating inputs, dead gates, fan-out over the stdcell drive budget |
//!
//! Every rule has a stable ID and fires as a [`Diagnostic`] at a fixed
//! [`Severity`]; a [`Report`] aggregates them and renders as text,
//! JSON or SARIF. Each rule is a plain function written once, and the
//! `check_*` functions are the one way in: each runs its rules and
//! sorts the findings once. The `netcheck` CLI lints its files through
//! them one after another, and the tests call them directly. Every
//! registered rule fires on an input the CLI reads: a SPICE deck, a
//! Liberty library or a certify bundle. [`RULES`] names the retired
//! IDs.
//!
//! ```
//! use netcheck::check_netlist_dataflow;
//! let mut nl = dsim::netlist::Netlist::new();
//! let x = nl.signal("x");
//! let y = nl.signal("y");
//! nl.gate(dsim::netlist::GateOp::Inv, &[x], y, 1_000);
//! let report = check_netlist_dataflow(&nl);
//! assert!(report.has_errors()); // `x` is consumed but undriven
//! assert!(report.diagnostics().iter().any(|d| d.rule == "NC1401"));
//! ```

#![forbid(unsafe_code)]

pub mod absint;
pub mod config_rules;
pub mod dataflow;
pub mod deck_rules;
pub mod diagnostic;
pub mod library_rules;
pub mod pass;

pub use absint::{certify, Certificate, CertifyBundle};
pub use config_rules::{check_sensor_config, PAPER_STAGE_COUNTS};
pub use dataflow::check_netlist_dataflow;
pub use deck_rules::{check_circuit, check_deck};
pub use diagnostic::{exit_for, Baseline, Diagnostic, Location, Report, Severity};
pub use library_rules::{check_library, check_ratio, check_table, FIG2_RATIO_RANGE};
pub use pass::{rule_info, RuleInfo, RULES};

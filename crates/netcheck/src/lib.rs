//! `netcheck` — design-rule static analysis for the tsense workspace.
//!
//! A unified lint framework over the four circuit representations this
//! repository models:
//!
//! | bank     | target                     | example rules |
//! |----------|----------------------------|---------------|
//! | `NC02xx` | `spicelite` circuits/decks | dangling nodes, no DC path to ground, extreme device values |
//! | `NC03xx` | `stdcell` timing libraries | delay-vs-temperature monotonicity, Fig. 2 sizing range, Liberty round-trip |
//! | `NC04xx` | `sensor` configurations    | stage-count parity, Fig. 3 cell mixes, calibration coverage |
//! | `NC06xx` | array + health policy      | too-small arrays, uncalibrated sites, period-band coverage |
//! | `NC07xx` | config + runtime deadline  | unservable conversion windows, missing retry headroom |
//! | `NC08xx` | runtime recovery freshness | staleness bound shorter than the checkpoint interval |
//! | `NC09xx` | abstract interpretation    | counter overflow, quantization step vs spec, anchor bracketing, word width, toggle-loop floor |
//! | `NC10xx` | abstract interpretation    | provable conversion vs deadline, staleness vs checkpoint + conversion |
//! | `NC11xx` | dataflow: clock domains    | unsynchronized crossings, single-flop sync, uncoded multi-bit capture, latch capture |
//! | `NC12xx` | dataflow: X-propagation    | sequential elements that may never initialize, X clocks/enables, X primary outputs |
//! | `NC13xx` | dataflow: hazards          | reconvergent (glitch-prone) clock/enable cones, XOR in a clock cone |
//! | `NC14xx` | dataflow: structure        | floating inputs, dead gates, fan-out over the stdcell drive budget |
//! | `NC15xx` | wire protocol budgets      | frame budget vs largest encodable response |
//! | `NC16xx` | replication tuning         | ack quorum vs group size |
//!
//! Every rule has a stable ID and fires as a [`Diagnostic`] at a fixed
//! [`Severity`]; a [`Report`] aggregates them and renders as text,
//! JSON or SARIF. Each rule is a plain function written once, and the
//! `check_*` functions are the one way in: each runs its rules and
//! sorts the findings once. The `netcheck` CLI lints its files through
//! them one after another, the runtime calls them at startup, and the
//! tests call them directly.
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
pub mod replication_rules;
pub mod resilience_rules;
pub mod runtime_rules;
pub mod wire_rules;

pub use absint::{certify, Certificate, CertifyBundle};
pub use config_rules::{check_calibration_anchors, check_sensor_config, PAPER_STAGE_COUNTS};
pub use dataflow::check_netlist_dataflow;
pub use deck_rules::{check_circuit, check_deck};
pub use diagnostic::{exit_for, Baseline, Diagnostic, Location, Report, Severity};
pub use library_rules::{
    check_cell_library, check_library, check_ratio, check_table, FIG2_RATIO_RANGE,
};
pub use pass::{rule_info, RuleInfo, RULES};
pub use replication_rules::{check_replication, ReplicationTuning};
pub use resilience_rules::check_array_resilience;
pub use runtime_rules::{check_runtime_budget, check_runtime_tuning, worst_case_conversion_s};
pub use wire_rules::check_wire_frame_budget;

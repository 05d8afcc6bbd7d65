//! Rules over dsim gate-level netlists (`NC01xx`).
//!
//! * `NC0101` — undriven consumed net (no driver, starts at `X`);
//! * `NC0102` — multiply-driven net;
//! * `NC0103` — unreachable gate (output can never change);
//! * `NC0104` — combinational loop with odd inversion parity
//!   (informational: presumed intentional ring oscillator);
//! * `NC0105` — combinational loop with even inversion parity
//!   (error: two stable states, cannot oscillate);
//! * `NC0106` — fan-out above the configured limit.

use dsim::logic::Logic;
use dsim::netlist::{Component, Netlist, SignalId};
use sta::strongly_connected;

use crate::diagnostic::{Diagnostic, Location, Report};
use crate::pass::{run_passes, Pass};

/// Tunables for the netlist rule set.
#[derive(Debug, Clone)]
pub struct NetlistCheckOptions {
    /// `NC0106` fires above this many sinks on one signal. Clock-source
    /// outputs are exempt (clock distribution is buffered in layout).
    pub max_fanout: usize,
}

impl Default for NetlistCheckOptions {
    fn default() -> Self {
        // A 0.35 µm standard-cell output comfortably drives ~16 loads
        // before the transition-time budget collapses.
        NetlistCheckOptions { max_fanout: 16 }
    }
}

/// Per-signal driver/sink tally shared by the connectivity rules.
struct Connectivity {
    drivers: Vec<usize>,
    sinks: Vec<usize>,
    clock_driven: Vec<bool>,
}

fn connectivity(nl: &Netlist) -> Connectivity {
    let n = nl.signal_count();
    let mut c = Connectivity {
        drivers: vec![0; n],
        sinks: vec![0; n],
        clock_driven: vec![false; n],
    };
    for comp in nl.components() {
        let (driven, sunk): (&[SignalId], Vec<SignalId>) = match comp {
            Component::Gate { inputs, output, .. } => {
                (std::slice::from_ref(output), inputs.clone())
            }
            Component::Dff {
                d, clk, rst_n, q, ..
            } => {
                let mut sinks = vec![*d, *clk];
                sinks.extend(*rst_n);
                (std::slice::from_ref(q), sinks)
            }
            Component::Latch {
                d, en, rst_n, q, ..
            } => {
                let mut sinks = vec![*d, *en];
                sinks.extend(*rst_n);
                (std::slice::from_ref(q), sinks)
            }
            Component::Clock { output, .. } => {
                c.clock_driven[output.index()] = true;
                (std::slice::from_ref(output), Vec::new())
            }
        };
        for id in driven {
            c.drivers[id.index()] += 1;
        }
        for id in sunk {
            c.sinks[id.index()] += 1;
        }
    }
    c
}

/// `NC0101` + `NC0102`: driver-count anomalies.
pub struct ConnectivityPass;

impl Pass<Netlist> for ConnectivityPass {
    fn name(&self) -> &'static str {
        "connectivity"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["NC0101", "NC0102"]
    }

    fn run(&self, nl: &Netlist, report: &mut Report) {
        let c = connectivity(nl);
        for id in nl.signal_ids() {
            let i = id.index();
            let name = nl.signal_name(id);
            if c.drivers[i] == 0 && c.sinks[i] > 0 && nl.initial_value(id) == Logic::X {
                report.push(Diagnostic::error(
                    "NC0101",
                    Location::object(name),
                    format!(
                        "net is consumed by {} component(s) but has no driver and no \
                         initial value (stuck at X)",
                        c.sinks[i]
                    ),
                ));
            }
            if c.drivers[i] > 1 {
                report.push(Diagnostic::error(
                    "NC0102",
                    Location::object(name),
                    format!(
                        "net has {} drivers; inertial delays assume one",
                        c.drivers[i]
                    ),
                ));
            }
        }
    }
}

/// `NC0103`: gates whose output can never change.
///
/// Transition sources are clock outputs and *pokable* primary inputs:
/// driverless signals with a definite initial value (testbench inputs by
/// convention in this workspace). A gate output is live when any input
/// is live; a flip-flop output when its clock or reset is live; a latch
/// output when any pin is live. Everything left is dead logic.
pub struct ReachabilityPass;

impl Pass<Netlist> for ReachabilityPass {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["NC0103"]
    }

    fn run(&self, nl: &Netlist, report: &mut Report) {
        let c = connectivity(nl);
        let n = nl.signal_count();
        let mut live = vec![false; n];
        for id in nl.signal_ids() {
            let i = id.index();
            if c.drivers[i] == 0 && nl.initial_value(id) != Logic::X {
                live[i] = true; // pokable primary input
            }
        }
        for comp in nl.components() {
            if let Component::Clock { output, .. } = comp {
                live[output.index()] = true;
            }
        }
        // Propagate liveness to a fixpoint (graph is small; O(V·E) is fine).
        let mut changed = true;
        while changed {
            changed = false;
            for comp in nl.components() {
                let (out, is_live) = match comp {
                    Component::Gate { inputs, output, .. } => {
                        (*output, inputs.iter().any(|s| live[s.index()]))
                    }
                    Component::Dff { clk, rst_n, q, .. } => (
                        *q,
                        live[clk.index()] || rst_n.map(|r| live[r.index()]).unwrap_or(false),
                    ),
                    Component::Latch {
                        d, en, rst_n, q, ..
                    } => (
                        *q,
                        live[d.index()]
                            || live[en.index()]
                            || rst_n.map(|r| live[r.index()]).unwrap_or(false),
                    ),
                    Component::Clock { .. } => continue,
                };
                if is_live && !live[out.index()] {
                    live[out.index()] = true;
                    changed = true;
                }
            }
        }
        for comp in nl.components() {
            if let Component::Gate { output, .. } = comp {
                if !live[output.index()] {
                    report.push(Diagnostic::warning(
                        "NC0103",
                        Location::object(nl.signal_name(*output)),
                        "gate output can never change: no stimulus (clock or initialized \
                         primary input) reaches it",
                    ));
                }
            }
        }
    }
}

/// `NC0104` + `NC0105`: combinational loops and their inversion parity.
pub struct LoopPass;

impl Pass<Netlist> for LoopPass {
    fn name(&self) -> &'static str {
        "loops"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["NC0104", "NC0105"]
    }

    fn run(&self, nl: &Netlist, report: &mut Report) {
        // Graph over gate components only — flip-flops, latches and
        // clocks break combinational paths.
        let gates: Vec<(usize, &Component)> = nl
            .components()
            .iter()
            .enumerate()
            .filter(|(_, comp)| matches!(comp, Component::Gate { .. }))
            .collect();
        let mut driver_of: Vec<Option<usize>> = vec![None; nl.signal_count()];
        for (slot, (_, comp)) in gates.iter().enumerate() {
            if let Component::Gate { output, .. } = comp {
                driver_of[output.index()] = Some(slot);
            }
        }
        // Successor lists: gate -> gates consuming its output.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
        for (slot, (_, comp)) in gates.iter().enumerate() {
            if let Component::Gate { inputs, .. } = comp {
                for input in inputs {
                    if let Some(pred) = driver_of[input.index()] {
                        succ[pred].push(slot);
                    }
                }
            }
        }
        for scc in strongly_connected(&succ) {
            let in_scc: std::collections::HashSet<usize> = scc.iter().copied().collect();
            let is_cycle =
                scc.len() > 1 || scc.first().map(|&g| succ[g].contains(&g)).unwrap_or(false);
            if !is_cycle {
                continue;
            }
            let mut inversions = 0usize;
            let mut simple = true;
            let mut names: Vec<&str> = Vec::with_capacity(scc.len());
            for &slot in &scc {
                if let Component::Gate {
                    op, inputs, output, ..
                } = gates[slot].1
                {
                    names.push(nl.signal_name(*output));
                    if op.is_inverting() {
                        inversions += 1;
                    }
                    // A simple ring has exactly one in-loop input per gate.
                    let in_loop_inputs = inputs
                        .iter()
                        .filter(|s| {
                            driver_of[s.index()]
                                .map(|g| in_scc.contains(&g))
                                .unwrap_or(false)
                        })
                        .count();
                    if in_loop_inputs != 1 {
                        simple = false;
                    }
                }
            }
            names.sort_unstable();
            let through = names.join(" → ");
            let location = Location::object(names.first().copied().unwrap_or("?"));
            if !simple {
                report.push(Diagnostic::warning(
                    "NC0104",
                    location,
                    format!(
                        "tangled combinational loop through {} gate(s) ({through}); \
                         not a simple ring",
                        scc.len()
                    ),
                ));
            } else if inversions.is_multiple_of(2) {
                report.push(Diagnostic::error(
                    "NC0105",
                    location,
                    format!(
                        "combinational loop of {} stage(s) has {inversions} inversion(s); \
                         even parity latches instead of oscillating ({through})",
                        scc.len()
                    ),
                ));
            } else {
                report.push(Diagnostic::info(
                    "NC0104",
                    location,
                    format!(
                        "combinational loop of {} stage(s) with odd inversion parity \
                         ({through}); presumed intentional ring oscillator",
                        scc.len()
                    ),
                ));
            }
        }
    }
}

/// `NC0106`: fan-out limits.
pub struct FanoutPass {
    /// Maximum allowed sinks per non-clock signal.
    pub max_fanout: usize,
}

impl Pass<Netlist> for FanoutPass {
    fn name(&self) -> &'static str {
        "fanout"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["NC0106"]
    }

    fn run(&self, nl: &Netlist, report: &mut Report) {
        let c = connectivity(nl);
        for id in nl.signal_ids() {
            let i = id.index();
            if c.clock_driven[i] {
                continue;
            }
            if c.sinks[i] > self.max_fanout {
                report.push(Diagnostic::warning(
                    "NC0106",
                    Location::object(nl.signal_name(id)),
                    format!(
                        "fan-out of {} exceeds the limit of {}",
                        c.sinks[i], self.max_fanout
                    ),
                ));
            }
        }
    }
}

/// Runs every netlist rule with default options.
pub fn check_netlist(nl: &Netlist) -> Report {
    check_netlist_with(nl, &NetlistCheckOptions::default())
}

/// Runs every netlist rule with explicit options.
pub fn check_netlist_with(nl: &Netlist, options: &NetlistCheckOptions) -> Report {
    let fanout = FanoutPass {
        max_fanout: options.max_fanout,
    };
    let passes: [&dyn Pass<Netlist>; 4] =
        [&ConnectivityPass, &ReachabilityPass, &LoopPass, &fanout];
    run_passes(&passes, nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::netlist::GateOp;

    fn rules_fired(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let a = nl.signal_with_init("a", Logic::Zero);
        let an = nl.signal("an");
        nl.gate(GateOp::Inv, &[a], an, 100_000);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(an, clk, None, q, 150_000);
        let report = check_netlist(&nl);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn floating_net_fires_nc0101() {
        let mut nl = Netlist::new();
        let floating = nl.signal("floating");
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[floating], y, 100_000);
        let report = check_netlist(&nl);
        assert!(
            rules_fired(&report).contains(&"NC0101"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn multiply_driven_net_fires_nc0102() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let b = nl.signal_with_init("b", Logic::One);
        let y = nl.signal("y");
        nl.gate(GateOp::Buf, &[a], y, 100_000);
        nl.gate(GateOp::Inv, &[b], y, 100_000);
        let report = check_netlist(&nl);
        assert!(
            rules_fired(&report).contains(&"NC0102"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn dead_gate_fires_nc0103() {
        let mut nl = Netlist::new();
        // `a` is undriven AND uninitialized: not a pokable input, so the
        // inverter can never switch (it also trips NC0101).
        let a = nl.signal("a");
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[a], y, 100_000);
        let report = check_netlist(&nl);
        let fired = rules_fired(&report);
        assert!(fired.contains(&"NC0103"), "{}", report.render_text());
    }

    #[test]
    fn odd_ring_is_informational_not_error() {
        let mut nl = Netlist::new();
        let ports =
            dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "ring", 100_000).unwrap();
        let report = check_netlist(&nl);
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(rules_fired(&report).contains(&"NC0104"));
        let _ = ports;
    }

    #[test]
    fn even_parity_ring_fires_nc0105() {
        // Hand-built 4-inverter loop (the builder refuses to make one).
        let mut nl = Netlist::new();
        let s: Vec<_> = (0..4)
            .map(|i| nl.signal_with_init(format!("s{i}"), Logic::Zero))
            .collect();
        for i in 0..4 {
            nl.gate(GateOp::Inv, &[s[i]], s[(i + 1) % 4], 100_000);
        }
        let report = check_netlist(&nl);
        assert!(
            rules_fired(&report).contains(&"NC0105"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn tangled_loop_fires_nc0104_warning() {
        // Two cross-coupled NANDs with both inputs in-loop: an SR latch
        // shape, not a simple ring.
        let mut nl = Netlist::new();
        let q = nl.signal_with_init("q", Logic::Zero);
        let qn = nl.signal_with_init("qn", Logic::One);
        nl.gate(GateOp::Nand, &[qn, q], q, 100_000);
        nl.gate(GateOp::Nand, &[q, qn], qn, 100_000);
        let report = check_netlist(&nl);
        let warned = report
            .diagnostics()
            .iter()
            .any(|d| d.rule == "NC0104" && d.severity == crate::Severity::Warning);
        assert!(warned, "{}", report.render_text());
    }

    #[test]
    fn excess_fanout_fires_nc0106() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        for i in 0..20 {
            let y = nl.signal(format!("y{i}"));
            nl.gate(GateOp::Buf, &[a], y, 100_000);
        }
        let report = check_netlist_with(&nl, &NetlistCheckOptions { max_fanout: 8 });
        assert!(
            rules_fired(&report).contains(&"NC0106"),
            "{}",
            report.render_text()
        );
        // Clock nets are exempt.
        let mut nl2 = Netlist::new();
        let clk = nl2.signal("clk");
        nl2.symmetric_clock(clk, 2_000_000, 1_000_000);
        for i in 0..20 {
            let q = nl2.signal_with_init(format!("q{i}"), Logic::Zero);
            let d = nl2.signal_with_init(format!("d{i}"), Logic::Zero);
            nl2.dff(d, clk, None, q, 150_000);
        }
        let report2 = check_netlist_with(&nl2, &NetlistCheckOptions { max_fanout: 8 });
        assert!(
            !rules_fired(&report2).contains(&"NC0106"),
            "{}",
            report2.render_text()
        );
    }
}

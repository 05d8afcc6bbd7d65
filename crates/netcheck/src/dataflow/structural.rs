//! NC14xx — structural dataflow checks.
//!
//! * `NC1401` — a component input with no driver and no initial value
//!   (fires per *net*, with the reading components in the message;
//!   `dsim::Netlist::validate` refuses the same net as `FloatingInput`
//!   before a simulation starts);
//! * `NC1402` — a dead gate: no stimulus (clock, pokable input, or
//!   self-sustaining ring) ever reaches it, found by a forward
//!   liveness fixpoint on the engine;
//! * `NC1403` — fan-out above the `stdcell` drive budget for the
//!   driving cell. Clock sources are exempt (clock trees are buffered
//!   in layout), as are pure reset fan-outs (reset distribution is
//!   likewise tree-buffered).

use dsim::netlist::{Component, GateOp, Netlist};
use tsense_core::gate::GateKind;

use crate::diagnostic::{Diagnostic, Location, Report};

use super::engine::{solve, Direction};
use super::lattice::Reach;
use super::NetContext;

/// The NC14xx rules.
pub(super) fn check(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    floating_inputs(nl, ctx, report);
    dead_gates(nl, ctx, report);
    fanout_budget(nl, ctx, report);
}

fn floating_inputs(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    for id in nl.signal_ids() {
        let i = id.index();
        if ctx.drivers[i].is_none()
            && !ctx.readers[i].is_empty()
            && nl.initial_value(id) == dsim::logic::Logic::X
        {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1401,
                Location::object(nl.signal_name(id)),
                format!(
                    "`{}` feeds {} component(s) but has no driver and no initial value; \
                     everything downstream is stuck at X — drive it or declare an initial \
                     level",
                    nl.signal_name(id),
                    ctx.readers[i].len()
                ),
            ));
        }
    }
}

fn dead_gates(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    let mut seed = vec![Reach(false); nl.signal_count()];
    for (i, &pokable) in ctx.pokable.iter().enumerate() {
        if pokable {
            seed[i] = Reach(true);
        }
    }
    let live = solve(
        nl,
        &ctx.lv,
        Direction::Forward,
        seed,
        &mut |nl, ci, values| match &nl.components()[ci] {
            // A combinational cycle is a self-sustaining oscillator (or
            // an even-parity latch, which `sta::loops` classifies as
            // `Latching`) — live either way.
            Component::Gate { output, .. } if ctx.comb_cycle_member[ci] => {
                vec![(*output, Reach(true))]
            }
            Component::Gate { inputs, output, .. } => {
                let v = inputs.iter().any(|s| values[s.index()].0);
                vec![(*output, Reach(v))]
            }
            Component::Dff { clk, rst_n, q, .. } => {
                let v =
                    values[clk.index()].0 || rst_n.map(|r| values[r.index()].0).unwrap_or(false);
                vec![(*q, Reach(v))]
            }
            Component::Latch {
                d, en, rst_n, q, ..
            } => {
                let v = values[d.index()].0
                    || values[en.index()].0
                    || rst_n.map(|r| values[r.index()].0).unwrap_or(false);
                vec![(*q, Reach(v))]
            }
            Component::Clock { output, .. } => vec![(*output, Reach(true))],
        },
    )
    .values;
    for comp in nl.components() {
        if let Component::Gate { output, .. } = comp {
            if !live[output.index()].0 {
                report.push(Diagnostic::at(
                    crate::pass::rules::NC1402,
                    Location::object(nl.signal_name(*output)),
                    format!(
                        "gate `{}` is dead: no clock, initialized input, or oscillator \
                         reaches it — remove it or wire up its stimulus",
                        nl.signal_name(*output)
                    ),
                ));
            }
        }
    }
}

fn fanout_budget(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    for id in nl.signal_ids() {
        let i = id.index();
        let Some(driver) = ctx.drivers[i] else {
            continue;
        };
        let (budget, cell): (usize, &str) = match &nl.components()[driver] {
            Component::Clock { .. } => continue, // buffered clock tree
            Component::Dff { .. } | Component::Latch { .. } => (16, "register output"),
            Component::Gate { op, inputs, .. } => match cell_for(*op, inputs.len()) {
                Some(kind) => (stdcell::drive_budget(kind), kind.name()),
                None => (16, "composite gate"),
            },
        };
        // Reset pins don't count: reset nets are tree-buffered like
        // clocks, and the paper's structures fan one reset to every
        // counter bit by design.
        let loads = ctx.readers[i]
            .iter()
            .filter(|&&rc| !is_reset_pin_only(nl, rc, id.index()))
            .count();
        if loads > budget {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1403,
                Location::object(nl.signal_name(id)),
                format!(
                    "`{}` drives {loads} loads but its {cell} driver budgets {budget}; \
                     buffer the net or split the fan-out",
                    nl.signal_name(id)
                ),
            ));
        }
    }
}

/// True when component `rc` reads signal `sig` *only* through an
/// asynchronous reset pin.
fn is_reset_pin_only(nl: &Netlist, rc: usize, sig: usize) -> bool {
    match &nl.components()[rc] {
        Component::Dff { d, clk, rst_n, .. } => {
            rst_n.map(|r| r.index()) == Some(sig) && d.index() != sig && clk.index() != sig
        }
        Component::Latch { d, en, rst_n, .. } => {
            rst_n.map(|r| r.index()) == Some(sig) && d.index() != sig && en.index() != sig
        }
        _ => false,
    }
}

/// Maps a gate op + arity onto the stdcell kind that implements it
/// directly, if any.
fn cell_for(op: GateOp, arity: usize) -> Option<GateKind> {
    match (op, arity) {
        (GateOp::Inv, 1) => Some(GateKind::Inv),
        (GateOp::Nand, 2) => Some(GateKind::Nand2),
        (GateOp::Nand, 3) => Some(GateKind::Nand3),
        (GateOp::Nand, 4) => Some(GateKind::Nand4),
        (GateOp::Nor, 2) => Some(GateKind::Nor2),
        (GateOp::Nor, 3) => Some(GateKind::Nor3),
        (GateOp::Nor, 4) => Some(GateKind::Nor4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::check_netlist_dataflow;
    use dsim::builders::GATE_DELAY_FS;
    use dsim::logic::Logic;
    use dsim::netlist::Netlist;

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn floating_input_fires_nc1401() {
        let mut nl = Netlist::new();
        let a = nl.signal("a");
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[a], y, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1401"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn dead_gate_fires_nc1402_and_ring_does_not() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "ring", 100_000).unwrap();
        // A gate fed only by an uninitialized, undriven net is dead.
        let a = nl.signal("dead_in");
        let y = nl.signal("dead_out");
        nl.gate(GateOp::Buf, &[a], y, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == "NC1402")
            .collect();
        assert_eq!(dead.len(), 1, "{}", report.render_text());
        assert!(dead[0].to_string().contains("dead_out"));
    }

    #[test]
    fn over_budget_fanout_fires_nc1403() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let y = nl.signal("y");
        // A NAND3's output budgets 10 loads; give it 12.
        let b = nl.signal_with_init("b", Logic::One);
        let c = nl.signal_with_init("c", Logic::One);
        nl.gate(GateOp::Nand, &[a, b, c], y, GATE_DELAY_FS);
        for i in 0..12 {
            let out = nl.signal(format!("out{i}"));
            nl.gate(GateOp::Buf, &[y], out, GATE_DELAY_FS);
        }
        let report = check_netlist_dataflow(&nl);
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == "NC1403")
            .unwrap_or_else(|| panic!("{}", report.render_text()));
        assert!(diag.message.contains("12 loads"), "{diag}");
        assert!(diag.message.contains("10"), "{diag}");
    }

    #[test]
    fn reset_fanout_is_exempt() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let rst_src = nl.signal_with_init("rst_src", Logic::One);
        let rst = nl.signal("rst");
        nl.gate(GateOp::Buf, &[rst_src], rst, GATE_DELAY_FS);
        for i in 0..24 {
            let d = nl.signal_with_init(format!("d{i}"), Logic::Zero);
            let q = nl.signal_with_init(format!("q{i}"), Logic::Zero);
            nl.dff(d, clk, Some(rst), q, 150_000);
        }
        let report = check_netlist_dataflow(&nl);
        assert!(
            !rules(&report).contains(&"NC1403"),
            "{}",
            report.render_text()
        );
    }
}

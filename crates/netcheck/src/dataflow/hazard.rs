//! NC13xx — static hazard / glitch analysis on capture paths.
//!
//! Two engine runs compose here. A **backward** reachability pass
//! marks the combinational cone feeding flip-flop clock pins and latch
//! enables (glitches only matter where an extra edge *captures*
//! something). A **forward** parity pass then tracks, per signal,
//! which sources (sequential outputs, clocks, ring outputs, pokable
//! inputs) reach it and through how many inversions; a source arriving
//! with *both* parities marks reconvergent fan-in — the classic
//! static-1/static-0 hazard shape (`y = a·ā` momentarily pulses while
//! `a` switches).
//!
//! * `NC1301` — a reconvergent source on a flop clock pin (error: a
//!   hazard pulse is a spurious capture edge);
//! * `NC1302` — the same on a latch enable (warning: transparency
//!   window glitch);
//! * `NC1303` — a non-unate gate (XOR/XNOR) anywhere in a clock or
//!   enable cone (warning: non-unate logic glitches for *every* input
//!   change, not just reconvergent ones).

use dsim::netlist::{Component, GateOp, Netlist, SignalId};

use crate::diagnostic::{Diagnostic, Location, Report};

use super::engine::{solve, Direction};
use super::lattice::{DomainSet, Lattice, ParityMap};
use super::NetContext;

/// Cone-membership bits carried by the backward pass (reusing the
/// small bitmask lattice).
const CLK_CONE: usize = 0;
const EN_CONE: usize = 1;

/// The NC13xx rules.
pub(super) fn check(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    let cones = solve_cones(nl, ctx);
    let parity = solve_parity(nl, ctx);

    for comp in nl.components() {
        let (pin, q, rule, what) = match comp {
            Component::Dff { clk, q, .. } => (*clk, *q, crate::pass::rules::NC1301, "clock pin"),
            Component::Latch { en, q, .. } => (*en, *q, crate::pass::rules::NC1302, "enable pin"),
            _ => continue,
        };
        // Pokable testbench inputs are quasi-static configuration
        // (mux selects, mode bits): they do not switch while a
        // capture is in flight, so their reconvergence cannot pulse
        // a live clock. Clocked and oscillating sources can.
        let mut sources: Vec<&str> = parity[pin.index()]
            .reconvergent()
            .filter(|&s| !ctx.pokable[s])
            .map(|s| nl.signal_name(SignalId::from_index(s)))
            .collect();
        if sources.is_empty() {
            continue;
        }
        sources.sort_unstable();
        report.push(Diagnostic::at(
            rule,
            Location::object(nl.signal_name(pin)),
            format!(
                "the {what} of `{}` sees `{}` through both an inverting and a \
                 non-inverting path; a static hazard while it switches is a spurious \
                 capture edge — retime the gating onto one register or add a \
                 hazard-free cover",
                nl.signal_name(q),
                sources.join("`, `"),
            ),
        ));
    }

    for comp in nl.components() {
        if let Component::Gate {
            op: GateOp::Xor | GateOp::Xnor,
            output,
            ..
        } = comp
        {
            let bits = cones[output.index()];
            if !bits.is_empty() {
                let cone = if DomainSet::root(CLK_CONE).leq(&bits) {
                    "clock"
                } else {
                    "enable"
                };
                report.push(Diagnostic::at(
                    crate::pass::rules::NC1303,
                    Location::object(nl.signal_name(*output)),
                    format!(
                        "XOR/XNOR gate `{}` sits in a {cone} cone; non-unate logic \
                         glitches on every input transition — keep capture controls \
                         unate or register the result first",
                        nl.signal_name(*output)
                    ),
                ));
            }
        }
    }
}

/// Backward pass: which signals combinationally reach a clk/en pin.
fn solve_cones(nl: &Netlist, ctx: &NetContext) -> Vec<DomainSet> {
    let mut seed = vec![DomainSet::bottom(); nl.signal_count()];
    for comp in nl.components() {
        match comp {
            Component::Dff { clk, .. } => {
                let i = clk.index();
                seed[i] = seed[i].join(&DomainSet::root(CLK_CONE));
            }
            Component::Latch { en, .. } => {
                let i = en.index();
                seed[i] = seed[i].join(&DomainSet::root(EN_CONE));
            }
            _ => {}
        }
    }
    solve(
        nl,
        &ctx.lv,
        Direction::Backward,
        seed,
        &mut |nl, ci, values| {
            // Cones stop at sequential and clock boundaries.
            if let Component::Gate { inputs, output, .. } = &nl.components()[ci] {
                let bits = values[output.index()];
                if !bits.is_empty() {
                    return inputs.iter().map(|&s| (s, bits)).collect();
                }
            }
            Vec::new()
        },
    )
    .values
}

/// Forward pass: per-signal source→parity map. Sources (sequential
/// outputs, clock outputs, ring-SCC outputs, pokable inputs) cut the
/// graph, so parity only accumulates across the combinational logic
/// between them.
fn solve_parity(nl: &Netlist, ctx: &NetContext) -> Vec<ParityMap> {
    let mut seed = vec![ParityMap::bottom(); nl.signal_count()];
    let mut is_source = vec![false; nl.signal_count()];
    for (ci, comp) in nl.components().iter().enumerate() {
        let src = match comp {
            Component::Dff { q, .. } | Component::Latch { q, .. } => Some(*q),
            Component::Clock { output, .. } => Some(*output),
            Component::Gate { output, .. } if ctx.comb_cycle_member[ci] => Some(*output),
            Component::Gate { .. } => None,
        };
        if let Some(s) = src {
            is_source[s.index()] = true;
        }
    }
    for id in nl.signal_ids() {
        if ctx.drivers[id.index()].is_none() {
            is_source[id.index()] = true; // pokable or floating input
        }
    }
    for (i, &src) in is_source.iter().enumerate() {
        if src {
            seed[i] = ParityMap::source(i);
        }
    }
    solve(
        nl,
        &ctx.lv,
        Direction::Forward,
        seed,
        &mut |nl, ci, values| {
            if ctx.comb_cycle_member[ci] {
                return Vec::new(); // ring outputs are opaque sources
            }
            if let Component::Gate {
                op, inputs, output, ..
            } = &nl.components()[ci]
            {
                if is_source[output.index()] {
                    return Vec::new();
                }
                let mut acc = ParityMap::bottom();
                for s in inputs {
                    acc = acc.join(&values[s.index()]);
                }
                let out = match op {
                    GateOp::Buf | GateOp::And | GateOp::Or => acc,
                    GateOp::Inv | GateOp::Nand | GateOp::Nor => acc.flipped(),
                    GateOp::Xor | GateOp::Xnor => acc.saturated(),
                };
                return vec![(*output, out)];
            }
            Vec::new()
        },
    )
    .values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::check_netlist_dataflow;
    use dsim::builders::{DFF_DELAY_FS, GATE_DELAY_FS};
    use dsim::logic::Logic;

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn reconvergent_clock_gating_fires_nc1301() {
        // gclk = en AND (NOT en) reconverges on the clock pin: the
        // canonical static-0 hazard.
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let en = nl.signal_with_init("en", Logic::Zero);
        let enq = nl.signal_with_init("enq", Logic::Zero);
        nl.dff(en, clk, None, enq, DFF_DELAY_FS);
        let enb = nl.signal("enb");
        nl.gate(GateOp::Inv, &[enq], enb, GATE_DELAY_FS);
        let gclk = nl.signal("gclk");
        nl.gate(GateOp::And, &[enq, enb], gclk, GATE_DELAY_FS);
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(d, gclk, None, q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1301"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn clean_single_path_gating_passes() {
        // gclk = clk AND enq: unate, single parity — no hazard.
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let en = nl.signal_with_init("en", Logic::One);
        let enq = nl.signal_with_init("enq", Logic::One);
        nl.dff(en, clk, None, enq, DFF_DELAY_FS);
        let gclk = nl.signal("gclk");
        nl.gate(GateOp::And, &[clk, enq], gclk, GATE_DELAY_FS);
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(d, gclk, None, q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            !rules(&report).iter().any(|r| r.starts_with("NC13")),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn latch_enable_hazard_fires_nc1302_not_error() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let a = nl.signal_with_init("a", Logic::Zero);
        let aq = nl.signal_with_init("aq", Logic::Zero);
        nl.dff(a, clk, None, aq, DFF_DELAY_FS);
        let ab = nl.signal("ab");
        nl.gate(GateOp::Inv, &[aq], ab, GATE_DELAY_FS);
        let en = nl.signal("en");
        nl.gate(GateOp::Or, &[aq, ab], en, GATE_DELAY_FS);
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.latch(d, en, None, q, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1302"),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn xor_in_clock_cone_fires_nc1303() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let a = nl.signal_with_init("a", Logic::Zero);
        let b = nl.signal_with_init("b", Logic::One);
        let mux = nl.signal("mux");
        nl.gate(GateOp::Xor, &[a, b], mux, GATE_DELAY_FS);
        let gclk = nl.signal("gclk");
        nl.gate(GateOp::And, &[clk, mux], gclk, GATE_DELAY_FS);
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(d, gclk, None, q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1303"),
            "{}",
            report.render_text()
        );
        // XOR in a *data* path is fine.
        let mut nl2 = Netlist::new();
        let clk2 = nl2.signal("clk");
        nl2.symmetric_clock(clk2, 2_000_000, 1_000_000);
        let x = nl2.signal_with_init("x", Logic::Zero);
        let y = nl2.signal_with_init("y", Logic::One);
        let s = nl2.signal("s");
        nl2.gate(GateOp::Xor, &[x, y], s, GATE_DELAY_FS);
        let q2 = nl2.signal_with_init("q2", Logic::Zero);
        nl2.dff(s, clk2, None, q2, DFF_DELAY_FS);
        let report2 = check_netlist_dataflow(&nl2);
        assert!(
            !rules(&report2).contains(&"NC1303"),
            "{}",
            report2.render_text()
        );
    }
}

//! NC12xx — X-propagation: a forward fixpoint on the 3-valued
//! initialization lattice [`InitVal`] proving every sequential element
//! reaches a defined value after the reset/configuration sequence.
//!
//! * `NC1201` — a flop or latch output may hold `X` (never provably
//!   initialized: no reset, no defined init, no defined data source);
//! * `NC1202` — a clock or enable pin may be `X` (an `X` edge captures
//!   garbage silently — the corruption class `faultsim` can only
//!   sample, proven absent here);
//! * `NC1203` — an unconsumed (primary) output may be `X`.
//!
//! Constants are tracked precisely through controlling inputs — an AND
//! with a provably-zero input yields zero even when the other input is
//! `X` — so a gated cone that reset parks at a constant does not flag.
//! Pokable testbench inputs are `Def`, never a constant: the bench may
//! drive them either way, so nothing may rely on their boot value to
//! mask an `X`.

use dsim::logic::Logic;
use dsim::netlist::{Component, GateOp, Netlist};

use crate::diagnostic::{Diagnostic, Location, Report};

use super::engine::{solve, Direction};
use super::lattice::{InitVal, Lattice};
use super::NetContext;

/// The NC12xx rules.
pub(super) fn check(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    let values = solve_init(nl, ctx);
    for comp in nl.components() {
        let (q, control, kind) = match comp {
            Component::Dff { clk, q, .. } => (*q, *clk, "flop"),
            Component::Latch { en, q, .. } => (*q, *en, "latch"),
            _ => continue,
        };
        if values[control.index()] == InitVal::X {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1202,
                Location::object(nl.signal_name(control)),
                format!(
                    "{kind} `{}` is clocked/enabled by `{}`, which may be X after \
                     reset; an X edge captures garbage silently — drive the pin from \
                     a clock source or an initialized net",
                    nl.signal_name(q),
                    nl.signal_name(control)
                ),
            ));
        }
        if values[q.index()] == InitVal::X {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1201,
                Location::object(nl.signal_name(q)),
                format!(
                    "{kind} `{}` may never reach a defined value: no reset, no definite \
                     initial value, and no provably-defined data source — add an \
                     asynchronous reset or initialize the net",
                    nl.signal_name(q)
                ),
            ));
        }
    }
    for id in nl.signal_ids() {
        let i = id.index();
        if ctx.drivers[i].is_some() && ctx.readers[i].is_empty() && values[i] == InitVal::X {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1203,
                Location::object(nl.signal_name(id)),
                format!(
                    "primary output `{}` may be X after reset",
                    nl.signal_name(id)
                ),
            ));
        }
    }
}

fn solve_init(nl: &Netlist, ctx: &NetContext) -> Vec<InitVal> {
    let mut seed = vec![InitVal::bottom(); nl.signal_count()];
    for id in nl.signal_ids() {
        let i = id.index();
        if ctx.drivers[i].is_none() {
            // Pokable inputs are Def (the bench may drive them either
            // way); truly floating nets are X.
            seed[i] = if ctx.pokable[i] {
                InitVal::Def
            } else {
                InitVal::X
            };
        }
    }
    // Ring members oscillate: a definite initial value yields a
    // defined (toggling) level, an X initial stays X.
    for (ci, comp) in nl.components().iter().enumerate() {
        if !ctx.comb_cycle_member[ci] {
            continue;
        }
        if let Component::Gate { output, .. } = comp {
            let i = output.index();
            let v = if nl.initial_value(*output) == Logic::X {
                InitVal::X
            } else {
                InitVal::Def
            };
            seed[i] = seed[i].join(&v);
        }
    }
    let fp = solve(
        nl,
        &ctx.lv,
        Direction::Forward,
        seed,
        &mut |nl, ci, values| match &nl.components()[ci] {
            Component::Gate {
                op, inputs, output, ..
            } => {
                let ins: Vec<InitVal> = inputs.iter().map(|s| values[s.index()]).collect();
                vec![(*output, eval(*op, &ins))]
            }
            Component::Dff {
                d, clk, rst_n, q, ..
            } => {
                // "After reset": a reset pin defines the element no
                // matter how it powered up; without one, only the
                // declared initial value does.
                let mut v = if rst_n.is_some() {
                    InitVal::Zero
                } else {
                    InitVal::of(nl.initial_value(*q))
                };
                v = v.join(&values[d.index()]);
                if values[clk.index()] == InitVal::X {
                    v = v.join(&InitVal::X);
                }
                vec![(*q, v)]
            }
            Component::Latch {
                d, en, rst_n, q, ..
            } => {
                let mut v = if rst_n.is_some() {
                    InitVal::Zero
                } else {
                    InitVal::of(nl.initial_value(*q))
                };
                v = v.join(&values[d.index()]);
                if values[en.index()] == InitVal::X {
                    v = v.join(&InitVal::X);
                }
                vec![(*q, v)]
            }
            Component::Clock { output, .. } => vec![(*output, InitVal::Def)],
        },
    );
    fp.values
}

/// Abstract three-valued gate evaluation with controlling constants.
/// Public so the property suite can check it is monotone — the
/// precondition the fixpoint engine's termination argument rests on.
pub fn eval(op: GateOp, ins: &[InitVal]) -> InitVal {
    use InitVal::*;
    let not = |v: InitVal| match v {
        Zero => One,
        One => Zero,
        other => other,
    };
    match op {
        GateOp::Buf => ins[0],
        GateOp::Inv => not(ins[0]),
        GateOp::And | GateOp::Nand => {
            // Bot is checked before the controlling constant: γ(Bot) is
            // the empty behavior set, so the image of any gate over it
            // is empty. Checking Zero first would be non-monotone
            // (raising Zero→Def could drop the output from Zero to
            // Bot), which the property suite rejects.
            let v = if ins.contains(&Bot) {
                Bot
            } else if ins.contains(&Zero) {
                Zero // controlling input wins even over X
            } else if ins.contains(&X) {
                X
            } else if ins.iter().all(|&i| i == One) {
                One
            } else {
                Def
            };
            if op == GateOp::Nand {
                not(v)
            } else {
                v
            }
        }
        GateOp::Or | GateOp::Nor => {
            let v = if ins.contains(&Bot) {
                Bot // see the AND case: Bot must dominate for monotonicity
            } else if ins.contains(&One) {
                One
            } else if ins.contains(&X) {
                X
            } else if ins.iter().all(|&i| i == Zero) {
                Zero
            } else {
                Def
            };
            if op == GateOp::Nor {
                not(v)
            } else {
                v
            }
        }
        GateOp::Xor | GateOp::Xnor => {
            let v = if ins.contains(&Bot) {
                Bot
            } else if ins.contains(&X) {
                X
            } else if ins.iter().all(|&i| matches!(i, Zero | One)) {
                let ones = ins.iter().filter(|&&i| i == One).count();
                if ones % 2 == 1 {
                    One
                } else {
                    Zero
                }
            } else {
                Def
            };
            if op == GateOp::Xnor {
                not(v)
            } else {
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::check_netlist_dataflow;
    use dsim::builders::DFF_DELAY_FS;

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn controlling_constant_masks_x() {
        use InitVal::*;
        assert_eq!(eval(GateOp::And, &[Zero, X]), Zero);
        assert_eq!(eval(GateOp::Or, &[One, X]), One);
        assert_eq!(eval(GateOp::Nand, &[Zero, X]), One);
        assert_eq!(eval(GateOp::And, &[Def, X]), X);
        assert_eq!(eval(GateOp::Xor, &[One, Zero]), One);
        assert_eq!(eval(GateOp::Xor, &[Def, One]), Def);
        assert_eq!(eval(GateOp::Xnor, &[X, Zero]), X);
        assert_eq!(eval(GateOp::And, &[Bot, Def]), Bot);
    }

    #[test]
    fn unresettable_flop_fires_nc1201() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        // q starts X, has no reset, and recirculates itself: nothing
        // ever defines it.
        let q = nl.signal("q");
        let qb = nl.signal("qb");
        nl.gate(GateOp::Inv, &[q], qb, 100_000);
        nl.dff(qb, clk, None, q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1201"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn reset_discharges_nc1201() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let q = nl.signal("q");
        let qb = nl.signal("qb");
        nl.gate(GateOp::Inv, &[q], qb, 100_000);
        nl.dff(qb, clk, Some(rst_n), q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            !rules(&report).iter().any(|r| r.starts_with("NC12")),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn x_clock_fires_nc1202() {
        let mut nl = Netlist::new();
        // The "clock" is an uninitialized flop output: may be X.
        let real_clk = nl.signal("real_clk");
        nl.symmetric_clock(real_clk, 2_000_000, 1_000_000);
        let gclk = nl.signal("gclk");
        nl.dff(real_clk, real_clk, None, gclk, DFF_DELAY_FS); // q init X, no reset
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(d, gclk, None, q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1202"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn x_primary_output_fires_nc1203() {
        let mut nl = Netlist::new();
        let a = nl.signal("a"); // floating: X
        let y = nl.signal("y"); // driven, unconsumed
        nl.gate(GateOp::Buf, &[a], y, 100_000);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1203"),
            "{}",
            report.render_text()
        );
    }
}

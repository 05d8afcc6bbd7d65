//! Generic dataflow analyses over gate-level netlists (NC11xx–NC14xx).
//!
//! A worklist fixpoint [`engine`] runs [`lattice`]-valued analyses
//! over the SCC condensation `sta::levelize` computes; four rule
//! families ride on it:
//!
//! | family   | module       | what it proves / flags |
//! |----------|--------------|------------------------|
//! | `NC11xx` | `cdc`        | clock-domain crossings: unsynchronized, single-flop, uncoded multi-bit, latch capture |
//! | `NC12xx` | `xprop`      | 3-valued initialization: every sequential element reaches a defined value after reset |
//! | `NC13xx` | `hazard`     | static hazards and non-unate gates on clock/enable cones |
//! | `NC14xx` | `structural` | floating inputs, dead gates, fan-out over the stdcell drive budget |
//!
//! The CLI and the tests reach all four through one call,
//! [`check_netlist_dataflow`], which builds their shared `NetContext`
//! once.

use dsim::netlist::{Component, Netlist, SignalId};
use sta::levelize::{component_successors, levelize, Levelization};

use crate::diagnostic::Report;

pub mod engine;
pub mod lattice;

mod cdc;
mod hazard;
mod structural;
mod xprop;

pub use engine::{solve, Direction, Fixpoint};
pub use lattice::{DomainSet, InitVal, Lattice, ParityMap, Reach};
pub use xprop::eval as xprop_eval;

/// Precomputed structure every dataflow family needs: the SCC
/// condensation, driver/reader tables, which components sit in purely
/// combinational cycles (ring oscillators), and the inferred
/// clock-domain roots.
pub(crate) struct NetContext {
    /// SCC condensation in topological order.
    pub lv: Levelization,
    /// Per-signal driving component.
    pub drivers: Vec<Option<usize>>,
    /// Per-signal reading components.
    pub readers: Vec<Vec<usize>>,
    /// Per-component: member of a combinational (gate-only) cycle.
    pub comb_cycle_member: Vec<bool>,
    /// Domain roots: clock outputs and ring-SCC member outputs, with
    /// their domain bit (ring members of one SCC share a bit).
    pub domain_roots: Vec<(SignalId, usize)>,
    /// Per-signal: driverless with a definite initial value — a
    /// pokable testbench input by this workspace's convention.
    pub pokable: Vec<bool>,
}

impl NetContext {
    pub fn new(nl: &Netlist) -> Self {
        let succ = component_successors(nl);
        let lv = levelize(nl);
        let mut comb_cycle_member = vec![false; nl.components().len()];
        for scc in &lv.sccs {
            let cyclic = scc.len() > 1 || scc.iter().any(|&c| succ[c].contains(&c));
            if !cyclic {
                continue;
            }
            let all_gates = scc
                .iter()
                .all(|&c| matches!(nl.components()[c], Component::Gate { .. }));
            if all_gates {
                for &c in scc {
                    comb_cycle_member[c] = true;
                }
            }
        }
        let drivers = nl.driver_table();
        let readers = nl.fanout();
        let mut domain_roots = Vec::new();
        let mut next_bit = 0usize;
        for root in nl.clock_roots() {
            domain_roots.push((root, next_bit));
            next_bit += 1;
        }
        for scc in &lv.sccs {
            if !scc.iter().all(|&c| comb_cycle_member[c]) {
                continue;
            }
            for &c in scc {
                if let Some(out) = nl.output_of(c) {
                    domain_roots.push((out, next_bit));
                }
            }
            next_bit += 1;
        }
        let pokable = nl
            .signal_ids()
            .iter()
            .map(|&id| {
                drivers[id.index()].is_none() && nl.initial_value(id) != dsim::logic::Logic::X
            })
            .collect();
        NetContext {
            lv,
            drivers,
            readers,
            comb_cycle_member,
            domain_roots,
            pokable,
        }
    }
}

/// Runs all four dataflow families over one netlist.
pub fn check_netlist_dataflow(nl: &Netlist) -> Report {
    let ctx = NetContext::new(nl);
    let mut report = Report::new();
    cdc::check(nl, &ctx, &mut report);
    xprop::check(nl, &ctx, &mut report);
    hazard::check(nl, &ctx, &mut report);
    structural::check(nl, &ctx, &mut report);
    report.sort();
    report
}

//! Combinational-loop classification and analytic period extraction.
//!
//! Every cyclic strongly connected component of the gate graph is
//! classified:
//!
//! * **Ring** — a simple cycle (each gate has exactly one in-loop
//!   input) with odd inversion parity. It oscillates, and its period is
//!   the closed form of the paper's Eq. 1:
//!   `T = Σᵢ (t_PHL,i + t_PLH,i)` — one full oscillation carries one
//!   rising and one falling edge through every stage.
//! * **Latching** — a simple cycle with even inversion parity. Positive
//!   feedback: it settles into one of two stable states and does *not*
//!   oscillate (the same condition `dsim`'s `ring_oscillator` refuses
//!   as `EvenInversionRing`), so no period is reported.
//! * **Tangled** — not a simple cycle (some gate has several in-loop
//!   inputs). Oscillation may or may not occur depending on logic
//!   function and state; no closed-form period exists.

use dsim::netlist::GateOp;

use crate::graph::GateNode;
use crate::model::DelayFs;

/// What a combinational loop does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopKind {
    /// Simple odd-parity cycle: oscillates with the given period.
    Ring {
        /// Analytic oscillation period, femtoseconds.
        period_fs: f64,
    },
    /// Simple even-parity cycle: bistable, never oscillates.
    Latching,
    /// Not a simple cycle; no closed-form behaviour.
    Tangled,
}

/// One classified combinational loop.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Component indices of the gates on the loop, in loop order for
    /// simple cycles (arbitrary order for tangled components).
    pub comps: Vec<usize>,
    /// Per-stage delay pairs, aligned with `comps`.
    pub delays: Vec<DelayFs>,
    /// How many loop gates invert (INV/NAND/NOR count; XOR/XNOR count
    /// as non-inverting for parity purposes, matching netcheck).
    pub inversions: usize,
    /// The classification.
    pub kind: LoopKind,
}

impl LoopAnalysis {
    /// Gates on the loop.
    pub fn stage_count(&self) -> usize {
        self.comps.len()
    }

    /// Sum of both-edge delays over the loop — the Eq. 1 period,
    /// whether or not the loop actually oscillates.
    pub fn pair_sum_fs(&self) -> f64 {
        self.delays.iter().map(DelayFs::pair_sum_fs).sum()
    }
}

fn inverts(op: GateOp) -> bool {
    matches!(op, GateOp::Inv | GateOp::Nand | GateOp::Nor)
}

/// Classifies each cyclic SCC of the gate graph. `sccs` holds gate
/// *slots* (indices into `gates`); `driver_of` maps a signal index to
/// the slot of its driving gate.
pub(crate) fn classify_sccs(
    gates: &[GateNode],
    sccs: &[Vec<usize>],
    driver_of: &[Option<usize>],
) -> Vec<LoopAnalysis> {
    let mut out = Vec::with_capacity(sccs.len());
    for scc in sccs {
        let member: std::collections::BTreeSet<usize> = scc.iter().copied().collect();
        // In-loop predecessors of each member gate.
        let mut in_loop_preds: Vec<(usize, Vec<usize>)> = Vec::with_capacity(scc.len());
        for &slot in scc {
            let preds: Vec<usize> = gates[slot]
                .inputs
                .iter()
                .filter_map(|s| driver_of[s.index()])
                .filter(|p| member.contains(p))
                .collect();
            in_loop_preds.push((slot, preds));
        }
        let simple = in_loop_preds.iter().all(|(_, p)| p.len() == 1);

        let ordered: Vec<usize> = if simple {
            // Walk the unique predecessor chain to recover loop order.
            let start = scc[0];
            let pred_of = |slot: usize| {
                in_loop_preds
                    .iter()
                    .find(|(s, _)| *s == slot)
                    .map(|(_, p)| p[0])
                    .expect("member gate")
            };
            let mut chain = vec![start];
            let mut cur = pred_of(start);
            while cur != start {
                chain.push(cur);
                cur = pred_of(cur);
            }
            chain.reverse(); // predecessor-first → loop order
            chain
        } else {
            scc.clone()
        };

        let inversions = ordered.iter().filter(|&&s| inverts(gates[s].op)).count();
        let delays: Vec<DelayFs> = ordered.iter().map(|&s| gates[s].delay).collect();
        let kind = if !simple {
            LoopKind::Tangled
        } else if inversions % 2 == 1 {
            LoopKind::Ring {
                period_fs: delays.iter().map(DelayFs::pair_sum_fs).sum(),
            }
        } else {
            LoopKind::Latching
        };
        out.push(LoopAnalysis {
            comps: ordered.iter().map(|&s| gates[s].comp).collect(),
            delays,
            inversions,
            kind,
        });
    }
    // Deterministic report order: by smallest member component index.
    out.sort_by_key(|l| l.comps.iter().copied().min().unwrap_or(usize::MAX));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, netlist_delays};
    use dsim::netlist::{GateOp, Netlist};

    #[test]
    fn odd_ring_gets_eq1_period() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 3], "r", 7_000).unwrap();
        let a = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(a.loops.len(), 1);
        let l = &a.loops[0];
        assert_eq!(l.stage_count(), 3);
        assert_eq!(l.inversions, 3);
        // Symmetric 7 ps stages: T = 3 * (7 + 7) ps.
        assert_eq!(
            l.kind,
            LoopKind::Ring {
                period_fs: 42_000.0
            }
        );
    }

    #[test]
    fn even_parity_loop_latches() {
        // 4 inverters wired head-to-tail by hand (the builder refuses
        // to construct this on purpose).
        let mut nl = Netlist::new();
        let s: Vec<_> = (0..4).map(|i| nl.signal(format!("s{i}"))).collect();
        for i in 0..4 {
            nl.gate(GateOp::Inv, &[s[i]], s[(i + 1) % 4], 5_000);
        }
        let a = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(a.loops.len(), 1);
        let l = &a.loops[0];
        assert_eq!(l.kind, LoopKind::Latching);
        assert_eq!(l.inversions, 4);
        assert_eq!(l.pair_sum_fs(), 40_000.0, "Eq. 1 sum still reported");
        assert!(a.ring_periods_fs().is_empty(), "no bogus period");
    }

    #[test]
    fn cross_coupled_pair_is_tangled_or_latching_not_ring() {
        // Classic SR latch out of two NOR gates: each gate has one
        // in-loop input, so the cycle is simple — but with 2 inversions
        // it is Latching, never a Ring.
        let mut nl = Netlist::new();
        let q = nl.signal("q");
        let qb = nl.signal("qb");
        let s = nl.signal("s");
        let r = nl.signal("r");
        nl.gate(GateOp::Nor, &[r, qb], q, 1_000);
        nl.gate(GateOp::Nor, &[s, q], qb, 1_000);
        let a = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(a.loops.len(), 1);
        assert_eq!(a.loops[0].kind, LoopKind::Latching);
    }

    #[test]
    fn multi_input_reconvergence_is_tangled() {
        // g0 feeds g1 and g2; both feed g3; g3 feeds g0 — g3 and g0
        // are on every cycle, but g3 has two in-loop inputs.
        let mut nl = Netlist::new();
        let a = nl.signal("a");
        let b = nl.signal("b");
        let c = nl.signal("c");
        let d = nl.signal("d");
        nl.gate(GateOp::Inv, &[d], a, 1_000);
        nl.gate(GateOp::Inv, &[a], b, 1_000);
        nl.gate(GateOp::Inv, &[a], c, 1_000);
        nl.gate(GateOp::Nand, &[b, c], d, 1_000);
        let an = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(an.loops.len(), 1);
        assert_eq!(an.loops[0].kind, LoopKind::Tangled);
        assert_eq!(an.loops[0].stage_count(), 4);
    }
}

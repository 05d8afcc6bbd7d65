//! NC11xx — clock-domain-crossing analysis.
//!
//! Domains are inferred, not annotated: every free-running clock
//! source and every combinational ring SCC is a domain root. A forward
//! [`DomainSet`] fixpoint tags each signal with the set of domains
//! that can reach it, **re-anchoring at sequential elements** (a
//! flop's output belongs to its capture clock's domain — that is what
//! a synchronizer *does*). A crossing exists where a capture element's
//! data cone carries a domain its clock pin does not.
//!
//! * `NC1101` — the crossing converges with other logic before the
//!   capture flop (combinational glitches can be sampled);
//! * `NC1102` — a lone capture flop with no second stage (metastable
//!   output is consumed directly; a 2-FF synchronizer is required);
//! * `NC1103` — two or more signals of one foreign domain converge
//!   into a single capture point (an uncoded multi-bit bus: skew makes
//!   intermediate codes visible — Gray-code it or snapshot-latch it);
//! * `NC1104` — a transparent latch captures a crossing.
//!
//! Asynchronous reset pins are exempt: reset networks are crossings by
//! design and are derated separately.

use std::collections::BTreeSet;

use dsim::netlist::{Component, Netlist, SignalId};

use crate::diagnostic::{Diagnostic, Location, Report};

use super::engine::{solve, Direction};
use super::lattice::{DomainSet, Lattice};
use super::NetContext;

/// The NC11xx rules.
pub(super) fn check(nl: &Netlist, ctx: &NetContext, report: &mut Report) {
    let domains = solve_domains(nl, ctx);
    let classify = Classifier {
        nl,
        ctx,
        domains: &domains,
    };
    for (ci, comp) in nl.components().iter().enumerate() {
        match comp {
            Component::Dff { d, clk, q, .. } => {
                classify.check_flop(ci, *d, *clk, *q, report);
            }
            Component::Latch { d, en, q, .. } => {
                let en_doms = domains[en.index()];
                let foreign = domains[d.index()].minus(en_doms);
                if !en_doms.is_empty() && !foreign.is_empty() {
                    report.push(Diagnostic::at(
                        crate::pass::rules::NC1104,
                        Location::object(nl.signal_name(*q)),
                        format!(
                            "latch `{}` captures data from another clock domain while \
                             transparent; glitches pass straight through — capture with \
                             an edge-triggered 2-FF synchronizer instead",
                            nl.signal_name(*q)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Runs the forward domain fixpoint.
fn solve_domains(nl: &Netlist, ctx: &NetContext) -> Vec<DomainSet> {
    let mut seed = vec![DomainSet::bottom(); nl.signal_count()];
    for (sig, bit) in &ctx.domain_roots {
        let i = sig.index();
        seed[i] = seed[i].join(&DomainSet::root(*bit));
    }
    let root_seed = seed.clone();
    let fp = solve(
        nl,
        &ctx.lv,
        Direction::Forward,
        seed,
        &mut |nl, ci, values| match &nl.components()[ci] {
            Component::Gate { inputs, output, .. } => {
                let mut v = root_seed[output.index()];
                for s in inputs {
                    v = v.join(&values[s.index()]);
                }
                vec![(*output, v)]
            }
            // Re-anchor: the output domain is the *capture* domain.
            Component::Dff { clk, q, .. } => vec![(*q, values[clk.index()])],
            Component::Latch { en, q, .. } => vec![(*q, values[en.index()])],
            Component::Clock { output, .. } => vec![(*output, root_seed[output.index()])],
        },
    );
    fp.values
}

struct Classifier<'a> {
    nl: &'a Netlist,
    ctx: &'a NetContext,
    domains: &'a [DomainSet],
}

impl Classifier<'_> {
    fn check_flop(&self, ci: usize, d: SignalId, clk: SignalId, q: SignalId, report: &mut Report) {
        let nl = self.nl;
        let clk_doms = self.domains[clk.index()];
        if clk_doms.is_empty() {
            return; // clock pin sourced by pure testbench data: no basis
        }
        let foreign = self.domains[d.index()].minus(clk_doms);
        if foreign.is_empty() {
            return;
        }
        // Walk the data cone back to its boundary sources.
        let cone = self.data_cone(d);
        let foreign_srcs: Vec<SignalId> = cone
            .sources
            .iter()
            .copied()
            .filter(|s| !self.domains[s.index()].minus(clk_doms).is_empty())
            .collect();
        let names = |list: &[SignalId]| {
            let mut v: Vec<&str> = list.iter().map(|&s| nl.signal_name(s)).collect();
            v.sort_unstable();
            v.join("`, `")
        };
        if foreign_srcs.len() >= 2 {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1103,
                Location::object(nl.signal_name(q)),
                format!(
                    "flop `{}` captures {} signals from a foreign clock domain in one data \
                     cone (`{}`); inter-bit skew exposes intermediate codes — Gray-code the \
                     bus or snapshot-latch it before crossing",
                    nl.signal_name(q),
                    foreign_srcs.len(),
                    names(&foreign_srcs)
                ),
            ));
        } else if cone.sources.len() >= 2 {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1101,
                Location::object(nl.signal_name(q)),
                format!(
                    "flop `{}` captures async signal `{}` through combinational logic that \
                     also mixes in `{}`; glitches from the convergence can be sampled — \
                     synchronize the crossing first, combine after",
                    nl.signal_name(q),
                    names(&foreign_srcs),
                    names(
                        &cone
                            .sources
                            .iter()
                            .copied()
                            .filter(|s| !foreign_srcs.contains(s))
                            .collect::<Vec<_>>()
                    ),
                ),
            ));
        } else if !self.is_first_sync_stage(ci, clk, q) {
            report.push(Diagnostic::at(
                crate::pass::rules::NC1102,
                Location::object(nl.signal_name(q)),
                format!(
                    "flop `{}` captures async signal `{}` with a single stage; its output \
                     can go metastable into downstream logic — add a second flop on the \
                     same clock (2-FF synchronizer)",
                    nl.signal_name(q),
                    names(&foreign_srcs)
                ),
            ));
        }
    }

    /// The combinational cone feeding `d`: boundary sources are
    /// sequential/clock/ring outputs and driverless inputs. A chain of
    /// single-input gates (BUF/INV) does not count as convergence.
    fn data_cone(&self, d: SignalId) -> Cone {
        let nl = self.nl;
        let mut sources = BTreeSet::new();
        let mut seen = BTreeSet::new();
        let mut stack = vec![d];
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            let boundary = match self.ctx.drivers[s.index()] {
                None => true,
                Some(driver) => {
                    !matches!(nl.components()[driver], Component::Gate { .. })
                        || self.ctx.comb_cycle_member[driver]
                }
            };
            if boundary {
                sources.insert(s);
            } else if let Some(Component::Gate { inputs, .. }) =
                self.ctx.drivers[s.index()].map(|c| &nl.components()[c])
            {
                stack.extend(inputs.iter().copied());
            }
        }
        Cone {
            sources: sources.into_iter().collect(),
        }
    }

    /// Recognizes the first stage of a 2-FF synchronizer: the capture
    /// flop's output must feed *only* the data pins of flops on the
    /// same clock (at least one) — no combinational consumer may see
    /// the potentially-metastable value.
    fn is_first_sync_stage(&self, ci: usize, clk: SignalId, q: SignalId) -> bool {
        let nl = self.nl;
        let readers = &self.ctx.readers[q.index()];
        if readers.is_empty() {
            return false;
        }
        readers.iter().all(|&rc| {
            rc != ci
                && matches!(
                    &nl.components()[rc],
                    Component::Dff { d, clk: c2, .. } if *d == q && *c2 == clk
                )
        })
    }
}

struct Cone {
    sources: Vec<SignalId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::check_netlist_dataflow;
    use dsim::builders::{ripple_counter, DFF_DELAY_FS, GATE_DELAY_FS};
    use dsim::logic::Logic;

    fn two_clocks(nl: &mut Netlist) -> (SignalId, SignalId) {
        let a = nl.signal("clk_a");
        let b = nl.signal("clk_b");
        nl.symmetric_clock(a, 1_500_000, 750_000);
        nl.symmetric_clock(b, 2_000_000, 1_000_000);
        (a, b)
    }

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn single_flop_capture_fires_nc1102() {
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let src = nl.signal_with_init("src", Logic::Zero);
        nl.dff(clk_a, clk_a, None, src, DFF_DELAY_FS); // src toggles in domain A
        let cap = nl.signal_with_init("cap", Logic::Zero);
        nl.dff(src, clk_b, None, cap, DFF_DELAY_FS);
        let used = nl.signal("used");
        nl.gate(dsim::netlist::GateOp::Inv, &[cap], used, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1102"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn two_ff_synchronizer_is_clean() {
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let src = nl.signal_with_init("src", Logic::Zero);
        nl.dff(clk_a, clk_a, None, src, DFF_DELAY_FS);
        let meta = nl.signal_with_init("meta", Logic::Zero);
        let synced = nl.signal_with_init("synced", Logic::Zero);
        nl.dff(src, clk_b, None, meta, DFF_DELAY_FS);
        nl.dff(meta, clk_b, None, synced, DFF_DELAY_FS);
        let used = nl.signal("used");
        nl.gate(dsim::netlist::GateOp::Inv, &[synced], used, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            !rules(&report).iter().any(|r| r.starts_with("NC11")),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn crossing_through_logic_fires_nc1101() {
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let src = nl.signal_with_init("src", Logic::Zero);
        nl.dff(clk_a, clk_a, None, src, DFF_DELAY_FS);
        let en = nl.signal_with_init("en", Logic::One);
        let mixed = nl.signal("mixed");
        nl.gate(dsim::netlist::GateOp::And, &[src, en], mixed, GATE_DELAY_FS);
        let cap = nl.signal_with_init("cap", Logic::Zero);
        nl.dff(mixed, clk_b, None, cap, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1101"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn raw_binary_counter_capture_fires_nc1103() {
        // The issue's canonical seeded-bad netlist: a binary counter in
        // the ring domain, two of its bits compared combinationally and
        // captured asynchronously with no synchronizer or Gray coding.
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let bits = ripple_counter(&mut nl, clk_a, rst_n, 2, "cnt");
        let cmp = nl.signal("cmp");
        nl.gate(
            dsim::netlist::GateOp::And,
            &[bits[0], bits[1]],
            cmp,
            GATE_DELAY_FS,
        );
        let cap = nl.signal_with_init("cap", Logic::Zero);
        nl.dff(cmp, clk_b, None, cap, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1103"),
            "{}",
            report.render_text()
        );
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == "NC1103")
            .unwrap();
        assert!(diag.message.contains("Gray-code"), "actionable: {diag}");
    }

    #[test]
    fn latch_capture_fires_nc1104() {
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let src = nl.signal_with_init("src", Logic::Zero);
        nl.dff(clk_a, clk_a, None, src, DFF_DELAY_FS);
        let cap = nl.signal_with_init("cap", Logic::Zero);
        nl.latch(src, clk_b, None, cap, GATE_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            rules(&report).contains(&"NC1104"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn async_reset_pins_are_exempt() {
        let mut nl = Netlist::new();
        let (clk_a, clk_b) = two_clocks(&mut nl);
        let src = nl.signal_with_init("src", Logic::One);
        nl.dff(clk_a, clk_a, None, src, DFF_DELAY_FS);
        // `src` (domain A) resets a domain-B flop: by-design crossing.
        let d = nl.signal_with_init("d", Logic::Zero);
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(d, clk_b, Some(src), q, DFF_DELAY_FS);
        let report = check_netlist_dataflow(&nl);
        assert!(
            !rules(&report).iter().any(|r| r.starts_with("NC11")),
            "{}",
            report.render_text()
        );
    }
}

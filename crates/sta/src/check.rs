//! Timing design rules evaluated on an [`Analysis`].
//!
//! Three checks, reported by the `sta` CLI's `--check` mode:
//!
//! * [`NC0501`] — a gate drives so many sinks that its delay degrades
//!   beyond the configured factor (the linear loading model every
//!   cell library data-sheet carries);
//! * [`NC0502`] — a timing endpoint no startpoint reaches: its setup
//!   can never be analyzed, the classic sign of a missing constraint
//!   or a disconnected cone;
//! * [`NC0503`] — the netlist's declared clock period contradicts the
//!   timing graph: a ring oscillates off the declared period by more
//!   than the tolerance, or a flip-flop's data path is longer than the
//!   period it is clocked at.

use dsim::netlist::{Component, Netlist};

use crate::graph::Analysis;

/// Rule id: excessive fan-out delay degradation.
pub const NC0501: &str = "NC0501";
/// Rule id: unconstrained timing endpoint.
pub const NC0502: &str = "NC0502";
/// Rule id: STA contradicts the declared clock period.
pub const NC0503: &str = "NC0503";

/// Severity of a timing violation (mirrors netcheck's ladder without
/// depending on it — netcheck depends on *this* crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational finding.
    Info,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// A real timing problem.
    Error,
}

impl Severity {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One timing-rule violation.
#[derive(Debug, Clone)]
pub struct TimingViolation {
    /// The rule id (`NC0501`…`NC0503`).
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The object (signal or component) the finding is about.
    pub object: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Knobs of the timing checks.
#[derive(Debug, Clone, Copy)]
pub struct TimingCheckOptions {
    /// `NC0501` fires when `1 + load_per_fanout × (fanout − 1)` exceeds
    /// this factor.
    pub max_delay_degradation: f64,
    /// Relative delay increase each additional sink costs (linear
    /// loading model).
    pub load_per_fanout: f64,
    /// Clock period to check rings and register paths against. `None`
    /// takes the fastest `Clock` component in the netlist, if any.
    pub declared_period_fs: Option<u64>,
    /// Tolerated relative mismatch between a ring's STA period and the
    /// declared period before `NC0503` fires.
    pub period_tolerance: f64,
}

impl Default for TimingCheckOptions {
    fn default() -> Self {
        TimingCheckOptions {
            max_delay_degradation: 3.0,
            load_per_fanout: 0.25,
            declared_period_fs: None,
            period_tolerance: 0.05,
        }
    }
}

/// Runs every timing rule of `analysis` against `nl`.
pub fn check_timing(
    nl: &Netlist,
    analysis: &Analysis,
    opts: &TimingCheckOptions,
) -> Vec<TimingViolation> {
    let mut out: Vec<TimingViolation> = Vec::new();

    // ---- NC0501: fan-out delay degradation ----------------------------
    let mut sinks: Vec<usize> = vec![0; nl.signal_count()];
    for comp in nl.components() {
        match comp {
            Component::Gate { inputs, .. } => {
                for s in inputs {
                    sinks[s.index()] += 1;
                }
            }
            Component::Dff { d, clk, rst_n, .. } => {
                for s in [Some(d), Some(clk), rst_n.as_ref()].into_iter().flatten() {
                    sinks[s.index()] += 1;
                }
            }
            Component::Latch { d, en, rst_n, .. } => {
                for s in [Some(d), Some(en), rst_n.as_ref()].into_iter().flatten() {
                    sinks[s.index()] += 1;
                }
            }
            Component::Clock { .. } => {}
        }
    }
    for comp in nl.components() {
        let Component::Gate { output, .. } = comp else {
            continue;
        };
        let fanout = sinks[output.index()];
        if fanout == 0 {
            continue;
        }
        let degradation = 1.0 + opts.load_per_fanout * (fanout as f64 - 1.0);
        if degradation > opts.max_delay_degradation {
            out.push(TimingViolation {
                rule: NC0501,
                severity: Severity::Warning,
                object: nl.signal_name(*output).to_string(),
                message: format!(
                    "fan-out of {fanout} degrades the driver's delay by an estimated \
                     {degradation:.2}× (limit {:.2}×); buffer the net",
                    opts.max_delay_degradation
                ),
            });
        }
    }

    // ---- NC0502: unconstrained endpoints ------------------------------
    for &sig in &analysis.unconstrained {
        let kind = analysis
            .endpoints
            .iter()
            .find(|e| e.signal == sig)
            .map(|e| e.kind.name())
            .unwrap_or("endpoint");
        out.push(TimingViolation {
            rule: NC0502,
            severity: Severity::Warning,
            object: nl.signal_name(sig).to_string(),
            message: format!(
                "{kind} `{}` is reached by no timing startpoint; its setup can \
                 never be analyzed",
                nl.signal_name(sig)
            ),
        });
    }

    // ---- NC0503: STA vs declared period -------------------------------
    let declared_fs: Option<u64> = opts.declared_period_fs.or_else(|| {
        nl.components()
            .iter()
            .filter_map(|c| match c {
                Component::Clock {
                    low_fs, high_fs, ..
                } => Some(low_fs + high_fs),
                _ => None,
            })
            .min()
    });
    if let Some(declared_fs) = declared_fs {
        let declared = declared_fs as f64;
        for period_fs in analysis.ring_periods_fs() {
            let mismatch = (period_fs - declared) / declared;
            if mismatch.abs() > opts.period_tolerance {
                out.push(TimingViolation {
                    rule: NC0503,
                    severity: Severity::Error,
                    object: "ring".to_string(),
                    message: format!(
                        "STA predicts a ring period of {period_fs:.0} fs but the declared \
                         clock period is {declared_fs} fs ({:+.1} % off, tolerance ±{:.1} %)",
                        100.0 * mismatch,
                        100.0 * opts.period_tolerance
                    ),
                });
            }
        }
        for path in &analysis.paths {
            if path.kind == crate::graph::EndpointKind::DffData && path.arrival_fs > declared {
                out.push(TimingViolation {
                    rule: NC0503,
                    severity: Severity::Error,
                    object: nl.signal_name(path.endpoint).to_string(),
                    message: format!(
                        "data path into `{}` arrives at {:.0} fs, past the declared \
                         clock period of {declared_fs} fs (setup can never be met)",
                        nl.signal_name(path.endpoint),
                        path.arrival_fs
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| a.rule.cmp(b.rule).then_with(|| a.object.cmp(&b.object)));
    out
}

/// Whether any violation in `violations` is an error.
pub fn has_errors(violations: &[TimingViolation]) -> bool {
    violations.iter().any(|v| v.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, netlist_delays};
    use dsim::logic::Logic;
    use dsim::netlist::GateOp;

    #[test]
    fn high_fanout_fires_nc0501() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[a], y, 100);
        for i in 0..12 {
            let s = nl.signal(format!("z{i}"));
            nl.gate(GateOp::Buf, &[y], s, 100);
        }
        let an = analyze(&nl, &netlist_delays(&nl));
        let v = check_timing(&nl, &an, &TimingCheckOptions::default());
        assert!(
            v.iter().any(|v| v.rule == NC0501 && v.object == "y"),
            "{v:?}"
        );
        // Looser budget: silent.
        let v = check_timing(
            &nl,
            &an,
            &TimingCheckOptions {
                max_delay_degradation: 10.0,
                ..TimingCheckOptions::default()
            },
        );
        assert!(v.iter().all(|v| v.rule != NC0501));
    }

    #[test]
    fn ring_off_declared_period_fires_nc0503() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "r", 1_000).unwrap();
        let an = analyze(&nl, &netlist_delays(&nl));
        // Ring period is 10_000 fs; declare 12_000.
        let v = check_timing(
            &nl,
            &an,
            &TimingCheckOptions {
                declared_period_fs: Some(12_000),
                ..TimingCheckOptions::default()
            },
        );
        assert!(v.iter().any(|v| v.rule == NC0503), "{v:?}");
        assert!(has_errors(&v));
        // Matching declaration: clean.
        let v = check_timing(
            &nl,
            &an,
            &TimingCheckOptions {
                declared_period_fs: Some(10_000),
                ..TimingCheckOptions::default()
            },
        );
        assert!(v.iter().all(|v| v.rule != NC0503), "{v:?}");
    }

    #[test]
    fn slow_data_path_fires_nc0503() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 1_000, 500);
        let q = nl.signal("q");
        let d = nl.signal("d");
        nl.dff(d, clk, None, q, 150);
        nl.gate(GateOp::Inv, &[q], d, 5_000); // 5 ps path into a 1 ps clock
        let an = analyze(&nl, &netlist_delays(&nl));
        let v = check_timing(&nl, &an, &TimingCheckOptions::default());
        assert!(
            v.iter().any(|v| v.rule == NC0503 && v.object == "d"),
            "{v:?}"
        );
    }

    /// Every rule under default thresholds.
    fn check_default(nl: &Netlist) -> Vec<TimingViolation> {
        check_timing(
            nl,
            &analyze(nl, &netlist_delays(nl)),
            &TimingCheckOptions::default(),
        )
    }

    #[test]
    fn ring_contradicting_a_clock_component_fires_nc0503() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "r", 1_000).unwrap();
        // A reference clock that contradicts the ring's 10 ps period.
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 20_000, 0);
        let v = check_default(&nl);
        assert!(has_errors(&v), "{v:?}");
        assert!(v.iter().any(|v| v.rule == NC0503), "{v:?}");
    }

    #[test]
    fn ring_under_default_options_is_silent() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "r", 1_000).unwrap();
        let v = check_default(&nl);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn even_parity_loop_beside_a_clock_is_not_period_checked() {
        // STA refuses to give a latching loop a period, so a declared
        // clock has nothing to contradict.
        let mut nl = Netlist::new();
        let s: Vec<_> = (0..4).map(|i| nl.signal(format!("s{i}"))).collect();
        for i in 0..4 {
            nl.gate(GateOp::Inv, &[s[i]], s[(i + 1) % 4], 5_000);
        }
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 12_345, 0);
        let an = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(an.loops.len(), 1);
        assert_eq!(an.loops[0].kind, crate::loops::LoopKind::Latching);
        let v = check_timing(&nl, &an, &TimingCheckOptions::default());
        assert!(v.iter().all(|v| v.rule != NC0503), "{v:?}");
    }
}

//! Text and JSON rendering of STA results for the `sta` CLI.
//!
//! JSON is emitted by hand (the workspace is offline — no serde), with
//! the same escaping discipline as `netcheck`'s reporter.

use dsim::netlist::Netlist;

use crate::check::TimingViolation;
use crate::graph::{Analysis, TimingPath};
use crate::loops::LoopKind;
use crate::rings::CrossValidation;

/// Escapes a string for inclusion in a JSON literal. `netcheck`,
/// `faultsim` and `runtime` escape with it too.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_fs(fs: f64) -> String {
    if fs >= 1e6 {
        format!("{:.4} ns", fs * 1e-6)
    } else if fs >= 1e3 {
        format!("{:.3} ps", fs * 1e-3)
    } else {
        format!("{fs:.0} fs")
    }
}

/// Renders one traced path, one event per line.
pub fn render_path(nl: &Netlist, path: &TimingPath) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  endpoint `{}` ({}) — {} {}\n",
        nl.signal_name(path.endpoint),
        path.kind.name(),
        fmt_fs(path.arrival_fs),
        path.polarity.name(),
    ));
    for p in &path.points {
        out.push_str(&format!(
            "    {:>12}  {:<5} {}\n",
            fmt_fs(p.at_fs),
            p.polarity.name(),
            nl.signal_name(p.signal),
        ));
    }
    out
}

/// Renders the full analysis as a human-readable report.
pub fn render_text(nl: &Netlist, analysis: &Analysis, max_paths: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "startpoints: {}   endpoints: {}   max depth: {}\n",
        analysis.startpoints.len(),
        analysis.endpoints.len(),
        analysis.max_depth,
    ));
    if !analysis.loops.is_empty() {
        out.push_str("loops:\n");
        for l in &analysis.loops {
            let verdict = match l.kind {
                LoopKind::Ring { period_fs } => {
                    format!("ring, period {}", fmt_fs(period_fs))
                }
                LoopKind::Latching => "latching (even parity, no period)".to_string(),
                LoopKind::Tangled => "tangled (no closed-form period)".to_string(),
            };
            out.push_str(&format!(
                "  {} stage(s), {} inversion(s): {}\n",
                l.stage_count(),
                l.inversions,
                verdict
            ));
        }
    }
    if !analysis.paths.is_empty() {
        out.push_str(&format!(
            "critical paths (worst {} of {}):\n",
            max_paths.min(analysis.paths.len()),
            analysis.paths.len()
        ));
        for path in analysis.paths.iter().take(max_paths) {
            out.push_str(&render_path(nl, path));
        }
    }
    if !analysis.unconstrained.is_empty() {
        out.push_str("unconstrained endpoints:\n");
        for &s in &analysis.unconstrained {
            out.push_str(&format!("  {}\n", nl.signal_name(s)));
        }
    }
    out
}

/// Renders the analysis as a JSON object (no trailing newline).
pub fn render_json(nl: &Netlist, analysis: &Analysis, max_paths: usize) -> String {
    let loops: Vec<String> = analysis
        .loops
        .iter()
        .map(|l| {
            let (kind, period) = match l.kind {
                LoopKind::Ring { period_fs } => ("ring", format!("{period_fs}")),
                LoopKind::Latching => ("latching", "null".to_string()),
                LoopKind::Tangled => ("tangled", "null".to_string()),
            };
            format!(
                "{{\"stages\":{},\"inversions\":{},\"kind\":\"{}\",\"period_fs\":{}}}",
                l.stage_count(),
                l.inversions,
                kind,
                period
            )
        })
        .collect();
    let paths: Vec<String> = analysis
        .paths
        .iter()
        .take(max_paths)
        .map(|p| {
            let points: Vec<String> = p
                .points
                .iter()
                .map(|pt| {
                    format!(
                        "{{\"signal\":\"{}\",\"polarity\":\"{}\",\"at_fs\":{}}}",
                        json_escape(nl.signal_name(pt.signal)),
                        pt.polarity.name(),
                        pt.at_fs
                    )
                })
                .collect();
            format!(
                "{{\"endpoint\":\"{}\",\"kind\":\"{}\",\"arrival_fs\":{},\"points\":[{}]}}",
                json_escape(nl.signal_name(p.endpoint)),
                p.kind.name(),
                p.arrival_fs,
                points.join(",")
            )
        })
        .collect();
    let unconstrained: Vec<String> = analysis
        .unconstrained
        .iter()
        .map(|&s| format!("\"{}\"", json_escape(nl.signal_name(s))))
        .collect();
    format!(
        "{{\"startpoints\":{},\"endpoints\":{},\"max_depth\":{},\"loops\":[{}],\
         \"paths\":[{}],\"unconstrained\":[{}]}}",
        analysis.startpoints.len(),
        analysis.endpoints.len(),
        analysis.max_depth,
        loops.join(","),
        paths.join(","),
        unconstrained.join(",")
    )
}

/// Renders timing violations as text lines.
pub fn render_violations(violations: &[TimingViolation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "{} [{}] {}: {}\n",
            v.rule,
            v.severity.name(),
            v.object,
            v.message
        ));
    }
    out
}

/// Renders timing violations as a JSON array.
pub fn violations_json(violations: &[TimingViolation]) -> String {
    let items: Vec<String> = violations
        .iter()
        .map(|v| {
            format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"object\":\"{}\",\"message\":\"{}\"}}",
                v.rule,
                v.severity.name(),
                json_escape(&v.object),
                json_escape(&v.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders cross-validation points as a JSON array.
pub fn cross_validation_json(points: &[CrossValidation]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"temp_c\":{},\"sta_period_fs\":{},\"sim_period_fs\":{},\"rel_error\":{}}}",
                p.temp_c, p.sta_period_fs, p.sim_period_fs, p.rel_error
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, netlist_delays};
    use dsim::netlist::GateOp;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("a\tb\r\n"), "a\\tb\\r\\n");
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape(r#"a\b"#), r#"a\\b"#);
    }

    #[test]
    fn reports_mention_the_ring() {
        let mut nl = Netlist::new();
        dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "r", 1_000).unwrap();
        let an = analyze(&nl, &netlist_delays(&nl));
        let text = render_text(&nl, &an, 5);
        assert!(text.contains("ring, period 10.000 ps"), "{text}");
        let json = render_json(&nl, &an, 5);
        assert!(json.contains("\"kind\":\"ring\""), "{json}");
        assert!(json.contains("\"period_fs\":10000"), "{json}");
    }
}

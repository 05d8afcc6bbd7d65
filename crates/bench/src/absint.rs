//! `absint` — the abstract-interpretation certifier as a benchmark:
//! certifies the paper's six Fig. 3 cell-mix configurations plus the
//! fully-specified quickstart bundle, and records the derived interval
//! envelopes and the cost of proving them.
//!
//! Two questions, two sections:
//!
//! 1. **Coverage**: every shipped configuration must certify clean
//!    (`PROVEN`, zero error-severity findings) over the full
//!    −50…150 °C × ±5 % supply envelope — the static analogue of the
//!    Fig. 3 accuracy sweep.
//! 2. **Cost**: how long one end-to-end certification takes
//!    (sampling grid → interval chain → rules), and how large the
//!    derivation graph is — the price of the proof, amortized over
//!    every runtime start that can now skip its dynamic preflight.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use netcheck::absint::{certify, CertifyBundle, NodeKind};

use crate::{artifact_head, render_table, write_artifact};

/// The certified configurations: name, `[ring]` mix expression.
pub const CONFIGS: [(&str, &str); 7] = [
    ("quickstart", "5xINV"),
    ("fig3-5inv", "5xINV"),
    ("fig3-3inv-2nand3", "3xINV+2xNAND3"),
    ("fig3-3nand3-2nor2", "3xNAND3+2xNOR2"),
    ("fig3-2inv-3nand3", "2xINV+3xNAND3"),
    ("fig3-5nand2", "5xNAND2"),
    ("fig3-2inv-3nor2", "2xINV+3xNOR2"),
];

/// Builds the bundle text for one configuration (the quickstart entry
/// additionally pins every digitizer knob, mirroring
/// `examples/certify/quickstart.toml`).
fn bundle_text(name: &str, mix: &str) -> String {
    let mut text = format!("[ring]\nname = {name}\nmix = {mix}\n");
    if name == "quickstart" {
        text.push_str(
            "wn_um = 1.0\nratio = 2.0\n\n[tech]\nnode = um350\nsupply_tolerance = 0.05\n\n\
             [digitizer]\nref_clock_mhz = 100\nwindow_cycles = 65536\nsettle_cycles = 64\n\
             counter_bits = 16\nword_bits = 16\n",
        );
    }
    text.push_str("\n[runtime]\ndeadline_ms = 250\nstaleness_bound_ms = 600\n");
    text.push_str("checkpoint_interval_ms = 500\n");
    text
}

/// One certified configuration's measured row.
struct Row {
    name: String,
    proven: bool,
    warnings: usize,
    nodes: usize,
    count_hi: f64,
    step_hi_c: f64,
    conversion_hi_ms: f64,
    elapsed_ms: f64,
}

fn certify_one(name: &str, mix: &str) -> Row {
    let bundle = CertifyBundle::parse(&bundle_text(name, mix), name).expect("bundle parses");
    let started = Instant::now();
    let cert = certify(&bundle).expect("model evaluates");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let node_hi = |kind: NodeKind| {
        cert.graph
            .nodes()
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.interval.hi())
            .fold(f64::NEG_INFINITY, f64::max)
    };
    Row {
        name: name.to_string(),
        proven: cert.is_proven(),
        warnings: cert.report.diagnostics().len(),
        nodes: cert.graph.nodes().len(),
        count_hi: node_hi(NodeKind::CounterCount),
        step_hi_c: node_hi(NodeKind::QuantizationStep),
        conversion_hi_ms: node_hi(NodeKind::ConversionTime) * 1e3,
        elapsed_ms,
    }
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if a shipped bundle fails to parse or the ring model fails
/// to evaluate — the harness is a diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let rows: Vec<Row> = CONFIGS
        .iter()
        .map(|(name, mix)| certify_one(name, mix))
        .collect();

    // ---- artifacts ----------------------------------------------------
    let mut csv =
        String::from("config,proven,findings,graph_nodes,count_hi_lsb,step_hi_c,conv_hi_ms\n");
    for r in &rows {
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.1},{:.4},{:.4}",
            r.name, r.proven, r.warnings, r.nodes, r.count_hi, r.step_hi_c, r.conversion_hi_ms
        );
    }
    write_artifact(out_dir, "absint_certify.csv", &csv);

    let total_ms: f64 = rows.iter().map(|r| r.elapsed_ms).sum();
    let mut json = artifact_head() + "  \"configs\": [\n";
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"proven\": {}, \"findings\": {}, \
                 \"graph_nodes\": {}, \"count_hi_lsb\": {:.1}, \"step_hi_c\": {:.4}, \
                 \"conversion_hi_ms\": {:.4}, \"certify_ms\": {:.3}}}",
                r.name,
                r.proven,
                r.warnings,
                r.nodes,
                r.count_hi,
                r.step_hi_c,
                r.conversion_hi_ms,
                r.elapsed_ms
            )
        })
        .collect();
    let _ = writeln!(json, "{}\n  ],", entries.join(",\n"));
    let _ = writeln!(json, "  \"total_certify_ms\": {total_ms:.3},");
    let _ = writeln!(json, "  \"all_proven\": {}", rows.iter().all(|r| r.proven));
    json.push_str("}\n");
    write_artifact(out_dir, "BENCH_absint_certify.json", &json);

    // ---- report -------------------------------------------------------
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                if r.proven { "PROVEN" } else { "REFUTED" }.to_string(),
                r.warnings.to_string(),
                r.nodes.to_string(),
                format!("{:.0}", r.count_hi),
                format!("{:.3}", r.step_hi_c),
                format!("{:.3}", r.conversion_hi_ms),
                format!("{:.2}", r.elapsed_ms),
            ]
        })
        .collect();
    let mut report = String::from("absint: end-to-end interval certification\n\n");
    report.push_str(&render_table(
        &[
            "config",
            "verdict",
            "findings",
            "nodes",
            "count_hi",
            "step_hi °C",
            "conv_hi ms",
            "certify ms",
        ],
        &table_rows,
    ));
    let all_proven = rows.iter().all(|r| r.proven);
    let _ = writeln!(
        report,
        "\nall {} shipped configurations proven: {}",
        rows.len(),
        if all_proven { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(report, "total certification time: {total_ms:.1} ms");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_config_certifies_clean() {
        let dir = crate::TestDir::new("bench_absint");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_absint_certify.json")).unwrap();
        assert!(json.contains("\"all_proven\": true"), "{json}");
    }
}

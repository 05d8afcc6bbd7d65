//! `fault` — the seeded fault-injection campaign as a benchmark: runs
//! the full reference universe plus the CI smoke sample, and records
//! throughput (faults per second) and per-class coverage.
//!
//! The campaign is the robustness analogue of the accuracy figures: it
//! quantifies how much of the modelled defect space the hardened read
//! path either catches (typed error, quarantine, watchdog) or shrugs
//! off (reading stays within tolerance), and proves the two failure
//! modes the hardening exists to eliminate — silent corruption and
//! hangs — stay at zero.

use std::fmt::Write as _;
use std::path::Path;

use faultsim::{reference_universe, run_campaign, CampaignConfig};

use crate::{artifact_head, render_table, write_artifact};

/// The CI smoke sample size (matches the workflow's `--faults`).
pub const SMOKE_FAULTS: usize = 100;

/// The acceptance floor on fault coverage.
pub const COVERAGE_FLOOR: f64 = 0.9;

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if the campaign engine fails — the harness is a diagnostic
/// tool.
pub fn run(out_dir: &Path) -> String {
    // Full enumeration of the reference universe…
    let full = run_campaign(&CampaignConfig {
        faults: 0,
        ..CampaignConfig::default()
    });
    // …and the seeded smoke sample CI runs.
    let smoke = run_campaign(&CampaignConfig {
        faults: SMOKE_FAULTS,
        ..CampaignConfig::default()
    });

    // ---- artifacts ----------------------------------------------------
    let mut json = artifact_head();
    let _ = writeln!(json, "  \"universe\": {},", reference_universe(false).len());
    let _ = writeln!(json, "  \"seed\": {},", full.config.seed);
    for (tag, r) in [("full", &full), ("smoke", &smoke)] {
        let _ = writeln!(json, "  \"{tag}\": {{");
        let _ = writeln!(json, "    \"faults\": {},", r.runs.len());
        let _ = writeln!(json, "    \"detected\": {},", r.detected());
        let _ = writeln!(json, "    \"benign\": {},", r.benign());
        let _ = writeln!(json, "    \"silent\": {},", r.silent());
        let _ = writeln!(json, "    \"hang\": {},", r.hung());
        let _ = writeln!(json, "    \"panics\": {},", r.panics);
        let _ = writeln!(json, "    \"coverage\": {:.4},", r.coverage());
        let _ = writeln!(json, "    \"elapsed_s\": {:.6},", r.elapsed_s);
        let _ = writeln!(json, "    \"throughput_per_s\": {:.1},", r.throughput());
        let classes: Vec<String> = r
            .per_class()
            .iter()
            .map(|(class, n, det, ben, sil, hung)| {
                format!(
                    "      {{\"class\": \"{class}\", \"total\": {n}, \"detected\": {det}, \
                     \"benign\": {ben}, \"silent\": {sil}, \"hang\": {hung}}}"
                )
            })
            .collect();
        let _ = writeln!(json, "    \"classes\": [\n{}\n    ]", classes.join(",\n"));
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"coverage_floor\": {COVERAGE_FLOOR}");
    json.push('}');
    json.push('\n');
    write_artifact(out_dir, "BENCH_fault_campaign.json", &json);

    // ---- report -------------------------------------------------------
    let rows: Vec<Vec<String>> = full
        .per_class()
        .iter()
        .map(|(class, n, det, ben, sil, hung)| {
            vec![
                class.to_string(),
                n.to_string(),
                det.to_string(),
                ben.to_string(),
                sil.to_string(),
                hung.to_string(),
                format!("{:.1}", 100.0 * (det + ben) as f64 / *n as f64),
            ]
        })
        .collect();
    let mut report = String::new();
    report.push_str("fault — seeded fault-injection campaign over the reference stack\n\n");
    report.push_str(&render_table(
        &[
            "class",
            "total",
            "detected",
            "benign",
            "silent",
            "hang",
            "coverage %",
        ],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nfull universe: {} faults in {:.2} s ({:.0} faults/s)",
        full.runs.len(),
        full.elapsed_s,
        full.throughput(),
    );
    let _ = writeln!(
        report,
        "smoke sample:  {} faults in {:.2} s ({:.0} faults/s)",
        smoke.runs.len(),
        smoke.elapsed_s,
        smoke.throughput(),
    );
    for (tag, r) in [("full", &full), ("smoke", &smoke)] {
        let _ = writeln!(
            report,
            "{tag}: zero silent corruption: {}",
            if r.silent() == 0 { "PASS" } else { "FAIL" }
        );
        let _ = writeln!(
            report,
            "{tag}: zero hangs/panics: {}",
            if r.hung() == 0 && r.panics == 0 {
                "PASS"
            } else {
                "FAIL"
            }
        );
        let _ = writeln!(
            report,
            "{tag}: coverage {:.1} % >= {:.0} %: {}",
            r.coverage() * 100.0,
            COVERAGE_FLOOR * 100.0,
            if r.coverage() >= COVERAGE_FLOOR {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_campaign_report_passes_its_own_checks() {
        let dir = crate::TestDir::new("bench_fault");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_fault_campaign.json")).unwrap();
        assert!(json.contains("\"coverage\": 1.0000"));
        assert!(json.contains("\"panics\": 0"));
    }
}

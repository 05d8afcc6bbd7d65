//! Abl-5 — ablation: accuracy-spec yield under process variation.
//!
//! A thermal-test flow ships every die whose calibrated sensor meets an
//! accuracy spec. This study turns the Monte-Carlo population into the
//! number a product engineer asks for: the fraction of dies within
//! ±X °C, per calibration scheme, as the spec tightens — the yield curve
//! that prices the second tester insertion.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::TempRange;
use tsense_core::variation::{MonteCarloStudy, VariationSpec};

use crate::{render_table, write_artifact};

/// Dies per population.
pub const DIES: usize = 200;

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let ring =
        RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate"), 5)
            .expect("ring");
    let study = MonteCarloStudy::run(
        &ring,
        &tech,
        &VariationSpec::default(),
        TempRange::paper(),
        21,
        DIES,
        2005,
    )
    .expect("monte carlo");

    let yield_at = |limit: f64, one_point: bool| -> f64 {
        let pass = study
            .trials()
            .iter()
            .filter(|t| {
                let err = if one_point {
                    t.one_point_err_c
                } else {
                    t.two_point_err_c
                };
                err <= limit
            })
            .count();
        100.0 * pass as f64 / study.len() as f64
    };

    let specs = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0];
    let mut rows = Vec::new();
    let mut csv = String::from("spec_c,yield_two_point_pct,yield_one_point_pct\n");
    for &spec in &specs {
        let y2 = yield_at(spec, false);
        let y1 = yield_at(spec, true);
        let _ = writeln!(csv, "{spec},{y2:.1},{y1:.1}");
        rows.push(vec![
            format!("±{spec:.2}"),
            format!("{y2:.1} %"),
            format!("{y1:.1} %"),
        ]);
    }
    write_artifact(out_dir, "abl5_yield.csv", &csv);

    let two_full = yield_at(0.5, false);
    let one_full = yield_at(0.5, true);
    let mut report = String::new();
    report.push_str(&format!(
        "Abl-5 — accuracy-spec yield over {DIES} Monte-Carlo dies (-50..150 C)\n\n"
    ));
    report.push_str(&render_table(
        &["spec (C)", "two-point yield", "one-point yield"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nat a +/-0.5 C spec: two-point ships {two_full:.0} % of dies, one-point {one_full:.0} %"
    );
    let _ = writeln!(
        report,
        "check (two-point saturates yield at a spec where one-point collapses): {}",
        if two_full > 95.0 && one_full < 50.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "series CSV: abl5_yield.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl5_report_passes() {
        let dir = crate::TestDir::new("abl5");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        assert!(dir.join("abl5_yield.csv").exists());
    }
}

//! Abl-1 — calibration scheme versus accuracy under process variation.
//!
//! Monte-Carlo over die-to-die (threshold, drive) and within-die (width
//! mismatch) variation: how much worst-case temperature error survives
//! two-point calibration (which absorbs offset *and* slope) compared to
//! one-point calibration (offset only, typical slope)?

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::TempRange;
use tsense_core::variation::{MonteCarloStudy, VariationSpec};

use crate::{render_table, write_artifact};

/// Trials per sigma setting (deterministic seed).
pub const TRIALS: usize = 60;

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

    let sigma_scales = [0.5, 1.0, 2.0];
    let mut rows = Vec::new();
    let mut csv = String::from(
        "sigma_scale,two_point_mean_c,two_point_p95_c,one_point_mean_c,one_point_p95_c\n",
    );
    let mut pass = true;
    for &scale in &sigma_scales {
        let base = VariationSpec::default();
        let spec = VariationSpec {
            sigma_vth: base.sigma_vth * scale,
            sigma_kdrive_rel: base.sigma_kdrive_rel * scale,
            sigma_width_rel: base.sigma_width_rel * scale,
        };
        let study = MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 21, TRIALS, 2005)
            .expect("monte carlo");
        let (two_mean, _) = study.two_point_stats();
        let (one_mean, _) = study.one_point_stats();
        let two_p95 = study.percentile_95(|t| t.two_point_err_c);
        let one_p95 = study.percentile_95(|t| t.one_point_err_c);
        pass &= two_mean < one_mean;
        let _ = writeln!(
            csv,
            "{scale},{two_mean:.4},{two_p95:.4},{one_mean:.4},{one_p95:.4}"
        );
        rows.push(vec![
            format!("{scale:.1}x"),
            format!("{two_mean:.3}"),
            format!("{two_p95:.3}"),
            format!("{one_mean:.3}"),
            format!("{one_p95:.3}"),
        ]);
    }
    write_artifact(out_dir, "abl1_calibration.csv", &csv);

    let mut report = String::new();
    report.push_str(&format!(
        "Abl-1 — calibration scheme under process variation ({TRIALS} dies per row)\n\n"
    ));
    report.push_str(&render_table(
        &[
            "sigma",
            "2pt mean C",
            "2pt p95 C",
            "1pt mean C",
            "1pt p95 C",
        ],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\ntwo-point beats one-point at every sigma: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(report, "series CSV: abl1_calibration.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl1_report_passes() {
        let dir = crate::TestDir::new("abl1");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

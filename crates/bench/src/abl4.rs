//! Abl-4 — ablation: calibration order versus residual error.
//!
//! How much accuracy does each tester insertion buy, and how does that
//! interact with the ring's intrinsic linearity? One-point (offset
//! only), two-point (offset + slope) and three-point (quadratic)
//! calibrations are evaluated on rings at several `Wp/Wn` ratios: for a
//! curvature-balanced ring the second insertion is enough (the paper's
//! design goal); for a bowed ring the third insertion substitutes for
//! the missing physical linearization.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::calibration::{CalibrationReport, OnePoint, ThreePoint, TwoPoint};
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::TempRange;

use crate::{render_table, write_artifact};

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let range = TempRange::paper();
    let mut rows = Vec::new();
    let mut csv = String::from("ratio,one_point_c,two_point_c,three_point_c\n");
    let mut balanced_two = f64::NAN;
    let mut bowed_two = f64::NAN;
    let mut bowed_three = f64::NAN;
    for &ratio in &[1.5, 2.0, 3.0, 4.0] {
        let ring = RingOscillator::uniform(
            Gate::with_ratio(GateKind::Inv, 1e-6, ratio).expect("gate"),
            5,
        )
        .expect("ring");
        let curve = ring.period_curve(&tech, range, 41).expect("curve");
        let one = OnePoint::fit_ring(&ring, &tech, range.midpoint(), &ring, &tech, range)
            .expect("one-point");
        let two = TwoPoint::fit_ring(&ring, &tech, range.low(), range.high()).expect("two");
        let three = ThreePoint::fit_ring(&ring, &tech, range.low(), range.midpoint(), range.high())
            .expect("three");
        let e1 = CalibrationReport::evaluate(&one, &curve).max_abs_celsius();
        let e2 = CalibrationReport::evaluate(&two, &curve).max_abs_celsius();
        let e3 = CalibrationReport::evaluate(&three, &curve).max_abs_celsius();
        if (ratio - 2.0).abs() < 1e-9 {
            balanced_two = e2;
        }
        if (ratio - 4.0).abs() < 1e-9 {
            bowed_two = e2;
            bowed_three = e3;
        }
        let _ = writeln!(csv, "{ratio},{e1:.4},{e2:.4},{e3:.4}");
        rows.push(vec![
            format!("{ratio:.1}"),
            format!("{e1:.3}"),
            format!("{e2:.3}"),
            format!("{e3:.3}"),
        ]);
    }
    write_artifact(out_dir, "abl4_calibration_order.csv", &csv);

    let mut report = String::new();
    report.push_str("Abl-4 — calibration order vs residual error (worst case over -50..150 C)\n\n");
    report.push_str(&render_table(
        &["Wp/Wn", "1-pt (C)", "2-pt (C)", "3-pt (C)"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nbalanced ring (ratio 2): two-point already reaches {balanced_two:.3} C;"
    );
    let _ = writeln!(
        report,
        "bowed ring (ratio 4): the quadratic recovers {bowed_two:.3} -> {bowed_three:.3} C."
    );
    let _ = writeln!(
        report,
        "check (3-pt rescues the bowed ring by >2x): {}",
        if bowed_three < 0.5 * bowed_two {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(
        report,
        "check (balanced ring needs no 3rd insertion, already <0.25 C): {}",
        if balanced_two < 0.25 { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(report, "series CSV: abl4_calibration_order.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl4_report_passes() {
        let dir = crate::TestDir::new("abl4");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

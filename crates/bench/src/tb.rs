//! T-B — in-text claim: "ring-oscillators with 5, 9 or 21 stages have
//! similar characteristics in terms of linearity".
//!
//! The per-stage delay temperature shape is what matters; the stage
//! count only scales the period. We verify both halves: the non-
//! linearity is nearly identical across {5, 9, 21} stages, while the
//! period itself scales with the count.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::linearity::NonLinearity;
use tsense_core::optimize::SweepSettings;
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::Celsius;

use crate::{render_table, write_artifact};

/// Stage counts the paper mentions.
pub const STAGE_COUNTS: [usize; 3] = [5, 9, 21];

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let settings = SweepSettings::default();
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate");

    let mut rows = Vec::new();
    let mut nls = Vec::new();
    let mut csv = String::from("stages,period_27c_ps,max_nl_pct,max_err_c\n");
    for &n in &STAGE_COUNTS {
        let ring = RingOscillator::uniform(gate, n).expect("ring");
        let period = ring.period(&tech, Celsius::new(27.0)).expect("period");
        let curve = ring
            .period_curve(&tech, settings.range, settings.samples)
            .expect("curve");
        let nl = NonLinearity::of_curve(&curve, settings.fit).expect("analysis");
        nls.push(nl.max_abs_percent());
        let _ = writeln!(
            csv,
            "{n},{:.2},{:.6},{:.6}",
            period.as_picos(),
            nl.max_abs_percent(),
            nl.max_abs_celsius()
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", period.as_picos()),
            format!("{:.4}", nl.max_abs_percent()),
            format!("{:.3}", nl.max_abs_celsius()),
        ]);
    }
    write_artifact(out_dir, "tb_stage_count.csv", &csv);

    let spread = nls.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - nls.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = nls.iter().sum::<f64>() / nls.len() as f64;

    let mut report = String::new();
    report.push_str("T-B — linearity versus stage count (INV ring, Wp/Wn = 2.0)\n\n");
    report.push_str(&render_table(
        &["stages", "period @27C (ps)", "max |NL| %FS", "max |err| C"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nNL spread across stage counts : {spread:.4} %FS (mean {mean:.4} %FS)"
    );
    let _ = writeln!(
        report,
        "paper check (similar linearity for 5/9/21 stages): {}",
        if spread < 0.2 * mean.max(0.05) {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "series CSV: tb_stage_count.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tb_report_passes() {
        let dir = crate::TestDir::new("tb");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

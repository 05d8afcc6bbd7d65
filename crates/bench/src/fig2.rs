//! Fig. 2 — non-linearity error versus temperature for different `Wp/Wn`
//! channel-width ratios of a 5-inverter ring.
//!
//! Reproduces the paper's sweep over ratios `{1.5, 1.75, 2.25, 3, 4}` on
//! the analytical model (41 samples over −50…150 °C), and cross-checks
//! the *shape* at three ratios against the transistor-level simulator:
//! the ordering of worst-case non-linearity across ratios must agree
//! between the two independent paths.

use std::fmt::Write as _;
use std::path::Path;

use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;
use tsense_core::optimize::{ratio_sweep, SweepSettings};
use tsense_core::tech::Technology;

use crate::{render_table, transistor_level_nl, write_artifact};

/// The ratios the paper's Fig. 2 plots.
pub const PAPER_RATIOS: [f64; 5] = [1.5, 1.75, 2.25, 3.0, 4.0];

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let settings = SweepSettings::default();
    let points =
        ratio_sweep(&tech, GateKind::Inv, 1e-6, 5, &PAPER_RATIOS, &settings).expect("ratio sweep");

    // CSV: temperature column then one error column per ratio.
    let mut csv = String::from("temp_c");
    for p in &points {
        let _ = write!(csv, ",nl_pct_r{}", p.ratio);
    }
    csv.push('\n');
    let n = points[0].nonlinearity.temps().len();
    for i in 0..n {
        let _ = write!(csv, "{:.1}", points[0].nonlinearity.temps()[i].get());
        for p in &points {
            let _ = write!(csv, ",{:.6}", p.nonlinearity.error_percent()[i]);
        }
        csv.push('\n');
    }
    write_artifact(out_dir, "fig2_nonlinearity.csv", &csv);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.ratio),
                format!("{:.4}", p.max_nl_percent),
                format!("{:.3}", p.nonlinearity.max_abs_celsius()),
                format!("{:.6}", p.nonlinearity.fit().r_squared),
            ]
        })
        .collect();

    // Transistor-level cross-check at the extremes and near the optimum.
    let check_ratios = [1.5, 2.25, 4.0];
    let sim_nl: Vec<f64> = check_ratios
        .iter()
        .map(|&r| {
            let ring = CellLibrary::um350(r).uniform_ring(GateKind::Inv, 5);
            transistor_level_nl(&ring.expect("ring"), 9)
        })
        .collect();
    let ana_nl: Vec<f64> = check_ratios
        .iter()
        .map(|&r| {
            points
                .iter()
                .find(|p| (p.ratio - r).abs() < 1e-9)
                .expect("ratio in sweep")
                .max_nl_percent
        })
        .collect();
    // Shape agreement: the middle ratio must be the best in both paths.
    let best_sim = sim_nl
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0;
    let best_ana = ana_nl
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0;

    let mut report = String::new();
    report.push_str(
        "Fig. 2 — non-linearity vs temperature for Wp/Wn ratios (5xINV ring, -50..150 C)\n\n",
    );
    report.push_str(&render_table(
        &["Wp/Wn", "max |NL| %FS", "max |err| C", "R^2"],
        &rows,
    ));
    report.push_str("\ntransistor-level cross-check (spicelite, 9 temps):\n");
    let check_rows: Vec<Vec<String>> = check_ratios
        .iter()
        .zip(sim_nl.iter().zip(&ana_nl))
        .map(|(&r, (&s, &a))| vec![format!("{r:.2}"), format!("{s:.4}"), format!("{a:.4}")])
        .collect();
    report.push_str(&render_table(
        &["Wp/Wn", "sim NL %", "model NL %"],
        &check_rows,
    ));
    let _ = writeln!(
        report,
        "\nshape agreement (same best ratio in both paths): {}",
        if best_sim == best_ana { "PASS" } else { "FAIL" }
    );
    let min_nl = points
        .iter()
        .map(|p| p.max_nl_percent)
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        report,
        "paper check (optimized ratio brings NL below 0.2 %): {} (min {:.4} %)",
        if min_nl < 0.2 { "PASS" } else { "FAIL" },
        min_nl
    );
    let _ = writeln!(report, "series CSV: fig2_nonlinearity.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_report_passes_both_checks() {
        let dir = crate::TestDir::new("fig2");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        assert!(dir.join("fig2_nonlinearity.csv").exists());
    }
}

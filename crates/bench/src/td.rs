//! T-D — the introduction's motivation claims, reproduced on the
//! thermal substrate: a 64-bit RISC-class die reaching ≈135 °C, and the
//! junction-temperature rise growing ≈3.2× from 0.35 µm to 0.13 µm
//! under equivalent conditions.

use std::fmt::Write as _;
use std::path::Path;

use thermal::scenario::{default_node_ladder, risc_hotspot, scaling_study};

use crate::{render_table, write_artifact};

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let mut report = String::new();
    report.push_str("T-D — introduction claims on the thermal substrate\n");

    // RISC hotspot.
    let grid = risc_hotspot().expect("hotspot scenario");
    let _ = writeln!(
        report,
        "\n1) 64-bit RISC-class die (16 W, 1.44 cm2, theta_JA = 6 K/W):"
    );
    let _ = writeln!(
        report,
        "   peak junction temperature : {:.1} C",
        grid.max_temp()
    );
    let _ = writeln!(
        report,
        "   die gradient              : {:.1} C",
        grid.max_temp() - grid.min_temp()
    );
    let _ = writeln!(
        report,
        "   paper check (~135 C junction): {}",
        if grid.max_temp() > 110.0 && grid.max_temp() < 170.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // Scaling study.
    let rows_data = scaling_study(0.01, 5.0, &default_node_ladder()).expect("scaling study");
    let mut csv = String::from("node,feature_um,die_edge_mm,power_w,density_w_cm2,peak_c,rise_k\n");
    let mut rows = Vec::new();
    for r in &rows_data {
        let _ = writeln!(
            csv,
            "{},{:.2},{:.2},{:.2},{:.1},{:.1},{:.1}",
            r.node,
            r.feature_um,
            r.die_edge_m * 1e3,
            r.power_w,
            r.power_density_w_cm2,
            r.peak_temp_c,
            r.peak_rise_k
        );
        rows.push(vec![
            r.node.clone(),
            format!("{:.2}", r.die_edge_m * 1e3),
            format!("{:.2}", r.power_w),
            format!("{:.1}", r.power_density_w_cm2),
            format!("{:.1}", r.peak_temp_c),
            format!("{:.1}", r.peak_rise_k),
        ]);
    }
    write_artifact(out_dir, "td_scaling.csv", &csv);
    report.push_str("\n2) same design shrunk across nodes (same package):\n");
    report.push_str(&render_table(
        &[
            "node",
            "edge (mm)",
            "power (W)",
            "W/cm2",
            "peak C",
            "rise K",
        ],
        &rows,
    ));
    let ratio =
        rows_data.last().expect("rows").peak_rise_k / rows_data.first().expect("rows").peak_rise_k;
    let _ = writeln!(
        report,
        "\n0.13 um / 0.35 um junction-rise ratio: {ratio:.2} (paper cites 3.2x) -> {}",
        if ratio > 2.2 && ratio < 4.5 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "series CSV: td_scaling.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn td_report_passes() {
        let dir = crate::TestDir::new("td");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

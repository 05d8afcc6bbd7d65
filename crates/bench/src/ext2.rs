//! Ext-2 — extension study: supply-voltage sensitivity of the sensor.
//!
//! Delay-based sensing couples to `V_DD`: supply droop reads as a
//! temperature change. This study tabulates the cross-sensitivity
//! (°C of apparent error per mV of supply error) across sizing ratios
//! and stage counts, and reports the supply-regulation budget needed to
//! keep the droop error below the sensor's own non-linearity.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::optimize::SweepSettings;
use tsense_core::ring::RingOscillator;
use tsense_core::supply::SupplySensitivity;
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Volts};

use crate::{render_table, write_artifact};

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let settings = SweepSettings::default();

    let mut rows = Vec::new();
    let mut csv = String::from("ratio,stages,err_per_mv_c,nl_c,budget_mv_for_nl_equivalent\n");
    for &(ratio, stages) in &[(1.5, 5usize), (2.0, 5), (3.0, 5), (2.0, 9), (2.0, 21)] {
        let gate = Gate::with_ratio(GateKind::Inv, 1e-6, ratio).expect("gate");
        let ring = RingOscillator::uniform(gate, stages).expect("ring");
        let s = SupplySensitivity::at(&ring, &tech, Celsius::new(85.0)).expect("sens");
        let curve = ring
            .period_curve(&tech, settings.range, settings.samples)
            .expect("curve");
        let nl_c = NonLinearity::of_curve(&curve, FitKind::LeastSquares)
            .expect("nl")
            .max_abs_celsius();
        let err_per_mv = s.temp_error_per_mv.abs();
        let budget_mv = nl_c / err_per_mv;
        let _ = writeln!(
            csv,
            "{ratio},{stages},{err_per_mv:.4},{nl_c:.4},{budget_mv:.2}"
        );
        rows.push(vec![
            format!("{ratio:.1}"),
            stages.to_string(),
            format!("{err_per_mv:.3}"),
            format!("{nl_c:.3}"),
            format!("{budget_mv:.2}"),
        ]);
    }
    write_artifact(out_dir, "ext2_supply.csv", &csv);

    // Headline number at the nominal design point.
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate");
    let ring = RingOscillator::uniform(gate, 5).expect("ring");
    let s = SupplySensitivity::at(&ring, &tech, Celsius::new(85.0)).expect("sens");
    let droop_1pct = s.temp_error_for(Volts::new(0.01 * tech.vdd.get())).abs();

    let mut report = String::new();
    report.push_str("Ext-2 — supply-voltage cross-sensitivity of the ring sensor (85 C)\n\n");
    report.push_str(&render_table(
        &["Wp/Wn", "stages", "err (C/mV)", "NL (C)", "budget (mV)"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\na 1 % supply droop at the nominal point reads as {droop_1pct:.1} C of \
         apparent temperature"
    );
    report.push_str(
        "-> the sensor rail must be regulated to a few mV (or droop calibrated out)\n\
         for the cell-mix linearity gains of Fig. 3 to matter in practice.\n",
    );
    let _ = writeln!(report, "series CSV: ext2_supply.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext2_budget_is_tight() {
        // The study's point: the droop budget is millivolts, far tighter
        // than typical digital-supply tolerances.
        let dir = crate::TestDir::new("ext2");
        let report = run(&dir);
        assert!(report.contains("Ext-2"));
        assert!(dir.join("ext2_supply.csv").exists());
        let csv = std::fs::read_to_string(dir.join("ext2_supply.csv")).expect("csv");
        for line in csv.lines().skip(1) {
            let budget: f64 = line
                .split(',')
                .nth(4)
                .expect("column")
                .parse()
                .expect("number");
            assert!(budget < 20.0, "budget {budget} mV stays tight");
        }
    }
}

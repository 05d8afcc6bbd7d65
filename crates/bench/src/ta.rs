//! T-A — in-text claim: transistor-level optimization brings the
//! non-linearity error below 0.2 % over −50…150 °C.
//!
//! A golden-section search refines the optimal `Wp/Wn` ratio and the
//! resulting worst-case non-linearity is compared against the paper's
//! 0.2 % bar.

use std::fmt::Write as _;
use std::path::Path;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::linearity::NonLinearity;
use tsense_core::optimize::{best_ratio, SweepSettings};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;

use crate::write_artifact;

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let tech = Technology::um350();
    let settings = SweepSettings::default();
    let (ratio, nl) =
        best_ratio(&tech, GateKind::Inv, 1e-6, 5, 1.0, 6.0, &settings).expect("search");

    // The full error trace at the optimum, for the record.
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, ratio).expect("gate");
    let ring = RingOscillator::uniform(gate, 5).expect("ring");
    let curve = ring
        .period_curve(&tech, settings.range, settings.samples)
        .expect("curve");
    let analysis = NonLinearity::of_curve(&curve, settings.fit).expect("analysis");
    let mut csv = String::from("temp_c,nl_pct,err_c\n");
    for i in 0..analysis.temps().len() {
        let _ = writeln!(
            csv,
            "{:.1},{:.6},{:.6}",
            analysis.temps()[i].get(),
            analysis.error_percent()[i],
            analysis.error_celsius()[i]
        );
    }
    write_artifact(out_dir, "ta_optimum_trace.csv", &csv);

    let mut report = String::new();
    report.push_str("T-A — transistor-level optimum of the 5xINV ring\n\n");
    let _ = writeln!(report, "optimal Wp/Wn ratio        : {ratio:.3}");
    let _ = writeln!(report, "worst-case |NL| at optimum : {nl:.4} %FS");
    let _ = writeln!(
        report,
        "temperature-referred error : {:.3} C",
        analysis.max_abs_celsius()
    );
    let _ = writeln!(
        report,
        "paper check (NL < 0.2 %)   : {}",
        if nl < 0.2 { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(report, "optimum trace CSV          : ta_optimum_trace.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ta_report_passes() {
        let dir = crate::TestDir::new("ta");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

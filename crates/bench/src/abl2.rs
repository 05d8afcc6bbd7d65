//! Abl-2 — digitizer window length versus resolution and conversion
//! time.
//!
//! The counting window is the smart unit's main design knob: doubling it
//! halves the temperature quantum but doubles the conversion (and the
//! oscillator-on, i.e. self-heating) time. This sweep tabulates the
//! trade-off from the closed-form design equations, verifies the 1/M
//! scaling, and combines quantization with the duty-cycled self-heating
//! error into a total error — which has an interior optimum: the window
//! should be made longer only until self-heating takes over.

use std::fmt::Write as _;
use std::path::Path;

use sensor::selfheat::{study, SelfHeatModel};
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::sensitivity::window_tradeoff;
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Hertz, Seconds, TempRange};

use crate::{render_table, write_artifact};

/// Window lengths swept (ring cycles).
pub const WINDOWS: [u32; 8] = [
    1 << 6,
    1 << 8,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
];

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
    let rows_data = window_tradeoff(
        &ring,
        &tech,
        Hertz::from_mega(100.0),
        &WINDOWS,
        TempRange::paper(),
    )
    .expect("tradeoff");

    // Self-heating per window at a 1 ms measurement repeat interval.
    let repeat = Seconds::new(1e-3);
    let mut csv =
        String::from("window_cycles,resolution_c_per_lsb,conversion_us,selfheat_c,total_err_c\n");
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for (m, res, tconv) in &rows_data {
        let sh = study(
            &ring,
            &tech,
            SelfHeatModel::default_macro(),
            Celsius::new(85.0),
            *tconv,
            Seconds::new(repeat.get().max(tconv.get())),
        )
        .expect("self-heat study");
        // Total worst-case error: half an LSB of quantization plus the
        // oscillator's own heating at readout time.
        let total = 0.5 * res + sh.duty_cycled_error_k;
        totals.push((*m, total));
        let _ = writeln!(
            csv,
            "{m},{res:.5},{:.3},{:.4},{total:.4}",
            tconv.get() * 1e6,
            sh.duty_cycled_error_k
        );
        rows.push(vec![
            format!("2^{}", m.trailing_zeros()),
            format!("{res:.4}"),
            format!("{:.2}", tconv.get() * 1e6),
            format!("{:.4}", sh.duty_cycled_error_k),
            format!("{total:.4}"),
        ]);
    }
    write_artifact(out_dir, "abl2_window.csv", &csv);

    // 1/M scaling check between the first and last rows.
    let m_ratio = WINDOWS[WINDOWS.len() - 1] as f64 / WINDOWS[0] as f64;
    let res_ratio = rows_data[0].1 / rows_data[rows_data.len() - 1].1;
    let scaling_ok = (res_ratio / m_ratio - 1.0).abs() < 1e-6;

    let (best_window, best_total) = totals
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    let interior = best_window != WINDOWS[0] && best_window != WINDOWS[WINDOWS.len() - 1];

    let mut report = String::new();
    report.push_str(
        "Abl-2 — digitizer window vs resolution / self-heating (100 MHz ref, 1 ms repeat)\n\n",
    );
    report.push_str(&render_table(
        &[
            "window",
            "resolution (C/LSB)",
            "conversion (us)",
            "self-heat (C)",
            "total (C)",
        ],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\nresolution scales as 1/M: {} (x{m_ratio:.0} window -> x{res_ratio:.0} finer)",
        if scaling_ok { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(
        report,
        "total-error optimum: 2^{} cycles at {best_total:.3} C -> {} (quantization and \
         self-heating trade off)",
        best_window.trailing_zeros(),
        if interior {
            "interior optimum PASS"
        } else {
            "boundary (no interior optimum)"
        }
    );
    let _ = writeln!(report, "series CSV: abl2_window.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl2_report_passes() {
        let dir = crate::TestDir::new("abl2");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

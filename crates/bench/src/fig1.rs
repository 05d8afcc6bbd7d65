//! Fig. 1 — transient simulation of a 5-stage inverter ring oscillator.
//!
//! The paper shows an HSPICE waveform of the ring output over a
//! 0–1500 ps window. We elaborate the same circuit from the 0.35 µm
//! standard-cell library, run the spicelite transient, dump the waveform
//! as CSV and render a coarse ASCII oscillogram, and report the measured
//! period/frequency.

use std::fmt::Write as _;
use std::path::Path;

use stdcell::library::CellLibrary;
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::units::Celsius;

use crate::write_artifact;

/// ASCII rendering of one signal over time (rows = voltage bins).
fn ascii_scope(times: &[f64], values: &[f64], vdd: f64, width: usize, height: usize) -> String {
    let t_max = times.last().copied().unwrap_or(1.0);
    let mut grid = vec![vec![' '; width]; height];
    for (t, v) in times.iter().zip(values) {
        let col = ((t / t_max) * (width - 1) as f64).round() as usize;
        let row = (((vdd - v) / vdd).clamp(0.0, 1.0) * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][col.min(width - 1)] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{vdd:4.1}V |")
        } else if i == height - 1 {
            " 0.0V |".to_string()
        } else {
            "      |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    let _ = writeln!(out, "      +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "       0 ps{:>width$}",
        format!("{:.0} ps", t_max * 1e12),
        width = width - 4
    );
    out
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if the simulation or measurement fails (harness policy:
/// failures are loud).
pub fn run(out_dir: &Path) -> String {
    let lib = CellLibrary::um350(2.0);
    let ring = lib.uniform_ring(GateKind::Inv, 5).expect("5-stage ring");
    let wave = ring.simulate(27.0, 1.5e-9, 1e-12).expect("transient");
    write_artifact(out_dir, "fig1_waveform.csv", &wave.to_csv());

    let period = wave.period("n0", 0.5 * ring.vdd(), 2).expect("period");
    let freq = 1.0 / period;
    let (lo, hi) = wave.extrema("n0").expect("extrema");

    // Measured ring power: average supply current over the settled part
    // of the run (the branch current of a sourcing supply is negative in
    // the SPICE convention).
    let i_avg = wave
        .average("i(VDD)", 0.3e-9, 1.5e-9)
        .expect("supply current");
    let measured_power_mw = -i_avg * ring.vdd() * 1e3;
    // The analytical layer's estimate for the same topology.
    let tech = lib.analytical_technology();
    let ana_ring =
        RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate"), 5)
            .expect("ring");
    let ana_power_mw = ana_ring
        .dynamic_power(&tech, Celsius::new(27.0))
        .expect("power")
        .get()
        * 1e3;

    let times = wave.times().to_vec();
    let values = wave.signal("n0").expect("probe node").to_vec();
    let scope = ascii_scope(&times, &values, ring.vdd(), 100, 16);

    let mut report = String::new();
    report.push_str("Fig. 1 — transient of a 5-stage inverter ring (0.35 um, 3.3 V, 27 C)\n\n");
    report.push_str(&scope);
    let _ = writeln!(report);
    let _ = writeln!(report, "measured period     : {:.1} ps", period * 1e12);
    let _ = writeln!(report, "measured frequency  : {:.2} GHz", freq / 1e9);
    let _ = writeln!(report, "output swing        : {lo:.2} V .. {hi:.2} V");
    let _ = writeln!(
        report,
        "measured ring power : {measured_power_mw:.2} mW (analytical estimate {ana_power_mw:.2} mW)"
    );
    let _ = writeln!(
        report,
        "paper check         : several full periods inside the 1500 ps window -> {}",
        if 1.5e-9 / period >= 3.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "waveform CSV        : fig1_waveform.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_report_passes_its_own_check() {
        let dir = crate::TestDir::new("fig1");
        let report = run(&dir);
        assert!(report.contains("PASS"), "{report}");
        assert!(dir.join("fig1_waveform.csv").exists());
    }

    #[test]
    fn ascii_scope_draws_both_rails() {
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 1e-12).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| {
                if (t * 1e12) as u64 % 20 < 10 {
                    0.0
                } else {
                    3.3
                }
            })
            .collect();
        let s = ascii_scope(&times, &values, 3.3, 60, 8);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains('*'), "high rail drawn");
        assert!(lines[7].contains('*'), "low rail drawn");
    }
}

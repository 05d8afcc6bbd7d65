//! T-C — the smart unit of Section 3: period-to-digital conversion,
//! oscillator disable, busy flag, and multiplexed thermal mapping.
//!
//! Four sub-demonstrations:
//! 1. a calibrated unit converting junction temperatures to digital
//!    words across the range;
//! 2. the behavioural digitizer cross-checked against the gate-level
//!    counter design simulated on `dsim`;
//! 3. the self-heating benefit of the disable feature;
//! 4. a 3×3 multiplexed array mapping a RISC-class hotspot die.

use std::fmt::Write as _;
use std::path::Path;

use sensor::digitizer::GateLevelDigitizer;
use sensor::muxscan::GateLevelMuxScan;
use sensor::selfheat::{study, SelfHeatModel};
use sensor::unit::{SensorConfig, SmartSensorUnit};
use sensor::SensorArray;
use thermal::scenario::risc_hotspot;
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Hertz, Seconds, TempRange};

use crate::{render_table, write_artifact};

fn calibrated_unit() -> SmartSensorUnit {
    let tech = Technology::um350();
    let ring =
        RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate"), 5)
            .expect("ring");
    let mut unit = SmartSensorUnit::new(SensorConfig::new(ring, tech)).expect("unit");
    unit.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
        .expect("cal");
    unit
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let mut report = String::new();
    report.push_str("T-C — the smart temperature-sensor unit (paper Section 3)\n");

    // 1. Conversion sweep.
    let mut unit = calibrated_unit();
    let mut rows = Vec::new();
    let mut csv = String::from("true_c,code,measured_c,error_c,conversion_us\n");
    let mut worst = 0.0_f64;
    for t in TempRange::paper().samples(9) {
        let m = unit.measure(t).expect("measure");
        let err = m.temperature.get() - t.get();
        worst = worst.max(err.abs());
        let _ = writeln!(
            csv,
            "{:.1},{},{:.3},{:.4},{:.3}",
            t.get(),
            m.code,
            m.temperature.get(),
            err,
            m.conversion_time.get() * 1e6
        );
        rows.push(vec![
            format!("{:.0}", t.get()),
            m.code.to_string(),
            format!("{:.2}", m.temperature.get()),
            format!("{:+.3}", err),
        ]);
    }
    write_artifact(out_dir, "tc_conversion_sweep.csv", &csv);
    report.push_str("\n1) calibrated conversions across the range:\n");
    report.push_str(&render_table(
        &["true C", "code", "measured C", "error C"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "worst-case conversion error: {worst:.3} C -> {}",
        if worst < 1.0 { "PASS" } else { "FAIL" }
    );

    // 2. Gate-level digitizer cross-check (slower emulated ring so the
    //    counter's flip-flop timing closes).
    report.push_str("\n2) behavioural vs gate-level digitizer (dsim):\n");
    let ref_clock = Hertz::from_mega(1000.0);
    let mut rows = Vec::new();
    let mut worst_lsb = 0i64;
    for &ns in &[1.2, 1.5, 1.8] {
        let d = GateLevelDigitizer::new(Seconds::from_nanos(ns), ref_clock, 64).expect("plan");
        let gate = d.run().expect("gate-level run");
        let expect = d.expected_count();
        worst_lsb = worst_lsb.max((gate.count as i64 - expect as i64).abs());
        rows.push(vec![
            format!("{ns:.1} ns"),
            expect.to_string(),
            gate.count.to_string(),
            gate.events.to_string(),
        ]);
    }
    report.push_str(&render_table(
        &["ring period", "behavioural", "gate-level", "sim events"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "max disagreement: {worst_lsb} LSB -> {}",
        if worst_lsb <= 2 { "PASS" } else { "FAIL" }
    );

    // 2b. The multiplexer at gate level: one digitizer scanning four
    //     emulated ring oscillators.
    report.push_str(
        "
2b) gate-level 4-channel mux scan (shared digitizer):
",
    );
    let mut mux = GateLevelMuxScan::new(
        &[
            Seconds::from_nanos(1.2),
            Seconds::from_nanos(1.5),
            Seconds::from_nanos(1.8),
            Seconds::from_nanos(2.1),
        ],
        ref_clock,
        64,
    )
    .expect("mux scan");
    let readings = mux.scan_all().expect("scan");
    let mut rows = Vec::new();
    let mut mux_ok = true;
    for r in &readings {
        let expect = mux.expected_count(r.channel);
        mux_ok &= (r.count as i64 - expect as i64).abs() <= 3;
        rows.push(vec![
            r.channel.to_string(),
            expect.to_string(),
            r.count.to_string(),
        ]);
    }
    report.push_str(&render_table(
        &["channel", "behavioural", "gate-level"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "all four channels within the async LSB budget -> {}",
        if mux_ok { "PASS" } else { "FAIL" }
    );

    // 3. Self-heating / disable feature.
    report.push_str("\n3) oscillator-disable benefit (self-heating):\n");
    let tech = Technology::um350();
    let ring =
        RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("gate"), 5)
            .expect("ring");
    let s = study(
        &ring,
        &tech,
        SelfHeatModel::default_macro(),
        Celsius::new(85.0),
        Seconds::from_micros(20.0),
        Seconds::new(1e-3),
    )
    .expect("study");
    let _ = writeln!(
        report,
        "ring power               : {:.3} mW",
        s.ring_power_w * 1e3
    );
    let _ = writeln!(
        report,
        "continuous self-heating  : {:.3} C",
        s.continuous_error_k
    );
    let _ = writeln!(
        report,
        "duty-cycled ({:.1} % duty) : {:.3} C",
        s.duty * 100.0,
        s.duty_cycled_error_k
    );
    let _ = writeln!(
        report,
        "disable feature helps    : {}",
        if s.duty_cycled_error_k < 0.5 * s.continuous_error_k {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // 4. Multiplexed thermal mapping of the RISC hotspot die.
    report.push_str("\n4) multiplexed 3x3 thermal map of the RISC-class die:\n");
    let grid = risc_hotspot().expect("thermal scenario");
    let mut array = SensorArray::new();
    for iy in 0..3 {
        for ix in 0..3 {
            let x = 0.002 + 0.004 * ix as f64;
            let y = 0.002 + 0.004 * iy as f64;
            array = array.with_site(format!("s{ix}{iy}"), x, y, calibrated_unit());
        }
    }
    let map = array.scan_grid(&grid).expect("scan");
    let mut csv = String::from("site,x_mm,y_mm,true_c,measured_c,error_c\n");
    let mut rows = Vec::new();
    for p in map.points() {
        let _ = writeln!(
            csv,
            "{},{:.2},{:.2},{:.2},{:.2},{:+.3}",
            p.name,
            p.x_m * 1e3,
            p.y_m * 1e3,
            p.true_c,
            p.measured_c,
            p.error_c()
        );
        rows.push(vec![
            p.name.clone(),
            format!("{:.1},{:.1}", p.x_m * 1e3, p.y_m * 1e3),
            format!("{:.1}", p.true_c),
            format!("{:.1}", p.measured_c),
            format!("{:+.2}", p.error_c()),
        ]);
    }
    write_artifact(out_dir, "tc_thermal_map.csv", &csv);
    report.push_str(&render_table(
        &["site", "pos (mm)", "true C", "measured C", "err C"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "hottest site: {} at {:.1} C (die peak {:.1} C); map max error {:.2} C -> {}",
        map.hottest().name,
        map.hottest().measured_c,
        grid.max_temp(),
        map.max_abs_error_c(),
        if map.max_abs_error_c() < 2.0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(
        report,
        "sequential scan time through the mux: {:.1} us",
        map.scan_time.get() * 1e6
    );
    let _ = writeln!(
        report,
        "artifacts: tc_conversion_sweep.csv, tc_thermal_map.csv"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc_report_passes_all_four_checks() {
        let dir = crate::TestDir::new("tc");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        assert_eq!(report.matches("PASS").count(), 5, "{report}");
    }
}

//! Rules over sensor configurations (`NC04xx`).
//!
//! * `NC0401` — ring stage count: must be odd (even rings latch instead
//!   of oscillating), and the paper only evaluates 5-, 9- and 21-stage
//!   rings (Section 2);
//! * `NC0402` — 5-stage cell mixes are cross-checked against the six
//!   configurations of the paper's Fig. 3;
//! * `NC0403` — the sensing transfer function must be evaluable and
//!   monotonic over the paper's −50…150 °C span (`certify`'s `NC0903`
//!   checks that a bundle's calibration anchors bracket it).

use tsense_core::ring::CellConfig;
use tsense_core::units::TempRange;

use sensor::unit::SensorConfig;

use crate::diagnostic::{Diagnostic, Location, Report};
use crate::library_rules::check_ratio;

/// Stage counts the paper evaluates (Section 2 / Table 1).
pub const PAPER_STAGE_COUNTS: &[usize] = &[5, 9, 21];

/// Runs every sensor-configuration rule.
pub fn check_sensor_config(config: &SensorConfig) -> Report {
    let mut report = Report::new();
    ring_stages(config, &mut report);
    transfer_function(config, &mut report);
    report.sort();
    report
}

/// `NC0401` + `NC0402`: stage count and cell mix.
fn ring_stages(config: &SensorConfig, report: &mut Report) {
    let n = config.ring.stage_count();
    let mix = CellConfig::of_ring(&config.ring);
    let loc = || Location::object(format!("{mix}"));
    if n.is_multiple_of(2) {
        report.push(Diagnostic::error(
            "NC0401",
            loc(),
            format!("{n}-stage ring has even inversion parity and cannot oscillate"),
        ));
        return;
    }
    if !PAPER_STAGE_COUNTS.contains(&n) {
        report.push(Diagnostic::warning(
            "NC0401",
            loc(),
            format!(
                "{n}-stage ring is outside the paper's evaluated set \
                 (5, 9, 21); area/resolution trade-off is uncharacterized"
            ),
        ));
    }
    if n == 5 && !CellConfig::paper_fig3_set().contains(&mix) {
        report.push(Diagnostic::info(
            "NC0402",
            loc(),
            "5-stage cell mix is not one of the paper's Fig. 3 configurations",
        ));
    }
}

/// `NC0403` (+ `NC0302` on each stage's sizing): the transfer function.
fn transfer_function(config: &SensorConfig, report: &mut Report) {
    for (i, gate) in config.ring.stages().iter().enumerate() {
        let context = format!("stage {i} ({})", gate.kind());
        report.extend(check_ratio(gate.ratio(), &context));
    }
    if config.ref_clock.as_mega() <= 0.0 {
        report.push(Diagnostic::error(
            "NC0403",
            Location::object("ref_clock"),
            "reference clock frequency must be positive",
        ));
        return;
    }
    if config.window_cycles == 0 {
        report.push(Diagnostic::error(
            "NC0403",
            Location::object("window_cycles"),
            "measurement window of zero cycles can never accumulate a code",
        ));
    }
    // The sensing premise: period(T) must exist and strictly grow
    // across the paper's range, otherwise codes are ambiguous.
    let range = TempRange::paper();
    let mut periods = Vec::new();
    for t in range.samples(9) {
        match config.ring.period(&config.tech, t) {
            Ok(p) => periods.push(p.get()),
            Err(e) => {
                report.push(Diagnostic::error(
                    "NC0403",
                    Location::object(format!("{:.0} °C", t.get())),
                    format!("ring period is not evaluable: {e}"),
                ));
                return;
            }
        }
    }
    if periods.windows(2).any(|w| w[1] <= w[0]) {
        report.push(Diagnostic::warning(
            "NC0403",
            Location::object("transfer"),
            "ring period is not monotonic over −50…150 °C; the code-to-\
             temperature mapping is ambiguous inside the paper's range",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;

    fn config(n: usize) -> SensorConfig {
        let gate = Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0).unwrap();
        let ring = RingOscillator::uniform(gate, n).unwrap();
        SensorConfig::new(ring, Technology::um350())
    }

    #[test]
    fn paper_configs_are_clean() {
        for n in [5usize, 9, 21] {
            let report = check_sensor_config(&config(n));
            assert!(report.is_clean(), "{n} stages:\n{}", report.render_text());
        }
    }

    #[test]
    fn fig3_mixes_are_clean() {
        for mix in CellConfig::paper_fig3_set() {
            let ring = RingOscillator::from_config(&mix, 1.0e-6, 2.0).unwrap();
            let cfg = SensorConfig::new(ring, Technology::um350());
            let report = check_sensor_config(&cfg);
            assert!(report.is_clean(), "{mix}:\n{}", report.render_text());
        }
    }

    #[test]
    fn off_paper_stage_count_warns() {
        let report = check_sensor_config(&config(7));
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0401"), "{}", report.render_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn off_fig3_mix_is_noted() {
        let mix = CellConfig::uniform(GateKind::Nor2, 5).unwrap();
        assert!(!CellConfig::paper_fig3_set().contains(&mix));
        let ring = RingOscillator::from_config(&mix, 1.0e-6, 2.0).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, Technology::um350()));
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0402"), "{}", report.render_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn out_of_range_sizing_warns_nc0302() {
        let gate = Gate::with_ratio(GateKind::Inv, 1.0e-6, 5.0).unwrap();
        let ring = RingOscillator::uniform(gate, 5).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, Technology::um350()));
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0302"), "{}", report.render_text());
    }
}

//! Rules over sensor arrays and health policies (`NC06xx`).
//!
//! Graceful degradation only works when the monitoring it relies on can
//! actually fire. These rules lint an array + policy pair *before* a
//! thermal-test flow trusts it:
//!
//! * `NC0601` — neighbor-vote outlier detection needs at least 3 sites:
//!   with 2, the median sits between the readings and a single faulty
//!   ring can drag it past tolerance; with 1 there are no neighbors at
//!   all and every fault in the silent class goes undetected;
//! * `NC0602` — an uncalibrated site fails at scan time with
//!   `NotReady`, which a degraded scan then (mis)classifies as a dead
//!   ring; calibrate or remove the site;
//! * `NC0603` — the policy's plausible period band must bracket each
//!   ring's healthy span over the qualification range, otherwise
//!   healthy sites get quarantined (band too tight) or gross delay
//!   faults pass as plausible (band so wide it is no monitor).

use sensor::array::SensorArray;
use sensor::health::HealthPolicy;
use tsense_core::units::TempRange;

use crate::diagnostic::{Diagnostic, Location, Report};

/// Runs every resilience rule over an array + policy pair.
pub fn check_array_resilience(array: &SensorArray, policy: &HealthPolicy) -> Report {
    let mut report = Report::new();
    array_readiness(array, &mut report);
    policy_band(array, policy, &mut report);
    report.sort();
    report
}

/// `NC0601` + `NC0602`: array shape and per-site readiness.
fn array_readiness(array: &SensorArray, report: &mut Report) {
    let n = array.channel_count();
    if n < 3 {
        report.push(Diagnostic::warning(
            "NC0601",
            Location::object(format!("{n} site(s)")),
            "fewer than 3 sites: neighbor-vote outlier detection is \
             degenerate and silent corruption cannot be out-voted",
        ));
    }
    for site in array.sites() {
        if site.unit.calibration().is_none() {
            report.push(Diagnostic::error(
                "NC0602",
                Location::object(&site.name),
                "site has no calibration installed; a scan will fail \
                 and a degraded scan will quarantine it as inactive",
            ));
        }
    }
}

/// `NC0603`: the plausible period band must bracket every ring's
/// healthy span (monitored rings only — a site the policy cannot
/// evaluate is flagged too).
fn policy_band(array: &SensorArray, policy: &HealthPolicy, report: &mut Report) {
    let range = TempRange::paper();
    for site in array.sites() {
        let cfg = site.unit.config();
        for t in range.samples(5) {
            match cfg.ring.period(&cfg.tech, t) {
                Ok(p) => {
                    if !policy.period_plausible(p.get()) {
                        report.push(Diagnostic::warning(
                            "NC0603",
                            Location::object(&site.name),
                            format!(
                                "healthy ring period {:.3e} s at {:.0} °C falls \
                                 outside the policy band [{:.3e}, {:.3e}] s; \
                                 this ring would be quarantined while healthy",
                                p.get(),
                                t.get(),
                                policy.period_min_s,
                                policy.period_max_s
                            ),
                        ));
                        break;
                    }
                }
                Err(e) => {
                    report.push(Diagnostic::warning(
                        "NC0603",
                        Location::object(&site.name),
                        format!(
                            "ring period not evaluable at {:.0} °C ({e}); \
                             the health monitor cannot cover this ring",
                            t.get()
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor::unit::{SensorConfig, SmartSensorUnit};
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;
    use tsense_core::units::Celsius;

    fn unit(calibrated: bool) -> SmartSensorUnit {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let mut u = SmartSensorUnit::new(SensorConfig::new(ring, tech)).unwrap();
        if calibrated {
            u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
                .unwrap();
        }
        u
    }

    fn array(sites: usize, calibrated: bool) -> SensorArray {
        let mut a = SensorArray::new();
        for i in 0..sites {
            a = a.with_site(format!("s{i}"), 1e-3 * i as f64, 1e-3, unit(calibrated));
        }
        a
    }

    #[test]
    fn healthy_trio_under_default_policy_is_clean() {
        let report = check_array_resilience(&array(3, true), &HealthPolicy::default());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn small_array_warns_nc0601() {
        let report = check_array_resilience(&array(2, true), &HealthPolicy::default());
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0601"), "{}", report.render_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn uncalibrated_site_errors_nc0602() {
        let report = check_array_resilience(&array(3, false), &HealthPolicy::default());
        assert!(report.has_errors(), "{}", report.render_text());
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert_eq!(fired.iter().filter(|r| **r == "NC0602").count(), 3);
    }

    #[test]
    fn too_tight_band_warns_nc0603() {
        let policy = HealthPolicy {
            period_min_s: 1e-15,
            period_max_s: 2e-15,
            ..HealthPolicy::default()
        };
        let report = check_array_resilience(&array(3, true), &policy);
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0603"), "{}", report.render_text());
    }

    #[test]
    fn derived_band_passes_nc0603() {
        let a = array(3, true);
        let policy = HealthPolicy::for_unit(&a.sites()[0].unit, TempRange::paper(), 0.25).unwrap();
        let report = check_array_resilience(&a, &policy);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

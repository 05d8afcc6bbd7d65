//! Rules over runtime tuning: deadline budgets (`NC07xx`) and
//! recovery freshness (`NC08xx`).
//!
//! A supervised monitoring runtime promises an answer within a
//! deadline. Whether a given sensor configuration can keep that
//! promise is a *static* fact: the conversion window is
//! `(settle + window) × period`, and the ring period at the hot corner
//! bounds it from above. These rules lint the pair before a runtime is
//! deployed on it:
//!
//! * `NC0701` — the worst-case single conversion does not fit the
//!   deadline at all: every direct read is doomed by construction and
//!   the runtime will only ever serve degraded fallbacks (the
//!   `runtime` crate enforces the same bound dynamically at startup);
//! * `NC0702` — a single conversion fits, but consumes more than half
//!   the deadline: there is no headroom for even one retry, so any
//!   transient capture fault immediately forces degraded service.
//!
//! The `NC08xx` bank lints the runtime's own timing knobs against the
//! recovery path:
//!
//! * `NC0801` — the staleness bound is shorter than the checkpoint
//!   interval: a crash-recovered process restores readings that are,
//!   in the worst case, a full checkpoint interval old, so it could
//!   come up with *nothing* fresh enough to serve, and every degraded
//!   fallback must rescan before it can answer (the `runtime` crate
//!   rejects the same pairing dynamically
//!   at startup, and its deterministic simulation exercises the
//!   recovery path this rule protects).

use sensor::unit::SensorConfig;
use tsense_core::units::Celsius;

use crate::diagnostic::{Diagnostic, Location, Report};

/// Hot-corner temperature at which the conversion window is longest.
const HOT_CORNER_C: f64 = 150.0;

/// Retry-headroom fraction: a conversion consuming more than this
/// share of the deadline leaves no room for a second attempt.
const HEADROOM_FRACTION: f64 = 0.5;

/// The hot-corner worst-case single-conversion time, seconds — the
/// point estimate the `NC0701`/`NC0702` budget rules compare against
/// the deadline, exposed so runtime error payloads quote the same
/// number the lint used. `None` when the ring model is unevaluable at
/// the hot corner.
pub fn worst_case_conversion_s(config: &SensorConfig) -> Option<f64> {
    let period = config
        .ring
        .period(&config.tech, Celsius::new(HOT_CORNER_C))
        .ok()?;
    Some(period.get() * (config.window_cycles + config.settle_cycles) as f64)
}

/// `NC0701` + `NC0702`: the worst-case conversion time of `config`
/// vs a runtime's per-request deadline of `deadline_s` seconds.
pub fn check_runtime_budget(config: &SensorConfig, deadline_s: f64) -> Report {
    let mut report = Report::new();
    let Ok(period) = config.ring.period(&config.tech, Celsius::new(HOT_CORNER_C)) else {
        // Not evaluable: NC0603's territory; no budget fact exists.
        return report;
    };
    let cycles = (config.window_cycles + config.settle_cycles) as f64;
    let conversion_s = period.get() * cycles;
    let location = Location::object(format!(
        "{} stage(s), {} + {} cycles",
        config.ring.stages().len(),
        config.settle_cycles,
        config.window_cycles
    ));
    if conversion_s > deadline_s {
        report.push(Diagnostic::error(
            "NC0701",
            location,
            format!(
                "worst-case conversion {:.3e} s (period {:.3e} s at {HOT_CORNER_C:.0} °C) \
                 exceeds the {:.3e} s deadline: every direct read is unservable by \
                 construction",
                conversion_s,
                period.get(),
                deadline_s
            ),
        ));
    } else if conversion_s > HEADROOM_FRACTION * deadline_s {
        report.push(Diagnostic::warning(
            "NC0702",
            location,
            format!(
                "worst-case conversion {:.3e} s consumes more than half the {:.3e} s \
                 deadline: no headroom for a retry, any transient fault forces degraded \
                 service",
                conversion_s, deadline_s
            ),
        ));
    }
    report
}

/// `NC0801`: a runtime's staleness bound vs its checkpoint interval
/// across crash recovery (an interval of `0` disables checkpointing,
/// and with it the hazard).
pub fn check_runtime_tuning(staleness_bound_ms: u64, checkpoint_interval_ms: u64) -> Report {
    let mut report = Report::new();
    if checkpoint_interval_ms > 0 && staleness_bound_ms < checkpoint_interval_ms {
        report.push(Diagnostic::error(
            "NC0801",
            Location::object(format!(
                "staleness {staleness_bound_ms} ms, checkpoint every {checkpoint_interval_ms} ms"
            )),
            format!(
                "staleness bound {staleness_bound_ms} ms is shorter than the \
                 {checkpoint_interval_ms} ms checkpoint interval: a crash-recovered process \
                 restores readings up to a full interval old, so it could hold nothing fresh \
                 enough to serve"
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;

    fn config() -> SensorConfig {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        SensorConfig::new(ring, tech)
    }

    fn conversion_s(cfg: &SensorConfig) -> f64 {
        let period = cfg
            .ring
            .period(&cfg.tech, Celsius::new(HOT_CORNER_C))
            .unwrap();
        period.get() * (cfg.window_cycles + cfg.settle_cycles) as f64
    }

    #[test]
    fn generous_deadline_is_clean() {
        let report = check_runtime_budget(&config(), 0.25);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn impossible_deadline_errors_nc0701() {
        let cfg = config();
        let deadline = conversion_s(&cfg) * 0.5;
        let report = check_runtime_budget(&cfg, deadline);
        assert!(report.has_errors(), "{}", report.render_text());
        assert_eq!(report.diagnostics()[0].rule, "NC0701");
    }

    #[test]
    fn tight_deadline_warns_nc0702() {
        let cfg = config();
        let deadline = conversion_s(&cfg) * 1.5; // fits, but > 50 %
        let report = check_runtime_budget(&cfg, deadline);
        assert!(!report.has_errors(), "{}", report.render_text());
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["NC0702"], "{}", report.render_text());
    }

    #[test]
    fn stale_before_checkpoint_errors_nc0801() {
        // The runtime's own default (600 ms bound, 500 ms interval)
        // must stay on the clean side of this rule.
        let report = check_runtime_tuning(600, 500);
        assert!(report.is_clean(), "{}", report.render_text());

        let report = check_runtime_tuning(400, 500);
        assert!(report.has_errors(), "{}", report.render_text());
        assert_eq!(report.diagnostics()[0].rule, "NC0801");

        // Boundary: equal is servable (a just-restored reading is
        // exactly at the bound, not past it).
        assert!(check_runtime_tuning(500, 500).is_clean());
        // Checkpointing off: no recovery path, no hazard.
        assert!(check_runtime_tuning(10, 0).is_clean());
    }

    #[test]
    fn boundary_sits_between_the_rules() {
        let cfg = config();
        let conv = conversion_s(&cfg);
        // Just over the conversion: NC0702 (no headroom), not NC0701.
        let report = check_runtime_budget(&cfg, conv * 1.001);
        assert!(!report.has_errors());
        assert!(!report.is_clean());
        // Just over double: clean.
        let report = check_runtime_budget(&cfg, conv * 2.001);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

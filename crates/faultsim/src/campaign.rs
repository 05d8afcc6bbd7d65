//! The seeded fault-injection campaign runner.
//!
//! A campaign takes a fault universe (every enumerable fault site of the
//! reference sensing stack), optionally samples it with a seeded RNG,
//! runs each faulted variant under watchdog budgets, and classifies
//! every run into exactly one [`Outcome`]:
//!
//! * [`Outcome::Detected`] — a typed error, alarm, or quarantine fired;
//!   the stack *knows* something is wrong;
//! * [`Outcome::SilentCorruption`] — the stack returned `Ok` with a
//!   reading off by more than the tolerance and no flag raised — the
//!   outcome the hardening exists to eliminate;
//! * [`Outcome::Benign`] — the reading stayed within tolerance;
//! * [`Outcome::Hang`] — a watchdog budget expired (the faulted variant
//!   would otherwise run away). Panics caught during a run are also
//!   folded here and counted separately — both must be zero on the
//!   reference stack.
//!
//! Fault coverage is `(detected + benign) / classified`: the fraction
//! of the universe that is either caught or harmless.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsim::{ring_oscillator, GateOp, Logic, Netlist, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensor::health::HealthPolicy;
use sensor::unit::{SensorConfig, SmartSensorUnit};
use sensor::{SensorArray, SensorError};
use spicelite::{run_transient, Circuit, SimError, Stimulus, TranOptions};
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, TempRange};

use crate::fault::{Fault, FaultClass};

/// Classification of one fault run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A typed error, alarm, or quarantine fired.
    Detected {
        /// What fired, for the report.
        how: String,
    },
    /// `Ok` with a wrong reading and no flag: the failure mode the
    /// hardening must eliminate.
    SilentCorruption {
        /// Reading error vs the healthy baseline, °C.
        error_c: f64,
    },
    /// The reading stayed within tolerance.
    Benign {
        /// Reading error vs the healthy baseline, °C.
        error_c: f64,
    },
    /// A watchdog budget expired (or a panic was caught).
    Hang {
        /// Which budget (or panic payload).
        detail: String,
    },
}

/// One completed fault run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRun {
    /// The injected fault.
    pub fault: Fault,
    /// Its classification.
    pub outcome: Outcome,
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// RNG seed for fault sampling — same seed, same campaign.
    pub seed: u64,
    /// How many faults to run. `0` enumerates the whole universe once;
    /// otherwise faults are sampled uniformly (with replacement) from
    /// the universe.
    pub faults: usize,
    /// Nominal junction temperature of the campaign, °C.
    pub junction_c: f64,
    /// Silent-corruption tolerance on the reading, °C. Matched to the
    /// health policy's neighbor tolerance so the silent window between
    /// "too small to matter" and "big enough to quarantine" is empty.
    pub tolerance_c: f64,
    /// dsim watchdog: maximum events per gate-level run.
    pub event_budget: u64,
    /// Gate-level observation window, femtoseconds.
    pub window_fs: u64,
    /// Include transistor-level deck faults (slow; off for the smoke
    /// campaign).
    pub with_spice: bool,
}

impl Default for CampaignConfig {
    /// The CI smoke setup: seed 42, sampled 100-fault campaign at
    /// 85 °C, 3 °C tolerance, 200k-event / 50-period budgets, no SPICE.
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            faults: 100,
            junction_c: 85.0,
            tolerance_c: 3.0,
            event_budget: 200_000,
            window_fs: 50_000_000,
            with_spice: false,
        }
    }
}

/// Aggregated campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Every run, in execution order.
    pub runs: Vec<FaultRun>,
    /// Panics caught (also folded into [`Outcome::Hang`]); must be zero.
    pub panics: u64,
    /// Wall-clock duration of the campaign, seconds.
    pub elapsed_s: f64,
    /// The configuration that produced this result.
    pub config: CampaignConfig,
}

impl CampaignResult {
    fn count(&self, pred: impl Fn(&Outcome) -> bool) -> usize {
        self.runs.iter().filter(|r| pred(&r.outcome)).count()
    }

    /// Number of detected runs.
    pub fn detected(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Detected { .. }))
    }

    /// Number of silently corrupted runs.
    pub fn silent(&self) -> usize {
        self.count(|o| matches!(o, Outcome::SilentCorruption { .. }))
    }

    /// Number of benign runs.
    pub fn benign(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Benign { .. }))
    }

    /// Number of hung (budget-exhausted or panicked) runs.
    pub fn hung(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Hang { .. }))
    }

    /// Fault coverage: `(detected + benign) / classified`.
    pub fn coverage(&self) -> f64 {
        if self.runs.is_empty() {
            return 1.0;
        }
        (self.detected() + self.benign()) as f64 / self.runs.len() as f64
    }

    /// Campaign throughput, faults per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.runs.len() as f64 / self.elapsed_s
    }

    /// `(class, total, detected, benign, silent, hung)` rows in class
    /// order — the per-class coverage table.
    pub fn per_class(&self) -> Vec<(FaultClass, usize, usize, usize, usize, usize)> {
        let mut classes: Vec<FaultClass> = self.runs.iter().map(|r| r.fault.class()).collect();
        classes.sort();
        classes.dedup();
        classes
            .into_iter()
            .map(|c| {
                let of_class = |pred: &dyn Fn(&Outcome) -> bool| {
                    self.runs
                        .iter()
                        .filter(|r| r.fault.class() == c && pred(&r.outcome))
                        .count()
                };
                (
                    c,
                    self.runs.iter().filter(|r| r.fault.class() == c).count(),
                    of_class(&|o| matches!(o, Outcome::Detected { .. })),
                    of_class(&|o| matches!(o, Outcome::Benign { .. })),
                    of_class(&|o| matches!(o, Outcome::SilentCorruption { .. })),
                    of_class(&|o| matches!(o, Outcome::Hang { .. })),
                )
            })
            .collect()
    }
}

/// Gate delay of the reference gate-level ring, femtoseconds.
pub const REF_GATE_DELAY_FS: u64 = 100_000;
/// Stage count of the reference ring (the paper's 5×INV element).
pub const REF_STAGES: usize = 5;

/// Enumerates the fault universe of the 5×INV reference ring: every
/// stuck-at site, per-stage delay faults, and the behavioral unit
/// faults. Deck faults are appended only when `with_spice` is set.
pub fn reference_universe(with_spice: bool) -> Vec<Fault> {
    let mut u = Vec::new();
    for stage in 0..REF_STAGES {
        for value in [Logic::Zero, Logic::One] {
            u.push(Fault::StuckAt { stage, value });
        }
    }
    for component in 0..REF_STAGES {
        for factor in [1.005, 1.2, 2.0, 4.0] {
            u.push(Fault::DelayFault { component, factor });
        }
    }
    u.push(Fault::DeadRing);
    for period_s in [100e-12, 500e-12, 2e-9] {
        u.push(Fault::StuckRing { period_s });
    }
    for factor in [0.5, 0.999, 1.001, 1.05, 1.5, 4.0] {
        u.push(Fault::SlowRing { factor });
    }
    for bit in 0..16 {
        u.push(Fault::CounterBitFlip { bit });
    }
    for captures in [1, 2, 4, 8, 64, 1000] {
        u.push(Fault::MetastableCapture { captures });
    }
    for delta_v in [0.002, 0.005, 0.05, 0.1, 0.3] {
        u.push(Fault::SupplyDroop { delta_v });
    }
    for junction_c in [165.0, 200.0, 300.0] {
        u.push(Fault::ThermalRunaway { junction_c });
    }
    if with_spice {
        for fraction in [0.02, 0.3, 0.7] {
            u.push(Fault::DeckSupplyDroop { fraction });
        }
    }
    u
}

/// The reference behavioral sensing unit (5×INV, 0.35 µm, calibrated
/// over the paper range): what every campaign faults, and what each
/// site of a `runtime` service core's array is.
pub fn reference_unit() -> SmartSensorUnit {
    let tech = Technology::um350();
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("reference gate is valid");
    let ring = RingOscillator::uniform(gate, REF_STAGES).expect("reference ring is valid");
    let mut unit =
        SmartSensorUnit::new(SensorConfig::new(ring, tech)).expect("reference config is valid");
    unit.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
        .expect("reference calibration");
    unit
}

/// Builds the 3-site reference array: the faulted site plus two healthy
/// neighbors, as neighbor-vote monitoring requires.
fn reference_array() -> SensorArray {
    let mut a = SensorArray::new();
    for i in 0..3 {
        a = a.with_site(format!("s{i}"), 1e-3 * i as f64, 1e-3, reference_unit());
    }
    a
}

/// Builds the gate-level reference ring and returns the netlist and its
/// stage nets.
fn reference_netlist() -> (Netlist, Vec<dsim::SignalId>) {
    let mut nl = Netlist::new();
    let ports = ring_oscillator(
        &mut nl,
        &[GateOp::Inv; REF_STAGES],
        "ring",
        REF_GATE_DELAY_FS,
    )
    .expect("reference ring builds");
    (nl, ports.stages)
}

/// Measures the steady ring period at gate level from traced rising
/// edges of `out`, under the event watchdog.
///
/// Returns `Ok(None)` when the ring shows no (or too little) activity,
/// `Err(at_fs)` when the event budget expired.
fn gate_period_fs(
    nl: Netlist,
    out: dsim::SignalId,
    window_fs: u64,
    event_budget: u64,
) -> Result<Option<f64>, u64> {
    let mut sim = Simulator::new(nl);
    sim.enable_trace();
    match sim.run_until_budget(window_fs, event_budget) {
        Err(_) => Err(sim.time_fs()),
        Ok(_) => {
            let rises: Vec<u64> = sim
                .changes()
                .iter()
                .filter(|c| c.signal == out && c.value == Logic::One)
                .map(|c| c.time_fs)
                .collect();
            // Skip the first edges (settlement) and require a real run.
            if rises.len() < 6 {
                return Ok(None);
            }
            let first = rises[2];
            let last = *rises.last().expect("len checked");
            Ok(Some((last - first) as f64 / (rises.len() as f64 - 3.0)))
        }
    }
}

/// Relative period slope of the reference sensing element, 1/°C —
/// converts a fractional period deviation into an equivalent
/// temperature error for gate-level classification.
fn relative_slope_per_c(at: Celsius) -> f64 {
    let unit = reference_unit();
    let cfg = unit.config();
    let p0 = cfg
        .ring
        .period(&cfg.tech, Celsius::new(at.get() - 5.0))
        .expect("reference period")
        .get();
    let p1 = cfg
        .ring
        .period(&cfg.tech, Celsius::new(at.get() + 5.0))
        .expect("reference period")
        .get();
    let pm = cfg
        .ring
        .period(&cfg.tech, at)
        .expect("reference period")
        .get();
    (p1 - p0) / (10.0 * pm)
}

/// Runs one gate-level fault (stuck-at or delay) and classifies it.
fn run_gate_fault(fault: &Fault, config: &CampaignConfig) -> Outcome {
    let (mut nl, stages) = reference_netlist();
    if let Err(e) = fault.inject_netlist(&mut nl) {
        return Outcome::Detected {
            how: format!("injection rejected: {e}"),
        };
    }
    let out = *stages.last().expect("ring has stages");
    // Healthy baseline on the pristine netlist.
    let (healthy_nl, _) = reference_netlist();
    let healthy = match gate_period_fs(healthy_nl, out, config.window_fs, config.event_budget) {
        Ok(Some(p)) => p,
        Ok(None) => {
            return Outcome::Hang {
                detail: "healthy reference ring shows no activity".to_string(),
            }
        }
        Err(at) => {
            return Outcome::Hang {
                detail: format!("healthy reference exhausted budget at {at} fs"),
            }
        }
    };
    let mut sim = Simulator::new(nl);
    sim.enable_trace();
    fault.apply_stuck_at(&mut sim, &stages);
    let faulted = match sim.run_until_budget(config.window_fs, config.event_budget) {
        Err(_) => {
            return Outcome::Hang {
                detail: format!(
                    "event budget {} exhausted at {} fs",
                    config.event_budget,
                    sim.time_fs()
                ),
            }
        }
        Ok(_) => {
            let rises: Vec<u64> = sim
                .changes()
                .iter()
                .filter(|c| c.signal == out && c.value == Logic::One)
                .map(|c| c.time_fs)
                .collect();
            if rises.len() < 6 {
                return Outcome::Detected {
                    how: "no-activity monitor: ring output stopped toggling".to_string(),
                };
            }
            let first = rises[2];
            let last = *rises.last().expect("len checked");
            (last - first) as f64 / (rises.len() as f64 - 3.0)
        }
    };
    let deviation = (faulted - healthy) / healthy;
    if deviation.abs() > 0.25 {
        return Outcome::Detected {
            how: format!(
                "period plausible-band monitor: {:+.1} % off nominal",
                deviation * 100.0
            ),
        };
    }
    let equiv_c = deviation / relative_slope_per_c(Celsius::new(config.junction_c));
    if equiv_c.abs() > config.tolerance_c {
        Outcome::Detected {
            how: format!("neighbor-vote monitor: {equiv_c:+.1} °C equivalent deviation"),
        }
    } else {
        Outcome::Benign { error_c: equiv_c }
    }
}

/// Runs one behavioral unit fault through the hardened 3-site array and
/// classifies it.
fn run_unit_fault(fault: &Fault, config: &CampaignConfig) -> Outcome {
    let mut array = reference_array();
    fault.inject_unit(&mut array.sites_mut()[0].unit);
    let policy = {
        let mut p = HealthPolicy::for_unit(&array.sites()[1].unit, TempRange::paper(), 0.25)
            .expect("reference policy derives");
        p.neighbor_tolerance_c = config.tolerance_c;
        p
    };
    let nominal = config.junction_c;
    // Thermal runaway is an environment fault: the faulted site's
    // neighborhood overheats while the rest of the die stays nominal.
    let hot = match *fault {
        Fault::ThermalRunaway { junction_c } => Some(junction_c),
        _ => None,
    };
    let field = move |x: f64, _y: f64| -> f64 {
        match hot {
            Some(h) if x < 0.5e-3 => h,
            _ => nominal,
        }
    };
    match array.scan_degraded(&field, &policy) {
        Err(SensorError::NoHealthyRings { total, quarantined }) => Outcome::Detected {
            how: format!("quarantine exhausted the array ({quarantined}/{total})"),
        },
        Err(e) => Outcome::Detected {
            how: format!("typed error: {e}"),
        },
        Ok(reading) => {
            let error_c = reading.value - nominal;
            if reading.is_degraded() {
                if error_c.abs() <= config.tolerance_c {
                    Outcome::Detected {
                        how: format!(
                            "quarantine: {}",
                            reading
                                .quarantined
                                .iter()
                                .map(|(n, s)| format!("{n} ({s:?})"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    }
                } else {
                    // Quarantine fired but the served value is still off:
                    // the degradation contract is broken — count it
                    // against coverage, not for it.
                    Outcome::SilentCorruption { error_c }
                }
            } else if error_c.abs() <= config.tolerance_c {
                Outcome::Benign { error_c }
            } else {
                Outcome::SilentCorruption { error_c }
            }
        }
    }
}

/// Runs one transistor-level deck fault: an RC supply deck with the
/// sagged rail, watched by a rail monitor and the step-budget watchdog.
fn run_deck_fault(fault: &Fault, _config: &CampaignConfig) -> Outcome {
    let nominal = 3.3;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let rail = ckt.node("rail");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(nominal))
        .expect("deck builds");
    ckt.add_resistor("Rgrid", vdd, rail, 1.0)
        .expect("deck builds");
    ckt.add_capacitor("Cdecap", rail, Circuit::GROUND, 1e-9)
        .expect("deck builds");
    fault.inject_circuit(&mut ckt);
    let opts = TranOptions::to_time(50e-9)
        .with_uic()
        .with_steps(0.5e-9, 0.5e-9)
        .with_max_steps(10_000);
    match run_transient(&ckt, &opts) {
        Err(SimError::ConvergenceTimeout { steps, at_time }) => Outcome::Hang {
            detail: format!("step budget {steps} exhausted at t = {at_time:.3e} s"),
        },
        Err(e) => Outcome::Detected {
            how: format!("typed error: {e}"),
        },
        Ok(wave) => {
            let v = wave.sample_at("rail", 50e-9).expect("rail is a deck node");
            let sag = (nominal - v) / nominal;
            if sag.abs() > 0.05 {
                Outcome::Detected {
                    how: format!(
                        "supply monitor: rail at {:.1} % of nominal",
                        (v / nominal) * 100.0
                    ),
                }
            } else {
                // Rail noise below the monitor threshold shifts the
                // reading negligibly.
                Outcome::Benign { error_c: 0.0 }
            }
        }
    }
}

/// Runs a single fault and classifies it; panics inside the run are
/// caught and reported as [`Outcome::Hang`].
pub fn run_fault(fault: &Fault, config: &CampaignConfig) -> (Outcome, bool) {
    let f = fault.clone();
    let cfg = config.clone();
    let result = catch_unwind(AssertUnwindSafe(move || match f {
        Fault::StuckAt { .. } | Fault::DelayFault { .. } => run_gate_fault(&f, &cfg),
        Fault::DeckSupplyDroop { .. } => run_deck_fault(&f, &cfg),
        // Network faults strike the fleet fabric, not a sensor stack:
        // a single-unit campaign run cannot observe them.
        Fault::LinkPartition | Fault::LinkLoss { .. } | Fault::LinkDelay { .. } => {
            Outcome::Benign { error_c: 0.0 }
        }
        _ => run_unit_fault(&f, &cfg),
    }));
    match result {
        Ok(outcome) => (outcome, false),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (
                Outcome::Hang {
                    detail: format!("panic: {msg}"),
                },
                true,
            )
        }
    }
}

/// Runs a full seeded campaign over the reference stack.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let universe = reference_universe(config.with_spice);
    let plan: Vec<Fault> = if config.faults == 0 {
        universe
    } else {
        let mut rng = StdRng::seed_from_u64(config.seed);
        (0..config.faults)
            .map(|_| universe[rng.random_range(0..universe.len() as u64) as usize].clone())
            .collect()
    };
    let start = Instant::now();
    let mut runs = Vec::with_capacity(plan.len());
    let mut panics = 0u64;
    for fault in plan {
        let (outcome, panicked) = run_fault(&fault, config);
        if panicked {
            panics += 1;
        }
        runs.push(FaultRun { fault, outcome });
    }
    CampaignResult {
        runs,
        panics,
        elapsed_s: start.elapsed().as_secs_f64(),
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            faults: 0, // full enumeration
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn full_reference_campaign_is_clean() {
        let result = run_campaign(&quick_config());
        assert_eq!(result.panics, 0, "no panics");
        assert_eq!(result.hung(), 0, "no hangs: {:?}", hung_runs(&result));
        assert_eq!(
            result.silent(),
            0,
            "no silent corruption: {:?}",
            silent_runs(&result)
        );
        assert_eq!(result.coverage(), 1.0, "every fault detected or benign");
        assert_eq!(
            result.runs.len(),
            reference_universe(false).len(),
            "every fault classified"
        );
    }

    fn hung_runs(r: &CampaignResult) -> Vec<&FaultRun> {
        r.runs
            .iter()
            .filter(|x| matches!(x.outcome, Outcome::Hang { .. }))
            .collect()
    }

    fn silent_runs(r: &CampaignResult) -> Vec<&FaultRun> {
        r.runs
            .iter()
            .filter(|x| matches!(x.outcome, Outcome::SilentCorruption { .. }))
            .collect()
    }

    #[test]
    fn sampled_campaign_is_deterministic_per_seed() {
        let cfg = CampaignConfig {
            faults: 20,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.runs, b.runs, "same seed, same campaign");
        let c = run_campaign(&CampaignConfig { seed: 43, ..cfg });
        assert_ne!(
            a.runs.iter().map(|r| &r.fault).collect::<Vec<_>>(),
            c.runs.iter().map(|r| &r.fault).collect::<Vec<_>>(),
            "different seed, different sample"
        );
    }

    #[test]
    fn stuck_at_faults_are_all_detected() {
        let cfg = quick_config();
        for stage in 0..REF_STAGES {
            for value in [Logic::Zero, Logic::One] {
                let (outcome, panicked) = run_fault(&Fault::StuckAt { stage, value }, &cfg);
                assert!(!panicked);
                assert!(
                    matches!(outcome, Outcome::Detected { .. }),
                    "stuck-at-{value:?} stage {stage}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn dead_ring_detected_and_reading_served() {
        let cfg = quick_config();
        let (outcome, _) = run_fault(&Fault::DeadRing, &cfg);
        match outcome {
            Outcome::Detected { how } => assert!(how.contains("quarantine"), "{how}"),
            other => panic!("dead ring must be quarantined, got {other:?}"),
        }
    }

    #[test]
    fn deck_droop_classified_by_supply_monitor() {
        let cfg = CampaignConfig {
            with_spice: true,
            ..quick_config()
        };
        let (big, _) = run_fault(&Fault::DeckSupplyDroop { fraction: 0.3 }, &cfg);
        assert!(matches!(big, Outcome::Detected { .. }), "{big:?}");
        let (small, _) = run_fault(&Fault::DeckSupplyDroop { fraction: 0.02 }, &cfg);
        assert!(matches!(small, Outcome::Benign { .. }), "{small:?}");
    }

    #[test]
    fn per_class_rows_sum_to_totals() {
        let result = run_campaign(&quick_config());
        let rows = result.per_class();
        let total: usize = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, result.runs.len());
        for (class, n, det, ben, sil, hung) in rows {
            assert_eq!(det + ben + sil + hung, n, "{class}: partition is exact");
        }
    }
}

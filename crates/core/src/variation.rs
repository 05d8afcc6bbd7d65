//! Process-variation Monte-Carlo analysis.
//!
//! A production thermal-test flow must work on *every* die, not the
//! nominal one. This module perturbs the technology globally (die-to-die:
//! threshold shifts and drive-strength spread) and each ring stage locally
//! (within-die width mismatch), then evaluates how much accuracy each
//! calibration scheme retains — the Abl-1 ablation of DESIGN.md.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibration::{CalibrationReport, OnePoint, TwoPoint};
use crate::error::Result;
use crate::gate::Gate;
use crate::linearity::{FitKind, NonLinearity};
use crate::ring::RingOscillator;
use crate::tech::Technology;
use crate::units::{TempRange, Volts};

/// Standard deviations of the modelled process spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Die-to-die threshold-voltage shift, in volts (1σ).
    pub sigma_vth: f64,
    /// Die-to-die relative drive-constant spread (1σ).
    pub sigma_kdrive_rel: f64,
    /// Within-die relative width mismatch per transistor (1σ).
    pub sigma_width_rel: f64,
}

impl Default for VariationSpec {
    /// Representative 0.35 µm-class spread: 30 mV Vth, 5 % drive,
    /// 2 % local width mismatch.
    fn default() -> Self {
        VariationSpec {
            sigma_vth: 0.030,
            sigma_kdrive_rel: 0.05,
            sigma_width_rel: 0.02,
        }
    }
}

/// Draws one standard-normal variate (Box–Muller; consumes two
/// uniforms). The one normal sampler every crate's Monte Carlo and
/// jitter model draws from.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.random();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Returns a copy of `tech` with die-to-die parameter shifts applied.
/// NMOS and PMOS shift independently, as on silicon.
pub fn perturb_technology<R: Rng + ?Sized>(
    tech: &Technology,
    spec: &VariationSpec,
    rng: &mut R,
) -> Technology {
    let mut t = tech.clone();
    t.nmos.vth0 = Volts::new(t.nmos.vth0.get() + spec.sigma_vth * standard_normal(rng));
    t.pmos.vth0 = Volts::new(t.pmos.vth0.get() + spec.sigma_vth * standard_normal(rng));
    t.nmos.k_drive *= 1.0 + spec.sigma_kdrive_rel * standard_normal(rng);
    t.pmos.k_drive *= 1.0 + spec.sigma_kdrive_rel * standard_normal(rng);
    // Keep parameters physical under extreme draws.
    t.nmos.k_drive = t.nmos.k_drive.max(1e-3);
    t.pmos.k_drive = t.pmos.k_drive.max(1e-3);
    t.nmos.vth0 = Volts::new(t.nmos.vth0.get().max(0.05));
    t.pmos.vth0 = Volts::new(t.pmos.vth0.get().max(0.05));
    t
}

/// Returns a copy of `ring` with independent width mismatch applied to
/// every transistor of every stage.
///
/// # Errors
///
/// Propagates gate-construction errors (cannot occur for the clamped
/// perturbations used here, but the signature stays honest).
pub fn perturb_ring<R: Rng + ?Sized>(
    ring: &RingOscillator,
    spec: &VariationSpec,
    rng: &mut R,
) -> Result<RingOscillator> {
    let stages = ring
        .stages()
        .iter()
        .map(|g| {
            let en = (1.0 + spec.sigma_width_rel * standard_normal(rng)).max(0.5);
            let ep = (1.0 + spec.sigma_width_rel * standard_normal(rng)).max(0.5);
            Gate::sized(g.kind(), g.wn() * en, g.wp() * ep)
        })
        .collect::<Result<Vec<_>>>()?;
    RingOscillator::from_stages(stages)
}

/// Outcome of one Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Oscillation period at the range midpoint, seconds.
    pub period_mid: f64,
    /// Worst-case transfer non-linearity, % of full scale.
    pub max_nl_percent: f64,
    /// Worst-case temperature error after two-point calibration, °C.
    pub two_point_err_c: f64,
    /// Worst-case temperature error after one-point calibration (typical
    /// slope from the *nominal* design model), °C.
    pub one_point_err_c: f64,
}

/// Aggregate statistics of a Monte-Carlo study.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloStudy {
    trials: Vec<TrialOutcome>,
}

impl MonteCarloStudy {
    /// Runs `n` trials of die-to-die + within-die variation on `ring`
    /// under `tech`, evaluating both calibration schemes on each die.
    /// Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation failures (e.g. a pathological draw
    /// turning a device off inside the range).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn run(
        ring: &RingOscillator,
        tech: &Technology,
        spec: &VariationSpec,
        range: TempRange,
        samples: usize,
        n: usize,
        seed: u64,
    ) -> Result<MonteCarloStudy> {
        assert!(n > 0, "need at least one trial");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trials = Vec::with_capacity(n);
        let mid = range.midpoint();
        for _ in 0..n {
            let die_tech = perturb_technology(tech, spec, &mut rng);
            let die_ring = perturb_ring(ring, spec, &mut rng)?;
            let curve = die_ring.period_curve(&die_tech, range, samples)?;
            let nl = NonLinearity::of_curve(&curve, FitKind::LeastSquares)?;
            let two = TwoPoint::fit_ring(&die_ring, &die_tech, range.low(), range.high())?;
            let one = OnePoint::fit_ring(&die_ring, &die_tech, mid, ring, tech, range)?;
            let two_report = CalibrationReport::evaluate(&two, &curve);
            let one_report = CalibrationReport::evaluate(&one, &curve);
            trials.push(TrialOutcome {
                period_mid: die_ring.period(&die_tech, mid)?.get(),
                max_nl_percent: nl.max_abs_percent(),
                two_point_err_c: two_report.max_abs_celsius(),
                one_point_err_c: one_report.max_abs_celsius(),
            });
        }
        Ok(MonteCarloStudy { trials })
    }

    /// The individual trial outcomes.
    #[inline]
    pub fn trials(&self) -> &[TrialOutcome] {
        &self.trials
    }

    /// Number of trials.
    #[inline]
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// `true` if the study holds no trials (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    fn stats(&self, f: impl Fn(&TrialOutcome) -> f64) -> (f64, f64) {
        let n = self.trials.len() as f64;
        let mean = self.trials.iter().map(&f).sum::<f64>() / n;
        let var = self
            .trials
            .iter()
            .map(|t| (f(t) - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    /// Mean and standard deviation of the midpoint period (seconds).
    pub fn period_stats(&self) -> (f64, f64) {
        self.stats(|t| t.period_mid)
    }

    /// Mean and standard deviation of the worst-case non-linearity (%).
    pub fn nl_stats(&self) -> (f64, f64) {
        self.stats(|t| t.max_nl_percent)
    }

    /// Mean and standard deviation of the two-point calibrated error (°C).
    pub fn two_point_stats(&self) -> (f64, f64) {
        self.stats(|t| t.two_point_err_c)
    }

    /// Mean and standard deviation of the one-point calibrated error (°C).
    pub fn one_point_stats(&self) -> (f64, f64) {
        self.stats(|t| t.one_point_err_c)
    }

    /// 95th-percentile of a metric (worst dies matter for test escapes).
    pub fn percentile_95(&self, f: impl Fn(&TrialOutcome) -> f64) -> f64 {
        let mut vals: Vec<f64> = self.trials.iter().map(f).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
        let idx = ((vals.len() as f64) * 0.95).ceil() as usize;
        vals[idx.min(vals.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn setup() -> (Technology, RingOscillator) {
        let tech = Technology::um350();
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap();
        (tech, RingOscillator::uniform(g, 5).unwrap())
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (tech, ring) = setup();
        let spec = VariationSpec::default();
        let a = MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 8, 42).unwrap();
        let b = MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 8, 42).unwrap();
        assert_eq!(a.trials(), b.trials());
        let c = MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 8, 43).unwrap();
        assert_ne!(a.trials(), c.trials(), "different seed, different dies");
    }

    #[test]
    fn perturbation_spreads_the_period() {
        let (tech, ring) = setup();
        let spec = VariationSpec::default();
        let study =
            MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 32, 1).unwrap();
        let (mean, std) = study.period_stats();
        assert!(mean > 0.0);
        assert!(std > 0.0, "process variation must spread the period");
        // Spread is a few percent, not orders of magnitude.
        assert!(std / mean < 0.3, "σ/µ = {}", std / mean);
    }

    #[test]
    fn two_point_calibration_absorbs_process_shift() {
        let (tech, ring) = setup();
        let spec = VariationSpec::default();
        let study =
            MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 21, 24, 7).unwrap();
        let (two_mean, _) = study.two_point_stats();
        let (one_mean, _) = study.one_point_stats();
        // Two-point leaves only the (sub-degree) non-linearity; one-point
        // additionally carries the die's slope error.
        assert!(
            two_mean < one_mean,
            "two-point {two_mean} vs one-point {one_mean}"
        );
        assert!(two_mean < 2.0, "two-point residual stays small: {two_mean}");
    }

    #[test]
    fn zero_sigma_reproduces_nominal() {
        let (tech, ring) = setup();
        let spec = VariationSpec {
            sigma_vth: 0.0,
            sigma_kdrive_rel: 0.0,
            sigma_width_rel: 0.0,
        };
        let study =
            MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 4, 9).unwrap();
        let (_, std) = study.period_stats();
        assert!(std < 1e-18, "no spread without variation");
        let nominal = ring
            .period(&tech, TempRange::paper().midpoint())
            .unwrap()
            .get();
        assert!((study.trials()[0].period_mid - nominal).abs() < 1e-18);
    }

    #[test]
    fn percentile_is_at_least_mean_for_right_skewed_metrics() {
        let (tech, ring) = setup();
        let spec = VariationSpec::default();
        let study =
            MonteCarloStudy::run(&ring, &tech, &spec, TempRange::paper(), 11, 32, 5).unwrap();
        let p95 = study.percentile_95(|t| t.one_point_err_c);
        let (mean, _) = study.one_point_stats();
        assert!(p95 >= mean * 0.5, "p95 {p95} vs mean {mean}");
        assert_eq!(study.len(), 32);
        assert!(!study.is_empty());
    }

    #[test]
    fn normal_sampler_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}

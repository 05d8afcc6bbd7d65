//! Measurement noise and averaging.
//!
//! A real ring oscillator jitters: thermal and flicker noise spread the
//! measured period around its mean, so single conversions scatter. This
//! module models that scatter (relative period jitter per conversion)
//! and provides the standard countermeasures — moving-average and
//! median-of-N filtering — whose √N behaviour the tests pin down.

use rand::Rng;

use tsense_core::units::{Celsius, Seconds};
use tsense_core::variation::standard_normal;

use crate::error::Result;
use crate::health::median;
use crate::unit::{Measurement, SmartSensorUnit};

/// Gaussian relative jitter on the *measured* (window-averaged) period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// 1σ of the relative period error per conversion.
    pub sigma_rel: f64,
}

impl JitterModel {
    /// Creates a jitter model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_rel` is negative or implausibly large (≥ 10 %).
    pub fn new(sigma_rel: f64) -> Self {
        assert!(
            (0.0..0.1).contains(&sigma_rel),
            "relative jitter must be in [0, 10 %)"
        );
        JitterModel { sigma_rel }
    }

    /// A representative window-averaged jitter for a 2¹⁶-cycle window:
    /// 0.02 % of the period.
    pub fn typical() -> Self {
        JitterModel::new(2e-4)
    }

    /// Draws one noisy period around `nominal`.
    pub fn perturb<R: Rng + ?Sized>(&self, nominal: Seconds, rng: &mut R) -> Seconds {
        let z = standard_normal(rng);
        Seconds::new(nominal.get() * (1.0 + self.sigma_rel * z))
    }
}

/// One noisy conversion: the ring period is drawn from the jitter model
/// before digitization, everything else follows the normal measurement
/// path.
///
/// # Errors
///
/// Returns [`crate::SensorError::NotReady`] without a calibration, or
/// propagates model failures.
pub fn measure_noisy<R: Rng + ?Sized>(
    unit: &mut SmartSensorUnit,
    junction: Celsius,
    jitter: &JitterModel,
    rng: &mut R,
) -> Result<Measurement> {
    let clean = unit.measure(junction)?;
    let noisy_period = jitter.perturb(clean.ring_period, rng);
    let cal = unit.calibration().ok_or(crate::SensorError::NotReady)?;
    let spec = tsense_core::sensitivity::DigitizerSpec::new(
        unit.config().ref_clock,
        unit.config().window_cycles,
    )
    .map_err(crate::SensorError::Model)?;
    let code = crate::digitizer::BehavioralDigitizer::new(spec).convert(noisy_period);
    Ok(Measurement {
        code,
        temperature: cal.decode(code),
        ring_period: noisy_period,
        ..clean
    })
}

/// Averages `n` noisy conversions (mean of the calibrated readings).
///
/// # Errors
///
/// Propagates per-conversion failures.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn measure_averaged<R: Rng + ?Sized>(
    unit: &mut SmartSensorUnit,
    junction: Celsius,
    jitter: &JitterModel,
    n: usize,
    rng: &mut R,
) -> Result<Celsius> {
    assert!(n > 0, "need at least one conversion to average");
    let mut sum = 0.0;
    for _ in 0..n {
        sum += measure_noisy(unit, junction, jitter, rng)?
            .temperature
            .get();
    }
    Ok(Celsius::new(sum / n as f64))
}

/// Median of `n` noisy conversions — robust against occasional outliers.
///
/// # Errors
///
/// Propagates per-conversion failures.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn measure_median<R: Rng + ?Sized>(
    unit: &mut SmartSensorUnit,
    junction: Celsius,
    jitter: &JitterModel,
    n: usize,
    rng: &mut R,
) -> Result<Celsius> {
    assert!(n > 0, "need at least one conversion");
    let readings = (0..n)
        .map(|_| {
            Ok(measure_noisy(unit, junction, jitter, rng)?
                .temperature
                .get())
        })
        .collect::<Result<Vec<f64>>>()?;
    Ok(Celsius::new(median(&readings)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;
    use tsense_core::units::TempRange;

    fn unit() -> SmartSensorUnit {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let mut u = SmartSensorUnit::new(crate::unit::SensorConfig::new(ring, tech)).unwrap();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        u
    }

    fn reading_std(jitter: f64, n_avg: usize, trials: usize, seed: u64) -> f64 {
        let mut u = unit();
        let j = JitterModel::new(jitter);
        let mut rng = StdRng::seed_from_u64(seed);
        let readings: Vec<f64> = (0..trials)
            .map(|_| {
                measure_averaged(&mut u, Celsius::new(85.0), &j, n_avg, &mut rng)
                    .unwrap()
                    .get()
            })
            .collect();
        let mean = readings.iter().sum::<f64>() / trials as f64;
        (readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / trials as f64).sqrt()
    }

    #[test]
    fn zero_jitter_reproduces_the_clean_measurement() {
        let mut u = unit();
        let j = JitterModel::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let clean = u.measure(Celsius::new(60.0)).unwrap();
        let noisy = measure_noisy(&mut u, Celsius::new(60.0), &j, &mut rng).unwrap();
        assert_eq!(clean.code, noisy.code);
        assert_eq!(clean.temperature, noisy.temperature);
    }

    #[test]
    fn jitter_spreads_single_readings() {
        let s1 = reading_std(2e-3, 1, 60, 7);
        assert!(s1 > 0.05, "visible scatter: {s1}");
    }

    #[test]
    fn averaging_shrinks_the_scatter_roughly_sqrt_n() {
        let s1 = reading_std(2e-3, 1, 80, 11);
        let s16 = reading_std(2e-3, 16, 80, 13);
        let gain = s1 / s16;
        assert!(gain > 2.5 && gain < 7.0, "√16 = 4 expected, got {gain:.2}");
    }

    #[test]
    fn median_resists_outliers() {
        // With a heavy-tailed corruption (simulated by huge sigma), the
        // median stays closer to the truth than a single reading's
        // worst case.
        let mut u = unit();
        let j = JitterModel::new(5e-2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut worst_single = 0.0_f64;
        let mut worst_median = 0.0_f64;
        for _ in 0..20 {
            let single = measure_noisy(&mut u, Celsius::new(85.0), &j, &mut rng)
                .unwrap()
                .temperature
                .get();
            worst_single = worst_single.max((single - 85.0).abs());
            let med = measure_median(&mut u, Celsius::new(85.0), &j, 5, &mut rng)
                .unwrap()
                .get();
            worst_median = worst_median.max((med - 85.0).abs());
        }
        assert!(
            worst_median < worst_single,
            "median {worst_median:.2} vs single {worst_single:.2}"
        );
    }

    #[test]
    fn noisy_measurements_still_track_temperature() {
        let mut u = unit();
        let j = JitterModel::typical();
        let mut rng = StdRng::seed_from_u64(9);
        for t in TempRange::paper().samples(5) {
            let m = measure_averaged(&mut u, t, &j, 8, &mut rng).unwrap();
            assert!((m.get() - t.get()).abs() < 1.0, "at {t}: read {m}");
        }
    }

    #[test]
    #[should_panic(expected = "relative jitter")]
    fn absurd_jitter_rejected() {
        let _ = JitterModel::new(0.5);
    }
}

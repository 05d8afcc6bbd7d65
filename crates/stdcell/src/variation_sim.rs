//! Transistor-level Monte-Carlo: process variation on the simulated
//! ring.
//!
//! The analytical layer's Monte Carlo (`tsense_core::variation`)
//! perturbs alpha-power parameters; this module perturbs the Level-1
//! model cards and the cell widths of the *simulated* ring and measures
//! the resulting period spread. The two paths are cross-validated in the
//! tests: same relative period spread to within a factor of two.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spicelite::devices::MosModel;
use spicelite::error::Result;
use tsense_core::gate::GateKind;
use tsense_core::variation::standard_normal;

use crate::cells::CellSizing;
use crate::library::CellLibrary;
use crate::ring::TransistorRing;

/// Standard deviations of the simulated process spread (die-to-die).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimVariationSpec {
    /// Threshold-voltage shift, volts (1σ), applied independently per
    /// polarity.
    pub sigma_vto: f64,
    /// Relative transconductance spread (1σ).
    pub sigma_kp_rel: f64,
    /// Relative cell-width spread (1σ), applied to the whole die's
    /// sizing (within-die mismatch is below this model's resolution).
    pub sigma_width_rel: f64,
}

impl Default for SimVariationSpec {
    /// Matches the analytical default: 30 mV Vth, 5 % drive, 2 % width.
    fn default() -> Self {
        SimVariationSpec {
            sigma_vto: 0.030,
            sigma_kp_rel: 0.05,
            sigma_width_rel: 0.02,
        }
    }
}

/// Returns perturbed copies of the model cards for one die.
pub fn perturb_models<R: Rng + ?Sized>(
    nmos: &MosModel,
    pmos: &MosModel,
    spec: &SimVariationSpec,
    rng: &mut R,
) -> (MosModel, MosModel) {
    let mut n = nmos.clone();
    let mut p = pmos.clone();
    n.vto = (n.vto + spec.sigma_vto * standard_normal(rng)).max(0.05);
    p.vto = (p.vto + spec.sigma_vto * standard_normal(rng)).max(0.05);
    n.kp *= (1.0 + spec.sigma_kp_rel * standard_normal(rng)).max(0.2);
    p.kp *= (1.0 + spec.sigma_kp_rel * standard_normal(rng)).max(0.2);
    (n, p)
}

/// Outcome of a transistor-level Monte-Carlo period study.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMonteCarlo {
    periods: Vec<f64>,
}

impl SimMonteCarlo {
    /// Runs `n` die samples of a uniform `stages`-stage ring of `kind`
    /// cells from `lib`, measuring the oscillation period at `temp_c`
    /// per die. Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Propagates simulation/measurement failures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn run(
        lib: &CellLibrary,
        kind: GateKind,
        stages: usize,
        temp_c: f64,
        spec: &SimVariationSpec,
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        assert!(n > 0, "need at least one die");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut periods = Vec::with_capacity(n);
        for _ in 0..n {
            let (nmos, pmos) = perturb_models(&lib.nmos, &lib.pmos, spec, &mut rng);
            let scale = (1.0 + spec.sigma_width_rel * standard_normal(&mut rng)).max(0.5);
            let sizing = CellSizing {
                wn: lib.sizing.wn * scale,
                wp: lib.sizing.wp * scale,
                l: lib.sizing.l,
            };
            let ring = TransistorRing::uniform(kind, stages, sizing, nmos, pmos, lib.vdd)?;
            periods.push(ring.measure_period(temp_c)?);
        }
        Ok(SimMonteCarlo { periods })
    }

    /// Measured per-die periods, seconds.
    #[inline]
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// Mean and standard deviation of the period.
    pub fn stats(&self) -> (f64, f64) {
        let n = self.periods.len() as f64;
        let mean = self.periods.iter().sum::<f64>() / n;
        let var = self.periods.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsense_core::gate::Gate;
    use tsense_core::ring::RingOscillator;
    use tsense_core::units::TempRange;
    use tsense_core::variation::{MonteCarloStudy, VariationSpec};

    #[test]
    fn deterministic_by_seed() {
        let lib = CellLibrary::um350(2.0);
        let spec = SimVariationSpec::default();
        let a = SimMonteCarlo::run(&lib, GateKind::Inv, 3, 27.0, &spec, 4, 11).unwrap();
        let b = SimMonteCarlo::run(&lib, GateKind::Inv, 3, 27.0, &spec, 4, 11).unwrap();
        assert_eq!(a.periods(), b.periods());
    }

    #[test]
    fn zero_sigma_collapses_the_spread() {
        let lib = CellLibrary::um350(2.0);
        let spec = SimVariationSpec {
            sigma_vto: 0.0,
            sigma_kp_rel: 0.0,
            sigma_width_rel: 0.0,
        };
        let mc = SimMonteCarlo::run(&lib, GateKind::Inv, 3, 27.0, &spec, 3, 5).unwrap();
        let (mean, std) = mc.stats();
        assert!(mean > 0.0);
        assert!(std / mean < 1e-9, "σ/µ = {}", std / mean);
    }

    #[test]
    fn simulated_spread_matches_the_analytical_monte_carlo() {
        // Both layers model the same silicon spread, so their relative
        // period sigma must agree within a factor of two.
        let lib = CellLibrary::um350(2.0);
        let sim = SimMonteCarlo::run(
            &lib,
            GateKind::Inv,
            5,
            50.0,
            &SimVariationSpec::default(),
            16,
            2005,
        )
        .unwrap();
        let (sim_mean, sim_std) = sim.stats();
        let sim_rel = sim_std / sim_mean;

        let tech = lib.analytical_technology();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let ana = MonteCarloStudy::run(
            &ring,
            &tech,
            &VariationSpec::default(),
            TempRange::paper(),
            5,
            32,
            2005,
        )
        .unwrap();
        let (ana_mean, ana_std) = ana.period_stats();
        let ana_rel = ana_std / ana_mean;

        assert!(
            sim_rel / ana_rel > 0.5 && sim_rel / ana_rel < 2.0,
            "relative spreads: simulated {sim_rel:.4} vs analytical {ana_rel:.4}"
        );
    }
}

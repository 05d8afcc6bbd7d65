//! The STA-predicted sensor transfer function `T(temp)`.
//!
//! Instead of running a transient simulation per temperature point (the
//! Fig. 2 procedure), the period is read off the timing graph: the ring
//! netlist is built once, its per-stage delay pairs re-priced at each
//! sample temperature, and Eq. 1 summed — turning a seconds-long sweep
//! into microseconds. The resulting curve feeds the same
//! [`NonLinearity`] analysis the transient flow uses, so STA and
//! simulation sweeps are directly comparable.

use tsense_core::gate::GateKind;
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::ring::PeriodCurve;
use tsense_core::units::{Seconds, TempRange};

use crate::error::Result;
use crate::graph::{analyze, cell_delays};
use crate::model::AnalyticalModel;
use crate::rings::build_ring;

/// Sweep settings for the STA transfer-function evaluation.
#[derive(Debug, Clone, Copy)]
pub struct TransferSettings {
    /// Temperature range to sweep.
    pub range: TempRange,
    /// Number of evenly spaced samples.
    pub samples: usize,
    /// Residual fit used for the nonlinearity figure.
    pub fit: FitKind,
}

impl Default for TransferSettings {
    /// The paper's −50…150 °C range at 41 samples (5 °C pitch),
    /// least-squares INL — matching `tsense-core`'s sweep defaults.
    fn default() -> Self {
        TransferSettings {
            range: TempRange::paper(),
            samples: 41,
            fit: FitKind::LeastSquares,
        }
    }
}

/// An STA-predicted transfer function with its linearity analysis.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Sample temperatures, °C.
    pub temps_c: Vec<f64>,
    /// Predicted period at each sample, seconds.
    pub periods_s: Vec<f64>,
    /// The curve in core units.
    pub curve: PeriodCurve,
    /// Residuals against the fitted straight line.
    pub nonlinearity: NonLinearity,
}

impl Transfer {
    /// Worst absolute residual, percent of full scale — the paper's
    /// figure of merit.
    pub fn max_nl_percent(&self) -> f64 {
        self.nonlinearity.max_abs_percent()
    }
}

/// Evaluates the STA transfer function of the ring `kinds` under
/// `model`.
///
/// The netlist is lowered once (at the range midpoint); each sample
/// temperature then only re-prices the stage delay pairs and re-runs
/// the graph propagation — no transient simulation anywhere.
///
/// # Errors
///
/// Model failures, ring-construction failures, and degenerate fits
/// propagate.
pub fn transfer(
    kinds: &[GateKind],
    model: &AnalyticalModel,
    settings: &TransferSettings,
) -> Result<Transfer> {
    let ring = build_ring(kinds, model, settings.range.midpoint().get())?;
    let temps = settings.range.samples(settings.samples);
    let mut temps_c = Vec::with_capacity(temps.len());
    let mut periods_s = Vec::with_capacity(temps.len());
    for t in &temps {
        let delays = cell_delays(&ring.netlist, &ring.cells, model, t.get())?;
        let period_fs = analyze(&ring.netlist, &delays).ring_period_fs()?;
        temps_c.push(t.get());
        periods_s.push(period_fs * 1e-15);
    }
    let curve = PeriodCurve::new(temps, periods_s.iter().map(|&p| Seconds::new(p)).collect());
    let nonlinearity = NonLinearity::of_curve(&curve, settings.fit)?;
    Ok(Transfer {
        temps_c,
        periods_s,
        curve,
        nonlinearity,
    })
}

/// The STA-predicted period of ring `kinds` at one temperature,
/// seconds.
///
/// # Errors
///
/// Model and ring-construction failures propagate.
pub fn period_at(kinds: &[GateKind], model: &AnalyticalModel, temp_c: f64) -> Result<f64> {
    let ring = build_ring(kinds, model, temp_c)?;
    Ok(ring.sta_period_fs()? * 1e-15)
}

/// Convenience: sample temperatures of `range` as plain °C floats.
pub fn temps_c(range: &TempRange, samples: usize) -> Vec<f64> {
    range.samples(samples).iter().map(|t| t.get()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;
    use crate::rings::parse_mix;

    #[test]
    fn transfer_is_monotonic_and_analyzable() {
        let model = AnalyticalModel::um350(2.0);
        let kinds = parse_mix("5xINV").unwrap();
        let tf = transfer(
            &kinds,
            &model,
            &TransferSettings {
                samples: 11,
                ..TransferSettings::default()
            },
        )
        .unwrap();
        assert_eq!(tf.temps_c.len(), 11);
        assert!(tf.curve.is_monotonic_increasing(), "period grows with T");
        assert!(tf.max_nl_percent() < 10.0, "{}", tf.max_nl_percent());
    }

    #[test]
    fn period_at_tracks_temperature() {
        let model = AnalyticalModel::um350(2.0);
        let kinds = parse_mix("3xINV+2xNOR2").unwrap();
        let cold = period_at(&kinds, &model, -50.0).unwrap();
        let hot = period_at(&kinds, &model, 150.0).unwrap();
        assert!(hot > cold);
    }
}

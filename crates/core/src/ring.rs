//! Ring-oscillator sensing element.
//!
//! A ring oscillator is an odd chain of inverting gates closed on itself.
//! With `N` stages it oscillates with period
//!
//! ```text
//! T = Σᵢ (t_PHL,i + t_PLH,i)
//! ```
//!
//! (the paper's Eq. 1, generalized from identical inverters to a per-stage
//! sum so that mixed-cell rings — the Fig. 3 configurations — are handled
//! by the same code path). Each stage's load is the input capacitance of
//! the next stage plus its own output parasitics.
//!
//! ```
//! use tsense_core::gate::{Gate, GateKind};
//! use tsense_core::ring::RingOscillator;
//! use tsense_core::tech::Technology;
//! use tsense_core::units::Celsius;
//!
//! let tech = Technology::um350();
//! let inv = Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0)?;
//! let ring = RingOscillator::uniform(inv, 5)?;
//! let period = ring.period(&tech, Celsius::new(27.0))?;
//! assert!(period.as_picos() > 50.0 && period.as_picos() < 5000.0);
//! # Ok::<(), tsense_core::ModelError>(())
//! ```

use std::fmt;

use crate::error::{ModelError, Result};
use crate::gate::{DriveTable, Gate, GateKind, StageTerms};
use crate::tech::Technology;
use crate::units::{Celsius, Farads, Hertz, Seconds, TempRange, Watts};

/// A ring oscillator: an odd number of inverting stages in a loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    stages: Vec<Gate>,
    /// Extra fixed wiring capacitance added to every stage output (F).
    wire_cap: Farads,
}

impl RingOscillator {
    /// Builds a ring from an explicit stage list.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRing`] when fewer than 3 stages are
    /// given or the stage count is even (an even chain latches instead of
    /// oscillating).
    pub fn from_stages(stages: Vec<Gate>) -> Result<Self> {
        if stages.len() < 3 {
            return Err(ModelError::InvalidRing {
                reason: format!("need at least 3 stages, got {}", stages.len()),
            });
        }
        if stages.len().is_multiple_of(2) {
            return Err(ModelError::InvalidRing {
                reason: format!(
                    "{} inverting stages form a latch, not an oscillator; use an odd count",
                    stages.len()
                ),
            });
        }
        Ok(RingOscillator {
            stages,
            wire_cap: Farads::new(0.0),
        })
    }

    /// Builds a ring of `n` identical stages (the paper's Fig. 1/2 setup).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingOscillator::from_stages`].
    pub fn uniform(gate: Gate, n: usize) -> Result<Self> {
        RingOscillator::from_stages(vec![gate; n])
    }

    /// Builds a ring from a [`CellConfig`] with common sizing — the Fig. 3
    /// experiment. Stages are interleaved round-robin over the config's
    /// cell kinds so that dissimilar cells alternate, as a layout engineer
    /// would place them.
    ///
    /// # Errors
    ///
    /// Propagates gate-sizing errors and the odd-stage-count requirement.
    pub fn from_config(config: &CellConfig, wn: f64, ratio: f64) -> Result<Self> {
        let stages = config
            .kinds()
            .iter()
            .map(|&k| Gate::with_ratio(k, wn, ratio))
            .collect::<Result<Vec<_>>>()?;
        RingOscillator::from_stages(stages)
    }

    /// Adds fixed wiring capacitance on every stage output.
    #[must_use]
    pub fn with_wire_cap(mut self, cap: Farads) -> Self {
        self.wire_cap = cap;
        self
    }

    /// Number of stages.
    #[inline]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stage gates, in ring order.
    #[inline]
    pub fn stages(&self) -> &[Gate] {
        &self.stages
    }

    /// Extra fixed wiring capacitance on every stage output.
    #[inline]
    pub fn wire_cap(&self) -> Farads {
        self.wire_cap
    }

    /// Load capacitance seen by stage `i` (input of the next stage plus
    /// wiring); the driving gate's own parasitic is added inside
    /// [`Gate::delays`]. Public so static analyzers (the `netcheck`
    /// abstract interpreter) can price per-stage delays on exactly the
    /// loads the period model uses.
    pub fn stage_load(&self, tech: &Technology, i: usize) -> Farads {
        let next = &self.stages[(i + 1) % self.stages.len()];
        next.input_capacitance(tech) + self.wire_cap
    }

    /// Compiles the ring for `tech`: every stage's temperature-independent
    /// delay terms are computed once, so the returned [`RingModel`]
    /// evaluates a period with one mobility and threshold per polarity and
    /// one overdrive power per (polarity, stack depth) pair.
    ///
    /// ```
    /// use tsense_core::gate::{Gate, GateKind};
    /// use tsense_core::ring::RingOscillator;
    /// use tsense_core::tech::Technology;
    /// use tsense_core::units::Celsius;
    ///
    /// let tech = Technology::um350();
    /// let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0)?, 5)?;
    /// let model = ring.compile(&tech)?;
    /// let t = Celsius::new(85.0);
    /// assert_eq!(model.period(t)?, ring.period(&tech, t)?);
    /// # Ok::<(), tsense_core::ModelError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation.
    pub fn compile(&self, tech: &Technology) -> Result<RingModel> {
        let mut drives = DriveTable::new(tech);
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, gate)| gate.compile(tech, self.stage_load(tech, i), &mut drives))
            .collect::<Result<Vec<_>>>()?;
        Ok(RingModel {
            drives,
            stages,
            switched_cap: self.switched_capacitance(tech),
        })
    }

    /// Oscillation period at junction temperature `t`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation, and [`ModelError::NoOverdrive`] when any
    /// stage's pull network is off at `t` (the ring stalls there).
    pub fn period(&self, tech: &Technology, t: Celsius) -> Result<Seconds> {
        self.compile(tech)?.period(t)
    }

    /// Oscillation frequency at junction temperature `t`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingOscillator::period`].
    pub fn frequency(&self, tech: &Technology, t: Celsius) -> Result<Hertz> {
        self.compile(tech)?.frequency(t)
    }

    /// Samples the period over a temperature range, compiling the ring
    /// once for the whole curve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingOscillator::period`].
    pub fn period_curve(
        &self,
        tech: &Technology,
        range: TempRange,
        samples: usize,
    ) -> Result<PeriodCurve> {
        let temps = range.samples(samples);
        let model = self.compile(tech)?;
        let periods = temps
            .iter()
            .map(|&t| model.period(t))
            .collect::<Result<Vec<_>>>()?;
        Ok(PeriodCurve { temps, periods })
    }

    /// Total switched capacitance per oscillation period (every node
    /// charges and discharges once per period).
    pub fn switched_capacitance(&self, tech: &Technology) -> Farads {
        let mut c = Farads::new(0.0);
        for (i, gate) in self.stages.iter().enumerate() {
            c = c + self.stage_load(tech, i) + gate.output_parasitic(tech);
        }
        c
    }

    /// Dynamic power dissipated while oscillating at temperature `t`:
    /// `P = C_sw · V_DD² · f(T)`. Drives the self-heating analysis that
    /// motivates the smart unit's disable feature.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingOscillator::period`].
    pub fn dynamic_power(&self, tech: &Technology, t: Celsius) -> Result<Watts> {
        self.compile(tech)?.dynamic_power(t)
    }

    /// A compact description such as `"3×INV + 2×NAND3 (5 stages)"`.
    pub fn describe(&self) -> String {
        format!(
            "{} ({} stages)",
            CellConfig::of_ring(self),
            self.stage_count()
        )
    }
}

impl fmt::Display for RingOscillator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A ring compiled for one technology by [`RingOscillator::compile`]:
/// each stage's `0.5·(C_load + C_par)·V_DD` charge, the validated
/// `W_eff·k_drive` and stack `Vth` shift of both pull networks, and the
/// ring's switched capacitance.
#[derive(Debug, Clone, PartialEq)]
pub struct RingModel {
    drives: DriveTable,
    stages: Vec<StageTerms>,
    switched_cap: Farads,
}

impl RingModel {
    /// Oscillation period at junction temperature `t`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoOverdrive`] when any stage's pull network is
    /// off at `t` (the ring stalls there).
    pub fn period(&self, t: Celsius) -> Result<Seconds> {
        let drives = self.drives.at(t)?;
        let mut total = Seconds::new(0.0);
        for stage in &self.stages {
            total = total + drives.delays(stage).pair_sum();
        }
        Ok(total)
    }

    /// Oscillation frequency at junction temperature `t`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingModel::period`].
    pub fn frequency(&self, t: Celsius) -> Result<Hertz> {
        Ok(self.period(t)?.to_frequency())
    }

    /// Dynamic power while oscillating with period `period`:
    /// `P = C_sw · V_DD² / T`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn power_at_period(&self, period: Seconds) -> Watts {
        let vdd = self.drives.vdd().get();
        Watts::new(self.switched_cap.get() * vdd * vdd * period.to_frequency().get())
    }

    /// Dynamic power dissipated while oscillating at temperature `t`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RingModel::period`].
    pub fn dynamic_power(&self, t: Celsius) -> Result<Watts> {
        Ok(self.power_at_period(self.period(t)?))
    }
}

/// A sampled period-versus-temperature transfer curve.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodCurve {
    temps: Vec<Celsius>,
    periods: Vec<Seconds>,
}

impl PeriodCurve {
    /// Builds a curve from parallel temperature/period arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or are empty.
    pub fn new(temps: Vec<Celsius>, periods: Vec<Seconds>) -> Self {
        assert_eq!(temps.len(), periods.len(), "arrays must be parallel");
        assert!(!temps.is_empty(), "curve must contain samples");
        PeriodCurve { temps, periods }
    }

    /// Sample temperatures.
    #[inline]
    pub fn temps(&self) -> &[Celsius] {
        &self.temps
    }

    /// Sampled periods.
    #[inline]
    pub fn periods(&self) -> &[Seconds] {
        &self.periods
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// `true` when the curve holds no samples (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Iterates over `(temperature, period)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Celsius, Seconds)> + '_ {
        self.temps.iter().copied().zip(self.periods.iter().copied())
    }

    /// `true` when the period rises strictly monotonically with
    /// temperature — the property two-point calibration relies on.
    pub fn is_monotonic_increasing(&self) -> bool {
        self.periods.windows(2).all(|w| w[1].get() > w[0].get())
    }

    /// Full-scale period span (max − min).
    pub fn full_scale(&self) -> Seconds {
        let min = self
            .periods
            .iter()
            .cloned()
            .fold(Seconds::new(f64::INFINITY), Seconds::min);
        let max = self
            .periods
            .iter()
            .cloned()
            .fold(Seconds::new(f64::NEG_INFINITY), Seconds::max);
        max - min
    }
}

/// A multiset of cell kinds making up a ring — the unit of the paper's
/// Fig. 3 search space (e.g. `3×INV + 2×NAND3`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellConfig {
    kinds: Vec<GateKind>,
}

impl CellConfig {
    /// Builds a configuration from `(count, kind)` groups, interleaving
    /// the kinds round-robin so dissimilar cells alternate in the ring.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRing`] if the total count is even or
    /// below 3.
    pub fn from_groups(groups: &[(usize, GateKind)]) -> Result<Self> {
        let total: usize = groups.iter().map(|(n, _)| n).sum();
        if total < 3 || total.is_multiple_of(2) {
            return Err(ModelError::InvalidRing {
                reason: format!("configuration totals {total} stages; need an odd count ≥ 3"),
            });
        }
        let mut remaining: Vec<(usize, GateKind)> = groups.to_vec();
        let mut kinds = Vec::with_capacity(total);
        while kinds.len() < total {
            for entry in remaining.iter_mut() {
                if entry.0 > 0 {
                    entry.0 -= 1;
                    kinds.push(entry.1);
                }
            }
        }
        Ok(CellConfig { kinds })
    }

    /// Builds a uniform configuration of `n` copies of one kind.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRing`] if `n` is even or below 3.
    pub fn uniform(kind: GateKind, n: usize) -> Result<Self> {
        CellConfig::from_groups(&[(n, kind)])
    }

    /// The stage kinds in ring order.
    #[inline]
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// Number of stages.
    #[inline]
    pub fn stage_count(&self) -> usize {
        self.kinds.len()
    }

    /// The six 5-stage configurations evaluated in the paper's Fig. 3.
    pub fn paper_fig3_set() -> Vec<CellConfig> {
        use GateKind::*;
        [
            vec![(5, Inv)],
            vec![(3, Inv), (2, Nand3)],
            vec![(3, Nand3), (2, Nor2)],
            vec![(2, Inv), (3, Nand3)],
            vec![(5, Nand2)],
            vec![(2, Inv), (3, Nor2)],
        ]
        .iter()
        .map(|g| CellConfig::from_groups(g).expect("paper configs are valid"))
        .collect()
    }

    /// Counts per kind, ordered by [`GateKind`]'s natural order.
    pub fn histogram(&self) -> Vec<(GateKind, usize)> {
        let mut counts: Vec<(GateKind, usize)> = Vec::new();
        for k in GateKind::ALL {
            let n = self.kinds.iter().filter(|&&x| x == k).count();
            if n > 0 {
                counts.push((k, n));
            }
        }
        counts
    }

    /// The configuration describing an existing ring's stage mix.
    pub fn of_ring(ring: &RingOscillator) -> CellConfig {
        CellConfig {
            kinds: ring.stages().iter().map(|g| g.kind()).collect(),
        }
    }
}

impl fmt::Display for CellConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .histogram()
            .into_iter()
            .map(|(k, n)| format!("{n}×{k}"))
            .collect();
        f.write_str(&parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::TempRange;

    fn tech() -> Technology {
        Technology::um350()
    }

    fn inv_ring(n: usize) -> RingOscillator {
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap();
        RingOscillator::uniform(g, n).unwrap()
    }

    #[test]
    fn even_or_short_rings_rejected() {
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap();
        assert!(matches!(
            RingOscillator::uniform(g, 4),
            Err(ModelError::InvalidRing { .. })
        ));
        assert!(matches!(
            RingOscillator::uniform(g, 1),
            Err(ModelError::InvalidRing { .. })
        ));
        assert!(RingOscillator::uniform(g, 5).is_ok());
    }

    #[test]
    fn period_scales_roughly_with_stage_count() {
        let t = tech();
        let at = Celsius::new(27.0);
        let p5 = inv_ring(5).period(&t, at).unwrap().get();
        let p21 = inv_ring(21).period(&t, at).unwrap().get();
        let ratio = p21 / p5;
        assert!((ratio - 21.0 / 5.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn five_stage_period_matches_fig1_time_base() {
        // Fig. 1 shows a handful of oscillation periods within 1500 ps.
        let p = inv_ring(5).period(&tech(), Celsius::new(27.0)).unwrap();
        let ps = p.as_picos();
        assert!(ps > 100.0 && ps < 1500.0, "period {ps} ps");
    }

    #[test]
    fn period_grows_monotonically_with_temperature() {
        let curve = inv_ring(5)
            .period_curve(&tech(), TempRange::paper(), 41)
            .unwrap();
        assert!(curve.is_monotonic_increasing());
        assert!(curve.full_scale().get() > 0.0);
    }

    #[test]
    fn mixed_ring_period_between_pure_rings() {
        let t = tech();
        let at = Celsius::new(27.0);
        let wn = 1e-6;
        let r = 2.0;
        let pure_inv =
            RingOscillator::from_config(&CellConfig::uniform(GateKind::Inv, 5).unwrap(), wn, r)
                .unwrap()
                .period(&t, at)
                .unwrap()
                .get();
        let pure_nand =
            RingOscillator::from_config(&CellConfig::uniform(GateKind::Nand2, 5).unwrap(), wn, r)
                .unwrap()
                .period(&t, at)
                .unwrap()
                .get();
        let mixed = RingOscillator::from_config(
            &CellConfig::from_groups(&[(3, GateKind::Inv), (2, GateKind::Nand2)]).unwrap(),
            wn,
            r,
        )
        .unwrap()
        .period(&t, at)
        .unwrap()
        .get();
        let (lo, hi) = (pure_inv.min(pure_nand), pure_inv.max(pure_nand));
        assert!(
            mixed > lo && mixed < hi,
            "mixed {mixed} not in ({lo}, {hi})"
        );
    }

    #[test]
    fn config_groups_interleave() {
        let c = CellConfig::from_groups(&[(3, GateKind::Inv), (2, GateKind::Nand3)]).unwrap();
        assert_eq!(c.stage_count(), 5);
        // Round-robin: INV NAND3 INV NAND3 INV
        assert_eq!(
            c.kinds(),
            &[
                GateKind::Inv,
                GateKind::Nand3,
                GateKind::Inv,
                GateKind::Nand3,
                GateKind::Inv
            ]
        );
    }

    #[test]
    fn paper_fig3_set_has_six_valid_configs() {
        let set = CellConfig::paper_fig3_set();
        assert_eq!(set.len(), 6);
        for c in &set {
            assert_eq!(c.stage_count(), 5, "{c}");
        }
        assert_eq!(format!("{}", set[0]), "5×INV");
        assert_eq!(format!("{}", set[1]), "3×INV + 2×NAND3");
    }

    #[test]
    fn even_config_rejected() {
        assert!(CellConfig::from_groups(&[(2, GateKind::Inv), (2, GateKind::Nor2)]).is_err());
    }

    #[test]
    fn wire_cap_slows_the_ring() {
        let t = tech();
        let at = Celsius::new(27.0);
        let base = inv_ring(5);
        let loaded = base.clone().with_wire_cap(Farads::from_femtos(10.0));
        assert!(loaded.period(&t, at).unwrap().get() > base.period(&t, at).unwrap().get());
    }

    #[test]
    fn dynamic_power_is_plausible() {
        // A small ring in 0.35 µm burns on the order of 0.1–10 mW.
        let p = inv_ring(5)
            .dynamic_power(&tech(), Celsius::new(27.0))
            .unwrap()
            .get();
        assert!(p > 1e-5 && p < 0.05, "power {p} W");
    }

    #[test]
    fn describe_mentions_mix_and_stage_count() {
        let c = CellConfig::from_groups(&[(3, GateKind::Inv), (2, GateKind::Nor2)]).unwrap();
        let ring = RingOscillator::from_config(&c, 1e-6, 2.0).unwrap();
        let d = ring.describe();
        assert!(d.contains("3×INV") && d.contains("2×NOR2") && d.contains("5 stages"));
    }

    #[test]
    fn curve_accessors() {
        let curve = inv_ring(5)
            .period_curve(&tech(), TempRange::paper(), 5)
            .unwrap();
        assert_eq!(curve.len(), 5);
        assert!(!curve.is_empty());
        assert_eq!(curve.iter().count(), 5);
        assert_eq!(curve.temps().len(), curve.periods().len());
    }
}

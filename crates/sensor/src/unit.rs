//! The smart temperature-sensor unit (paper Section 3).
//!
//! A [`SmartSensorUnit`] bundles the sensing ring-oscillator model, the
//! measurement FSM (enable/disable + busy flag), the counting digitizer,
//! and a code-domain two-point calibration into the component a SoC
//! integrator would instantiate: request a measurement, wait for
//! `busy` to drop, read the temperature word.
//!
//! ```
//! use sensor::unit::{SensorConfig, SmartSensorUnit};
//! use tsense_core::gate::{Gate, GateKind};
//! use tsense_core::ring::RingOscillator;
//! use tsense_core::tech::Technology;
//! use tsense_core::units::Celsius;
//!
//! let tech = Technology::um350();
//! let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0)?, 5)?;
//! let mut unit = SmartSensorUnit::new(SensorConfig::new(ring, tech))?;
//! unit.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))?;
//! let m = unit.measure(Celsius::new(85.0))?;
//! assert!((m.temperature.get() - 85.0).abs() < 2.0);
//! # Ok::<(), sensor::SensorError>(())
//! ```

use tsense_core::ring::{RingModel, RingOscillator};
use tsense_core::sensitivity::DigitizerSpec;
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Hertz, Seconds, Volts, Watts};

use crate::digitizer::BehavioralDigitizer;
use crate::error::{Result, SensorError};
use crate::fsm::MeasureFsm;

/// Static configuration of a smart unit.
#[derive(Debug, Clone)]
pub struct SensorConfig {
    /// The sensing element.
    pub ring: RingOscillator,
    /// The process it is fabricated in.
    pub tech: Technology,
    /// On-chip reference clock for the digitizer.
    pub ref_clock: Hertz,
    /// Measurement window length in ring cycles.
    pub window_cycles: u32,
    /// Settling time before the window opens, in ring cycles.
    pub settle_cycles: u32,
    /// Double-capture retry budget for metastable digitizer reads: a
    /// code is accepted only when two back-to-back captures agree, and
    /// up to this many disagreeing pairs are retried before the unit
    /// reports [`SensorError::CaptureUnstable`].
    pub capture_retries: u32,
    /// Hardware width of the reference counter, bits. The counter wraps
    /// silently past `2^counter_bits − 1`, exactly as a fixed-width
    /// ripple counter does on silicon — the `netcheck` rule `NC0901`
    /// proves statically that the reachable count interval fits.
    pub counter_bits: u32,
    /// Width of the digital temperature word latched out of the unit,
    /// bits. Codes beyond `2^word_bits − 1` truncate (`NC0904`).
    pub word_bits: u32,
}

impl SensorConfig {
    /// Defaults matched to a 0.35 µm SoC: 100 MHz reference, 2¹⁶-cycle
    /// window (≈ 20 µs conversion, ≈ 0.13 °C/LSB), 64-cycle settle.
    pub fn new(ring: RingOscillator, tech: Technology) -> Self {
        SensorConfig {
            ring,
            tech,
            ref_clock: Hertz::from_mega(100.0),
            window_cycles: 1 << 16,
            settle_cycles: 64,
            capture_retries: 3,
            counter_bits: 16,
            word_bits: 16,
        }
    }

    /// Overrides the reference clock.
    #[must_use]
    pub fn with_ref_clock(mut self, f: Hertz) -> Self {
        self.ref_clock = f;
        self
    }

    /// Overrides the window length (ring cycles).
    #[must_use]
    pub fn with_window(mut self, cycles: u32) -> Self {
        self.window_cycles = cycles;
        self
    }

    /// Overrides the double-capture retry budget.
    #[must_use]
    pub fn with_capture_retries(mut self, retries: u32) -> Self {
        self.capture_retries = retries;
        self
    }

    /// Overrides the hardware reference-counter width.
    #[must_use]
    pub fn with_counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Overrides the output temperature-word width.
    #[must_use]
    pub fn with_word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }

    /// The digitizer specification implied by this configuration — the
    /// quantizer parameters a static analyzer needs to reason about
    /// counts, resolution, and conversion time.
    ///
    /// # Errors
    ///
    /// Propagates [`DigitizerSpec`] validation (non-positive reference
    /// clock, empty window).
    pub fn digitizer_spec(&self) -> Result<DigitizerSpec> {
        DigitizerSpec::new(self.ref_clock, self.window_cycles).map_err(SensorError::Model)
    }

    /// Masks a raw count to the hardware counter width — the silent
    /// wrap a fixed-width counter performs past its capacity.
    #[inline]
    pub fn wrap_to_counter(&self, code: u64) -> u64 {
        if self.counter_bits >= 64 {
            code
        } else {
            code & ((1u64 << self.counter_bits) - 1)
        }
    }
}

/// A defect injected into a unit's sensing path — the fault-simulation
/// hooks that the `faultsim` campaign engine drives. At most one fault
/// is active per unit at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RingFault {
    /// The ring never oscillates (stuck node, broken feedback): the
    /// conversion window never closes.
    Dead,
    /// The period is pinned to an absolute value, insensitive to
    /// temperature (e.g. a latched even-parity loop capturing a clock
    /// coupling).
    StuckPeriod {
        /// The pinned period, seconds.
        period_s: f64,
    },
    /// A delay fault scales the whole ring period by this factor
    /// (> 1: resistive open slowing a stage; < 1: bridging speedup).
    DelayScale {
        /// Multiplier on the healthy period.
        factor: f64,
    },
    /// One bit of the digitizer count is stuck-flipped.
    CounterBitFlip {
        /// The flipped bit position.
        bit: u8,
    },
    /// The next `captures` digitizer captures are metastable and read
    /// back corrupted (each corruption differs, so double-capture
    /// compare catches them).
    Metastable {
        /// How many captures are corrupted before the flip-flop output
        /// settles again.
        captures: u32,
    },
    /// The local supply rail sags by `delta_v` volts, shifting the ring
    /// period through the supply cross-sensitivity.
    SupplyDroop {
        /// Supply droop magnitude, volts (positive = sagging rail).
        delta_v: f64,
    },
}

/// Linear code-to-temperature calibration (`T = offset + gain·code`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCalibration {
    /// °C per LSB.
    pub gain: f64,
    /// Temperature at code zero (extrapolated), °C.
    pub offset: f64,
}

impl CodeCalibration {
    /// Fits from two `(code, temperature)` anchors.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the codes coincide
    /// (no sensitivity between the anchors).
    pub fn fit(code1: u64, t1: Celsius, code2: u64, t2: Celsius) -> Result<Self> {
        if code1 == code2 {
            return Err(SensorError::InvalidConfig {
                reason: format!("calibration anchors share the code {code1}"),
            });
        }
        let gain = (t2.get() - t1.get()) / (code2 as f64 - code1 as f64);
        Ok(CodeCalibration {
            gain,
            offset: t1.get() - gain * code1 as f64,
        })
    }

    /// Temperature represented by a code.
    pub fn decode(&self, code: u64) -> Celsius {
        Celsius::new(self.offset + self.gain * code as f64)
    }
}

/// One completed measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Raw digitizer code.
    pub code: u64,
    /// Calibrated temperature.
    pub temperature: Celsius,
    /// Total conversion time (settle + window) at this temperature.
    pub conversion_time: Seconds,
    /// The underlying ring period.
    pub ring_period: Seconds,
    /// Ring power while it was enabled.
    pub ring_power: Watts,
}

/// The smart sensor unit: ring + FSM + digitizer + calibration.
#[derive(Debug, Clone)]
pub struct SmartSensorUnit {
    config: SensorConfig,
    /// `config.ring` compiled for `config.tech`.
    model: RingModel,
    digitizer: BehavioralDigitizer,
    calibration: Option<CodeCalibration>,
    measurements: u64,
    total_osc_on: Seconds,
    fault: Option<RingFault>,
    /// Remaining corrupted captures of an active
    /// [`RingFault::Metastable`].
    metastable_left: u32,
}

impl SmartSensorUnit {
    /// Builds a unit and validates its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for a zero window and
    /// propagates digitizer-spec validation.
    pub fn new(config: SensorConfig) -> Result<Self> {
        let spec = DigitizerSpec::new(config.ref_clock, config.window_cycles)
            .map_err(SensorError::Model)?;
        config.tech.validate().map_err(SensorError::Model)?;
        let model = config
            .ring
            .compile(&config.tech)
            .map_err(SensorError::Model)?;
        Ok(SmartSensorUnit {
            digitizer: BehavioralDigitizer::new(spec),
            config,
            model,
            calibration: None,
            measurements: 0,
            total_osc_on: Seconds::new(0.0),
            fault: None,
            metastable_left: 0,
        })
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// The active calibration, if any.
    #[inline]
    pub fn calibration(&self) -> Option<CodeCalibration> {
        self.calibration
    }

    /// Injects a defect into the sensing path (replacing any active
    /// one). Injection does not disturb the stored calibration — the
    /// fault strikes a previously healthy, calibrated unit, which is the
    /// field-failure scenario the campaign engine exercises.
    pub fn inject_fault(&mut self, fault: RingFault) {
        self.metastable_left = match fault {
            RingFault::Metastable { captures } => captures,
            _ => 0,
        };
        self.fault = Some(fault);
    }

    /// Removes the active fault, if any.
    pub fn clear_fault(&mut self) {
        self.fault = None;
        self.metastable_left = 0;
    }

    /// The active injected fault, if any.
    #[inline]
    pub fn active_fault(&self) -> Option<RingFault> {
        self.fault
    }

    /// The ring period as the (possibly faulted) silicon actually
    /// produces it, paired with the healthy ring's period when producing
    /// it evaluated that too. `Err(ConversionTimeout)` models a dead
    /// ring: no edges, the window never closes.
    fn effective_period(&self, junction: Celsius) -> Result<(Seconds, Option<Seconds>)> {
        match self.fault {
            Some(RingFault::Dead) => Err(SensorError::ConversionTimeout),
            Some(RingFault::StuckPeriod { period_s }) => Ok((Seconds::new(period_s), None)),
            Some(RingFault::DelayScale { factor }) => {
                let p = self.model.period(junction)?;
                Ok((Seconds::new(p.get() * factor), Some(p)))
            }
            Some(RingFault::SupplyDroop { delta_v }) => {
                // Evaluate the ring on the sagged rail; a droop below
                // the device thresholds surfaces as a model error.
                let mut sagged = self.config.tech.clone();
                sagged.vdd = Volts::new(sagged.vdd.get() - delta_v);
                Ok((self.config.ring.period(&sagged, junction)?, None))
            }
            Some(RingFault::CounterBitFlip { .. }) | Some(RingFault::Metastable { .. }) | None => {
                let p = self.model.period(junction)?;
                Ok((p, Some(p)))
            }
        }
    }

    /// One digitizer capture, through the fault model. The final mask
    /// models the fixed-width hardware counter: counts past
    /// `2^counter_bits − 1` wrap silently (`NC0901` proves statically
    /// that the reachable count interval never gets there).
    fn capture_once(&mut self, period: Seconds) -> u64 {
        let mut code = self.digitizer.convert(period);
        if let Some(RingFault::CounterBitFlip { bit }) = self.fault {
            code ^= 1u64 << u32::from(bit);
        }
        if self.metastable_left > 0 {
            // Each metastable capture resolves to a different wrong
            // value (bit position keyed to the remaining count), so two
            // back-to-back corrupted captures can never agree.
            code ^= 1u64 << (self.metastable_left % 16);
            self.metastable_left -= 1;
        }
        self.config.wrap_to_counter(code)
    }

    /// Captures a code with double-capture compare and bounded retry:
    /// the degradation primitive against metastable captures.
    fn capture_code(&mut self, period: Seconds) -> Result<u64> {
        let mut attempts = 0u32;
        loop {
            let a = self.capture_once(period);
            let b = self.capture_once(period);
            attempts += 1;
            if a == b {
                return Ok(a);
            }
            if attempts > self.config.capture_retries {
                return Err(SensorError::CaptureUnstable { attempts });
            }
        }
    }

    /// Raw digitizer code at a junction temperature (no calibration
    /// needed — this is what the tester reads during calibration).
    ///
    /// # Errors
    ///
    /// Propagates ring-model failures; a faulted unit reports its
    /// defect ([`SensorError::ConversionTimeout`] for a dead ring).
    pub fn raw_code(&self, junction: Celsius) -> Result<u64> {
        let (period, _) = self.effective_period(junction)?;
        let mut code = self.digitizer.convert(period);
        if let Some(RingFault::CounterBitFlip { bit }) = self.fault {
            code ^= 1u64 << u32::from(bit);
        }
        Ok(self.config.wrap_to_counter(code))
    }

    /// Two-point calibration: simulate tester measurements at two known
    /// temperatures and fit the code-domain line.
    ///
    /// # Errors
    ///
    /// Propagates ring-model failures and anchor degeneracy.
    pub fn calibrate_two_point(&mut self, t1: Celsius, t2: Celsius) -> Result<()> {
        let c1 = self.raw_code(t1)?;
        let c2 = self.raw_code(t2)?;
        self.calibration = Some(CodeCalibration::fit(c1, t1, c2, t2)?);
        Ok(())
    }

    /// Installs an externally computed calibration (e.g. shared across
    /// a wafer from a golden die).
    pub fn set_calibration(&mut self, cal: CodeCalibration) {
        self.calibration = Some(cal);
    }

    /// Runs one complete measurement at the given junction temperature:
    /// the FSM walks Idle → Settle → Measure → Done, the oscillator is
    /// enabled only for the conversion, and the calibrated temperature
    /// is returned.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::NotReady`] when no calibration is
    /// installed; [`SensorError::ConversionTimeout`] when the (faulted)
    /// ring shows no activity; [`SensorError::CaptureUnstable`] when
    /// metastable captures outlast the retry budget; or propagates
    /// model failures.
    pub fn measure(&mut self, junction: Celsius) -> Result<Measurement> {
        let cal = self.calibration.ok_or(SensorError::NotReady)?;
        let (period, healthy_period) = self.effective_period(junction)?;
        let period_fs = (period.get() * 1e15).round().max(1.0) as u64;
        let settle_fs = self.config.settle_cycles as u64 * period_fs;
        let window_fs = self.config.window_cycles as u64 * period_fs;

        let mut fsm = MeasureFsm::new(settle_fs, window_fs);
        fsm.start();
        debug_assert!(fsm.outputs().busy);
        fsm.tick(settle_fs + window_fs);
        debug_assert!(fsm.outputs().data_valid && !fsm.outputs().osc_enable);

        let code = self.capture_code(period)?;
        let conversion_time = Seconds::new((settle_fs + window_fs) as f64 * 1e-15);
        self.measurements += 1;
        self.total_osc_on = self.total_osc_on + conversion_time;
        // The power is the healthy ring's at the nominal rail, whatever
        // fault is active; evaluate it only if the fault path did not.
        let healthy_period = match healthy_period {
            Some(p) => p,
            None => self.model.period(junction)?,
        };
        Ok(Measurement {
            code,
            temperature: cal.decode(code),
            conversion_time,
            ring_period: period,
            ring_power: self.model.power_at_period(healthy_period),
        })
    }

    /// Completed measurements since construction.
    #[inline]
    pub fn measurement_count(&self) -> u64 {
        self.measurements
    }

    /// Cumulative oscillator-on time — what the disable feature
    /// minimizes.
    #[inline]
    pub fn total_osc_on_time(&self) -> Seconds {
        self.total_osc_on
    }

    /// Temperature resolution per LSB around the given operating point.
    ///
    /// # Errors
    ///
    /// Propagates sensitivity-evaluation failures.
    pub fn resolution_at(&self, junction: Celsius) -> Result<f64> {
        let sens = tsense_core::sensitivity::Sensitivity::at(
            &self.config.ring,
            &self.config.tech,
            junction,
            0.1,
        )
        .map_err(SensorError::Model)?;
        Ok(self.digitizer.spec().resolution_celsius(&sens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::tech::TechnologyBuilder;
    use tsense_core::units::TempRange;
    use tsense_core::ModelError;

    fn unit() -> SmartSensorUnit {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        SmartSensorUnit::new(SensorConfig::new(ring, tech)).unwrap()
    }

    #[test]
    fn uncalibrated_unit_refuses_to_measure() {
        let mut u = unit();
        assert!(matches!(
            u.measure(Celsius::new(25.0)),
            Err(SensorError::NotReady)
        ));
    }

    #[test]
    fn calibrated_unit_accurate_over_the_paper_range() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        let mut worst = 0.0_f64;
        for t in TempRange::paper().samples(21) {
            let m = u.measure(t).unwrap();
            worst = worst.max((m.temperature.get() - t.get()).abs());
        }
        // Residual = transfer non-linearity + quantization; both small.
        assert!(worst < 2.0, "worst error {worst} °C");
        assert_eq!(u.measurement_count(), 21);
    }

    #[test]
    fn codes_increase_with_temperature() {
        let u = unit();
        let c_cold = u.raw_code(Celsius::new(-50.0)).unwrap();
        let c_hot = u.raw_code(Celsius::new(150.0)).unwrap();
        assert!(c_hot > c_cold, "codes: {c_cold} → {c_hot}");
    }

    #[test]
    fn measurement_reports_plausible_metadata() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(0.0), Celsius::new(100.0))
            .unwrap();
        let m = u.measure(Celsius::new(50.0)).unwrap();
        assert!(m.ring_period.as_picos() > 100.0 && m.ring_period.as_picos() < 1000.0);
        // 2¹⁶ + 64 ring cycles at a few hundred ps each → tens of µs.
        assert!(m.conversion_time.get() > 1e-6 && m.conversion_time.get() < 1e-4);
        assert!(m.ring_power.get() > 0.0);
        assert!(m.code > 0);
    }

    #[test]
    fn osc_on_time_accumulates_only_during_conversions() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(0.0), Celsius::new(100.0))
            .unwrap();
        assert_eq!(u.total_osc_on_time().get(), 0.0);
        let m = u.measure(Celsius::new(40.0)).unwrap();
        let after_one = u.total_osc_on_time().get();
        assert!((after_one - m.conversion_time.get()).abs() < 1e-18);
        u.measure(Celsius::new(40.0)).unwrap();
        assert!((u.total_osc_on_time().get() - 2.0 * after_one).abs() < 1e-15);
    }

    #[test]
    fn resolution_matches_design_equation() {
        let u = unit();
        let r = u.resolution_at(Celsius::new(50.0)).unwrap();
        // 100 MHz reference, 4096-cycle window, ~0.3 ps/K slope
        // → sub-0.1 °C per LSB.
        assert!(r > 0.001 && r < 0.5, "resolution {r} °C/LSB");
    }

    #[test]
    fn code_calibration_algebra() {
        let cal = CodeCalibration::fit(100, Celsius::new(0.0), 300, Celsius::new(100.0)).unwrap();
        assert!((cal.decode(200).get() - 50.0).abs() < 1e-9);
        assert!((cal.gain - 0.5).abs() < 1e-12);
        assert!(CodeCalibration::fit(5, Celsius::new(0.0), 5, Celsius::new(10.0)).is_err());
    }

    #[test]
    fn dead_ring_times_out_instead_of_reading_zero() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        u.inject_fault(RingFault::Dead);
        assert!(matches!(
            u.measure(Celsius::new(85.0)),
            Err(SensorError::ConversionTimeout)
        ));
        u.clear_fault();
        assert!(u.active_fault().is_none());
        assert!(u.measure(Celsius::new(85.0)).is_ok(), "recovers on clear");
    }

    #[test]
    fn brief_metastability_is_ridden_out_by_retry() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        let healthy = u.measure(Celsius::new(60.0)).unwrap().code;
        u.inject_fault(RingFault::Metastable { captures: 3 });
        let m = u.measure(Celsius::new(60.0)).unwrap();
        assert_eq!(m.code, healthy, "retry converged on the clean code");
    }

    #[test]
    fn persistent_metastability_reports_unstable() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        u.inject_fault(RingFault::Metastable { captures: 1_000 });
        assert!(matches!(
            u.measure(Celsius::new(60.0)),
            Err(SensorError::CaptureUnstable { .. })
        ));
    }

    #[test]
    fn delay_and_bitflip_faults_shift_the_reading() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        let healthy = u.measure(Celsius::new(60.0)).unwrap();
        u.inject_fault(RingFault::DelayScale { factor: 1.5 });
        let slow = u.measure(Celsius::new(60.0)).unwrap();
        // Period grows with temperature, so a slower ring reads hotter.
        assert!(
            slow.temperature.get() > healthy.temperature.get() + 10.0,
            "a 1.5× slower ring reads much hotter: {} vs {}",
            slow.temperature.get(),
            healthy.temperature.get()
        );
        u.inject_fault(RingFault::CounterBitFlip { bit: 10 });
        let flipped = u.measure(Celsius::new(60.0)).unwrap();
        assert_eq!(
            flipped.code,
            healthy.code ^ (1 << 10),
            "exactly one count bit differs"
        );
    }

    #[test]
    fn supply_droop_shifts_reading_like_the_sensitivity_model() {
        let mut u = unit();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        let healthy = u.measure(Celsius::new(60.0)).unwrap().temperature.get();
        u.inject_fault(RingFault::SupplyDroop { delta_v: 0.1 });
        let sagged = u.measure(Celsius::new(60.0)).unwrap().temperature.get();
        let predicted = tsense_core::supply::SupplySensitivity::at(
            &u.config().ring,
            &u.config().tech,
            Celsius::new(60.0),
        )
        .unwrap()
        .temp_error_for(tsense_core::units::Volts::new(-0.1));
        let observed = sagged - healthy;
        assert!(
            (observed - predicted).abs() < 0.2 * predicted.abs() + 0.5,
            "observed shift {observed} °C vs predicted {predicted} °C"
        );
    }

    #[test]
    fn undersized_counter_wraps_silently() {
        // The silent-corruption mode NC0901 exists to rule out: an
        // 8-bit counter wraps and the unit reports a bogus small code.
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let wide = SmartSensorUnit::new(SensorConfig::new(ring.clone(), tech.clone())).unwrap();
        let narrow =
            SmartSensorUnit::new(SensorConfig::new(ring, tech).with_counter_bits(8)).unwrap();
        let full = wide.raw_code(Celsius::new(150.0)).unwrap();
        let wrapped = narrow.raw_code(Celsius::new(150.0)).unwrap();
        assert!(full > 255, "default window overflows 8 bits: {full}");
        assert_eq!(wrapped, full & 0xFF, "hardware wrap, not saturation");
    }

    /// `measure` written against `RingOscillator::period`/`dynamic_power`,
    /// with no compiled model: the effective period per fault, the
    /// capture, the counters, then the healthy ring's power.
    fn reference_measure(u: &mut SmartSensorUnit, junction: Celsius) -> Result<Measurement> {
        let cal = u.calibration.ok_or(SensorError::NotReady)?;
        let (ring, tech) = (u.config.ring.clone(), u.config.tech.clone());
        let period = match u.fault {
            Some(RingFault::Dead) => return Err(SensorError::ConversionTimeout),
            Some(RingFault::StuckPeriod { period_s }) => Seconds::new(period_s),
            Some(RingFault::DelayScale { factor }) => {
                Seconds::new(ring.period(&tech, junction)?.get() * factor)
            }
            Some(RingFault::SupplyDroop { delta_v }) => {
                let mut sagged = tech.clone();
                sagged.vdd = Volts::new(sagged.vdd.get() - delta_v);
                ring.period(&sagged, junction)?
            }
            Some(RingFault::CounterBitFlip { .. }) | Some(RingFault::Metastable { .. }) | None => {
                ring.period(&tech, junction)?
            }
        };
        let period_fs = (period.get() * 1e15).round().max(1.0) as u64;
        let settle_fs = u.config.settle_cycles as u64 * period_fs;
        let window_fs = u.config.window_cycles as u64 * period_fs;
        let code = u.capture_code(period)?;
        let conversion_time = Seconds::new((settle_fs + window_fs) as f64 * 1e-15);
        u.measurements += 1;
        u.total_osc_on = u.total_osc_on + conversion_time;
        Ok(Measurement {
            code,
            temperature: cal.decode(code),
            conversion_time,
            ring_period: period,
            ring_power: ring.dynamic_power(&tech, junction)?,
        })
    }

    fn measurement_bits(m: &Measurement) -> [u64; 5] {
        [
            m.code,
            m.temperature.get().to_bits(),
            m.conversion_time.get().to_bits(),
            m.ring_period.get().to_bits(),
            m.ring_power.get().to_bits(),
        ]
    }

    #[test]
    fn measure_matches_the_uncompiled_reference_under_every_fault() {
        // A 0.8 V NOR2 ring stalls below about −45 °C, so the error
        // paths run too: a stalled healthy ring fails a stuck-period
        // measurement only after its counters have advanced.
        let low_vdd = TechnologyBuilder::from(Technology::um350())
            .vdd(Volts::new(0.8))
            .build()
            .unwrap();
        let nor2 = RingOscillator::uniform(Gate::with_ratio(GateKind::Nor2, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let mut stalling = SmartSensorUnit::new(SensorConfig::new(nor2, low_vdd)).unwrap();
        stalling.set_calibration(CodeCalibration {
            gain: 0.01,
            offset: -60.0,
        });
        let mut healthy = unit();
        healthy
            .calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        let faults = [
            None,
            Some(RingFault::Dead),
            Some(RingFault::StuckPeriod { period_s: 4.0e-10 }),
            Some(RingFault::DelayScale { factor: 1.5 }),
            Some(RingFault::CounterBitFlip { bit: 10 }),
            Some(RingFault::Metastable { captures: 3 }),
            Some(RingFault::Metastable { captures: 1_000 }),
            Some(RingFault::SupplyDroop { delta_v: 0.1 }),
            Some(RingFault::SupplyDroop { delta_v: -0.2 }),
            Some(RingFault::SupplyDroop { delta_v: 2.6 }),
        ];
        let temps = [-60.0, -50.0, -40.0, 0.0, 27.0, 85.0, 150.0, 160.0];
        let mut outcomes = (0, 0);
        for base in [&healthy, &stalling] {
            for fault in faults {
                let mut u = base.clone();
                if let Some(f) = fault {
                    u.inject_fault(f);
                }
                let mut reference = u.clone();
                for t in temps {
                    let junction = Celsius::new(t);
                    let got = u.measure(junction);
                    let want = reference_measure(&mut reference, junction);
                    match (&got, &want) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(
                                measurement_bits(a),
                                measurement_bits(b),
                                "{fault:?} at {t}"
                            );
                            outcomes.0 += 1;
                        }
                        _ => {
                            assert_eq!(got, want, "{fault:?} at {t}");
                            outcomes.1 += 1;
                        }
                    }
                    assert_eq!(u.measurement_count(), reference.measurements);
                    assert_eq!(
                        u.total_osc_on_time().get().to_bits(),
                        reference.total_osc_on.get().to_bits(),
                        "{fault:?} at {t}"
                    );
                    assert_eq!(u.metastable_left, reference.metastable_left);
                }
            }
        }
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "{outcomes:?}");
        // The stalled-healthy-ring case: the capture is counted, then the
        // power evaluation fails.
        let mut stuck = stalling.clone();
        stuck.inject_fault(RingFault::StuckPeriod { period_s: 4.0e-10 });
        assert!(matches!(
            stuck.measure(Celsius::new(-60.0)),
            Err(SensorError::Model(ModelError::NoOverdrive { .. }))
        ));
        assert_eq!(stuck.measurement_count(), 1);
    }

    #[test]
    fn external_calibration_installable() {
        let mut u = unit();
        let golden = {
            let mut g = unit();
            g.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
                .unwrap();
            g.calibration().unwrap()
        };
        u.set_calibration(golden);
        let m = u.measure(Celsius::new(25.0)).unwrap();
        assert!((m.temperature.get() - 25.0).abs() < 2.0);
    }
}

//! Analytical MOSFET drive model (Sakurai–Newton alpha-power law).
//!
//! This is the model behind the closed-form gate delays of the sensor: the
//! saturation current that (dis)charges a gate's load capacitance is
//!
//! ```text
//! I_sat(T) = W_eff · k_drive · µrel(T) · (V_DD − Vth(T))^α
//! ```
//!
//! with the temperature dependences of [`crate::tech::DeviceParams`]. Stack
//! effects (series devices in NAND/NOR pull networks) enter through an
//! effective width and a threshold shift, both supplied by the gate layer.

use crate::error::{ModelError, Result};
use crate::tech::{DeviceParams, Polarity};
use crate::units::{Amperes, Celsius, Volts};

/// A width-scaled alpha-power-law transistor (or equivalent stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPowerFet {
    /// Carrier polarity (NMOS pulls down, PMOS pulls up).
    pub polarity: Polarity,
    /// Per-polarity technology parameters.
    pub params: DeviceParams,
    /// Effective electrical width in metres (already includes stack
    /// division / parallel multiplication).
    pub width: f64,
    /// Additional threshold magnitude from body effect in stacked
    /// configurations, in volts (zero for a single device).
    pub vth_shift: Volts,
}

impl AlphaPowerFet {
    /// Creates a single (unstacked) device.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the width is not
    /// positive or the parameter set fails validation.
    pub fn new(polarity: Polarity, params: DeviceParams, width: f64) -> Result<Self> {
        params.validate()?;
        if !(width > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "width",
                value: width,
                constraint: "must be positive",
            });
        }
        Ok(AlphaPowerFet {
            polarity,
            params,
            width,
            vth_shift: Volts::new(0.0),
        })
    }

    /// Returns a copy with an extra threshold shift (stack body effect).
    #[must_use]
    pub fn with_vth_shift(mut self, shift: Volts) -> Self {
        self.vth_shift = shift;
        self
    }

    /// Returns a copy with a replaced effective width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive — widths come from validated gate
    /// geometry, so a non-positive value is a programming error.
    #[must_use]
    pub fn with_width(mut self, width: f64) -> Self {
        assert!(width > 0.0, "effective width must be positive");
        self.width = width;
        self
    }

    /// Effective threshold magnitude at junction temperature `t`,
    /// including any stack shift.
    #[inline]
    pub fn vth(&self, t: Celsius) -> Volts {
        self.params.vth(t) + self.vth_shift
    }

    /// Gate overdrive `V_DD − Vth(T)` at temperature `t`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoOverdrive`] when the device would be off
    /// (overdrive ≤ 0) — the ring cannot oscillate there.
    pub fn overdrive(&self, t: Celsius, vdd: Volts) -> Result<Volts> {
        overdrive(vdd, self.vth(t), t)
    }

    /// Saturation drive current at temperature `t` under supply `vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoOverdrive`] when the device is off at `t`.
    pub fn sat_current(&self, t: Celsius, vdd: Volts) -> Result<Amperes> {
        let vov = self.overdrive(t, vdd)?;
        let i = self.width
            * self.params.k_drive
            * self.params.mobility_rel(t)
            * vov.get().powf(self.params.alpha);
        Ok(Amperes::new(i))
    }

    /// Temperature sensitivity of the drive current, `dI/dT` in A/K,
    /// evaluated by analytic differentiation of the alpha-power law.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoOverdrive`] when the device is off at `t`.
    pub fn sat_current_tempco(&self, t: Celsius, vdd: Volts) -> Result<f64> {
        let i = self.sat_current(t, vdd)?.get();
        let vov = self.overdrive(t, vdd)?.get();
        let t_k = t.to_kelvin().get();
        // d ln I / dT = −m/T + α·κ/V_ov   (κ raises overdrive with T).
        let dlni =
            -self.params.mobility_exp / t_k + self.params.alpha * self.params.vth_tempco / vov;
        Ok(i * dlni)
    }
}

/// Gate overdrive `V_DD − Vth` of a device whose threshold magnitude is
/// `vth` at junction temperature `t`.
///
/// # Errors
///
/// Returns [`ModelError::NoOverdrive`] when the device would be off
/// (overdrive ≤ 0).
pub(crate) fn overdrive(vdd: Volts, vth: Volts, t: Celsius) -> Result<Volts> {
    let vov = vdd - vth;
    if vov.get() <= 0.0 {
        return Err(ModelError::NoOverdrive {
            at_celsius: t.get(),
        });
    }
    Ok(vov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Technology;

    fn nmos1u() -> AlphaPowerFet {
        let tech = Technology::um350();
        AlphaPowerFet::new(Polarity::Nmos, tech.nmos, 1e-6).expect("valid device")
    }

    #[test]
    fn current_scales_linearly_with_width() {
        let tech = Technology::um350();
        let d1 = nmos1u();
        let d2 = d1.with_width(2e-6);
        let t = Celsius::new(27.0);
        let i1 = d1.sat_current(t, tech.vdd).unwrap().get();
        let i2 = d2.sat_current(t, tech.vdd).unwrap().get();
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drive_magnitude_is_plausible_for_0p35um() {
        // ~1 µm NMOS in 0.35 µm CMOS delivers a few hundred µA.
        let tech = Technology::um350();
        let i = nmos1u()
            .sat_current(Celsius::new(27.0), tech.vdd)
            .unwrap()
            .get();
        assert!(i > 150e-6 && i < 1.5e-3, "got {i}");
    }

    #[test]
    fn mobility_dominates_at_high_supply() {
        // At 3.3 V the overdrive is large, so the mobility roll-off wins and
        // the current *decreases* with temperature.
        let tech = Technology::um350();
        let d = nmos1u();
        let cold = d.sat_current(Celsius::new(-50.0), tech.vdd).unwrap().get();
        let hot = d.sat_current(Celsius::new(150.0), tech.vdd).unwrap().get();
        assert!(cold > hot);
        let slope = d.sat_current_tempco(Celsius::new(27.0), tech.vdd).unwrap();
        assert!(slope < 0.0);
    }

    #[test]
    fn tempco_matches_finite_difference() {
        let tech = Technology::um350();
        let d = nmos1u();
        let t = Celsius::new(40.0);
        let h = 1e-3;
        let num = (d
            .sat_current(Celsius::new(40.0 + h), tech.vdd)
            .unwrap()
            .get()
            - d.sat_current(Celsius::new(40.0 - h), tech.vdd)
                .unwrap()
                .get())
            / (2.0 * h);
        let ana = d.sat_current_tempco(t, tech.vdd).unwrap();
        assert!((num - ana).abs() / ana.abs() < 1e-5, "num={num} ana={ana}");
    }

    #[test]
    fn vth_shift_reduces_current() {
        let tech = Technology::um350();
        let d = nmos1u();
        let shifted = d.with_vth_shift(Volts::new(0.1));
        let t = Celsius::new(27.0);
        assert!(
            shifted.sat_current(t, tech.vdd).unwrap().get()
                < d.sat_current(t, tech.vdd).unwrap().get()
        );
        assert!((shifted.vth(t).get() - d.vth(t).get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn off_device_reports_no_overdrive() {
        let tech = Technology::um350();
        let d = nmos1u().with_vth_shift(Volts::new(5.0));
        let err = d.sat_current(Celsius::new(27.0), tech.vdd).unwrap_err();
        assert!(matches!(err, ModelError::NoOverdrive { .. }));
    }

    #[test]
    fn zero_width_rejected() {
        let tech = Technology::um350();
        assert!(AlphaPowerFet::new(Polarity::Nmos, tech.nmos, 0.0).is_err());
    }
}

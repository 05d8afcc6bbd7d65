//! The temperature-dependent per-cell delay model.
//!
//! STA needs, for every cell on a timing arc, the propagation-delay pair
//! at the analysis temperature:
//!
//! * `t_PHL` — input rises, output **falls** (pull-down network);
//! * `t_PLH` — input falls, output **rises** (pull-up network).
//!
//! The split matters because NAND/NOR stacks weight the two edges
//! differently (series NMOS slows `t_PHL`, series PMOS slows `t_PLH`) —
//! the very asymmetry the paper's Fig. 3 cell-mix optimization exploits.
//! [`AnalyticalModel`] prices them with the alpha-power formulation of
//! `tsense-core`: closed form, at any temperature and load.

use tsense_core::gate::{Gate, GateKind};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Farads};

use crate::error::Result;

/// A propagation-delay pair in femtoseconds — the STA-internal unit,
/// matching `dsim`'s integer-femtosecond timebase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayFs {
    /// `t_PHL`: delay of a falling output edge, femtoseconds.
    pub fall_fs: f64,
    /// `t_PLH`: delay of a rising output edge, femtoseconds.
    pub rise_fs: f64,
}

impl DelayFs {
    /// A symmetric pair, as carried by a plain `dsim` gate delay.
    pub fn symmetric(delay_fs: u64) -> Self {
        DelayFs {
            fall_fs: delay_fs as f64,
            rise_fs: delay_fs as f64,
        }
    }

    /// `t_PHL + t_PLH` — one stage's contribution to a ring period
    /// (paper Eq. 1).
    #[inline]
    pub fn pair_sum_fs(&self) -> f64 {
        self.fall_fs + self.rise_fs
    }

    /// The average of the two edges, rounded to an integer femtosecond —
    /// the single inertial delay a `dsim` gate can carry. Never rounds
    /// below 1 fs so the event kernel always advances.
    pub fn quantized_fs(&self) -> u64 {
        (0.5 * self.pair_sum_fs()).round().max(1.0) as u64
    }
}

/// Closed-form alpha-power delays from `tsense-core`, at a fixed
/// library sizing (`Wn`, `Wp/Wn` ratio) — the fast path.
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    tech: Technology,
    wn: f64,
    ratio: f64,
}

impl AnalyticalModel {
    /// A model over an explicit technology and sizing.
    pub fn new(tech: Technology, wn: f64, ratio: f64) -> Self {
        AnalyticalModel { tech, wn, ratio }
    }

    /// The paper's 0.35 µm / 3.3 V process with 1 µm NMOS and the given
    /// `Wp/Wn` ratio.
    pub fn um350(ratio: f64) -> Self {
        AnalyticalModel::new(Technology::um350(), 1.0e-6, ratio)
    }

    /// The underlying technology description.
    #[inline]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The `Wp/Wn` sizing ratio.
    #[inline]
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    fn gate(&self, kind: GateKind) -> Result<Gate> {
        Ok(Gate::with_ratio(kind, self.wn, self.ratio)?)
    }

    /// Delay pair of one `kind` cell at `temp_c` °C driving `load_f`
    /// farads of external load.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation failures (e.g. no gate overdrive at
    /// the requested temperature).
    pub fn gate_delays(&self, kind: GateKind, temp_c: f64, load_f: f64) -> Result<DelayFs> {
        let gate = self.gate(kind)?;
        let d = gate.delays(&self.tech, Celsius::new(temp_c), Farads::new(load_f))?;
        Ok(DelayFs {
            fall_fs: d.tphl.get() * 1e15,
            rise_fs: d.tplh.get() * 1e15,
        })
    }

    /// Capacitance one input pin of `kind` presents to its driver,
    /// farads.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation failures.
    pub fn input_capacitance(&self, kind: GateKind) -> Result<f64> {
        Ok(self.gate(kind)?.input_capacitance(&self.tech).get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_stack_weighting_is_polarity_split() {
        let model = AnalyticalModel::um350(2.0);
        let load = model.input_capacitance(GateKind::Inv).unwrap();
        let inv = model.gate_delays(GateKind::Inv, 27.0, load).unwrap();
        let nand = model.gate_delays(GateKind::Nand3, 27.0, load).unwrap();
        let nor = model.gate_delays(GateKind::Nor3, 27.0, load).unwrap();
        // Series NMOS stack slows the falling edge; series PMOS the rising.
        assert!(nand.fall_fs > 1.5 * inv.fall_fs, "{nand:?} vs {inv:?}");
        assert!(nor.rise_fs > 1.5 * inv.rise_fs, "{nor:?} vs {inv:?}");
        assert!(nand.pair_sum_fs() > inv.pair_sum_fs());
    }

    #[test]
    fn analytical_delays_increase_with_temperature() {
        let model = AnalyticalModel::um350(2.0);
        let load = model.input_capacitance(GateKind::Inv).unwrap();
        let cold = model.gate_delays(GateKind::Inv, -50.0, load).unwrap();
        let hot = model.gate_delays(GateKind::Inv, 150.0, load).unwrap();
        assert!(hot.fall_fs > cold.fall_fs);
        assert!(hot.rise_fs > cold.rise_fs);
    }

    #[test]
    fn quantization_is_the_edge_average() {
        let d = DelayFs {
            fall_fs: 100.4,
            rise_fs: 200.0,
        };
        assert_eq!(d.quantized_fs(), 150);
        assert_eq!(
            DelayFs {
                fall_fs: 0.1,
                rise_fs: 0.2
            }
            .quantized_fs(),
            1,
            "never rounds to zero"
        );
        assert_eq!(DelayFs::symmetric(42).quantized_fs(), 42);
    }
}

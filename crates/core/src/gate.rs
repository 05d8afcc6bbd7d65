//! Inverting standard-cell gates with all inputs tied together.
//!
//! The paper's key idea (Section 3) is that replacing the inverters of a
//! ring oscillator by other *inverting* gates — NAND and NOR cells with
//! their inputs tied — changes the balance between the NMOS-driven `t_PHL`
//! and the PMOS-driven `t_PLH` without touching transistor sizes, because:
//!
//! * a NAND pulls down through a **series NMOS stack** (weaker, with a
//!   body-effect threshold shift) and up through **parallel PMOS** devices
//!   that all switch together (stronger);
//! * a NOR is the dual;
//! * every tied input adds one NMOS and one PMOS gate of load.
//!
//! The temperature *shape* of a series stack also differs slightly from a
//! single device (the body-effect shift changes the overdrive that the
//! threshold temperature coefficient acts on), which is why a cell mix is a
//! genuine linearity knob and not just a delay scale.
//!
//! Beyond the paper's INV/NAND/NOR set, the complex inverting cells of a
//! real library (AOI21, OAI21) are supported through general
//! series/parallel [`PullNetwork`] trees — they mix stack depths inside
//! one network and therefore add intermediate curvature points to the
//! search space.

use std::fmt;
use std::str::FromStr;

use crate::error::{ModelError, Result};
use crate::mosfet::{overdrive, AlphaPowerFet};
use crate::network::PullNetwork;
use crate::tech::{DeviceParams, Polarity, Technology};
use crate::units::{Celsius, Farads, Seconds, Volts};

/// The inverting cell types available in a typical standard-cell library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Plain inverter.
    Inv,
    /// 2-input NAND, inputs tied.
    Nand2,
    /// 3-input NAND, inputs tied.
    Nand3,
    /// 4-input NAND, inputs tied.
    Nand4,
    /// 2-input NOR, inputs tied.
    Nor2,
    /// 3-input NOR, inputs tied.
    Nor3,
    /// 4-input NOR, inputs tied.
    Nor4,
    /// AND-OR-invert `!(A·B + C)`, inputs tied.
    Aoi21,
    /// OR-AND-invert `!((A + B)·C)`, inputs tied.
    Oai21,
}

impl GateKind {
    /// Every supported kind, in a stable order.
    pub const ALL: [GateKind; 9] = [
        GateKind::Inv,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nand4,
        GateKind::Nor2,
        GateKind::Nor3,
        GateKind::Nor4,
        GateKind::Aoi21,
        GateKind::Oai21,
    ];

    /// The subset the paper's Fig. 3 draws from.
    pub const PAPER_SET: [GateKind; 5] = [
        GateKind::Inv,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nor2,
        GateKind::Nor3,
    ];

    /// The paper set extended with the complex inverting cells — used by
    /// the Ext-1 study of whether a richer library helps the search.
    pub const EXTENDED_SET: [GateKind; 7] = [
        GateKind::Inv,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nor2,
        GateKind::Nor3,
        GateKind::Aoi21,
        GateKind::Oai21,
    ];

    /// Number of logical inputs (all tied together in sensor rings).
    pub fn fan_in(self) -> usize {
        match self {
            GateKind::Inv => 1,
            GateKind::Nand2 | GateKind::Nor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 | GateKind::Aoi21 | GateKind::Oai21 => 3,
            GateKind::Nand4 | GateKind::Nor4 => 4,
        }
    }

    /// Pull-down (NMOS) network topology.
    pub fn pull_down(self) -> PullNetwork {
        match self {
            GateKind::Inv => PullNetwork::Device,
            GateKind::Nand2 => PullNetwork::series_chain(2),
            GateKind::Nand3 => PullNetwork::series_chain(3),
            GateKind::Nand4 => PullNetwork::series_chain(4),
            GateKind::Nor2 => PullNetwork::parallel_bank(2),
            GateKind::Nor3 => PullNetwork::parallel_bank(3),
            GateKind::Nor4 => PullNetwork::parallel_bank(4),
            // !(A·B + C): (A·B) or C pulls down.
            GateKind::Aoi21 => {
                PullNetwork::Parallel(vec![PullNetwork::series_chain(2), PullNetwork::Device])
            }
            // !((A+B)·C): (A or B) and C pull down in series.
            GateKind::Oai21 => {
                PullNetwork::Series(vec![PullNetwork::parallel_bank(2), PullNetwork::Device])
            }
        }
    }

    /// Pull-up (PMOS) network topology — always the dual of the
    /// pull-down.
    pub fn pull_up(self) -> PullNetwork {
        self.pull_down().dual()
    }

    /// `true` for every supported kind: the sensor ring only admits
    /// inverting cells, so this is a tautology here, but it documents the
    /// invariant the ring constructor relies on. (With all inputs tied,
    /// AOI/OAI degenerate to inverters logically: `!(x·x + x) = !x`.)
    pub fn is_inverting(self) -> bool {
        true
    }

    /// Library-style cell name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Inv => "INV",
            GateKind::Nand2 => "NAND2",
            GateKind::Nand3 => "NAND3",
            GateKind::Nand4 => "NAND4",
            GateKind::Nor2 => "NOR2",
            GateKind::Nor3 => "NOR3",
            GateKind::Nor4 => "NOR4",
            GateKind::Aoi21 => "AOI21",
            GateKind::Oai21 => "OAI21",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown cell name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateError {
    text: String,
}

impl fmt::Display for ParseGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.text)
    }
}

impl std::error::Error for ParseGateError {}

impl FromStr for GateKind {
    type Err = ParseGateError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "INV" | "INV1" | "NOT" => Ok(GateKind::Inv),
            "NAND2" | "ND2" => Ok(GateKind::Nand2),
            "NAND3" | "ND3" => Ok(GateKind::Nand3),
            "NAND4" | "ND4" => Ok(GateKind::Nand4),
            "NOR2" | "NR2" => Ok(GateKind::Nor2),
            "NOR3" | "NR3" => Ok(GateKind::Nor3),
            "NOR4" | "NR4" => Ok(GateKind::Nor4),
            "AOI21" => Ok(GateKind::Aoi21),
            "OAI21" => Ok(GateKind::Oai21),
            other => Err(ParseGateError {
                text: other.to_string(),
            }),
        }
    }
}

/// The pair of propagation delays of one switching event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDelays {
    /// High-to-low output transition delay (NMOS network discharges).
    pub tphl: Seconds,
    /// Low-to-high output transition delay (PMOS network charges).
    pub tplh: Seconds,
}

impl GateDelays {
    /// Sum of both delays — one gate's contribution to a ring period.
    #[inline]
    pub fn pair_sum(&self) -> Seconds {
        self.tphl + self.tplh
    }
}

/// A sized instance of an inverting standard cell.
///
/// `wn`/`wp` are per-transistor widths in metres; the effective drive of
/// the pull networks is derived from the topology.
///
/// ```
/// use tsense_core::gate::{Gate, GateKind};
/// use tsense_core::tech::Technology;
/// use tsense_core::units::Celsius;
///
/// let tech = Technology::um350();
/// let g = Gate::sized(GateKind::Nand2, 1.0e-6, 2.0e-6)?;
/// let load = g.input_capacitance(&tech);
/// let d = g.delays(&tech, Celsius::new(27.0), load)?;
/// assert!(d.tphl.get() > 0.0 && d.tplh.get() > 0.0);
/// # Ok::<(), tsense_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    kind: GateKind,
    wn: f64,
    wp: f64,
}

impl Gate {
    /// Creates a gate with explicit per-transistor widths (metres).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when either width is not
    /// positive.
    pub fn sized(kind: GateKind, wn: f64, wp: f64) -> Result<Self> {
        if !(wn > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "wn",
                value: wn,
                constraint: "NMOS width must be positive",
            });
        }
        if !(wp > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "wp",
                value: wp,
                constraint: "PMOS width must be positive",
            });
        }
        Ok(Gate { kind, wn, wp })
    }

    /// Creates a gate from an NMOS width and a `Wp/Wn` ratio — the exact
    /// parameterization of the paper's Fig. 2 sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the width or ratio is
    /// not positive.
    pub fn with_ratio(kind: GateKind, wn: f64, ratio: f64) -> Result<Self> {
        if !(ratio > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "ratio",
                value: ratio,
                constraint: "Wp/Wn ratio must be positive",
            });
        }
        Gate::sized(kind, wn, wn * ratio)
    }

    /// The cell type.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// NMOS transistor width in metres.
    #[inline]
    pub fn wn(&self) -> f64 {
        self.wn
    }

    /// PMOS transistor width in metres.
    #[inline]
    pub fn wp(&self) -> f64 {
        self.wp
    }

    /// The `Wp/Wn` sizing ratio.
    #[inline]
    pub fn ratio(&self) -> f64 {
        self.wp / self.wn
    }

    /// Capacitance presented by this gate's (tied) input pin: every input
    /// adds one NMOS and one PMOS gate terminal.
    pub fn input_capacitance(&self, tech: &Technology) -> Farads {
        let k = self.kind.fan_in() as f64;
        Farads::new(k * (self.wn + self.wp) * tech.cg_per_width)
    }

    /// Parasitic (junction) capacitance this gate contributes to its own
    /// output node: the devices whose drains touch the output.
    pub fn output_parasitic(&self, tech: &Technology) -> Farads {
        let wn_at_out = self.kind.pull_down().output_drain_count() as f64 * self.wn;
        let wp_at_out = self.kind.pull_up().output_drain_count() as f64 * self.wp;
        Farads::new((wn_at_out + wp_at_out) * tech.cj_per_width)
    }

    /// The equivalent transistor of the `polarity` pull network with all
    /// inputs tied, and the network's stack depth.
    fn network_fet(&self, tech: &Technology, polarity: Polarity) -> Result<(AlphaPowerFet, usize)> {
        let (network, w) = match polarity {
            Polarity::Nmos => (self.kind.pull_down(), self.wn),
            Polarity::Pmos => (self.kind.pull_up(), self.wp),
        };
        let params = *tech.device(polarity);
        let w_eff = network.effective_width(w, tech.stack_res_factor);
        let depth = network.max_stack_depth();
        let shift = Volts::new(tech.stack_vth_shift * (depth as f64 - 1.0));
        let fet = AlphaPowerFet::new(polarity, params, w_eff)?.with_vth_shift(shift);
        Ok((fet, depth))
    }

    /// The equivalent transistor of the pull-down (NMOS) network with all
    /// inputs tied.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation.
    pub fn pull_down_fet(&self, tech: &Technology) -> Result<AlphaPowerFet> {
        Ok(self.network_fet(tech, Polarity::Nmos)?.0)
    }

    /// The equivalent transistor of the pull-up (PMOS) network with all
    /// inputs tied.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation.
    pub fn pull_up_fet(&self, tech: &Technology) -> Result<AlphaPowerFet> {
        Ok(self.network_fet(tech, Polarity::Pmos)?.0)
    }

    /// Compiles this gate driving an external load `c_load` into the
    /// terms of its delays that do not depend on temperature, registering
    /// both pull networks in `drives`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation.
    pub(crate) fn compile(
        &self,
        tech: &Technology,
        c_load: Farads,
        drives: &mut DriveTable,
    ) -> Result<StageTerms> {
        let c_total = c_load + self.output_parasitic(tech);
        let (down, down_depth) = self.network_fet(tech, Polarity::Nmos)?;
        let (up, up_depth) = self.network_fet(tech, Polarity::Pmos)?;
        Ok(StageTerms {
            charge: 0.5 * c_total.get() * tech.vdd.get(),
            pull_down: drives.register(&down, down_depth),
            pull_up: drives.register(&up, up_depth),
        })
    }

    /// Propagation delays driving an external load `c_load` at junction
    /// temperature `t`. The gate's own output parasitic is added to the
    /// load internally.
    ///
    /// Uses the alpha-power delay estimate `t_p = C·V_DD / (2·I_sat(T))`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the technology's device
    /// parameters fail validation, and [`ModelError::NoOverdrive`] when
    /// either network is off at `t` (the ring would stall).
    pub fn delays(&self, tech: &Technology, t: Celsius, c_load: Farads) -> Result<GateDelays> {
        let mut drives = DriveTable::new(tech);
        let stage = self.compile(tech, c_load, &mut drives)?;
        Ok(drives.at(t)?.delays(&stage))
    }
}

/// Deepest series stack of any [`GateKind`] network (the NAND4
/// pull-down and the NOR4 pull-up).
const MAX_STACK_DEPTH: usize = 4;

/// One [`DriveTable`] slot per (polarity, stack depth) pair.
const DRIVE_SLOTS: usize = 2 * MAX_STACK_DEPTH;

/// Row of a polarity in a [`DriveTable`].
fn polarity_row(polarity: Polarity) -> usize {
    match polarity {
        Polarity::Nmos => 0,
        Polarity::Pmos => 1,
    }
}

/// The temperature-independent drive of one pull network.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetworkTerms {
    /// `W_eff · k_drive`.
    width_drive: f64,
    /// The (polarity, stack depth) slot whose overdrive the network
    /// shares with every network of the same polarity and depth.
    slot: usize,
}

/// A gate driving a fixed load, reduced to the terms of its delays that
/// do not depend on temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageTerms {
    /// `0.5·(C_load + C_par)·V_DD`.
    charge: f64,
    pull_down: NetworkTerms,
    pull_up: NetworkTerms,
}

/// What the stages compiled against one technology share: the supply,
/// both device parameter sets, and the stack `Vth` shift of every
/// (polarity, stack depth) pair some stage uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriveTable {
    vdd: Volts,
    devices: [DeviceParams; 2],
    shifts: [Option<Volts>; DRIVE_SLOTS],
}

impl DriveTable {
    /// An empty table for `tech`.
    pub(crate) fn new(tech: &Technology) -> Self {
        DriveTable {
            vdd: tech.vdd,
            devices: [tech.nmos, tech.pmos],
            shifts: [None; DRIVE_SLOTS],
        }
    }

    /// The supply the table was built for.
    pub(crate) fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Registers the equivalent transistor of a network `depth` devices
    /// deep.
    fn register(&mut self, fet: &AlphaPowerFet, depth: usize) -> NetworkTerms {
        assert!(
            (1..=MAX_STACK_DEPTH).contains(&depth),
            "stack depth {depth} is deeper than any GateKind network"
        );
        let slot = polarity_row(fet.polarity) * MAX_STACK_DEPTH + depth - 1;
        self.shifts[slot] = Some(fet.vth_shift);
        NetworkTerms {
            width_drive: fet.width * fet.params.k_drive,
            slot,
        }
    }

    /// Evaluates the table at junction temperature `t`: µ(T) and Vth(T)
    /// once per polarity, and one overdrive power per registered
    /// (polarity, stack depth) pair.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoOverdrive`] when a registered network is
    /// off at `t`.
    pub(crate) fn at(&self, t: Celsius) -> Result<DrivesAt> {
        let mobility = self.devices.map(|d| d.mobility_rel(t));
        let vth = self.devices.map(|d| d.vth(t));
        let mut power = [0.0; DRIVE_SLOTS];
        for (slot, shift) in self.shifts.iter().enumerate() {
            if let Some(shift) = *shift {
                let row = slot / MAX_STACK_DEPTH;
                let vov = overdrive(self.vdd, vth[row] + shift, t)?;
                power[slot] = vov.get().powf(self.devices[row].alpha);
            }
        }
        Ok(DrivesAt { mobility, power })
    }
}

/// A [`DriveTable`] evaluated at one temperature.
pub(crate) struct DrivesAt {
    mobility: [f64; 2],
    power: [f64; DRIVE_SLOTS],
}

impl DrivesAt {
    /// `I_sat = W_eff · k_drive · µrel(T) · V_ov^α` of one network.
    fn current(&self, network: &NetworkTerms) -> f64 {
        network.width_drive
            * self.mobility[network.slot / MAX_STACK_DEPTH]
            * self.power[network.slot]
    }

    /// The alpha-power delay estimate `t_p = C·V_DD / (2·I_sat(T))` of
    /// both output transitions of one stage.
    pub(crate) fn delays(&self, stage: &StageTerms) -> GateDelays {
        GateDelays {
            tphl: Seconds::new(stage.charge / self.current(&stage.pull_down)),
            tplh: Seconds::new(stage.charge / self.current(&stage.pull_up)),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (Wn={:.2}µm, Wp={:.2}µm)",
            self.kind,
            self.wn * 1e6,
            self.wp * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::um350()
    }

    #[test]
    fn pull_networks_are_dual() {
        for k in GateKind::ALL {
            assert_eq!(k.pull_up(), k.pull_down().dual(), "{k}");
            assert_eq!(
                k.pull_down().device_count(),
                k.fan_in(),
                "{k}: one NMOS per input"
            );
            assert_eq!(
                k.pull_up().device_count(),
                k.fan_in(),
                "{k}: one PMOS per input"
            );
        }
    }

    #[test]
    fn every_network_fits_the_drive_table() {
        for k in GateKind::ALL {
            for net in [k.pull_down(), k.pull_up()] {
                assert!(net.max_stack_depth() <= MAX_STACK_DEPTH, "{k}: {net}");
            }
        }
    }

    #[test]
    fn fan_in_matches_name() {
        assert_eq!(GateKind::Inv.fan_in(), 1);
        assert_eq!(GateKind::Nand3.fan_in(), 3);
        assert_eq!(GateKind::Nor4.fan_in(), 4);
        assert_eq!(GateKind::Aoi21.fan_in(), 3);
        assert_eq!(GateKind::Oai21.fan_in(), 3);
    }

    #[test]
    fn parse_round_trip() {
        for k in GateKind::ALL {
            let parsed: GateKind = k.name().parse().expect("round trip");
            assert_eq!(parsed, k);
        }
        assert!("XOR2".parse::<GateKind>().is_err());
        assert_eq!("nand2".parse::<GateKind>().unwrap(), GateKind::Nand2);
        assert_eq!("aoi21".parse::<GateKind>().unwrap(), GateKind::Aoi21);
    }

    #[test]
    fn nand_pull_down_weaker_than_inverter() {
        let t = tech();
        let inv = Gate::sized(GateKind::Inv, 1e-6, 2e-6).unwrap();
        let nand = Gate::sized(GateKind::Nand2, 1e-6, 2e-6).unwrap();
        let at = Celsius::new(27.0);
        let i_inv = inv
            .pull_down_fet(&t)
            .unwrap()
            .sat_current(at, t.vdd)
            .unwrap()
            .get();
        let i_nand = nand
            .pull_down_fet(&t)
            .unwrap()
            .sat_current(at, t.vdd)
            .unwrap()
            .get();
        assert!(i_nand < 0.55 * i_inv, "series stack must be < half drive");
    }

    #[test]
    fn nand_pull_up_stronger_than_inverter() {
        let t = tech();
        let inv = Gate::sized(GateKind::Inv, 1e-6, 2e-6).unwrap();
        let nand = Gate::sized(GateKind::Nand2, 1e-6, 2e-6).unwrap();
        let at = Celsius::new(27.0);
        let i_inv = inv
            .pull_up_fet(&t)
            .unwrap()
            .sat_current(at, t.vdd)
            .unwrap()
            .get();
        let i_nand = nand
            .pull_up_fet(&t)
            .unwrap()
            .sat_current(at, t.vdd)
            .unwrap()
            .get();
        assert!(
            (i_nand / i_inv - 2.0).abs() < 1e-9,
            "two tied PMOS in parallel"
        );
    }

    #[test]
    fn nor_is_the_dual_of_nand() {
        let t = tech();
        let nand = Gate::sized(GateKind::Nand2, 1e-6, 1e-6).unwrap();
        let nor = Gate::sized(GateKind::Nor2, 1e-6, 1e-6).unwrap();
        // NAND's weak network is the pull-down; NOR's weak network is the
        // pull-up. With equal widths the *relative* weakening matches.
        let nand_dn = nand.pull_down_fet(&t).unwrap();
        let nor_up = nor.pull_up_fet(&t).unwrap();
        assert!((nand_dn.width - nor_up.width).abs() < 1e-18);
        assert_eq!(nand_dn.vth_shift, nor_up.vth_shift);
    }

    #[test]
    fn aoi_drive_between_inverter_and_stack() {
        // AOI21 pull-down = (series-2) ∥ device: stronger than an
        // inverter's single device but with a depth-2 threshold shift.
        let t = tech();
        let at = Celsius::new(27.0);
        let aoi = Gate::sized(GateKind::Aoi21, 1e-6, 2e-6).unwrap();
        let fet = aoi.pull_down_fet(&t).unwrap();
        assert!(
            fet.width > 1e-6 && fet.width < 1.5e-6,
            "eff width {}",
            fet.width
        );
        assert!(fet.vth_shift.get() > 0.0, "stack shift applies");
        // OAI21 pull-down = (parallel-2) in series with a device: weaker.
        let oai = Gate::sized(GateKind::Oai21, 1e-6, 2e-6).unwrap();
        let fet_oai = oai.pull_down_fet(&t).unwrap();
        assert!(fet_oai.width < 1e-6, "eff width {}", fet_oai.width);
        // Both still drive a load at temperature.
        let load = aoi.input_capacitance(&t);
        assert!(aoi.delays(&t, at, load).unwrap().tphl.get() > 0.0);
        assert!(oai.delays(&t, at, load).unwrap().tplh.get() > 0.0);
    }

    #[test]
    fn input_cap_scales_with_fan_in() {
        let t = tech();
        let inv = Gate::sized(GateKind::Inv, 1e-6, 2e-6).unwrap();
        let nand3 = Gate::sized(GateKind::Nand3, 1e-6, 2e-6).unwrap();
        let aoi = Gate::sized(GateKind::Aoi21, 1e-6, 2e-6).unwrap();
        let ci = inv.input_capacitance(&t).get();
        assert!((nand3.input_capacitance(&t).get() / ci - 3.0).abs() < 1e-12);
        assert!((aoi.input_capacitance(&t).get() / ci - 3.0).abs() < 1e-12);
    }

    #[test]
    fn output_parasitic_counts_drains_at_output() {
        let t = tech();
        let cj = t.cj_per_width;
        let nand2 = Gate::sized(GateKind::Nand2, 1e-6, 2e-6).unwrap();
        // NAND2: stack top NMOS (1·wn) + both PMOS (2·wp).
        let expect = (1e-6 + 2.0 * 2e-6) * cj;
        assert!((nand2.output_parasitic(&t).get() - expect).abs() < 1e-20);
        let aoi = Gate::sized(GateKind::Aoi21, 1e-6, 2e-6).unwrap();
        // AOI21 pd: stack-top + lone device = 2·wn; pu dual: 2·wp at top.
        let expect = (2.0 * 1e-6 + 2.0 * 2e-6) * cj;
        assert!((aoi.output_parasitic(&t).get() - expect).abs() < 1e-20);
    }

    #[test]
    fn delays_positive_and_increase_with_load() {
        let t = tech();
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap();
        let at = Celsius::new(27.0);
        let d1 = g.delays(&t, at, Farads::from_femtos(5.0)).unwrap();
        let d2 = g.delays(&t, at, Farads::from_femtos(10.0)).unwrap();
        assert!(d1.tphl.get() > 0.0 && d1.tplh.get() > 0.0);
        assert!(d2.tphl.get() > d1.tphl.get());
        assert!(d2.tplh.get() > d1.tplh.get());
        assert!(d1.pair_sum().get() > d1.tphl.get());
    }

    #[test]
    fn inverter_delay_is_tens_of_picoseconds() {
        // Sanity against the paper's Fig. 1 time base (a 5-stage ring shows
        // a handful of periods within 1500 ps).
        let t = tech();
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap();
        let load = g.input_capacitance(&t);
        let d = g.delays(&t, Celsius::new(27.0), load).unwrap();
        let ps = d.pair_sum().as_picos();
        assert!(ps > 10.0 && ps < 500.0, "pair delay {ps} ps out of range");
    }

    #[test]
    fn delay_increases_with_temperature_at_nominal_supply() {
        let t = tech();
        for kind in GateKind::ALL {
            let g = Gate::with_ratio(kind, 1e-6, 2.0).unwrap();
            let load = g.input_capacitance(&t);
            let cold = g.delays(&t, Celsius::new(-50.0), load).unwrap().pair_sum();
            let hot = g.delays(&t, Celsius::new(150.0), load).unwrap().pair_sum();
            assert!(
                hot.get() > cold.get(),
                "{kind}: delay must grow with temperature"
            );
        }
    }

    #[test]
    fn ratio_constructor() {
        let g = Gate::with_ratio(GateKind::Inv, 1e-6, 2.25).unwrap();
        assert!((g.ratio() - 2.25).abs() < 1e-12);
        assert!(Gate::with_ratio(GateKind::Inv, 1e-6, 0.0).is_err());
        assert!(Gate::sized(GateKind::Inv, -1e-6, 1e-6).is_err());
    }

    #[test]
    fn display_formats() {
        let g = Gate::sized(GateKind::Nand2, 1e-6, 2e-6).unwrap();
        let s = format!("{g}");
        assert!(s.contains("NAND2") && s.contains("1.00") && s.contains("2.00"));
    }
}

//! Sensor-ring construction and STA ↔ transient cross-validation.
//!
//! The bridge between the cell world (`tsense-core` [`GateKind`]s, the
//! paper's Fig. 3 mixes) and the gate world (`dsim` netlists): a ring
//! spec is lowered to a netlist whose per-stage inertial delays are the
//! quantized model delays, then
//!
//! * STA predicts the period analytically from the float delay pairs
//!   ([`crate::graph::analyze`] → ring loop → Eq. 1 sum), and
//! * the event-driven simulator measures it from the transient edge
//!   stream.
//!
//! The two must agree to [`CROSS_VALIDATION_TOLERANCE`] — the residual
//! is only the 1 fs quantization of each stage delay — and
//! [`cross_validate`] enforces exactly that for every shipped example.

use dsim::builders::{ring_oscillator_with_delays, RingPorts};
use dsim::logic::Logic;
use dsim::netlist::{GateOp, Netlist};
use dsim::sim::Simulator;
use tsense_core::gate::GateKind;
use tsense_core::ring::CellConfig;

use crate::error::{Result, StaError};
use crate::graph::{analyze, Analysis, CellMap};
use crate::model::{AnalyticalModel, DelayFs};

/// Maximum tolerated relative disagreement between the STA-predicted
/// and simulator-measured ring period: 0.1 %.
///
/// The only systematic error source is quantizing each stage's float
/// delay pair to one integer femtosecond inertial delay, worth at most
/// `n × 1 fs` on a period of tens of nanoseconds (relative error around
/// 1e-5); 1e-3 leaves two orders of magnitude of margin while still
/// catching any real modelling or propagation bug.
pub const CROSS_VALIDATION_TOLERANCE: f64 = 1e-3;

/// A named ring example: the cell kind of every stage, in ring order.
#[derive(Debug, Clone)]
pub struct RingSpec {
    /// Display name (mix notation, e.g. `3×INV + 2×NAND3`).
    pub name: String,
    /// Stage cells in ring order.
    pub kinds: Vec<GateKind>,
}

impl RingSpec {
    /// A spec from a core cell configuration.
    pub fn from_config(config: &CellConfig) -> Self {
        RingSpec {
            name: config.to_string(),
            kinds: config.kinds().to_vec(),
        }
    }
}

/// The shipped example rings every release is cross-validated against:
/// the six Fig. 3 candidate mixes plus two uniform inverter rings (9 and
/// 21 stages) covering short and long loops.
pub fn shipped_rings() -> Vec<RingSpec> {
    let mut specs: Vec<RingSpec> = CellConfig::paper_fig3_set()
        .iter()
        .map(RingSpec::from_config)
        .collect();
    for n in [9usize, 21] {
        let config = CellConfig::uniform(GateKind::Inv, n).expect("odd inverter ring");
        specs.push(RingSpec::from_config(&config));
    }
    specs
}

/// Parses a cell-mix specification like `3xINV+2xNAND3` (also accepts
/// `×`, `*`, commas, spaces, and bare cell names meaning count 1) into
/// a ring-ordered kind list via [`CellConfig::from_groups`]'s
/// round-robin interleave.
///
/// # Errors
///
/// [`StaError::BadMixSpec`] on unknown cell names, zero counts, or a
/// stage total that is even or below 3.
pub fn parse_mix(spec: &str) -> Result<Vec<GateKind>> {
    let bad = |reason: &str| StaError::BadMixSpec {
        spec: spec.to_string(),
        reason: reason.to_string(),
    };
    let mut groups: Vec<(usize, GateKind)> = Vec::new();
    for part in spec.split([',', '+']) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (count, name) = match part.split_once(['x', 'X', '×', '*']) {
            Some((n, name)) if n.trim().chars().all(|c| c.is_ascii_digit()) => {
                let count: usize = n
                    .trim()
                    .parse()
                    .map_err(|_| bad("stage count does not parse"))?;
                (count, name.trim())
            }
            _ => (1, part),
        };
        if count == 0 {
            return Err(bad("stage count must be positive"));
        }
        let upper = name.to_ascii_uppercase();
        let kind = GateKind::ALL
            .into_iter()
            .find(|k| k.name() == upper)
            .ok_or_else(|| bad(&format!("unknown cell `{name}`")))?;
        groups.push((count, kind));
    }
    if groups.is_empty() {
        return Err(bad("no cells listed"));
    }
    let config = CellConfig::from_groups(&groups).map_err(|e| bad(&e.to_string()))?;
    Ok(config.kinds().to_vec())
}

/// A ring lowered to a simulatable netlist with its timing bookkeeping.
#[derive(Debug)]
pub struct BuiltRing {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The ring's signals.
    pub ports: RingPorts,
    /// Component → cell binding for [`crate::graph::cell_delays`].
    pub cells: CellMap,
    /// Per-stage float delay pairs at the build temperature.
    pub delays: Vec<DelayFs>,
}

impl BuiltRing {
    /// The STA of this ring: per-component float delays (quantization
    /// never enters the analysis).
    pub fn analyze(&self) -> Analysis {
        let mut delays = crate::graph::netlist_delays(&self.netlist);
        for (i, d) in self.delays.iter().enumerate() {
            delays[i] = *d;
        }
        analyze(&self.netlist, &delays)
    }

    /// The analytically predicted oscillation period, femtoseconds.
    ///
    /// # Errors
    ///
    /// See [`Analysis::ring_period_fs`].
    pub fn sta_period_fs(&self) -> Result<f64> {
        self.analyze().ring_period_fs()
    }

    /// Measures the oscillation period with the event-driven simulator:
    /// runs `cycles` predicted periods, discards the first third of the
    /// observed rising edges (start-up transient), and averages the
    /// remaining edge-to-edge spacing.
    ///
    /// # Errors
    ///
    /// [`StaError::Validation`] when fewer than three rising edges are
    /// observed (the ring did not oscillate).
    pub fn transient_period_fs(&self, cycles: u32) -> Result<f64> {
        let est_fs = self.sta_period_fs()?;
        let mut sim = Simulator::new(self.netlist.clone());
        sim.enable_trace();
        sim.run_until((est_fs * f64::from(cycles.max(4))).ceil() as u64);
        let rises: Vec<u64> = sim
            .changes()
            .iter()
            .filter(|c| c.signal == self.ports.out && c.value == Logic::One)
            .map(|c| c.time_fs)
            .collect();
        if rises.len() < 3 {
            return Err(StaError::Validation {
                message: format!(
                    "ring produced only {} rising edge(s) in {} predicted period(s)",
                    rises.len(),
                    cycles
                ),
            });
        }
        // Skip the start-up third, then average full cycles.
        let skip = rises.len() / 3;
        let steady = &rises[skip..];
        let span = (steady[steady.len() - 1] - steady[0]) as f64;
        Ok(span / (steady.len() - 1) as f64)
    }
}

/// Lowers `kinds` to a gate-level ring at `temp_c` °C: each stage's
/// float delay pair comes from `model` under the load of the *next*
/// stage's tied input pins (the FO1 sensor-ring convention of
/// `tsense-core`), and its `dsim` inertial delay is the quantized
/// average of the pair.
///
/// # Errors
///
/// Model failures and builder rejections (even parity, short ring)
/// propagate; an empty `kinds` is [`StaError::BadRing`].
pub fn build_ring(kinds: &[GateKind], model: &AnalyticalModel, temp_c: f64) -> Result<BuiltRing> {
    if kinds.is_empty() {
        return Err(StaError::BadRing {
            reason: "no stages given".to_string(),
        });
    }
    let n = kinds.len();
    let mut delays: Vec<DelayFs> = Vec::with_capacity(n);
    for (i, &kind) in kinds.iter().enumerate() {
        let load = model.input_capacitance(kinds[(i + 1) % n])?;
        delays.push(model.gate_delays(kind, temp_c, load)?);
    }
    let stage_delays: Vec<(GateOp, u64)> = kinds
        .iter()
        .zip(&delays)
        .map(|(&k, d)| (kind_to_op(k), d.quantized_fs()))
        .collect();
    let mut netlist = Netlist::new();
    let ports = ring_oscillator_with_delays(&mut netlist, &stage_delays, "ring")?;
    let mut cells = CellMap::for_netlist(&netlist);
    for (i, &kind) in kinds.iter().enumerate() {
        // The builder emits stage gates in ring order as components
        // 0..n, before any tie-rail bookkeeping.
        cells.bind(i, kind);
    }
    Ok(BuiltRing {
        netlist,
        ports,
        cells,
        delays,
    })
}

/// The `dsim` primitive a library cell reduces to with its side inputs
/// tied off (NAND family ties high, NOR family — including the AOI/OAI
/// complex cells — ties low).
pub fn kind_to_op(kind: GateKind) -> GateOp {
    match kind {
        GateKind::Inv => GateOp::Inv,
        GateKind::Nand2 | GateKind::Nand3 | GateKind::Nand4 | GateKind::Oai21 => GateOp::Nand,
        GateKind::Nor2 | GateKind::Nor3 | GateKind::Nor4 | GateKind::Aoi21 => GateOp::Nor,
    }
}

/// One STA-vs-transient comparison point.
#[derive(Debug, Clone, Copy)]
pub struct CrossValidation {
    /// Analysis temperature, °C.
    pub temp_c: f64,
    /// STA-predicted period (float Eq. 1 sum), femtoseconds.
    pub sta_period_fs: f64,
    /// Simulator-measured period (quantized delays), femtoseconds.
    pub sim_period_fs: f64,
    /// `(sim − sta) / sta`.
    pub rel_error: f64,
}

impl CrossValidation {
    /// Whether this point meets [`CROSS_VALIDATION_TOLERANCE`].
    pub fn within_tolerance(&self) -> bool {
        self.rel_error.abs() <= CROSS_VALIDATION_TOLERANCE
    }
}

/// Cross-validates one ring at each temperature: build, predict via
/// STA, measure via transient, compare.
///
/// # Errors
///
/// Build/model/measurement failures propagate; disagreement itself is
/// *reported*, not an error — gate on
/// [`CrossValidation::within_tolerance`].
pub fn cross_validate(
    kinds: &[GateKind],
    model: &AnalyticalModel,
    temps_c: &[f64],
) -> Result<Vec<CrossValidation>> {
    let mut points = Vec::with_capacity(temps_c.len());
    for &temp_c in temps_c {
        let ring = build_ring(kinds, model, temp_c)?;
        let sta_period_fs = ring.sta_period_fs()?;
        let sim_period_fs = ring.transient_period_fs(12)?;
        points.push(CrossValidation {
            temp_c,
            sta_period_fs,
            sim_period_fs,
            rel_error: (sim_period_fs - sta_period_fs) / sta_period_fs,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;

    #[test]
    fn parse_mix_accepts_the_usual_notations() {
        let kinds = parse_mix("3xINV+2xNAND3").unwrap();
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds.iter().filter(|&&k| k == GateKind::Inv).count(), 3);
        assert_eq!(kinds.iter().filter(|&&k| k == GateKind::Nand3).count(), 2);
        // Round-robin interleave, matching CellConfig::from_groups.
        let via_config =
            CellConfig::from_groups(&[(3, GateKind::Inv), (2, GateKind::Nand3)]).unwrap();
        assert_eq!(kinds, via_config.kinds());
        assert_eq!(parse_mix("5×NAND2").unwrap().len(), 5);
        assert_eq!(parse_mix("inv, inv, inv").unwrap().len(), 3);
    }

    #[test]
    fn parse_mix_rejects_garbage() {
        assert!(matches!(
            parse_mix("3xFOO").unwrap_err(),
            StaError::BadMixSpec { .. }
        ));
        assert!(matches!(
            parse_mix("4xINV").unwrap_err(),
            StaError::BadMixSpec { .. }
        ));
        assert!(matches!(
            parse_mix("").unwrap_err(),
            StaError::BadMixSpec { .. }
        ));
        assert!(matches!(
            parse_mix("0xINV+3xINV").unwrap_err(),
            StaError::BadMixSpec { .. }
        ));
    }

    #[test]
    fn shipped_rings_are_all_odd_and_nonempty() {
        let specs = shipped_rings();
        assert_eq!(specs.len(), 8);
        for spec in &specs {
            assert!(spec.kinds.len() >= 3, "{}", spec.name);
            assert_eq!(spec.kinds.len() % 2, 1, "{}", spec.name);
        }
    }

    #[test]
    fn built_ring_period_is_eq1_sum() {
        let model = AnalyticalModel::um350(2.0);
        let kinds = parse_mix("3xINV+2xNAND3").unwrap();
        let ring = build_ring(&kinds, &model, 27.0).unwrap();
        let expected: f64 = ring.delays.iter().map(DelayFs::pair_sum_fs).sum();
        let got = ring.sta_period_fs().unwrap();
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn sta_matches_transient_on_one_mix() {
        let model = AnalyticalModel::um350(2.0);
        let kinds = parse_mix("5xINV").unwrap();
        let points = cross_validate(&kinds, &model, &[27.0]).unwrap();
        assert!(points[0].within_tolerance(), "{:?}", points[0]);
    }
}

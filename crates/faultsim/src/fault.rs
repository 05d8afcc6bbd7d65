//! The fault taxonomy and its injection implementations.
//!
//! A [`Fault`] names one concrete defect at one concrete site. Faults
//! strike three layers of the stack:
//!
//! * **gate level** ([`Fault::StuckAt`], [`Fault::DelayFault`]) —
//!   injected into a [`dsim`] netlist/simulator via the `force`
//!   primitive and the component-delay mutation API;
//! * **behavioral unit** (dead/stuck/slow ring, counter bit flip,
//!   metastable capture, supply droop, thermal runaway) — injected into
//!   a [`sensor::SmartSensorUnit`] through its [`RingFault`] hooks;
//! * **transistor level** ([`Fault::DeckSupplyDroop`]) — injected into
//!   a [`spicelite`] [`Circuit`] by sagging every DC supply.
//!
//! [`FaultClass`] buckets faults for per-class coverage reporting.

use dsim::{Logic, Netlist, Simulator};
use sensor::unit::RingFault;
use sensor::SmartSensorUnit;
use spicelite::devices::Device;
use spicelite::{Circuit, Stimulus};

use std::fmt;

/// One concrete injectable defect.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A ring net is stuck at a logic level (gate-level `force`).
    StuckAt {
        /// Ring stage index whose output net is pinned.
        stage: usize,
        /// The pinned level.
        value: Logic,
    },
    /// A gate's propagation delay is scaled (resistive open / bridging
    /// defect on one cell arc), gate level.
    DelayFault {
        /// Netlist component index.
        component: usize,
        /// Multiplier on the healthy delay.
        factor: f64,
    },
    /// The sensing ring is dead: no oscillation at all.
    DeadRing,
    /// The ring oscillates at a fixed, temperature-insensitive period.
    StuckRing {
        /// The pinned period, seconds.
        period_s: f64,
    },
    /// Every stage slowed/sped by a common factor (behavioral delay
    /// fault on the sensing element).
    SlowRing {
        /// Multiplier on the healthy period.
        factor: f64,
    },
    /// One digitizer count bit is stuck-flipped.
    CounterBitFlip {
        /// The flipped bit.
        bit: u8,
    },
    /// The next `captures` digitizer captures resolve metastably.
    MetastableCapture {
        /// Number of corrupted captures.
        captures: u32,
    },
    /// The unit's local supply sags.
    SupplyDroop {
        /// Droop magnitude, volts.
        delta_v: f64,
    },
    /// Thermal runaway drives the faulted site's junction far beyond
    /// the qualified range.
    ThermalRunaway {
        /// The runaway junction temperature, °C.
        junction_c: f64,
    },
    /// Every DC supply of a SPICE deck sags by the given fraction
    /// (transistor level).
    DeckSupplyDroop {
        /// Relative sag, e.g. `0.3` for a rail at 70 %.
        fraction: f64,
    },
    /// The struck node's fleet link is severed for the event's
    /// duration (network level; the schedule's `channel` names the
    /// node). In-flight traffic is held until heal — see
    /// `dst::SimNet`.
    LinkPartition,
    /// The struck node's fleet link drops a fraction of messages
    /// (network level).
    LinkLoss {
        /// Drop probability in `[0, 1]`; `1.0` is a black-hole link.
        drop: f64,
    },
    /// The struck node's fleet link gains extra one-way latency
    /// (network level).
    LinkDelay {
        /// Added latency, milliseconds.
        add_ms: u64,
    },
}

/// Coarse fault classes for coverage bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Stuck-at-0/1 on a ring net.
    StuckAt,
    /// Gate-level delay fault.
    Delay,
    /// Dead ring.
    DeadRing,
    /// Temperature-insensitive stuck period.
    StuckRing,
    /// Behavioral whole-ring delay scale.
    SlowRing,
    /// Counter bit flip.
    CounterBitFlip,
    /// Metastable digitizer capture.
    Metastable,
    /// Unit-local supply droop.
    SupplyDroop,
    /// Thermal runaway scenario.
    ThermalRunaway,
    /// SPICE-deck supply droop.
    DeckSupplyDroop,
    /// Severed fleet link.
    LinkPartition,
    /// Lossy fleet link.
    LinkLoss,
    /// Slow fleet link.
    LinkDelay,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultClass::StuckAt => "stuck-at",
            FaultClass::Delay => "delay",
            FaultClass::DeadRing => "dead-ring",
            FaultClass::StuckRing => "stuck-ring",
            FaultClass::SlowRing => "slow-ring",
            FaultClass::CounterBitFlip => "counter-bit-flip",
            FaultClass::Metastable => "metastable",
            FaultClass::SupplyDroop => "supply-droop",
            FaultClass::ThermalRunaway => "thermal-runaway",
            FaultClass::DeckSupplyDroop => "deck-supply-droop",
            FaultClass::LinkPartition => "link-partition",
            FaultClass::LinkLoss => "link-loss",
            FaultClass::LinkDelay => "link-delay",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StuckAt { stage, value } => write!(f, "stuck-at-{value:?} on stage {stage}"),
            Fault::DelayFault { component, factor } => {
                write!(f, "delay ×{factor} on component {component}")
            }
            Fault::DeadRing => write!(f, "dead ring"),
            Fault::StuckRing { period_s } => write!(f, "ring stuck at {period_s:.3e} s"),
            Fault::SlowRing { factor } => write!(f, "ring period ×{factor}"),
            Fault::CounterBitFlip { bit } => write!(f, "counter bit {bit} flipped"),
            Fault::MetastableCapture { captures } => {
                write!(f, "{captures} metastable capture(s)")
            }
            Fault::SupplyDroop { delta_v } => write!(f, "supply droop {delta_v} V"),
            Fault::ThermalRunaway { junction_c } => {
                write!(f, "thermal runaway to {junction_c} °C")
            }
            Fault::DeckSupplyDroop { fraction } => {
                write!(f, "deck supplies sagged by {:.0} %", fraction * 100.0)
            }
            Fault::LinkPartition => write!(f, "link partitioned"),
            Fault::LinkLoss { drop } => write!(f, "link loss p={drop}"),
            Fault::LinkDelay { add_ms } => write!(f, "link +{add_ms} ms latency"),
        }
    }
}

impl Fault {
    /// The coverage bucket this fault belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            Fault::StuckAt { .. } => FaultClass::StuckAt,
            Fault::DelayFault { .. } => FaultClass::Delay,
            Fault::DeadRing => FaultClass::DeadRing,
            Fault::StuckRing { .. } => FaultClass::StuckRing,
            Fault::SlowRing { .. } => FaultClass::SlowRing,
            Fault::CounterBitFlip { .. } => FaultClass::CounterBitFlip,
            Fault::MetastableCapture { .. } => FaultClass::Metastable,
            Fault::SupplyDroop { .. } => FaultClass::SupplyDroop,
            Fault::ThermalRunaway { .. } => FaultClass::ThermalRunaway,
            Fault::DeckSupplyDroop { .. } => FaultClass::DeckSupplyDroop,
            Fault::LinkPartition => FaultClass::LinkPartition,
            Fault::LinkLoss { .. } => FaultClass::LinkLoss,
            Fault::LinkDelay { .. } => FaultClass::LinkDelay,
        }
    }

    /// `true` when the fault strikes a fleet network link rather than
    /// any layer of one sensor stack. Network faults are consumed by
    /// the fleet simulator (`runtime::sim::fleet`), not by campaigns.
    pub fn is_network_fault(&self) -> bool {
        matches!(
            self,
            Fault::LinkPartition | Fault::LinkLoss { .. } | Fault::LinkDelay { .. }
        )
    }

    /// The [`RingFault`] equivalent, when one exists.
    pub fn as_ring_fault(&self) -> Option<RingFault> {
        match *self {
            Fault::DeadRing => Some(RingFault::Dead),
            Fault::StuckRing { period_s } => Some(RingFault::StuckPeriod { period_s }),
            Fault::SlowRing { factor } => Some(RingFault::DelayScale { factor }),
            Fault::CounterBitFlip { bit } => Some(RingFault::CounterBitFlip { bit }),
            Fault::MetastableCapture { captures } => Some(RingFault::Metastable { captures }),
            Fault::SupplyDroop { delta_v } => Some(RingFault::SupplyDroop { delta_v }),
            _ => None,
        }
    }

    /// Injects a unit-level fault into a smart sensor (no-op for
    /// gate-level and deck faults; [`Fault::ThermalRunaway`] is an
    /// environment fault applied by the campaign's field, not the
    /// unit).
    pub fn inject_unit(&self, unit: &mut SmartSensorUnit) {
        if let Some(rf) = self.as_ring_fault() {
            unit.inject_fault(rf);
        }
    }

    /// Injects a gate-level delay fault into a netlist (no-op for other
    /// fault kinds).
    ///
    /// # Errors
    ///
    /// Propagates [`dsim::DsimError::UnknownComponent`] for an
    /// out-of-range component index.
    pub fn inject_netlist(&self, nl: &mut Netlist) -> Result<(), dsim::DsimError> {
        if let Fault::DelayFault { component, factor } = *self {
            if let Some(d) = nl.component_delay(component)? {
                let scaled = ((d as f64) * factor).round().max(1.0) as u64;
                nl.set_component_delay(component, scaled)?;
            }
        }
        Ok(())
    }

    /// Applies a stuck-at fault to a live simulator by forcing the
    /// named stage net (no-op for other fault kinds).
    pub fn apply_stuck_at(&self, sim: &mut Simulator, stage_nets: &[dsim::SignalId]) {
        if let Fault::StuckAt { stage, value } = *self {
            if let Some(&net) = stage_nets.get(stage) {
                sim.force(net, value);
            }
        }
    }

    /// Injects a deck-level supply droop into a SPICE circuit: every DC
    /// voltage source is scaled down by `fraction` (no-op for other
    /// fault kinds).
    pub fn inject_circuit(&self, circuit: &mut Circuit) {
        if let Fault::DeckSupplyDroop { fraction } = *self {
            let targets: Vec<(String, f64)> = circuit
                .devices()
                .iter()
                .filter_map(|d| match d {
                    Device::Vsource {
                        name,
                        stimulus: Stimulus::Dc(v),
                        ..
                    } => Some((name.clone(), *v)),
                    _ => None,
                })
                .collect();
            for (name, v) in targets {
                circuit
                    .set_vsource_value(&name, v * (1.0 - fraction))
                    .expect("name came from the device list");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_display_cover_every_variant() {
        let faults = [
            Fault::StuckAt {
                stage: 2,
                value: Logic::Zero,
            },
            Fault::DelayFault {
                component: 1,
                factor: 4.0,
            },
            Fault::DeadRing,
            Fault::StuckRing { period_s: 1e-9 },
            Fault::SlowRing { factor: 1.5 },
            Fault::CounterBitFlip { bit: 7 },
            Fault::MetastableCapture { captures: 3 },
            Fault::SupplyDroop { delta_v: 0.1 },
            Fault::ThermalRunaway { junction_c: 180.0 },
            Fault::DeckSupplyDroop { fraction: 0.3 },
            Fault::LinkPartition,
            Fault::LinkLoss { drop: 0.25 },
            Fault::LinkDelay { add_ms: 50 },
        ];
        let mut classes: Vec<FaultClass> = faults.iter().map(Fault::class).collect();
        classes.dedup();
        assert_eq!(classes.len(), faults.len(), "one class per variant here");
        for f in &faults {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn deck_droop_scales_every_dc_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("VDD", a, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        Fault::DeckSupplyDroop { fraction: 0.3 }.inject_circuit(&mut ckt);
        match &ckt.devices()[0] {
            Device::Vsource {
                stimulus: Stimulus::Dc(v),
                ..
            } => assert!((v - 2.31).abs() < 1e-12, "sagged to {v}"),
            other => panic!("unexpected device {other:?}"),
        }
    }

    #[test]
    fn network_faults_strike_no_sensor_layer() {
        for f in [
            Fault::LinkPartition,
            Fault::LinkLoss { drop: 1.0 },
            Fault::LinkDelay { add_ms: 200 },
        ] {
            assert!(f.is_network_fault());
            assert!(f.as_ring_fault().is_none());
        }
        assert!(!Fault::DeadRing.is_network_fault());
    }

    #[test]
    fn ring_fault_mapping_is_total_for_unit_faults() {
        assert_eq!(Fault::DeadRing.as_ring_fault(), Some(RingFault::Dead));
        assert!(Fault::StuckAt {
            stage: 0,
            value: Logic::One
        }
        .as_ring_fault()
        .is_none());
        assert_eq!(
            Fault::SlowRing { factor: 2.0 }.as_ring_fault(),
            Some(RingFault::DelayScale { factor: 2.0 })
        );
    }
}

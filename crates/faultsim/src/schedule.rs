//! Seeded fault schedules: faults as *events in time* rather than
//! one-shot campaign variants.
//!
//! A campaign ([`crate::run_campaign`]) injects one fault per run, at
//! the start of the run. A long-lived monitoring service needs the
//! complementary shape: a [`FaultSchedule`] — a deterministic, seeded
//! list of [`FaultEvent`]s, each naming *when* a fault strikes, *which*
//! array channel it strikes, *what* it is, and *how long* it lasts —
//! so a chaos source can replay the same storm against a running
//! system on every seed. The `runtime` crate's soak mode is the
//! primary consumer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::Fault;

/// One scheduled fault: strike `channel` with `fault` at `at_ms`,
/// clear it `duration_ms` later.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Injection time, milliseconds from schedule start.
    pub at_ms: u64,
    /// How long the fault persists before the chaos source clears it,
    /// milliseconds.
    pub duration_ms: u64,
    /// The array channel the fault strikes.
    pub channel: usize,
    /// The defect itself.
    pub fault: Fault,
}

impl FaultEvent {
    /// The time at which the chaos source clears this fault.
    #[inline]
    pub fn clears_at_ms(&self) -> u64 {
        self.at_ms.saturating_add(self.duration_ms)
    }
}

/// A time-ordered, replayable list of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from explicit events (sorted by strike time;
    /// the given order breaks ties).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_ms);
        FaultSchedule { events }
    }

    /// The behavioral fault universe a chaos source can inject into a
    /// live [`sensor::SmartSensorUnit`] mid-run: every fault with a
    /// [`Fault::as_ring_fault`] mapping. Gate-level, deck, and
    /// environment faults (which need a rebuilt netlist, deck, or
    /// field) are excluded by construction.
    pub fn unit_universe() -> Vec<Fault> {
        let mut u = Vec::new();
        u.push(Fault::DeadRing);
        for period_s in [100e-12, 500e-12, 2e-9] {
            u.push(Fault::StuckRing { period_s });
        }
        for factor in [0.5, 1.05, 1.5, 4.0] {
            u.push(Fault::SlowRing { factor });
        }
        for bit in [0u8, 4, 10, 15] {
            u.push(Fault::CounterBitFlip { bit });
        }
        for captures in [4u32, 64, 100_000] {
            u.push(Fault::MetastableCapture { captures });
        }
        for delta_v in [0.05, 0.1, 0.3] {
            u.push(Fault::SupplyDroop { delta_v });
        }
        debug_assert!(u.iter().all(|f| f.as_ring_fault().is_some()));
        u
    }

    /// The network fault universe a fleet simulator can apply to one
    /// node's fabric link mid-run: severed, lossy at several rates,
    /// and slow at several added latencies. Every entry satisfies
    /// [`Fault::is_network_fault`].
    pub fn net_universe() -> Vec<Fault> {
        let mut u = vec![Fault::LinkPartition];
        for drop in [0.05, 0.25, 1.0] {
            u.push(Fault::LinkLoss { drop });
        }
        for add_ms in [10, 50, 200] {
            u.push(Fault::LinkDelay { add_ms });
        }
        debug_assert!(u.iter().all(Fault::is_network_fault));
        u
    }

    /// [`FaultSchedule::seeded`] over the network universe
    /// ([`FaultSchedule::net_universe`]); `channel` names the fleet
    /// node whose link is struck. The constructor the fleet
    /// simulator's chaos source uses.
    pub fn seeded_net_faults(seed: u64, count: usize, horizon_ms: u64, nodes: usize) -> Self {
        FaultSchedule::seeded(seed, count, horizon_ms, nodes, &Self::net_universe())
    }

    /// Samples a seeded schedule of `count` events uniformly over
    /// `[0, horizon_ms)` against an array of `channels` sites, drawing
    /// faults (with replacement) from `universe`. Durations are
    /// sampled between 5 % and 20 % of the horizon, so faults overlap
    /// and clear while the run is still going — the storm a soak test
    /// wants. The same `(seed, count, horizon_ms, channels, universe)`
    /// always replays the identical schedule.
    ///
    /// # Panics
    ///
    /// Panics when `universe` is empty or `channels == 0` — there is
    /// nothing to schedule.
    pub fn seeded(
        seed: u64,
        count: usize,
        horizon_ms: u64,
        channels: usize,
        universe: &[Fault],
    ) -> Self {
        assert!(!universe.is_empty(), "fault universe is empty");
        assert!(channels > 0, "schedule needs at least one channel");
        let horizon = horizon_ms.max(1);
        let dur_lo = (horizon / 20).max(1);
        let dur_hi = (horizon / 5).max(dur_lo + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..count)
            .map(|_| FaultEvent {
                at_ms: rng.random_range(0..horizon),
                duration_ms: rng.random_range(dur_lo..dur_hi),
                channel: rng.random_range(0..channels as u64) as usize,
                fault: universe[rng.random_range(0..universe.len() as u64) as usize].clone(),
            })
            .collect();
        FaultSchedule::new(events)
    }

    /// [`FaultSchedule::seeded`] over the injectable behavioral
    /// universe ([`FaultSchedule::unit_universe`]) — the constructor
    /// the runtime's chaos source uses.
    pub fn seeded_unit_faults(seed: u64, count: usize, horizon_ms: u64, channels: usize) -> Self {
        FaultSchedule::seeded(seed, count, horizon_ms, channels, &Self::unit_universe())
    }

    /// Every event, in strike order.
    #[inline]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events striking inside `[from_ms, to_ms)` — the polling
    /// window a chaos source checks each tick.
    pub fn due(&self, from_ms: u64, to_ms: u64) -> &[FaultEvent] {
        let start = self.events.partition_point(|e| e.at_ms < from_ms);
        let end = self.events.partition_point(|e| e.at_ms < to_ms);
        &self.events[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedule_is_deterministic_and_sorted() {
        let a = FaultSchedule::seeded_unit_faults(7, 25, 60_000, 9);
        let b = FaultSchedule::seeded_unit_faults(7, 25, 60_000, 9);
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultSchedule::seeded_unit_faults(8, 25, 60_000, 9);
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(a.len(), 25);
        for w in a.events().windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms, "events in strike order");
        }
        for e in a.events() {
            assert!(e.at_ms < 60_000);
            assert!(e.channel < 9);
            assert!(e.duration_ms >= 1);
            assert!(e.clears_at_ms() > e.at_ms);
        }
    }

    #[test]
    fn unit_universe_is_fully_injectable() {
        let u = FaultSchedule::unit_universe();
        assert!(!u.is_empty());
        for f in &u {
            assert!(
                f.as_ring_fault().is_some(),
                "{f} is not injectable into a live unit"
            );
        }
    }

    #[test]
    fn net_universe_is_fully_network_and_schedulable() {
        let u = FaultSchedule::net_universe();
        assert!(!u.is_empty());
        for f in &u {
            assert!(f.is_network_fault(), "{f} is not a network fault");
        }
        let a = FaultSchedule::seeded_net_faults(11, 8, 30_000, 4);
        let b = FaultSchedule::seeded_net_faults(11, 8, 30_000, 4);
        assert_eq!(a, b, "same seed, same storm");
        for e in a.events() {
            assert!(e.channel < 4);
            assert!(e.fault.is_network_fault());
        }
    }

    #[test]
    fn due_windows_partition_the_schedule() {
        let s = FaultSchedule::seeded_unit_faults(42, 40, 10_000, 3);
        let mut seen = 0;
        let mut cursor = 0;
        while cursor < 10_000 {
            seen += s.due(cursor, cursor + 777).len();
            cursor += 777;
        }
        assert_eq!(seen, s.len(), "tiling windows see every event once");
        assert!(s.due(10_000, u64::MAX).is_empty());
    }

    #[test]
    fn explicit_events_sort_by_strike_time() {
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at_ms: 500,
                duration_ms: 10,
                channel: 0,
                fault: Fault::DeadRing,
            },
            FaultEvent {
                at_ms: 100,
                duration_ms: 10,
                channel: 1,
                fault: Fault::SlowRing { factor: 2.0 },
            },
        ]);
        assert_eq!(s.events()[0].at_ms, 100);
        assert_eq!(s.due(0, 200).len(), 1);
        assert_eq!(s.due(100, 501).len(), 2);
    }
}

//! Period-to-digital conversion: the counting core of the smart unit.
//!
//! The digitizer opens a window of exactly `M` ring-oscillator cycles
//! and counts reference-clock cycles inside it; the count is
//! proportional to the ring period and therefore to temperature:
//!
//! ```text
//! count ≈ M · P_ring(T) · f_ref
//! ```
//!
//! Two implementations are provided and cross-checked:
//!
//! * [`BehavioralDigitizer`] — the closed-form count with floor
//!   quantization (what the RTL *should* do);
//! * [`GateLevelDigitizer`] — a real gate-level design simulated on
//!   [`dsim`]: a ripple counter divides the ring clock to generate the
//!   window, and a synchronous enable-gated counter accumulates the
//!   reference clock. Because the window edge is asynchronous to the
//!   reference clock, the hardware count may differ from the behavioral
//!   one by a couple of LSBs — exactly as on silicon.

use dsim::builders::{
    ripple_counter, sync_counter, DFF_DELAY_FS, GATE_DELAY_FS, MIN_TOGGLE_PERIOD_FS,
};
use dsim::logic::{bits_to_u64, Logic};
use dsim::netlist::{GateOp, Netlist};
use dsim::sim::Simulator;
use tsense_core::sensitivity::DigitizerSpec;
use tsense_core::units::{Hertz, Seconds};

use crate::error::{Result, SensorError};

/// The ideal counting digitizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehavioralDigitizer {
    spec: DigitizerSpec,
}

impl BehavioralDigitizer {
    /// Wraps a digitizer specification.
    pub fn new(spec: DigitizerSpec) -> Self {
        BehavioralDigitizer { spec }
    }

    /// The wrapped specification.
    #[inline]
    pub fn spec(&self) -> &DigitizerSpec {
        &self.spec
    }

    /// The count reported for a ring period.
    pub fn convert(&self, ring_period: Seconds) -> u64 {
        self.spec.quantized_count(ring_period)
    }

    /// Duration of the counting window for a ring period.
    pub fn window_duration(&self, ring_period: Seconds) -> Seconds {
        self.spec.conversion_time(ring_period)
    }
}

/// Result of one gate-level conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLevelResult {
    /// The reference count latched after the window closed.
    pub count: u64,
    /// Time the busy/window signal was high, femtoseconds.
    pub busy_fs: u64,
    /// Events the logic simulator processed (cost metric).
    pub events: u64,
}

/// A gate-level digitizer instance for one ring period / temperature.
#[derive(Debug, Clone)]
pub struct GateLevelDigitizer {
    ring_period_fs: u64,
    ref_period_fs: u64,
    window_cycles: u32,
    ref_bits: usize,
}

impl GateLevelDigitizer {
    /// Plans a gate-level conversion.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when:
    /// * `window_cycles` is not a power of two (the window comparator is
    ///   a single counter bit);
    /// * the ring period is too fast for the counter's flip-flop loop
    ///   (`DFF + INV` settle time), which would violate hold constraints
    ///   in real hardware too;
    /// * the reference clock is not positive.
    pub fn new(ring_period: Seconds, ref_clock: Hertz, window_cycles: u32) -> Result<Self> {
        if !window_cycles.is_power_of_two() {
            return Err(SensorError::InvalidConfig {
                reason: format!("window of {window_cycles} cycles is not a power of two"),
            });
        }
        if !(ref_clock.get() > 0.0) {
            return Err(SensorError::InvalidConfig {
                reason: "reference clock must be positive".to_string(),
            });
        }
        let ring_period_fs = (ring_period.get() * 1e15).round() as u64;
        if ring_period_fs < MIN_TOGGLE_PERIOD_FS {
            return Err(SensorError::InvalidConfig {
                reason: format!(
                    "ring period {ring_period_fs} fs violates the counter's \
                     {MIN_TOGGLE_PERIOD_FS} fs toggle-loop constraint; divide the ring clock first"
                ),
            });
        }
        let ref_period_fs = (1e15 / ref_clock.get()).round() as u64;
        let expected = window_cycles as u64 * ring_period_fs / ref_period_fs;
        let ref_bits = (64 - expected.leading_zeros() as usize) + 2;
        Ok(GateLevelDigitizer {
            ring_period_fs,
            ref_period_fs,
            window_cycles,
            ref_bits: ref_bits.max(4),
        })
    }

    /// Builds the conversion netlist without running it — the same
    /// structure [`GateLevelDigitizer::run`] simulates, exposed so
    /// static analyses (clock-domain, X-propagation, hazard lints) can
    /// inspect the design before any simulation.
    pub fn netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let ring_clk = nl.signal("ring_clk");
        let ref_clk = nl.signal("ref_clk");
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        nl.symmetric_clock(ring_clk, self.ring_period_fs, self.ring_period_fs / 2);
        nl.symmetric_clock(ref_clk, self.ref_period_fs, self.ref_period_fs / 2);

        // Window generator: ripple-divide the ring clock; the window is
        // open while the bit representing `window_cycles` is still 0.
        // The divider is clocked through a window-gated ring clock, so
        // counting freezes (and the window stays closed) once the M-th
        // edge has arrived — otherwise the divider would wrap and reopen
        // the window, exactly as an ungated design would on silicon.
        let win_bit = self.window_cycles.trailing_zeros() as usize;
        let window = nl.signal_with_init("window", Logic::One);
        let ring_gated = nl.signal("ring_gated");
        nl.gate(GateOp::And, &[ring_clk, window], ring_gated, GATE_DELAY_FS);
        let ring_bits = ripple_counter(&mut nl, ring_gated, rst_n, win_bit + 1, "ringcnt");
        nl.gate(GateOp::Inv, &[ring_bits[win_bit]], window, GATE_DELAY_FS);

        // The window is generated in the ring-clock domain; gating the
        // reference counter with it directly would let the enable race
        // the carry chain at deassertion (a classic CDC hazard that
        // double-counts high bits). Two-flop synchronizer into the
        // reference domain, exactly as on silicon.
        let sync1 = nl.signal_with_init("win_sync1", Logic::Zero);
        let sync2 = nl.signal_with_init("win_sync2", Logic::Zero);
        nl.dff(
            window,
            ref_clk,
            Some(rst_n),
            sync1,
            dsim::builders::DFF_DELAY_FS,
        );
        nl.dff(
            sync1,
            ref_clk,
            Some(rst_n),
            sync2,
            dsim::builders::DFF_DELAY_FS,
        );

        // Reference counter, enabled while the synchronized window is
        // open (the 2-cycle latency applies to both edges and cancels).
        sync_counter(&mut nl, ref_clk, rst_n, sync2, self.ref_bits, "refcnt");
        nl
    }

    /// Builds the netlist, runs the conversion and reads the count.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the final count is
    /// unknown (X bits), which indicates a netlist bug rather than an
    /// operating condition.
    pub fn run(&self) -> Result<GateLevelResult> {
        let nl = self.netlist();
        let ref_bits: Vec<_> = (0..self.ref_bits)
            .map(|i| {
                nl.find_signal(&format!("refcnt.q{i}"))
                    .expect("counter bit")
            })
            .collect();
        let mut sim = Simulator::new(nl);
        // Run until well after the window closes (plus counter ripple).
        let horizon = (self.window_cycles as u64 + 4) * self.ring_period_fs
            + 12 * self.ref_period_fs
            + 20 * (DFF_DELAY_FS + GATE_DELAY_FS);
        sim.run_until(horizon);

        let window_sig = sim.netlist().find_signal("window").expect("window exists");
        if sim.value(window_sig).is_one() {
            return Err(SensorError::InvalidConfig {
                reason: "window never closed; horizon too short".to_string(),
            });
        }
        let levels: Vec<Logic> = ref_bits.iter().map(|&b| sim.value(b)).collect();
        let count = bits_to_u64(&levels).ok_or_else(|| SensorError::InvalidConfig {
            reason: "reference counter holds unknown bits".to_string(),
        })?;
        // Busy duration: the window opened at ~0 and closed after M ring
        // cycles (plus the divider's ripple, visible in the count).
        let busy_fs = self.window_cycles as u64 * self.ring_period_fs;
        Ok(GateLevelResult {
            count,
            busy_fs,
            events: sim.events_processed(),
        })
    }

    /// The behavioral count this instance should ideally produce.
    pub fn expected_count(&self) -> u64 {
        self.window_cycles as u64 * self.ring_period_fs / self.ref_period_fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavioral_matches_spec_quantization() {
        let spec = DigitizerSpec::new(Hertz::from_mega(100.0), 1024).unwrap();
        let d = BehavioralDigitizer::new(spec);
        let p = Seconds::from_picos(700.0);
        // 1024 · 700 ps · 100 MHz = 71.68 → 71.
        assert_eq!(d.convert(p), 71);
        assert!((d.window_duration(p).as_nanos() - 716.8).abs() < 1e-9);
        assert_eq!(d.spec().window_cycles, 1024);
    }

    #[test]
    fn gate_level_count_close_to_behavioral() {
        // 1.5 ns ring period, 1 GHz reference, 64-cycle window:
        // expected = 64·1.5 ns·1 GHz = 96.
        let d = GateLevelDigitizer::new(Seconds::from_nanos(1.5), Hertz::from_mega(1000.0), 64)
            .unwrap();
        let r = d.run().unwrap();
        let expect = d.expected_count();
        assert_eq!(expect, 96);
        let err = (r.count as i64 - expect as i64).abs();
        assert!(err <= 2, "gate-level {} vs behavioral {expect}", r.count);
        assert!(r.events > 0);
        assert_eq!(r.busy_fs, 64 * 1_500_000);
    }

    #[test]
    fn gate_level_tracks_period_changes() {
        // A longer ring period (hotter junction) must raise the count.
        let counts: Vec<u64> = [1.2, 1.5, 1.8]
            .iter()
            .map(|&ns| {
                GateLevelDigitizer::new(Seconds::from_nanos(ns), Hertz::from_mega(1000.0), 64)
                    .unwrap()
                    .run()
                    .unwrap()
                    .count
            })
            .collect();
        assert!(counts[0] < counts[1] && counts[1] < counts[2], "{counts:?}");
    }

    #[test]
    fn longer_window_finer_quantization() {
        let run = |m: u32| {
            GateLevelDigitizer::new(Seconds::from_nanos(1.37), Hertz::from_mega(500.0), m)
                .unwrap()
                .run()
                .unwrap()
                .count
        };
        let c64 = run(64);
        let c256 = run(256);
        // 4× window → ≈4× count.
        let ratio = c256 as f64 / c64 as f64;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn non_power_of_two_window_rejected() {
        let e = GateLevelDigitizer::new(Seconds::from_nanos(1.5), Hertz::from_mega(100.0), 100)
            .unwrap_err();
        assert!(matches!(e, SensorError::InvalidConfig { .. }));
    }

    #[test]
    fn too_fast_ring_rejected() {
        let e = GateLevelDigitizer::new(Seconds::from_picos(100.0), Hertz::from_mega(100.0), 64)
            .unwrap_err();
        assert!(e.to_string().contains("toggle-loop"));
    }
}

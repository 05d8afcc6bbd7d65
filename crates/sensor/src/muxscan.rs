//! Gate-level multiplexed scanning — the paper's "multiplexing the
//! readout from different ring-oscillators" as real hardware.
//!
//! One digitizer (window divider + reference counter, as in
//! [`crate::digitizer::GateLevelDigitizer`]) is shared between `N` ring
//! oscillators through a NAND-tree multiplexer. A scan selects each
//! channel in turn, pulses the active-low reset (which also re-opens the
//! counting window), waits out the conversion, and latches the count —
//! the exact sequencing the smart unit's controller would drive.

use dsim::builders::{
    mux_tree, ripple_counter, sync_counter, DFF_DELAY_FS, GATE_DELAY_FS, MIN_TOGGLE_PERIOD_FS,
};
use dsim::logic::{bits_to_u64, u64_to_bits, Logic};
use dsim::netlist::{GateOp, Netlist, SignalId};
use dsim::sim::Simulator;
use tsense_core::units::{Hertz, Seconds};

use crate::error::{Result, SensorError};

/// Result of scanning one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelReading {
    /// Channel index.
    pub channel: usize,
    /// Latched reference count.
    pub count: u64,
}

/// A gate-level mux + shared digitizer for `N` ring oscillators.
#[derive(Debug)]
pub struct GateLevelMuxScan {
    sim: Simulator,
    sels: Vec<SignalId>,
    rst_n: SignalId,
    window: SignalId,
    ref_bits: Vec<SignalId>,
    ring_periods_fs: Vec<u64>,
    window_cycles: u32,
    ref_period_fs: u64,
}

impl GateLevelMuxScan {
    /// Builds the scan hardware for the given per-channel ring periods.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the channel count is
    /// not a power of two (mux tree), the window is not a power of two,
    /// or any ring period violates the counter's toggle-loop constraint.
    pub fn new(ring_periods: &[Seconds], ref_clock: Hertz, window_cycles: u32) -> Result<Self> {
        if ring_periods.is_empty() || !ring_periods.len().is_power_of_two() {
            return Err(SensorError::InvalidConfig {
                reason: format!(
                    "{} channels cannot feed a binary mux tree; use a power of two",
                    ring_periods.len()
                ),
            });
        }
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
        let ring_periods_fs: Vec<u64> = ring_periods
            .iter()
            .map(|p| (p.get() * 1e15).round() as u64)
            .collect();
        if let Some(&bad) = ring_periods_fs.iter().find(|&&p| p < MIN_TOGGLE_PERIOD_FS) {
            return Err(SensorError::InvalidConfig {
                reason: format!(
                    "ring period {bad} fs violates the counter's {MIN_TOGGLE_PERIOD_FS} fs \
                     toggle-loop constraint"
                ),
            });
        }
        let ref_period_fs = (1e15 / ref_clock.get()).round() as u64;

        let mut nl = Netlist::new();
        // Free-running per-channel ring clocks.
        let ring_clks: Vec<SignalId> = ring_periods_fs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let s = nl.signal(format!("ring{i}"));
                nl.symmetric_clock(s, p, p / 2);
                s
            })
            .collect();
        // Channel select lines (LSB first) and the mux tree.
        let sel_bits = ring_periods_fs.len().trailing_zeros() as usize;
        let sels: Vec<SignalId> = (0..sel_bits)
            .map(|i| nl.signal_with_init(format!("sel{i}"), Logic::Zero))
            .collect();
        let muxed = if sels.is_empty() {
            ring_clks[0]
        } else {
            mux_tree(&mut nl, &ring_clks, &sels, "mux")
        };

        let ref_clk = nl.signal("ref_clk");
        nl.symmetric_clock(ref_clk, ref_period_fs, ref_period_fs / 2);
        let rst_n = nl.signal_with_init("rst_n", Logic::One);

        // Shared digitizer: window-gated divider on the muxed clock plus
        // a CDC-synchronized, enable-gated reference counter (the same
        // structure as the single-channel gate-level digitizer).
        let win_bit = window_cycles.trailing_zeros() as usize;
        let window = nl.signal_with_init("window", Logic::One);
        let gated = nl.signal("ring_gated");
        nl.gate(GateOp::And, &[muxed, window], gated, GATE_DELAY_FS);
        let ring_bits = ripple_counter(&mut nl, gated, rst_n, win_bit + 1, "ringcnt");
        nl.gate(GateOp::Inv, &[ring_bits[win_bit]], window, GATE_DELAY_FS);
        let sync1 = nl.signal_with_init("win_sync1", Logic::Zero);
        let sync2 = nl.signal_with_init("win_sync2", Logic::Zero);
        nl.dff(window, ref_clk, Some(rst_n), sync1, DFF_DELAY_FS);
        nl.dff(sync1, ref_clk, Some(rst_n), sync2, DFF_DELAY_FS);
        let max_period = *ring_periods_fs.iter().max().expect("non-empty");
        let expected_max = window_cycles as u64 * max_period / ref_period_fs;
        let bits = (64 - expected_max.leading_zeros() as usize + 2).max(4);
        let ref_bits = sync_counter(&mut nl, ref_clk, rst_n, sync2, bits, "refcnt");

        Ok(GateLevelMuxScan {
            sim: Simulator::new(nl),
            sels,
            rst_n,
            window,
            ref_bits,
            ring_periods_fs,
            window_cycles,
            ref_period_fs,
        })
    }

    /// Number of channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.ring_periods_fs.len()
    }

    /// The constructed gate-level netlist, for static analysis (CDC,
    /// X-propagation, hazard lints) before any conversion runs.
    #[inline]
    pub fn netlist(&self) -> &dsim::netlist::Netlist {
        self.sim.netlist()
    }

    /// The count the behavioural model predicts for a channel.
    pub fn expected_count(&self, channel: usize) -> u64 {
        self.window_cycles as u64 * self.ring_periods_fs[channel] / self.ref_period_fs
    }

    /// Converts one channel: select, reset-pulse, wait, latch.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::BadChannel`] for an out-of-range channel or
    /// [`SensorError::InvalidConfig`] if the conversion never completed.
    pub fn convert(&mut self, channel: usize) -> Result<ChannelReading> {
        if channel >= self.ring_periods_fs.len() {
            return Err(SensorError::BadChannel {
                channel,
                available: self.ring_periods_fs.len(),
            });
        }
        // Drive the select lines and let the mux settle.
        for (i, bit) in u64_to_bits(channel as u64, self.sels.len())
            .iter()
            .enumerate()
        {
            self.sim.poke(self.sels[i], *bit);
        }
        self.sim.run_for(20 * GATE_DELAY_FS);
        // Reset pulse: clears both counters and re-opens the window.
        self.sim.poke(self.rst_n, Logic::Zero);
        self.sim.run_for(4 * (DFF_DELAY_FS + GATE_DELAY_FS));
        self.sim.poke(self.rst_n, Logic::One);
        // Wait out the conversion.
        let horizon = (self.window_cycles as u64 + 4) * self.ring_periods_fs[channel]
            + 12 * self.ref_period_fs
            + 20 * (DFF_DELAY_FS + GATE_DELAY_FS);
        self.sim.run_for(horizon);
        if self.sim.value(self.window).is_one() {
            return Err(SensorError::InvalidConfig {
                reason: format!("channel {channel}: window never closed"),
            });
        }
        let levels: Vec<Logic> = self.ref_bits.iter().map(|&b| self.sim.value(b)).collect();
        let count = bits_to_u64(&levels).ok_or_else(|| SensorError::InvalidConfig {
            reason: format!("channel {channel}: counter holds unknown bits"),
        })?;
        Ok(ChannelReading { channel, count })
    }

    /// Scans every channel in order.
    ///
    /// # Errors
    ///
    /// Propagates the first per-channel failure.
    pub fn scan_all(&mut self) -> Result<Vec<ChannelReading>> {
        (0..self.channel_count())
            .map(|ch| self.convert(ch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: f64 = 1000.0; // MHz

    fn periods(ns: &[f64]) -> Vec<Seconds> {
        ns.iter().map(|&n| Seconds::from_nanos(n)).collect()
    }

    #[test]
    fn four_channel_scan_tracks_each_ring() {
        let mut scan =
            GateLevelMuxScan::new(&periods(&[1.2, 1.5, 1.8, 2.1]), Hertz::from_mega(REF), 64)
                .unwrap();
        assert_eq!(scan.channel_count(), 4);
        let readings = scan.scan_all().unwrap();
        assert_eq!(readings.len(), 4);
        for r in &readings {
            let expect = scan.expected_count(r.channel);
            let err = r.count as i64 - expect as i64;
            assert!(
                (0..=3).contains(&err),
                "channel {}: {} vs {expect}",
                r.channel,
                r.count
            );
        }
        // Hotter channels (longer periods) read higher.
        for w in readings.windows(2) {
            assert!(w[1].count > w[0].count, "{readings:?}");
        }
    }

    #[test]
    fn rescanning_a_channel_reproduces_its_count() {
        let mut scan =
            GateLevelMuxScan::new(&periods(&[1.3, 1.7]), Hertz::from_mega(REF), 64).unwrap();
        let a = scan.convert(0).unwrap();
        let _ = scan.convert(1).unwrap();
        let b = scan.convert(0).unwrap();
        let drift = (a.count as i64 - b.count as i64).abs();
        assert!(
            drift <= 1,
            "repeatable within the async LSB: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn single_channel_degenerates_to_the_plain_digitizer() {
        let mut scan = GateLevelMuxScan::new(&periods(&[1.5]), Hertz::from_mega(REF), 64).unwrap();
        let r = scan.convert(0).unwrap();
        let expect = scan.expected_count(0);
        assert!(
            (r.count as i64 - expect as i64).abs() <= 2,
            "{r:?} vs {expect}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(
            GateLevelMuxScan::new(&periods(&[1.0, 1.2, 1.4]), Hertz::from_mega(REF), 64).is_err()
        );
        assert!(GateLevelMuxScan::new(&[], Hertz::from_mega(REF), 64).is_err());
        assert!(GateLevelMuxScan::new(&periods(&[1.0, 1.2]), Hertz::from_mega(REF), 100).is_err());
        assert!(
            GateLevelMuxScan::new(&periods(&[0.0001, 1.2]), Hertz::from_mega(REF), 64).is_err()
        );
        let mut scan =
            GateLevelMuxScan::new(&periods(&[1.5, 1.6]), Hertz::from_mega(REF), 64).unwrap();
        assert!(matches!(
            scan.convert(5),
            Err(SensorError::BadChannel { .. })
        ));
    }
}

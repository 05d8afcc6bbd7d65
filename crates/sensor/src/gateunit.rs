//! The complete smart unit as gates: measurement FSM, settle/measure
//! timers, oscillator gating, busy/done flags and the counting digitizer
//! in **one** event-driven netlist.
//!
//! This is the paper's "digital processing bloc" end to end:
//!
//! ```text
//!            ┌───────────────────────────── ref_clk domain ─────────────┐
//! start ────▶│ one-hot FSM: IDLE → SETTLE → MEASURE → DONE (ack → IDLE) │
//!            │   busy = SETTLE|MEASURE      osc_enable = busy           │
//!            └───────┬──────────────────────────────▲──────────────────┘
//!                    │ osc_enable                    │ settle/measure done
//!                    ▼                               │ (2-flop synchronized)
//!  ring_clk ──AND──▶ gated ring ──▶ ripple divider ──┘
//!                                   (cleared on the SETTLE→MEASURE edge)
//!  ref_clk ───────▶ reference counter, enabled while MEASURE ──▶ count
//! ```
//!
//! The FSM lives in the reference-clock domain; the phase-done flags come
//! from the ring-clock divider through 2-flop synchronizers. The
//! behavioural twin is [`crate::fsm::MeasureFsm`] +
//! [`crate::digitizer::BehavioralDigitizer`]; the tests hold the two
//! implementations together.

use dsim::builders::{
    edge_detector, ripple_counter, sync_counter, DFF_DELAY_FS, GATE_DELAY_FS, MIN_TOGGLE_PERIOD_FS,
};
use dsim::logic::{bits_to_u64, Logic};
use dsim::netlist::{GateOp, Netlist, SignalId};
use dsim::sim::Simulator;
use tsense_core::units::{Hertz, Seconds};

use crate::error::{Result, SensorError};

/// Outcome of one gate-level conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateUnitResult {
    /// The digitized count (∝ ring period).
    pub count: u64,
    /// Femtoseconds from the start pulse until `done` rose.
    pub conversion_fs: u64,
    /// Rising edges the (gated) ring produced — the self-heating cost.
    pub osc_cycles: u64,
    /// Simulator events processed.
    pub events: u64,
}

/// The gate-level smart unit for one ring period / temperature.
#[derive(Debug)]
pub struct GateLevelUnit {
    sim: Simulator,
    start: SignalId,
    ack: SignalId,
    busy: SignalId,
    done: SignalId,
    osc_gated: SignalId,
    ref_bits: Vec<SignalId>,
    ring_period_fs: u64,
    ref_period_fs: u64,
    settle_cycles: u32,
    window_cycles: u32,
}

impl GateLevelUnit {
    /// The configured settle phase, in ring cycles.
    #[inline]
    pub fn settle_cycles(&self) -> u32 {
        self.settle_cycles
    }

    /// The configured measurement window, in ring cycles.
    #[inline]
    pub fn window_cycles(&self) -> u32 {
        self.window_cycles
    }

    /// The gate-level netlist the unit simulates (for inspection and
    /// lint passes).
    #[inline]
    pub fn netlist(&self) -> &dsim::netlist::Netlist {
        self.sim.netlist()
    }
}

impl GateLevelUnit {
    /// Builds the unit. `settle_cycles` and `window_cycles` must be
    /// powers of two (phase boundaries are single divider bits), with
    /// `window_cycles > settle_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for non-power-of-two
    /// phases, a window not exceeding the settle, a non-positive
    /// reference clock, or a ring period violating the divider's
    /// toggle-loop constraint.
    pub fn new(
        ring_period: Seconds,
        ref_clock: Hertz,
        settle_cycles: u32,
        window_cycles: u32,
    ) -> Result<Self> {
        if !settle_cycles.is_power_of_two() || !window_cycles.is_power_of_two() {
            return Err(SensorError::InvalidConfig {
                reason: "settle and window must be powers of two".to_string(),
            });
        }
        if window_cycles <= settle_cycles {
            return Err(SensorError::InvalidConfig {
                reason: format!(
                    "window ({window_cycles}) must exceed the settle phase ({settle_cycles})"
                ),
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
                    "ring period {ring_period_fs} fs violates the divider's \
                     {MIN_TOGGLE_PERIOD_FS} fs toggle-loop constraint"
                ),
            });
        }
        let ref_period_fs = (1e15 / ref_clock.get()).round() as u64;

        let mut nl = Netlist::new();
        let ring_clk = nl.signal("ring_clk");
        nl.symmetric_clock(ring_clk, ring_period_fs, ring_period_fs / 2);
        let ref_clk = nl.signal("ref_clk");
        nl.symmetric_clock(ref_clk, ref_period_fs, ref_period_fs / 2);
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let start = nl.signal_with_init("start", Logic::Zero);
        let ack = nl.signal_with_init("ack", Logic::Zero);

        // ---- one-hot FSM in the ref_clk domain -------------------------
        let idle = nl.signal_with_init("st_idle", Logic::One);
        let settle = nl.signal_with_init("st_settle", Logic::Zero);
        let measure = nl.signal_with_init("st_measure", Logic::Zero);
        let done = nl.signal_with_init("st_done", Logic::Zero);
        // Phase-done flags (declared early, driven by synchronizers below).
        let settle_done_s = nl.signal_with_init("settle_done_s", Logic::Zero);
        let measure_done_s = nl.signal_with_init("measure_done_s", Logic::Zero);

        let d = GATE_DELAY_FS;
        let n_start = nl.signal("n_start");
        nl.gate(GateOp::Inv, &[start], n_start, d);
        let n_sdone = nl.signal("n_sdone");
        nl.gate(GateOp::Inv, &[settle_done_s], n_sdone, d);
        let n_mdone = nl.signal("n_mdone");
        nl.gate(GateOp::Inv, &[measure_done_s], n_mdone, d);
        let n_ack = nl.signal("n_ack");
        nl.gate(GateOp::Inv, &[ack], n_ack, d);

        // next_idle = idle·!start + done·ack
        let t_ii = nl.signal("t_ii");
        nl.gate(GateOp::And, &[idle, n_start], t_ii, d);
        let t_da = nl.signal("t_da");
        nl.gate(GateOp::And, &[done, ack], t_da, d);
        let next_idle = nl.signal("next_idle");
        nl.gate(GateOp::Or, &[t_ii, t_da], next_idle, d);
        // next_settle = idle·start + settle·!settle_done
        let t_is = nl.signal("t_is");
        nl.gate(GateOp::And, &[idle, start], t_is, d);
        let t_ss = nl.signal("t_ss");
        nl.gate(GateOp::And, &[settle, n_sdone], t_ss, d);
        let next_settle = nl.signal("next_settle");
        nl.gate(GateOp::Or, &[t_is, t_ss], next_settle, d);
        // next_measure = settle·settle_done + measure·!measure_done
        let t_sm = nl.signal("t_sm");
        nl.gate(GateOp::And, &[settle, settle_done_s], t_sm, d);
        let t_mm = nl.signal("t_mm");
        nl.gate(GateOp::And, &[measure, n_mdone], t_mm, d);
        let next_measure = nl.signal("next_measure");
        nl.gate(GateOp::Or, &[t_sm, t_mm], next_measure, d);
        // next_done = measure·measure_done + done·!ack
        let t_md = nl.signal("t_md");
        nl.gate(GateOp::And, &[measure, measure_done_s], t_md, d);
        let t_dd = nl.signal("t_dd");
        nl.gate(GateOp::And, &[done, n_ack], t_dd, d);
        let next_done = nl.signal("next_done");
        nl.gate(GateOp::Or, &[t_md, t_dd], next_done, d);

        // State registers. IDLE has no reset (it must power up 1);
        // resetting the machine means pulsing `ack` with the others
        // cleared, which this harness never needs.
        nl.dff(next_idle, ref_clk, None, idle, DFF_DELAY_FS);
        nl.dff(next_settle, ref_clk, Some(rst_n), settle, DFF_DELAY_FS);
        nl.dff(next_measure, ref_clk, Some(rst_n), measure, DFF_DELAY_FS);
        nl.dff(next_done, ref_clk, Some(rst_n), done, DFF_DELAY_FS);

        let busy = nl.signal("busy");
        nl.gate(GateOp::Or, &[settle, measure], busy, d);

        // ---- oscillator gating and the ring-domain divider --------------
        let osc_gated = nl.signal("osc_gated");
        nl.gate(GateOp::And, &[ring_clk, busy], osc_gated, d);
        // The divider is cleared while idle and again on the
        // SETTLE→MEASURE transition, so each phase counts from zero.
        let enter_measure = edge_detector(&mut nl, measure, "entm");
        let n_enter = nl.signal("n_enter");
        nl.gate(GateOp::Inv, &[enter_measure], n_enter, d);
        let n_idle = nl.signal("n_idle");
        nl.gate(GateOp::Inv, &[idle], n_idle, d);
        let cnt_rst_n = nl.signal("cnt_rst_n");
        nl.gate(GateOp::And, &[rst_n, n_enter, n_idle], cnt_rst_n, d);

        let settle_bit = settle_cycles.trailing_zeros() as usize;
        let window_bit = window_cycles.trailing_zeros() as usize;
        let ring_bits = ripple_counter(&mut nl, osc_gated, cnt_rst_n, window_bit + 1, "ringcnt");

        // Phase-done flags, synchronized into the ref domain.
        let settle_done_raw = ring_bits[settle_bit];
        let measure_done_raw = ring_bits[window_bit];
        for (raw, synced, tag) in [
            (settle_done_raw, settle_done_s, "sd"),
            (measure_done_raw, measure_done_s, "md"),
        ] {
            let meta = nl.signal_with_init(format!("sync_{tag}"), Logic::Zero);
            nl.dff(raw, ref_clk, Some(rst_n), meta, DFF_DELAY_FS);
            nl.dff(meta, ref_clk, Some(rst_n), synced, DFF_DELAY_FS);
        }

        // ---- reference counter (the digitizer) --------------------------
        let max_count =
            (window_cycles as u64 + settle_cycles as u64) * ring_period_fs / ref_period_fs + 8;
        let bits = (64 - max_count.leading_zeros() as usize).max(4);
        let ref_bits = sync_counter(&mut nl, ref_clk, cnt_rst_n, measure, bits, "refcnt");

        Ok(GateLevelUnit {
            sim: Simulator::new(nl),
            start,
            ack,
            busy,
            done,
            osc_gated,
            ref_bits,
            ring_period_fs,
            ref_period_fs,
            settle_cycles,
            window_cycles,
        })
    }

    /// The count the behavioural model predicts. The divider is cleared
    /// on the SETTLE→MEASURE transition, so the measure phase spans the
    /// full `window_cycles` ring cycles (the settle phase has its own
    /// budget on top).
    pub fn expected_count(&self) -> u64 {
        self.window_cycles as u64 * self.ring_period_fs / self.ref_period_fs
    }

    /// `true` while a conversion is in flight.
    pub fn is_busy(&self) -> bool {
        self.sim.value(self.busy).is_one()
    }

    /// `true` while a result is latched and unacknowledged.
    pub fn is_done(&self) -> bool {
        self.sim.value(self.done).is_one()
    }

    /// Runs one full conversion: start pulse → wait for `done` → read
    /// the count → acknowledge back to idle.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the conversion never
    /// completes within the deadline (a hardware bug, not an operating
    /// condition).
    pub fn convert(&mut self) -> Result<GateUnitResult> {
        let t0 = self.sim.time_fs();
        self.sim.count_edges(self.osc_gated);
        self.sim.reset_edge_count(self.osc_gated)?;
        // Start pulse spanning a couple of ref edges.
        self.sim.poke(self.start, Logic::One);
        self.sim.run_for(2 * self.ref_period_fs);
        self.sim.poke(self.start, Logic::Zero);

        // Wait for done, in bounded steps.
        let deadline =
            t0 + (self.window_cycles as u64 + 8) * self.ring_period_fs + 40 * self.ref_period_fs;
        while !self.is_done() {
            if self.sim.time_fs() > deadline {
                return Err(SensorError::InvalidConfig {
                    reason: "gate-level unit never reported done".to_string(),
                });
            }
            self.sim.run_for(4 * self.ref_period_fs);
        }
        let conversion_fs = self.sim.time_fs() - t0;
        let osc_cycles = self.sim.edge_count(self.osc_gated)?;

        let levels: Vec<Logic> = self.ref_bits.iter().map(|&b| self.sim.value(b)).collect();
        let count = bits_to_u64(&levels).ok_or_else(|| SensorError::InvalidConfig {
            reason: "reference counter holds unknown bits".to_string(),
        })?;

        // Acknowledge: back to idle.
        self.sim.poke(self.ack, Logic::One);
        self.sim.run_for(3 * self.ref_period_fs);
        self.sim.poke(self.ack, Logic::Zero);
        self.sim.run_for(2 * self.ref_period_fs);

        Ok(GateUnitResult {
            count,
            conversion_fs,
            osc_cycles,
            events: self.sim.events_processed(),
        })
    }

    /// Enables change tracing so a VCD can be dumped after running.
    pub fn enable_trace(&mut self) {
        self.sim.enable_trace();
    }

    /// Dumps everything that happened since construction as VCD text
    /// (requires [`GateLevelUnit::enable_trace`] before converting).
    ///
    /// # Panics
    ///
    /// Panics if tracing was never enabled.
    pub fn vcd(&self, module: &str) -> String {
        let ids = self.sim.netlist().signal_ids();
        dsim::vcd::to_vcd(&self.sim, &ids, module)
    }

    /// Advances idle time (no conversion in flight) — used to verify the
    /// oscillator stays gated off between measurements.
    ///
    /// # Errors
    ///
    /// Propagates edge-counter failures (cannot occur here: counting is
    /// enabled just before it is read).
    pub fn idle_for(&mut self, fs: u64) -> Result<u64> {
        self.sim.count_edges(self.osc_gated);
        self.sim.reset_edge_count(self.osc_gated)?;
        self.sim.run_for(fs);
        Ok(self.sim.edge_count(self.osc_gated)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(ns: f64) -> GateLevelUnit {
        GateLevelUnit::new(Seconds::from_nanos(ns), Hertz::from_mega(1000.0), 16, 128).unwrap()
    }

    #[test]
    fn full_conversion_sequence() {
        let mut u = unit(1.5);
        assert!(!u.is_busy() && !u.is_done());
        let r = u.convert().unwrap();
        // Behavioural expectation: 128·1.5 ns·1 GHz = 192, plus the
        // synchronizer/FSM latency of a few reference cycles.
        let expect = u.expected_count();
        assert_eq!(expect, 192);
        let err = r.count as i64 - expect as i64;
        assert!((0..=8).contains(&err), "count {} vs {expect}", r.count);
        assert!(!u.is_busy() && !u.is_done(), "acknowledged back to idle");
        // The oscillator ran settle + window + handshake cycles, not more.
        assert!(
            r.osc_cycles >= 144 && r.osc_cycles < 176,
            "{} cycles",
            r.osc_cycles
        );
        // Conversion time ≈ (settle + window)·period plus handshakes.
        let approx = (16 + 128) * 1_500_000;
        assert!(
            r.conversion_fs > approx && r.conversion_fs < approx + 60 * 1_000_000,
            "{} fs",
            r.conversion_fs
        );
    }

    #[test]
    fn oscillator_is_gated_off_while_idle() {
        let mut u = unit(1.5);
        let edges = u.idle_for(100 * 1_500_000).unwrap();
        assert_eq!(edges, 0, "no ring activity while idle");
        let _ = u.convert().unwrap();
        let edges = u.idle_for(100 * 1_500_000).unwrap();
        assert_eq!(edges, 0, "gated off again after the conversion");
    }

    #[test]
    fn counts_track_the_ring_period() {
        let mut cold = unit(1.2);
        let mut hot = unit(1.9);
        let c = cold.convert().unwrap().count;
        let h = hot.convert().unwrap().count;
        assert!(
            h > c,
            "hotter junction → longer period → higher count: {c} vs {h}"
        );
    }

    #[test]
    fn back_to_back_conversions_are_repeatable() {
        let mut u = unit(1.5);
        let a = u.convert().unwrap();
        let b = u.convert().unwrap();
        let drift = (a.count as i64 - b.count as i64).abs();
        assert!(drift <= 1, "{a:?} vs {b:?}");
    }

    #[test]
    fn matches_the_behavioural_fsm_phase_budget() {
        // The behavioural FSM says conversion = settle + window ring
        // cycles of oscillator time; the gate-level unit must be within
        // a few handshake cycles of that.
        let mut u = unit(1.5);
        let r = u.convert().unwrap();
        let behavioural = crate::fsm::MeasureFsm::new(16 * 1_500_000, 128 * 1_500_000);
        let budget = behavioural.conversion_time_fs();
        assert!(
            (r.osc_cycles as i64 - (budget / 1_500_000) as i64).abs() < 24,
            "osc cycles {} vs behavioural budget {}",
            r.osc_cycles,
            budget / 1_500_000
        );
    }

    #[test]
    fn vcd_dump_contains_the_handshake() {
        let mut u = unit(1.5);
        u.enable_trace();
        let _ = u.convert().unwrap();
        let vcd = u.vcd("smart_unit");
        assert!(vcd.contains("$scope module smart_unit $end"));
        for sig in ["st_idle", "st_measure", "busy", "start"] {
            assert!(vcd.contains(&format!(" {sig} $end")), "{sig} declared");
        }
        assert!(vcd.matches('#').count() > 100, "real activity recorded");
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = Seconds::from_nanos(1.5);
        let f = Hertz::from_mega(1000.0);
        assert!(
            GateLevelUnit::new(p, f, 10, 128).is_err(),
            "non-power-of-two settle"
        );
        assert!(
            GateLevelUnit::new(p, f, 128, 128).is_err(),
            "window == settle"
        );
        assert!(GateLevelUnit::new(p, f, 16, 8).is_err(), "window < settle");
        assert!(GateLevelUnit::new(Seconds::from_picos(10.0), f, 16, 128).is_err());
        assert!(GateLevelUnit::new(p, Hertz::new(0.0), 16, 128).is_err());
    }
}

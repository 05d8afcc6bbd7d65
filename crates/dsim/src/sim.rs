//! The event-driven simulation kernel.
//!
//! A single binary-heap event queue drives the netlist. Gate outputs use
//! *inertial* delay semantics: re-evaluating a gate supersedes its
//! pending output event, so glitches narrower than the gate delay are
//! swallowed — matching real cells. Testbench stimuli use *transport*
//! semantics (never cancelled), so pre-scheduled input sequences play
//! back verbatim.
//!
//! Flip-flops sample their `D` input as it was *immediately before* the
//! clock edge (one-instant hold memory), so a `D` toggling in the same
//! femtosecond as the clock does not race.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::DsimError;
use crate::logic::Logic;
use crate::netlist::{Component, Netlist, SignalId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    signal: SignalId,
    value: Logic,
    inertial: bool,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One recorded value change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Change {
    /// Simulation time of the change, femtoseconds.
    pub time_fs: u64,
    /// The signal that changed.
    pub signal: SignalId,
    /// Its new level.
    pub value: Logic,
}

/// The simulator state for one netlist.
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    fanout: Vec<Vec<usize>>,
    values: Vec<Logic>,
    /// Per-signal (previous value, time of last change) for pre-edge
    /// sampling.
    history: Vec<(Logic, u64)>,
    /// Latest inertial event sequence number per signal (lazy
    /// cancellation).
    latest_inertial: Vec<u64>,
    /// Per-signal override (Verilog `force` semantics): while set, the
    /// signal is pinned and driver events on it are discarded.
    forced: Vec<Option<Logic>>,
    queue: BinaryHeap<Reverse<Event>>,
    time_fs: u64,
    seq: u64,
    trace_enabled: bool,
    changes: Vec<Change>,
    /// Rising-edge counters for registered signals.
    edge_counters: Vec<Option<u64>>,
    events_processed: u64,
}

impl Simulator {
    /// Creates a simulator, applying signal initial values and arming
    /// clock sources.
    pub fn new(netlist: Netlist) -> Self {
        let n = netlist.signal_count();
        let fanout = netlist.fanout_table();
        let values: Vec<Logic> = (0..n).map(|i| netlist.initial(SignalId(i))).collect();
        let mut sim = Simulator {
            fanout,
            values,
            history: vec![(Logic::X, 0); n],
            latest_inertial: vec![0; n],
            forced: vec![None; n],
            queue: BinaryHeap::new(),
            time_fs: 0,
            seq: 0,
            trace_enabled: false,
            changes: Vec::new(),
            edge_counters: vec![None; n],
            events_processed: 0,
            netlist,
        };
        // Arm clocks: output is forced low at t = 0, first rising edge at
        // `start_fs`.
        let clocks: Vec<(SignalId, u64)> = sim
            .netlist
            .components()
            .iter()
            .filter_map(|c| match c {
                Component::Clock {
                    output, start_fs, ..
                } => Some((*output, *start_fs)),
                _ => None,
            })
            .collect();
        for (output, start) in clocks {
            sim.values[output.index()] = Logic::Zero;
            sim.push_event(start, output, Logic::One, false);
        }
        // Initial settlement: evaluate every combinational gate and
        // (level-sensitive) latch against the declared initial levels so
        // outputs become consistent (and deliberately *inconsistent*
        // initial rings self-start).
        for ci in 0..sim.netlist.components().len() {
            if matches!(
                sim.netlist.components()[ci],
                Component::Gate { .. } | Component::Latch { .. }
            ) {
                sim.eval_component(ci, SignalId(usize::MAX));
            }
        }
        sim
    }

    /// Creates a simulator after structural validation
    /// ([`Netlist::validate`]): floating component inputs and
    /// multiply-driven nets are rejected up front with a typed error
    /// instead of misbehaving (stuck-at-`X`, interleaved drivers) deep
    /// into the run.
    ///
    /// # Errors
    ///
    /// Returns [`DsimError::FloatingInput`]
    /// or [`DsimError::DuplicateDriver`].
    pub fn try_new(netlist: Netlist) -> Result<Self, crate::error::DsimError> {
        netlist.validate()?;
        Ok(Simulator::new(netlist))
    }

    /// The underlying netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Current simulation time, femtoseconds.
    #[inline]
    pub fn time_fs(&self) -> u64 {
        self.time_fs
    }

    /// Total events processed so far (performance counter).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current level of a signal.
    #[inline]
    pub fn value(&self, signal: SignalId) -> Logic {
        self.values[signal.index()]
    }

    /// Enables change tracing (needed by [`Simulator::changes`] and the
    /// VCD dumper).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// `true` when change tracing is enabled.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace_enabled
    }

    /// The recorded changes (empty unless tracing is enabled).
    #[inline]
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }

    /// Starts counting rising edges on `signal`.
    pub fn count_edges(&mut self, signal: SignalId) {
        self.edge_counters[signal.index()].get_or_insert(0);
    }

    /// Rising edges seen on `signal` since counting started.
    ///
    /// # Errors
    ///
    /// Returns [`DsimError::EdgeCountingDisabled`] if
    /// [`Simulator::count_edges`] was never called for it.
    pub fn edge_count(&self, signal: SignalId) -> Result<u64, DsimError> {
        self.edge_counters[signal.index()].ok_or_else(|| DsimError::EdgeCountingDisabled {
            signal,
            name: self.netlist.signal_name(signal).to_string(),
        })
    }

    /// Resets the rising-edge counter of `signal` to zero.
    ///
    /// # Errors
    ///
    /// Returns [`DsimError::EdgeCountingDisabled`] if counting was never
    /// enabled for it.
    pub fn reset_edge_count(&mut self, signal: SignalId) -> Result<(), DsimError> {
        match &mut self.edge_counters[signal.index()] {
            Some(c) => {
                *c = 0;
                Ok(())
            }
            None => Err(DsimError::EdgeCountingDisabled {
                signal,
                name: self.netlist.signal_name(signal).to_string(),
            }),
        }
    }

    fn push_event(&mut self, time: u64, signal: SignalId, value: Logic, inertial: bool) {
        self.seq += 1;
        if inertial {
            self.latest_inertial[signal.index()] = self.seq;
        }
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            signal,
            value,
            inertial,
        }));
    }

    /// Schedules a testbench stimulus (transport semantics) at an
    /// absolute time.
    ///
    /// # Errors
    ///
    /// Returns [`DsimError::SchedulePast`] if `at_fs` is earlier than
    /// the current simulation time.
    pub fn schedule(
        &mut self,
        signal: SignalId,
        value: Logic,
        at_fs: u64,
    ) -> Result<(), DsimError> {
        if at_fs < self.time_fs {
            return Err(DsimError::SchedulePast {
                at_fs,
                now_fs: self.time_fs,
            });
        }
        self.push_event(at_fs, signal, value, false);
        Ok(())
    }

    /// Drives a signal at the current time (takes effect when the
    /// simulation next advances).
    pub fn poke(&mut self, signal: SignalId, value: Logic) {
        self.push_event(self.time_fs, signal, value, false);
    }

    /// Pins `signal` to `value` (Verilog `force` semantics): the level
    /// is applied when the simulation next advances and every later
    /// driver event on the signal is discarded until
    /// [`Simulator::release`]. This is the stuck-at fault-injection
    /// primitive.
    pub fn force(&mut self, signal: SignalId, value: Logic) {
        self.forced[signal.index()] = Some(value);
        self.push_event(self.time_fs, signal, value, false);
    }

    /// Removes a [`Simulator::force`] override and re-evaluates the
    /// signal's driving gates so the circuit value reasserts itself.
    pub fn release(&mut self, signal: SignalId) {
        if self.forced[signal.index()].take().is_none() {
            return;
        }
        for ci in 0..self.netlist.components().len() {
            let drives = match &self.netlist.components()[ci] {
                Component::Gate { output, .. } => *output == signal,
                Component::Dff { q, .. } | Component::Latch { q, .. } => *q == signal,
                Component::Clock { .. } => false,
            };
            if drives {
                self.eval_component(ci, SignalId(usize::MAX));
            }
        }
    }

    /// The active [`Simulator::force`] override on `signal`, if any.
    #[inline]
    pub fn forced_value(&self, signal: SignalId) -> Option<Logic> {
        self.forced[signal.index()]
    }

    /// The value a flip-flop samples on an edge at the current instant:
    /// the signal's value just *before* this femtosecond.
    fn sampled(&self, signal: SignalId) -> Logic {
        let (prev, changed_at) = self.history[signal.index()];
        if changed_at == self.time_fs {
            prev
        } else {
            self.values[signal.index()]
        }
    }

    fn eval_component(&mut self, ci: usize, edge_signal: SignalId) {
        // Cloning the component is cheap (small vectors) and avoids
        // aliasing the netlist during mutation.
        let comp = self.netlist.components()[ci].clone();
        match comp {
            Component::Gate {
                op,
                inputs,
                output,
                delay_fs,
            } => {
                let levels: Vec<Logic> = inputs.iter().map(|s| self.values[s.index()]).collect();
                let new = op.eval(&levels);
                self.push_event(self.time_fs + delay_fs, output, new, true);
            }
            Component::Dff {
                d,
                clk,
                rst_n,
                q,
                delay_fs,
            } => {
                // Async reset dominates.
                if let Some(r) = rst_n {
                    if self.values[r.index()].is_zero() {
                        self.push_event(self.time_fs + delay_fs, q, Logic::Zero, true);
                        return;
                    }
                }
                // Clock edge: previous value Zero, new value One, and the
                // triggering signal is the clock.
                if edge_signal == clk
                    && self.values[clk.index()].is_one()
                    && self.sampled(clk).is_zero()
                {
                    let sampled_d = self.sampled(d);
                    self.push_event(self.time_fs + delay_fs, q, sampled_d, true);
                }
            }
            Component::Latch {
                d,
                en,
                rst_n,
                q,
                delay_fs,
            } => {
                if let Some(r) = rst_n {
                    if self.values[r.index()].is_zero() {
                        self.push_event(self.time_fs + delay_fs, q, Logic::Zero, true);
                        return;
                    }
                }
                // Transparent while enable is high: q follows d.
                if self.values[en.index()].is_one() {
                    let dv = self.values[d.index()];
                    self.push_event(self.time_fs + delay_fs, q, dv, true);
                }
                // Enable low: opaque — q holds, no event.
            }
            Component::Clock { .. } => {}
        }
    }

    fn apply_event(&mut self, ev: Event) {
        self.events_processed += 1;
        let idx = ev.signal.index();
        // A forced signal ignores every driver that disagrees with the
        // pinned level (the force event itself carries that level).
        if let Some(pinned) = self.forced[idx] {
            if ev.value != pinned {
                return;
            }
        }
        let old = self.values[idx];
        if old == ev.value {
            return;
        }
        self.history[idx] = (old, ev.time);
        self.values[idx] = ev.value;
        if ev.value.is_one() && old.is_zero() {
            if let Some(c) = &mut self.edge_counters[idx] {
                *c += 1;
            }
        }
        if self.trace_enabled {
            self.changes.push(Change {
                time_fs: ev.time,
                signal: ev.signal,
                value: ev.value,
            });
        }
        // Clock self-perpetuation.
        for comp in self.netlist.components() {
            if let Component::Clock {
                output,
                low_fs,
                high_fs,
                ..
            } = comp
            {
                if *output == ev.signal {
                    let (next_delay, next_value) = if ev.value.is_one() {
                        (*high_fs, Logic::Zero)
                    } else {
                        (*low_fs, Logic::One)
                    };
                    let t = ev.time + next_delay;
                    let sig = *output;
                    self.seq += 1;
                    self.queue.push(Reverse(Event {
                        time: t,
                        seq: self.seq,
                        signal: sig,
                        value: next_value,
                        inertial: false,
                    }));
                }
            }
        }
        // Propagate to readers.
        let readers = self.fanout[idx].clone();
        for ci in readers {
            self.eval_component(ci, ev.signal);
        }
    }

    /// Runs until the event queue is exhausted or `t_end_fs` is reached;
    /// the simulation clock ends at exactly `t_end_fs`.
    ///
    /// # Panics
    ///
    /// Panics if `t_end_fs` is in the past.
    pub fn run_until(&mut self, t_end_fs: u64) {
        // An effectively unlimited budget cannot exhaust.
        let _ = self.run_until_budget(t_end_fs, u64::MAX);
    }

    /// Runs like [`Simulator::run_until`] but under a watchdog budget:
    /// at most `max_events` events are applied before the run aborts.
    /// Returns the number of events processed on success.
    ///
    /// This is the fault-campaign containment primitive — a faulted
    /// circuit that oscillates pathologically (or was forced into
    /// runaway feedback) terminates deterministically instead of
    /// grinding to the target time.
    ///
    /// # Errors
    ///
    /// Returns [`DsimError::EventBudgetExhausted`] when `max_events`
    /// events were applied with queue activity still pending at or
    /// before `t_end_fs`. Simulation state remains valid and inspectable
    /// at the abort time.
    ///
    /// # Panics
    ///
    /// Panics if `t_end_fs` is in the past.
    pub fn run_until_budget(&mut self, t_end_fs: u64, max_events: u64) -> Result<u64, DsimError> {
        assert!(t_end_fs >= self.time_fs, "cannot run backwards");
        let start = self.events_processed;
        while let Some(Reverse(ev)) = self.queue.peek().copied() {
            if ev.time > t_end_fs {
                break;
            }
            if self.events_processed - start >= max_events {
                return Err(DsimError::EventBudgetExhausted {
                    budget: max_events,
                    at_fs: self.time_fs,
                });
            }
            self.queue.pop();
            // Lazy inertial cancellation: only the newest scheduled value
            // for a signal survives.
            if ev.inertial && self.latest_inertial[ev.signal.index()] != ev.seq {
                continue;
            }
            self.time_fs = ev.time;
            self.apply_event(ev);
        }
        self.time_fs = t_end_fs;
        Ok(self.events_processed - start)
    }

    /// Runs for a further `delta_fs` femtoseconds.
    pub fn run_for(&mut self, delta_fs: u64) {
        self.run_until(self.time_fs + delta_fs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateOp;

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let b = nl.signal("b");
        let c = nl.signal("c");
        nl.gate(GateOp::Inv, &[a], b, 100);
        nl.gate(GateOp::Inv, &[b], c, 100);
        let mut sim = Simulator::new(nl);
        // Initial settlement: b = Inv(0) = 1 after 100 fs, c after 200 fs.
        sim.run_for(1_000);
        assert_eq!(sim.value(b), Logic::One);
        assert_eq!(sim.value(c), Logic::Zero);
        sim.poke(a, Logic::One);
        sim.run_for(50);
        assert_eq!(sim.value(b), Logic::One, "not yet propagated");
        sim.run_for(100);
        assert_eq!(sim.value(b), Logic::Zero, "inverted after 100 fs");
        sim.run_for(100);
        assert_eq!(sim.value(c), Logic::One, "double-inverted after 200 fs");
    }

    #[test]
    fn inertial_delay_swallows_glitches() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let y = nl.signal_with_init("y", Logic::One);
        nl.gate(GateOp::Inv, &[a], y, 1_000);
        let mut sim = Simulator::new(nl);
        sim.enable_trace();
        // 200 fs pulse, much narrower than the 1000 fs gate delay.
        sim.schedule(a, Logic::One, 10_000).unwrap();
        sim.schedule(a, Logic::Zero, 10_200).unwrap();
        sim.run_until(20_000);
        assert_eq!(sim.value(y), Logic::One, "glitch swallowed");
        let y_changes: Vec<_> = sim.changes().iter().filter(|c| c.signal == y).collect();
        assert!(
            y_changes.is_empty(),
            "no output activity at all: {y_changes:?}"
        );
    }

    #[test]
    fn transport_stimuli_are_not_cancelled() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let mut sim = Simulator::new(nl);
        sim.enable_trace();
        sim.schedule(a, Logic::One, 100).unwrap();
        sim.schedule(a, Logic::Zero, 200).unwrap();
        sim.schedule(a, Logic::One, 300).unwrap();
        sim.run_until(1_000);
        let toggles = sim.changes().iter().filter(|c| c.signal == a).count();
        assert_eq!(toggles, 3, "every scheduled stimulus fires");
    }

    #[test]
    fn clock_generates_a_square_wave() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 10_000, 5_000);
        let mut sim = Simulator::new(nl);
        sim.count_edges(clk);
        sim.run_until(105_000);
        // Rising edges at 5, 15, 25, …, 105 ps → 11 edges.
        assert_eq!(sim.edge_count(clk).unwrap(), 11);
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let mut nl = Netlist::new();
        let d = nl.signal_with_init("d", Logic::Zero);
        let clk = nl.signal("clk");
        let q = nl.signal("q");
        nl.symmetric_clock(clk, 10_000, 5_000);
        nl.dff(d, clk, None, q, 100);
        let mut sim = Simulator::new(nl);
        sim.run_until(4_000);
        assert_eq!(sim.value(q), Logic::X, "no edge yet");
        sim.poke(d, Logic::One);
        sim.run_until(5_200); // edge at 5 ps + 100 fs clk→q
        assert_eq!(sim.value(q), Logic::One, "sampled the new d");
        sim.poke(d, Logic::Zero);
        sim.run_until(9_000);
        assert_eq!(sim.value(q), Logic::One, "holds between edges");
        sim.run_until(15_200);
        assert_eq!(sim.value(q), Logic::Zero, "next edge samples the low d");
    }

    #[test]
    fn dff_pre_edge_sampling_avoids_race() {
        // d toggles in the same femtosecond as the clock edge: the DFF
        // must capture the OLD d.
        let mut nl = Netlist::new();
        let d = nl.signal_with_init("d", Logic::Zero);
        let clk = nl.signal_with_init("clk", Logic::Zero);
        let q = nl.signal("q");
        nl.dff(d, clk, None, q, 100);
        let mut sim = Simulator::new(nl);
        sim.schedule(d, Logic::One, 1_000).unwrap();
        sim.schedule(clk, Logic::One, 1_000).unwrap();
        sim.run_until(2_000);
        assert_eq!(sim.value(q), Logic::Zero, "old d sampled");
        // Next edge sees the settled d = 1.
        sim.schedule(clk, Logic::Zero, 3_000).unwrap();
        sim.schedule(clk, Logic::One, 4_000).unwrap();
        sim.run_until(5_000);
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn async_reset_dominates() {
        let mut nl = Netlist::new();
        let d = nl.signal_with_init("d", Logic::One);
        let clk = nl.signal("clk");
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let q = nl.signal("q");
        nl.symmetric_clock(clk, 10_000, 5_000);
        nl.dff(d, clk, Some(rst_n), q, 100);
        let mut sim = Simulator::new(nl);
        sim.run_until(6_000);
        assert_eq!(sim.value(q), Logic::One);
        sim.poke(rst_n, Logic::Zero);
        sim.run_for(200);
        assert_eq!(sim.value(q), Logic::Zero, "reset clears immediately");
        // Clock edges while in reset do not set q.
        sim.run_until(26_000);
        assert_eq!(sim.value(q), Logic::Zero);
        sim.poke(rst_n, Logic::One);
        sim.run_until(36_000);
        assert_eq!(sim.value(q), Logic::One, "resumes after release");
    }

    #[test]
    fn ring_of_inverters_oscillates() {
        // A gate-level 3-stage ring: the digital twin of the paper's
        // sensing element.
        let mut nl = Netlist::new();
        let n0 = nl.signal_with_init("n0", Logic::Zero);
        let n1 = nl.signal_with_init("n1", Logic::One);
        let n2 = nl.signal_with_init("n2", Logic::Zero);
        nl.gate(GateOp::Inv, &[n0], n1, 1_000);
        nl.gate(GateOp::Inv, &[n1], n2, 1_000);
        nl.gate(GateOp::Inv, &[n2], n0, 1_000);
        let mut sim = Simulator::new(nl);
        sim.count_edges(n0);
        // The declared initial levels are deliberately inconsistent (a
        // 3-ring has no stable assignment), so it self-starts at t = 0.
        sim.run_until(1_000_000);
        // Period = 2·N·delay = 6 ps ⇒ ~166 edges in 1 ns.
        let edges = sim.edge_count(n0).unwrap();
        assert!(edges > 150 && edges < 180, "edges {edges}");
    }

    #[test]
    fn latch_is_transparent_high_and_holds_low() {
        let mut nl = Netlist::new();
        let d = nl.signal_with_init("d", Logic::Zero);
        let en = nl.signal_with_init("en", Logic::One);
        let q = nl.signal("q");
        nl.latch(d, en, None, q, 100);
        let mut sim = Simulator::new(nl);
        sim.poke(d, Logic::One);
        sim.run_for(500);
        assert_eq!(sim.value(q), Logic::One, "transparent: q follows d");
        sim.poke(en, Logic::Zero);
        sim.run_for(500);
        sim.poke(d, Logic::Zero);
        sim.run_for(500);
        assert_eq!(sim.value(q), Logic::One, "opaque: q holds the latched 1");
        sim.poke(en, Logic::One);
        sim.run_for(500);
        assert_eq!(sim.value(q), Logic::Zero, "re-opened: q follows the new d");
    }

    #[test]
    fn latch_async_reset_dominates() {
        let mut nl = Netlist::new();
        let d = nl.signal_with_init("d", Logic::One);
        let en = nl.signal_with_init("en", Logic::One);
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let q = nl.signal("q");
        nl.latch(d, en, Some(rst_n), q, 100);
        let mut sim = Simulator::new(nl);
        sim.poke(d, Logic::One);
        sim.run_for(500);
        assert_eq!(sim.value(q), Logic::One);
        sim.poke(rst_n, Logic::Zero);
        sim.run_for(500);
        assert_eq!(
            sim.value(q),
            Logic::Zero,
            "reset clears through transparency"
        );
    }

    #[test]
    fn determinism() {
        let build = || {
            let mut nl = Netlist::new();
            let a = nl.signal_with_init("a", Logic::Zero);
            let b = nl.signal("b");
            let y = nl.signal("y");
            nl.symmetric_clock(a, 7_000, 0);
            nl.gate(GateOp::Inv, &[a], b, 300);
            nl.gate(GateOp::Xor, &[a, b], y, 500);
            let mut sim = Simulator::new(nl);
            sim.enable_trace();
            sim.run_until(200_000);
            sim.changes().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn past_scheduling_rejected() {
        let mut nl = Netlist::new();
        let a = nl.signal("a");
        let mut sim = Simulator::new(nl.clone());
        sim.run_until(1_000);
        let err = sim.schedule(a, Logic::One, 500).unwrap_err();
        assert_eq!(
            err,
            DsimError::SchedulePast {
                at_fs: 500,
                now_fs: 1_000
            }
        );
        assert!(err.to_string().contains("cannot schedule in the past"));
        // Scheduling at exactly the current time is still allowed.
        sim.schedule(a, Logic::One, 1_000).unwrap();
    }

    #[test]
    fn force_pins_a_ring_node_and_release_restarts_it() {
        let mut nl = Netlist::new();
        let n0 = nl.signal_with_init("n0", Logic::Zero);
        let n1 = nl.signal_with_init("n1", Logic::One);
        let n2 = nl.signal_with_init("n2", Logic::Zero);
        nl.gate(GateOp::Inv, &[n0], n1, 1_000);
        nl.gate(GateOp::Inv, &[n1], n2, 1_000);
        nl.gate(GateOp::Inv, &[n2], n0, 1_000);
        let mut sim = Simulator::new(nl);
        sim.count_edges(n0);
        sim.run_until(100_000);
        let free_edges = sim.edge_count(n0).unwrap();
        assert!(free_edges > 10, "healthy ring oscillates: {free_edges}");
        // Stuck-at-0 on n0 kills the oscillation.
        sim.force(n0, Logic::Zero);
        assert_eq!(sim.forced_value(n0), Some(Logic::Zero));
        sim.run_until(150_000);
        sim.reset_edge_count(n0).unwrap();
        sim.run_until(250_000);
        assert_eq!(sim.edge_count(n0).unwrap(), 0, "forced node cannot toggle");
        assert_eq!(sim.value(n0), Logic::Zero);
        // Release: the driving inverter re-evaluates and the ring restarts.
        sim.release(n0);
        assert_eq!(sim.forced_value(n0), None);
        sim.run_until(350_000);
        assert!(
            sim.edge_count(n0).unwrap() > 10,
            "ring restarts after release"
        );
    }
    #[test]
    fn event_budget_caps_a_runaway_ring() {
        let mut nl = Netlist::new();
        let n0 = nl.signal_with_init("n0", Logic::Zero);
        let n1 = nl.signal_with_init("n1", Logic::One);
        let n2 = nl.signal_with_init("n2", Logic::Zero);
        nl.gate(GateOp::Inv, &[n0], n1, 1_000);
        nl.gate(GateOp::Inv, &[n1], n2, 1_000);
        nl.gate(GateOp::Inv, &[n2], n0, 1_000);
        let mut sim = Simulator::new(nl);
        let err = sim.run_until_budget(1_000_000_000, 500).unwrap_err();
        match err {
            DsimError::EventBudgetExhausted { budget, at_fs } => {
                assert_eq!(budget, 500);
                assert!(at_fs < 1_000_000_000, "aborted early at {at_fs} fs");
            }
            other => panic!("expected EventBudgetExhausted, got {other:?}"),
        }
        // A generous budget reaches the target time and reports the count.
        let mut nl2 = Netlist::new();
        let a = nl2.signal_with_init("a", Logic::Zero);
        let b = nl2.signal("b");
        nl2.gate(GateOp::Inv, &[a], b, 100);
        let mut quiet = Simulator::new(nl2);
        let n = quiet.run_until_budget(10_000, 1_000).unwrap();
        assert!(n <= 2, "settlement only: {n}");
    }
}

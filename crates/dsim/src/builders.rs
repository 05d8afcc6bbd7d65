//! Structural builders for common sequential blocks.
//!
//! These emit real gate/flip-flop netlists (no behavioural shortcuts), so
//! the smart unit's digitizer can be simulated at gate level and compared
//! against its behavioural model.

use crate::logic::Logic;
use crate::netlist::{GateOp, Netlist, SignalId};
use std::fmt;

/// Default gate delay used by the builders, femtoseconds (≈ one 0.35 µm
/// gate delay).
pub const GATE_DELAY_FS: u64 = 100_000;

/// Default flip-flop clock-to-Q delay, femtoseconds.
pub const DFF_DELAY_FS: u64 = 150_000;

/// The shortest clock period a divider or counter stage built from
/// the default delays can follow, femtoseconds: its toggle loop (a
/// flip-flop's clock-to-Q, then the feedback gate) must settle within
/// each half period, so `2·(t_DFF + t_gate)`.
pub const MIN_TOGGLE_PERIOD_FS: u64 = 2 * (DFF_DELAY_FS + GATE_DELAY_FS);

/// A structural error detected while building a block.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The requested ring has an even number of inverting stages; such a
    /// loop has two stable states and can never oscillate (`sta::loops`
    /// classifies a hand-wired one as `Latching`).
    EvenInversionRing {
        /// Total stage count requested.
        stages: usize,
        /// How many of those stages invert.
        inversions: usize,
    },
    /// The requested ring has fewer than three stages; a one- or
    /// two-stage loop is dominated by parasitics and is rejected, like
    /// [`tsense-core`'s `RingOscillator`](https://example.com/tsense).
    RingTooShort {
        /// Total stage count requested.
        stages: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EvenInversionRing { stages, inversions } => write!(
                f,
                "ring of {stages} stage(s) has {inversions} inversion(s): an \
                 even-inversion loop latches instead of oscillating"
            ),
            BuildError::RingTooShort { stages } => {
                write!(f, "ring needs at least 3 stages, got {stages}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The signals of a built ring oscillator.
#[derive(Debug, Clone)]
pub struct RingPorts {
    /// The ring output (the last stage's output, which feeds stage 0).
    pub out: SignalId,
    /// Every stage output in ring order; `stages.last() == Some(&out)`.
    pub stages: Vec<SignalId>,
}

/// A free-running ring oscillator with one gate per entry in
/// `stage_ops`, each delayed by `delay_fs`.
///
/// Multi-input ops get their side input tied off so the op reduces to a
/// buffer or inverter along the loop: NAND/AND tie high, NOR/OR/XOR/XNOR
/// tie low — mirroring how the paper's NAND3/NOR2 ring cells are wired
/// (Fig. 3). The ring period is `2 × stages × delay_fs` once settled.
///
/// # Errors
///
/// * [`BuildError::RingTooShort`] for fewer than three stages;
/// * [`BuildError::EvenInversionRing`] when the inverting-stage count is
///   even (including zero) — such a loop cannot oscillate. This is the
///   structural defect `sta` reports as `StaError::NonOscillating`.
pub fn ring_oscillator(
    nl: &mut Netlist,
    stage_ops: &[GateOp],
    prefix: &str,
    delay_fs: u64,
) -> Result<RingPorts, BuildError> {
    let stages: Vec<(GateOp, u64)> = stage_ops.iter().map(|&op| (op, delay_fs)).collect();
    ring_oscillator_with_delays(nl, &stages, prefix)
}

/// Like [`ring_oscillator`] but with an individual inertial delay per
/// stage — the form static timing analysis needs when every stage is a
/// different cell with its own temperature-dependent delay.
///
/// # Errors
///
/// Same conditions as [`ring_oscillator`].
pub fn ring_oscillator_with_delays(
    nl: &mut Netlist,
    stage_delays: &[(GateOp, u64)],
    prefix: &str,
) -> Result<RingPorts, BuildError> {
    let stage_ops: Vec<GateOp> = stage_delays.iter().map(|&(op, _)| op).collect();
    let stage_ops = stage_ops.as_slice();
    if stage_ops.len() < 3 {
        return Err(BuildError::RingTooShort {
            stages: stage_ops.len(),
        });
    }
    let inversions = stage_ops.iter().filter(|op| op.is_inverting()).count();
    if inversions % 2 == 0 {
        return Err(BuildError::EvenInversionRing {
            stages: stage_ops.len(),
            inversions,
        });
    }

    // Every stage starts at a definite value propagated forward from
    // stage 0 = 0. With odd inversion parity the wrap-around is then
    // inconsistent by construction, which launches the oscillation wave;
    // leaving stages at X instead would let X chase the definite wave
    // around the loop forever (four-value X pessimism).
    let tie_for = |op: GateOp| match op {
        GateOp::And | GateOp::Nand => Logic::One,
        _ => Logic::Zero,
    };
    let mut init = vec![Logic::Zero; stage_ops.len()];
    for i in 1..stage_ops.len() {
        let op = stage_ops[i];
        init[i] = match op {
            GateOp::Buf | GateOp::Inv => op.eval(&[init[i - 1]]),
            _ => op.eval(&[init[i - 1], tie_for(op)]),
        };
    }
    let stages: Vec<SignalId> = init
        .iter()
        .enumerate()
        .map(|(i, &v)| nl.signal_with_init(format!("{prefix}.s{i}"), v))
        .collect();

    // Tie-off rails, created lazily only if some stage needs them.
    let mut tie_high = None;
    let mut tie_low = None;

    for (i, &(op, delay_fs)) in stage_delays.iter().enumerate() {
        let input = stages[(i + stage_ops.len() - 1) % stage_ops.len()];
        let output = stages[i];
        match op {
            GateOp::Buf | GateOp::Inv => {
                nl.gate(op, &[input], output, delay_fs);
            }
            GateOp::And | GateOp::Nand => {
                let high = *tie_high.get_or_insert_with(|| {
                    nl.signal_with_init(format!("{prefix}.vdd"), Logic::One)
                });
                nl.gate(op, &[input, high], output, delay_fs);
            }
            GateOp::Or | GateOp::Nor | GateOp::Xor | GateOp::Xnor => {
                let low = *tie_low.get_or_insert_with(|| {
                    nl.signal_with_init(format!("{prefix}.gnd"), Logic::Zero)
                });
                nl.gate(op, &[input, low], output, delay_fs);
            }
        }
    }

    Ok(RingPorts {
        out: *stages.last().expect("ring has stages"),
        stages,
    })
}

/// An asynchronous (ripple) up-counter: bit `i` toggles on the falling
/// edge of bit `i−1`; bit 0 toggles on the rising edge of `clk`.
///
/// Returns the counter bits, LSB first. `rst_n` (active low) clears all
/// bits. Gate and flip-flop delays are the builder defaults.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_counter(
    nl: &mut Netlist,
    clk: SignalId,
    rst_n: SignalId,
    bits: usize,
    prefix: &str,
) -> Vec<SignalId> {
    assert!(bits > 0, "counter needs at least one bit");
    let mut qs = Vec::with_capacity(bits);
    let mut stage_clk = clk;
    for i in 0..bits {
        let q = nl.signal_with_init(format!("{prefix}.q{i}"), Logic::Zero);
        let qb = nl.signal_with_init(format!("{prefix}.qb{i}"), Logic::One);
        // T-flip-flop: D = Q̄.
        nl.dff(qb, stage_clk, Some(rst_n), q, DFF_DELAY_FS);
        nl.gate(GateOp::Inv, &[q], qb, GATE_DELAY_FS);
        qs.push(q);
        // Next stage increments when this bit wraps 1 → 0, i.e. on the
        // rising edge of Q̄.
        stage_clk = qb;
    }
    qs
}

/// A synchronous up-counter with enable: all bits are clocked by `clk`;
/// bit `i` toggles when every lower bit is 1 and `enable` is high.
///
/// Returns the counter bits, LSB first.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn sync_counter(
    nl: &mut Netlist,
    clk: SignalId,
    rst_n: SignalId,
    enable: SignalId,
    bits: usize,
    prefix: &str,
) -> Vec<SignalId> {
    assert!(bits > 0, "counter needs at least one bit");
    let mut qs = Vec::with_capacity(bits);
    let mut carry = enable;
    for i in 0..bits {
        let q = nl.signal_with_init(format!("{prefix}.q{i}"), Logic::Zero);
        let d = nl.signal(format!("{prefix}.d{i}"));
        // D = Q XOR carry.
        nl.gate(GateOp::Xor, &[q, carry], d, GATE_DELAY_FS);
        nl.dff(d, clk, Some(rst_n), q, DFF_DELAY_FS);
        // carry' = carry AND Q.
        if i + 1 < bits {
            let c = nl.signal(format!("{prefix}.c{i}"));
            nl.gate(GateOp::And, &[carry, q], c, GATE_DELAY_FS);
            carry = c;
        }
        qs.push(q);
    }
    qs
}

/// A parallel register: `q[i]` samples `d[i]` on each rising `clk` edge.
///
/// Returns the register outputs in input order.
pub fn register(
    nl: &mut Netlist,
    d_bits: &[SignalId],
    clk: SignalId,
    rst_n: Option<SignalId>,
    prefix: &str,
) -> Vec<SignalId> {
    d_bits
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let q = nl.signal_with_init(format!("{prefix}.q{i}"), Logic::Zero);
            nl.dff(d, clk, rst_n, q, DFF_DELAY_FS);
            q
        })
        .collect()
}

/// A rising-edge detector: output pulses high for one gate delay chain
/// when `input` rises (input AND NOT delayed-input).
pub fn edge_detector(nl: &mut Netlist, input: SignalId, prefix: &str) -> SignalId {
    let delayed = nl.signal(format!("{prefix}.dly"));
    let delayed_n = nl.signal(format!("{prefix}.dlyn"));
    let pulse = nl.signal(format!("{prefix}.pulse"));
    nl.gate(GateOp::Buf, &[input], delayed, 3 * GATE_DELAY_FS);
    nl.gate(GateOp::Inv, &[delayed], delayed_n, GATE_DELAY_FS);
    nl.gate(GateOp::And, &[input, delayed_n], pulse, GATE_DELAY_FS);
    pulse
}

/// A 2-to-1 multiplexer built from NAND gates: `sel = 0` routes `a`,
/// `sel = 1` routes `b`.
pub fn mux2(nl: &mut Netlist, a: SignalId, b: SignalId, sel: SignalId, prefix: &str) -> SignalId {
    let sel_n = nl.signal(format!("{prefix}.seln"));
    let t0 = nl.signal(format!("{prefix}.t0"));
    let t1 = nl.signal(format!("{prefix}.t1"));
    let y = nl.signal(format!("{prefix}.y"));
    nl.gate(GateOp::Inv, &[sel], sel_n, GATE_DELAY_FS);
    nl.gate(GateOp::Nand, &[a, sel_n], t0, GATE_DELAY_FS);
    nl.gate(GateOp::Nand, &[b, sel], t1, GATE_DELAY_FS);
    nl.gate(GateOp::Nand, &[t0, t1], y, GATE_DELAY_FS);
    y
}

/// An N-to-1 one-hot multiplexer tree built from [`mux2`] stages; `sels`
/// are binary select lines, LSB first.
///
/// # Panics
///
/// Panics unless `inputs.len() == 2^sels.len()` and inputs are non-empty.
pub fn mux_tree(
    nl: &mut Netlist,
    inputs: &[SignalId],
    sels: &[SignalId],
    prefix: &str,
) -> SignalId {
    assert!(!inputs.is_empty(), "mux needs inputs");
    assert_eq!(inputs.len(), 1 << sels.len(), "need 2^sels inputs");
    if sels.is_empty() {
        return inputs[0];
    }
    let mut layer: Vec<SignalId> = inputs.to_vec();
    for (level, &sel) in sels.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for (pair, chunk) in layer.chunks(2).enumerate() {
            next.push(mux2(
                nl,
                chunk[0],
                chunk[1],
                sel,
                &format!("{prefix}.l{level}p{pair}"),
            ));
        }
        layer = next;
    }
    layer[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::bits_to_u64;
    use crate::sim::Simulator;

    const CLK_PERIOD: u64 = 2_000_000; // 2 ns in fs

    fn read(sim: &Simulator, bits: &[SignalId]) -> u64 {
        bits_to_u64(&bits.iter().map(|&b| sim.value(b)).collect::<Vec<_>>())
            .expect("counter bits must be definite")
    }

    fn counter_fixture(
        build: impl Fn(&mut Netlist, SignalId, SignalId) -> Vec<SignalId>,
    ) -> (Simulator, Vec<SignalId>) {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        nl.symmetric_clock(clk, CLK_PERIOD, CLK_PERIOD / 2);
        let qs = build(&mut nl, clk, rst_n);
        (Simulator::new(nl), qs)
    }

    #[test]
    fn ripple_counter_counts_clock_edges() {
        let (mut sim, qs) = counter_fixture(|nl, clk, rst| ripple_counter(nl, clk, rst, 6, "cnt"));
        // 10 rising edges.
        sim.run_until(CLK_PERIOD * 10 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 10);
        sim.run_until(CLK_PERIOD * 37 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 37);
    }

    #[test]
    fn ripple_counter_wraps() {
        let (mut sim, qs) = counter_fixture(|nl, clk, rst| ripple_counter(nl, clk, rst, 3, "cnt"));
        sim.run_until(CLK_PERIOD * 9 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 1, "9 mod 8");
    }

    #[test]
    fn sync_counter_matches_ripple() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let en = nl.signal_with_init("en", Logic::One);
        nl.symmetric_clock(clk, CLK_PERIOD, CLK_PERIOD / 2);
        let qs = sync_counter(&mut nl, clk, rst_n, en, 6, "cnt");
        let mut sim = Simulator::new(nl);
        sim.run_until(CLK_PERIOD * 23 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 23);
    }

    #[test]
    fn sync_counter_enable_gates_counting() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        let rst_n = nl.signal_with_init("rst_n", Logic::One);
        let en = nl.signal_with_init("en", Logic::One);
        nl.symmetric_clock(clk, CLK_PERIOD, CLK_PERIOD / 2);
        let qs = sync_counter(&mut nl, clk, rst_n, en, 4, "cnt");
        let mut sim = Simulator::new(nl);
        sim.run_until(CLK_PERIOD * 5 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 5);
        sim.poke(en, Logic::Zero);
        sim.run_until(CLK_PERIOD * 12);
        assert_eq!(read(&sim, &qs), 5, "frozen while disabled");
        sim.poke(en, Logic::One);
        sim.run_until(CLK_PERIOD * 15 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 8, "resumes counting");
    }

    #[test]
    fn counter_reset_clears() -> Result<(), crate::error::DsimError> {
        let (mut sim, qs) = counter_fixture(|nl, clk, rst| ripple_counter(nl, clk, rst, 4, "cnt"));
        let rst_n = sim.netlist().require_signal("rst_n")?;
        sim.run_until(CLK_PERIOD * 6 + CLK_PERIOD / 4);
        assert_eq!(read(&sim, &qs), 6);
        sim.poke(rst_n, Logic::Zero);
        sim.run_for(CLK_PERIOD);
        assert_eq!(read(&sim, &qs), 0);
        Ok(())
    }

    #[test]
    fn register_captures_bus() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, CLK_PERIOD, CLK_PERIOD / 2);
        let d: Vec<SignalId> = (0..4)
            .map(|i| nl.signal_with_init(format!("d{i}"), Logic::Zero))
            .collect();
        let q = register(&mut nl, &d, clk, None, "reg");
        let mut sim = Simulator::new(nl);
        for (i, &bit) in crate::logic::u64_to_bits(0b1010, 4).iter().enumerate() {
            sim.poke(d[i], bit);
        }
        sim.run_until(CLK_PERIOD * 2);
        assert_eq!(read(&sim, &q), 0b1010);
    }

    #[test]
    fn edge_detector_pulses_once_per_edge() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let pulse = edge_detector(&mut nl, a, "ed");
        let mut sim = Simulator::new(nl);
        sim.count_edges(pulse);
        sim.run_for(GATE_DELAY_FS * 10);
        sim.poke(a, Logic::One);
        sim.run_for(GATE_DELAY_FS * 10);
        sim.poke(a, Logic::Zero);
        sim.run_for(GATE_DELAY_FS * 10);
        sim.poke(a, Logic::One);
        sim.run_for(GATE_DELAY_FS * 10);
        assert_eq!(
            sim.edge_count(pulse).unwrap(),
            2,
            "one pulse per rising edge"
        );
    }

    #[test]
    fn mux_tree_selects() {
        let mut nl = Netlist::new();
        let inputs: Vec<SignalId> = (0..4)
            .map(|i| nl.signal_with_init(format!("in{i}"), Logic::from_bool(i == 2)))
            .collect();
        let s0 = nl.signal_with_init("s0", Logic::Zero);
        let s1 = nl.signal_with_init("s1", Logic::Zero);
        let y = mux_tree(&mut nl, &inputs, &[s0, s1], "mux");
        let mut sim = Simulator::new(nl);
        sim.run_for(GATE_DELAY_FS * 20);
        assert_eq!(sim.value(y), Logic::Zero, "input 0 selected");
        sim.poke(s1, Logic::One); // select index 2 (binary 10)
        sim.run_for(GATE_DELAY_FS * 20);
        assert_eq!(sim.value(y), Logic::One, "input 2 selected");
        sim.poke(s0, Logic::One); // index 3
        sim.run_for(GATE_DELAY_FS * 20);
        assert_eq!(sim.value(y), Logic::Zero, "input 3 selected");
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bit_counter_rejected() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        let rst = nl.signal("rst_n");
        let _ = ripple_counter(&mut nl, clk, rst, 0, "cnt");
    }

    #[test]
    fn odd_inverter_ring_oscillates() {
        let mut nl = Netlist::new();
        let ports = ring_oscillator(&mut nl, &[GateOp::Inv; 5], "ring", GATE_DELAY_FS)
            .expect("odd ring is valid");
        let mut sim = Simulator::new(nl);
        sim.count_edges(ports.out);
        // Period = 2 * 5 * delay; run 20 periods and expect ~20 edges.
        sim.run_for(2 * 5 * GATE_DELAY_FS * 20);
        let edges = sim.edge_count(ports.out).unwrap();
        assert!(
            (18..=22).contains(&edges),
            "expected ~20 rising edges, got {edges}"
        );
    }

    #[test]
    fn mixed_cell_ring_oscillates() {
        // Paper Fig. 3 flavour: 3×INV + 2×NAND (side inputs tied high).
        let mut nl = Netlist::new();
        let ops = [
            GateOp::Inv,
            GateOp::Nand,
            GateOp::Inv,
            GateOp::Nand,
            GateOp::Inv,
        ];
        let ports =
            ring_oscillator(&mut nl, &ops, "ring", GATE_DELAY_FS).expect("5 inversions is odd");
        let mut sim = Simulator::new(nl);
        sim.count_edges(ports.out);
        sim.run_for(2 * 5 * GATE_DELAY_FS * 10);
        assert!(
            sim.edge_count(ports.out).unwrap() >= 8,
            "mixed ring must oscillate"
        );
    }

    #[test]
    fn even_inversion_ring_rejected() {
        let mut nl = Netlist::new();
        let err = ring_oscillator(&mut nl, &[GateOp::Inv; 4], "ring", GATE_DELAY_FS)
            .expect_err("even ring must be rejected");
        assert_eq!(
            err,
            BuildError::EvenInversionRing {
                stages: 4,
                inversions: 4
            }
        );
        // A buffer among inverters flipping parity to even is also caught.
        let ops = [
            GateOp::Inv,
            GateOp::Buf,
            GateOp::Inv,
            GateOp::Nand,
            GateOp::Nor,
        ];
        let err = ring_oscillator(&mut nl, &ops, "ring2", GATE_DELAY_FS)
            .expect_err("4 inversions in 5 stages is even");
        assert_eq!(
            err,
            BuildError::EvenInversionRing {
                stages: 5,
                inversions: 4
            }
        );
    }

    #[test]
    fn short_ring_rejected() {
        let mut nl = Netlist::new();
        let err = ring_oscillator(&mut nl, &[GateOp::Inv; 2], "ring", GATE_DELAY_FS)
            .expect_err("2-stage ring must be rejected");
        assert_eq!(err, BuildError::RingTooShort { stages: 2 });
        assert!(err.to_string().contains("at least 3"));
    }
}

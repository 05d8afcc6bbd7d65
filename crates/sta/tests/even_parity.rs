//! Satellite coverage: STA loop diagnostics on even-parity
//! (non-oscillating) rings must produce a typed diagnostic, never a
//! bogus period — consistent with `dsim`'s `ring_oscillator`, which
//! refuses an even ring as `EvenInversionRing`, and netcheck's `NC0401`.

use dsim::netlist::{GateOp, Netlist};
use sta::{analyze, netlist_delays, LoopKind, StaError};

/// Hand-wires an n-inverter loop (the builder refuses even parity on
/// purpose, so tests construct it directly).
fn inverter_loop(n: usize) -> Netlist {
    let mut nl = Netlist::new();
    let s: Vec<_> = (0..n).map(|i| nl.signal(format!("s{i}"))).collect();
    for i in 0..n {
        nl.gate(GateOp::Inv, &[s[i]], s[(i + 1) % n], 5_000);
    }
    nl
}

#[test]
fn even_parity_ring_yields_non_oscillating_not_a_period() {
    for n in [2usize, 4, 6, 8] {
        let nl = inverter_loop(n);
        let analysis = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(analysis.loops.len(), 1, "{n} stages");
        assert_eq!(analysis.loops[0].kind, LoopKind::Latching, "{n} stages");
        assert!(analysis.ring_periods_fs().is_empty(), "{n} stages");
        match analysis.ring_period_fs() {
            Err(StaError::NonOscillating { stages, inversions }) => {
                assert_eq!(stages, n);
                assert_eq!(inversions, n);
                assert_eq!(inversions % 2, 0);
            }
            other => panic!("{n} stages: expected NonOscillating, got {other:?}"),
        }
    }
}

#[test]
fn odd_parity_ring_yields_a_period_not_a_diagnostic() {
    for n in [3usize, 5, 9] {
        let nl = inverter_loop(n);
        let analysis = analyze(&nl, &netlist_delays(&nl));
        let period = analysis.ring_period_fs().expect("odd ring oscillates");
        // Symmetric 5 ps stages: Eq. 1 gives n × (5 + 5) ps.
        assert_eq!(period, (n as f64) * 10_000.0);
    }
}

#[test]
fn acyclic_netlist_yields_no_oscillator() {
    let mut nl = Netlist::new();
    let a = nl.signal("a");
    let b = nl.signal("b");
    nl.gate(GateOp::Inv, &[a], b, 1_000);
    let analysis = analyze(&nl, &netlist_delays(&nl));
    assert!(matches!(
        analysis.ring_period_fs(),
        Err(StaError::NoOscillator)
    ));
}

#[test]
fn tangled_loop_is_refused_honestly() {
    // Two interlocked cycles through one NAND: no closed-form period.
    let mut nl = Netlist::new();
    let a = nl.signal("a");
    let b = nl.signal("b");
    let c = nl.signal("c");
    let d = nl.signal("d");
    nl.gate(GateOp::Inv, &[d], a, 1_000);
    nl.gate(GateOp::Inv, &[a], b, 1_000);
    nl.gate(GateOp::Inv, &[a], c, 1_000);
    nl.gate(GateOp::Nand, &[b, c], d, 1_000);
    let analysis = analyze(&nl, &netlist_delays(&nl));
    assert_eq!(analysis.loops[0].kind, LoopKind::Tangled);
    assert!(matches!(
        analysis.ring_period_fs(),
        Err(StaError::TangledLoop { gates: 4 })
    ));
}

#[test]
fn diagnostics_agree_with_the_ring_builder() {
    // The same parity rule, three independent enforcement points: the
    // builder rejects construction, STA refuses a period, and the
    // error messages name the same stage/inversion counts.
    let mut nl = Netlist::new();
    let err = dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 4], "r", 1_000).unwrap_err();
    assert!(matches!(
        err,
        dsim::BuildError::EvenInversionRing {
            stages: 4,
            inversions: 4
        }
    ));
    let analysis = {
        let nl = inverter_loop(4);
        analyze(&nl, &netlist_delays(&nl))
    };
    let sta_err = analysis.ring_period_fs().unwrap_err();
    assert!(sta_err.to_string().contains("even parity"), "{sta_err}");
}

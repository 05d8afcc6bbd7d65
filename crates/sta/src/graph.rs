//! The timing graph: levelization and polarity-split arrival
//! propagation over a `dsim` netlist.
//!
//! Signals are timing nodes; every combinational gate contributes one
//! arc per input, carrying the cell's `t_PHL`/`t_PLH` delay pair.
//! Sequential elements (flip-flops, latches, clock sources) cut the
//! graph: their outputs are **startpoints** (arrival 0) and their data
//! inputs are **endpoints**. Arrival times are tracked separately per
//! output polarity and propagate through each gate according to its
//! unateness:
//!
//! * negative-unate (INV/NAND/NOR): a rising output is launched by a
//!   *falling* input, so `rise(out) = max(fall(in)) + t_PLH` and
//!   `fall(out) = max(rise(in)) + t_PHL`;
//! * positive-unate (BUF/AND/OR): polarities pass straight through;
//! * non-unate (XOR/XNOR): either input edge can cause either output
//!   edge, so both input polarities feed both output polarities.
//!
//! Gates on a combinational cycle are excluded from the acyclic
//! propagation and handed to [`crate::loops`], which classifies each
//! strongly connected component and — for simple odd-parity rings —
//! extracts the oscillation period `Σ (t_PHL + t_PLH)` analytically.

use dsim::netlist::{Component, GateOp, Netlist, SignalId};
use tsense_core::gate::GateKind;

use crate::error::{Result, StaError};
use crate::levelize::strongly_connected;
use crate::loops::{classify_sccs, LoopAnalysis, LoopKind};
use crate::model::{AnalyticalModel, DelayFs};

/// Edge polarity of a timing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// A rising output edge (timed by `t_PLH`).
    Rise,
    /// A falling output edge (timed by `t_PHL`).
    Fall,
}

impl Polarity {
    fn index(self) -> usize {
        match self {
            Polarity::Rise => 0,
            Polarity::Fall => 1,
        }
    }

    /// Short display form: `rise` / `fall`.
    pub fn name(self) -> &'static str {
        match self {
            Polarity::Rise => "rise",
            Polarity::Fall => "fall",
        }
    }
}

/// Polarity-split arrival time of one signal, femtoseconds from the
/// startpoints. `None` means no propagating path of that polarity
/// reaches the signal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Arrival {
    /// Latest rising-edge arrival.
    pub rise_fs: Option<f64>,
    /// Latest falling-edge arrival.
    pub fall_fs: Option<f64>,
}

impl Arrival {
    /// The worst (latest) arrival over both polarities.
    pub fn worst(&self) -> Option<(f64, Polarity)> {
        match (self.rise_fs, self.fall_fs) {
            (Some(r), Some(f)) if f > r => Some((f, Polarity::Fall)),
            (Some(r), _) => Some((r, Polarity::Rise)),
            (None, Some(f)) => Some((f, Polarity::Fall)),
            (None, None) => None,
        }
    }
}

/// What makes a signal a timing endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// Data input of a flip-flop.
    DffData,
    /// Asynchronous reset of a flip-flop.
    DffReset,
    /// Data input of a latch.
    LatchData,
    /// Enable input of a latch.
    LatchEnable,
    /// A gate-driven signal nothing consumes (primary output).
    Output,
}

impl EndpointKind {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            EndpointKind::DffData => "dff data",
            EndpointKind::DffReset => "dff reset",
            EndpointKind::LatchData => "latch data",
            EndpointKind::LatchEnable => "latch enable",
            EndpointKind::Output => "output",
        }
    }
}

/// A timing endpoint.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    /// The endpoint signal.
    pub signal: SignalId,
    /// Why it is an endpoint.
    pub kind: EndpointKind,
}

/// One event on a traced critical path, startpoint first.
#[derive(Debug, Clone, Copy)]
pub struct PathPoint {
    /// The signal switching.
    pub signal: SignalId,
    /// The edge direction at this signal.
    pub polarity: Polarity,
    /// Arrival of the edge, femtoseconds.
    pub at_fs: f64,
    /// Component index of the driving gate (`None` at the startpoint).
    pub comp: Option<usize>,
}

/// A traced worst path into one endpoint.
#[derive(Debug, Clone)]
pub struct TimingPath {
    /// The endpoint signal.
    pub endpoint: SignalId,
    /// The endpoint's role.
    pub kind: EndpointKind,
    /// Worst arrival at the endpoint, femtoseconds.
    pub arrival_fs: f64,
    /// Polarity of the worst arrival.
    pub polarity: Polarity,
    /// The events along the path, startpoint → endpoint.
    pub points: Vec<PathPoint>,
}

/// One gate as the graph sees it.
#[derive(Debug, Clone)]
pub(crate) struct GateNode {
    /// Component index in the source netlist.
    pub comp: usize,
    pub op: GateOp,
    pub inputs: Vec<SignalId>,
    pub output: SignalId,
    pub delay: DelayFs,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sense {
    Positive,
    Negative,
    NonUnate,
}

fn sense(op: GateOp) -> Sense {
    match op {
        GateOp::Buf | GateOp::And | GateOp::Or => Sense::Positive,
        GateOp::Inv | GateOp::Nand | GateOp::Nor => Sense::Negative,
        GateOp::Xor | GateOp::Xnor => Sense::NonUnate,
    }
}

/// The complete result of one STA run at one temperature.
#[derive(Debug, Clone)]
pub struct Analysis {
    arrivals: Vec<Arrival>,
    /// Worst path per reachable endpoint, sorted latest-first.
    pub paths: Vec<TimingPath>,
    /// Every combinational loop, classified.
    pub loops: Vec<LoopAnalysis>,
    /// Endpoints no startpoint reaches (rule `NC0502` material).
    pub unconstrained: Vec<SignalId>,
    /// Signals that begin timing paths (arrival 0).
    pub startpoints: Vec<SignalId>,
    /// Every timing endpoint.
    pub endpoints: Vec<Endpoint>,
    /// Combinational depth: gate count on the longest traced path.
    pub max_depth: usize,
}

impl Analysis {
    /// The arrival record of `signal`.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn arrival(&self, signal: SignalId) -> Arrival {
        self.arrivals[signal.index()]
    }

    /// The single worst path across all endpoints, if any is reachable.
    pub fn critical(&self) -> Option<&TimingPath> {
        self.paths.first()
    }

    /// Periods of every simple odd-parity ring found, femtoseconds.
    pub fn ring_periods_fs(&self) -> Vec<f64> {
        self.loops
            .iter()
            .filter_map(|l| match l.kind {
                LoopKind::Ring { period_fs } => Some(period_fs),
                _ => None,
            })
            .collect()
    }

    /// The predicted oscillation period of the netlist's ring,
    /// femtoseconds. With several rings the slowest (largest period —
    /// the one a frequency counter locks onto last) is returned.
    ///
    /// # Errors
    ///
    /// * [`StaError::NoOscillator`] when there is no combinational loop;
    /// * [`StaError::NonOscillating`] when every loop has even inversion
    ///   parity (it latches — reporting a period would be bogus);
    /// * [`StaError::TangledLoop`] when loops exist but none is a simple
    ///   ring.
    pub fn ring_period_fs(&self) -> Result<f64> {
        let periods = self.ring_periods_fs();
        if let Some(worst) = periods.iter().copied().reduce(f64::max) {
            return Ok(worst);
        }
        match self.loops.first() {
            None => Err(StaError::NoOscillator),
            Some(l) => match l.kind {
                LoopKind::Latching => Err(StaError::NonOscillating {
                    stages: l.stage_count(),
                    inversions: l.inversions,
                }),
                LoopKind::Tangled => Err(StaError::TangledLoop {
                    gates: l.stage_count(),
                }),
                LoopKind::Ring { .. } => unreachable!("ring periods were empty"),
            },
        }
    }
}

/// Symmetric per-component delays taken straight from the netlist's own
/// inertial `delay_fs` annotations — the model-free fallback for generic
/// netlists.
pub fn netlist_delays(nl: &Netlist) -> Vec<DelayFs> {
    nl.components()
        .iter()
        .map(|c| match c {
            Component::Gate { delay_fs, .. }
            | Component::Dff { delay_fs, .. }
            | Component::Latch { delay_fs, .. } => DelayFs::symmetric(*delay_fs),
            Component::Clock { .. } => DelayFs::default(),
        })
        .collect()
}

/// Binds netlist components to library cells so an [`AnalyticalModel`]
/// can price their arcs.
#[derive(Debug, Clone, Default)]
pub struct CellMap {
    kinds: Vec<Option<GateKind>>,
}

impl CellMap {
    /// An empty map sized for `nl`.
    pub fn for_netlist(nl: &Netlist) -> Self {
        CellMap {
            kinds: vec![None; nl.components().len()],
        }
    }

    /// Binds component `comp` to `kind`.
    ///
    /// # Panics
    ///
    /// Panics when `comp` is out of range for the mapped netlist.
    pub fn bind(&mut self, comp: usize, kind: GateKind) {
        self.kinds[comp] = Some(kind);
    }

    /// The cell bound to component `comp`, if any.
    pub fn kind(&self, comp: usize) -> Option<GateKind> {
        self.kinds.get(comp).copied().flatten()
    }
}

/// Per-component delays priced by `model` at `temp_c` °C.
///
/// Every cell-mapped gate gets its polarity-split analytical delay under
/// the load of its cell-mapped consumers (each consumer's tied input
/// pins, exactly the load convention of `tsense-core`'s ring model);
/// unmapped components keep their symmetric netlist delay.
///
/// # Errors
///
/// Propagates delay-model failures.
pub fn cell_delays(
    nl: &Netlist,
    cells: &CellMap,
    model: &AnalyticalModel,
    temp_c: f64,
) -> Result<Vec<DelayFs>> {
    // Load on each signal: sum of the mapped consumers' input pins.
    let mut load_f: Vec<f64> = vec![0.0; nl.signal_count()];
    for (ci, comp) in nl.components().iter().enumerate() {
        let (inputs, kind) = match comp {
            Component::Gate { inputs, .. } => (inputs.clone(), cells.kind(ci)),
            _ => continue,
        };
        let Some(kind) = kind else { continue };
        let cin = model.input_capacitance(kind)?;
        // All pins of the cell are tied to one driver in the ring
        // convention, so the full input capacitance lands on the first
        // (loop) input's driver.
        if let Some(first) = inputs.first() {
            load_f[first.index()] += cin;
        }
    }
    let mut delays = netlist_delays(nl);
    for (ci, comp) in nl.components().iter().enumerate() {
        let Component::Gate { output, .. } = comp else {
            continue;
        };
        let Some(kind) = cells.kind(ci) else { continue };
        delays[ci] = model.gate_delays(kind, temp_c, load_f[output.index()])?;
    }
    Ok(delays)
}

/// Traceback link: predecessor signal, its polarity, and the gate the
/// transition went through. Indexed `[signal][polarity]`.
type PrevLink = (SignalId, Polarity, usize);
type PrevTable = Vec<[Option<PrevLink>; 2]>;

/// Runs the full static timing analysis of `nl` with per-component
/// `delays` (see [`netlist_delays`] / [`cell_delays`]).
///
/// # Panics
///
/// Panics when `delays.len()` differs from the netlist's component
/// count.
pub fn analyze(nl: &Netlist, delays: &[DelayFs]) -> Analysis {
    assert_eq!(
        delays.len(),
        nl.components().len(),
        "one delay entry per component"
    );
    let n_signals = nl.signal_count();

    // ---- collect gates and connectivity -------------------------------
    let mut gates: Vec<GateNode> = Vec::new();
    for (ci, comp) in nl.components().iter().enumerate() {
        if let Component::Gate {
            op, inputs, output, ..
        } = comp
        {
            gates.push(GateNode {
                comp: ci,
                op: *op,
                inputs: inputs.clone(),
                output: *output,
                delay: delays[ci],
            });
        }
    }
    let mut driver_of: Vec<Option<usize>> = vec![None; n_signals];
    for (slot, g) in gates.iter().enumerate() {
        driver_of[g.output.index()] = Some(slot);
    }
    let mut sinks: Vec<usize> = vec![0; n_signals];
    let mut seq_driven: Vec<bool> = vec![false; n_signals];
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for comp in nl.components() {
        match comp {
            Component::Gate { inputs, .. } => {
                for s in inputs {
                    sinks[s.index()] += 1;
                }
            }
            Component::Dff {
                d, clk, rst_n, q, ..
            } => {
                sinks[d.index()] += 1;
                sinks[clk.index()] += 1;
                endpoints.push(Endpoint {
                    signal: *d,
                    kind: EndpointKind::DffData,
                });
                if let Some(r) = rst_n {
                    sinks[r.index()] += 1;
                    endpoints.push(Endpoint {
                        signal: *r,
                        kind: EndpointKind::DffReset,
                    });
                }
                seq_driven[q.index()] = true;
            }
            Component::Latch {
                d, en, rst_n, q, ..
            } => {
                sinks[d.index()] += 1;
                sinks[en.index()] += 1;
                endpoints.push(Endpoint {
                    signal: *d,
                    kind: EndpointKind::LatchData,
                });
                endpoints.push(Endpoint {
                    signal: *en,
                    kind: EndpointKind::LatchEnable,
                });
                if let Some(r) = rst_n {
                    sinks[r.index()] += 1;
                    endpoints.push(Endpoint {
                        signal: *r,
                        kind: EndpointKind::LatchEnable,
                    });
                }
                seq_driven[q.index()] = true;
            }
            Component::Clock { output, .. } => {
                seq_driven[output.index()] = true;
            }
        }
    }
    // Primary outputs: gate-driven, nothing consumes them.
    for g in &gates {
        if sinks[g.output.index()] == 0 {
            endpoints.push(Endpoint {
                signal: g.output,
                kind: EndpointKind::Output,
            });
        }
    }

    // ---- strongly connected components over the gate graph ------------
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
    for (slot, g) in gates.iter().enumerate() {
        for s in &g.inputs {
            if let Some(pred) = driver_of[s.index()] {
                succ[pred].push(slot);
            }
        }
    }
    let sccs = strongly_connected(&succ);
    let mut in_loop_gate: Vec<bool> = vec![false; gates.len()];
    let mut cyclic_sccs: Vec<Vec<usize>> = Vec::new();
    for scc in sccs {
        let cyclic = scc.len() > 1 || scc.first().map(|&g| succ[g].contains(&g)).unwrap_or(false);
        if cyclic {
            for &slot in &scc {
                in_loop_gate[slot] = true;
            }
            cyclic_sccs.push(scc);
        }
    }
    let loops = classify_sccs(&gates, &cyclic_sccs, &driver_of);

    // ---- levelize the acyclic part (Kahn) -----------------------------
    let mut indegree: Vec<usize> = vec![0; gates.len()];
    for (slot, g) in gates.iter().enumerate() {
        if in_loop_gate[slot] {
            continue;
        }
        for s in &g.inputs {
            if let Some(pred) = driver_of[s.index()] {
                if !in_loop_gate[pred] {
                    indegree[slot] += 1;
                }
            }
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(gates.len());
    let mut ready: Vec<usize> = (0..gates.len())
        .filter(|&s| !in_loop_gate[s] && indegree[s] == 0)
        .collect();
    while let Some(slot) = ready.pop() {
        order.push(slot);
        for &next in &succ[slot] {
            if in_loop_gate[next] {
                continue;
            }
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(next);
            }
        }
    }

    // ---- polarity-split arrival propagation ---------------------------
    // prev[signal][polarity] = (pred signal, pred polarity, via comp)
    let mut arrivals: Vec<Arrival> = vec![Arrival::default(); n_signals];
    let mut prev: PrevTable = vec![[None; 2]; n_signals];
    let mut startpoints: Vec<SignalId> = Vec::new();
    for i in 0..n_signals {
        let driven_by_gate = driver_of[i].is_some();
        if !driven_by_gate {
            // Sequential outputs, clocks, stimuli, constants: timing
            // sources at t = 0.
            arrivals[i] = Arrival {
                rise_fs: Some(0.0),
                fall_fs: Some(0.0),
            };
            if sinks[i] > 0 || seq_driven[i] {
                startpoints.push(SignalId::from_index(i));
            }
        }
    }
    // Taint: signals downstream of a loop carry periodic, not static,
    // arrivals. They are excluded from "unconstrained" reporting.
    let mut loop_tainted: Vec<bool> = vec![false; n_signals];
    for (slot, g) in gates.iter().enumerate() {
        if in_loop_gate[slot] {
            loop_tainted[g.output.index()] = true;
        }
    }

    let set_arrival = |arrivals: &mut Vec<Arrival>,
                       prev: &mut PrevTable,
                       out: SignalId,
                       pol: Polarity,
                       at: f64,
                       from: (SignalId, Polarity, usize)| {
        let slot = match pol {
            Polarity::Rise => &mut arrivals[out.index()].rise_fs,
            Polarity::Fall => &mut arrivals[out.index()].fall_fs,
        };
        if slot.map(|cur| at > cur).unwrap_or(true) {
            *slot = Some(at);
            prev[out.index()][pol.index()] = Some(from);
        }
    };

    for &slot in &order {
        let g = &gates[slot];
        if g.inputs.iter().any(|s| loop_tainted[s.index()]) {
            loop_tainted[g.output.index()] = true;
        }
        for input in &g.inputs {
            let ia = arrivals[input.index()];
            let candidates: [(Option<f64>, Polarity, Polarity); 4] = match sense(g.op) {
                // (input arrival, input polarity, output polarity)
                Sense::Positive => [
                    (ia.rise_fs, Polarity::Rise, Polarity::Rise),
                    (ia.fall_fs, Polarity::Fall, Polarity::Fall),
                    (None, Polarity::Rise, Polarity::Rise),
                    (None, Polarity::Rise, Polarity::Rise),
                ],
                Sense::Negative => [
                    (ia.fall_fs, Polarity::Fall, Polarity::Rise),
                    (ia.rise_fs, Polarity::Rise, Polarity::Fall),
                    (None, Polarity::Rise, Polarity::Rise),
                    (None, Polarity::Rise, Polarity::Rise),
                ],
                Sense::NonUnate => [
                    (ia.rise_fs, Polarity::Rise, Polarity::Rise),
                    (ia.fall_fs, Polarity::Fall, Polarity::Rise),
                    (ia.rise_fs, Polarity::Rise, Polarity::Fall),
                    (ia.fall_fs, Polarity::Fall, Polarity::Fall),
                ],
            };
            for (at, in_pol, out_pol) in candidates {
                let Some(at) = at else { continue };
                let edge_delay = match out_pol {
                    Polarity::Rise => g.delay.rise_fs,
                    Polarity::Fall => g.delay.fall_fs,
                };
                set_arrival(
                    &mut arrivals,
                    &mut prev,
                    g.output,
                    out_pol,
                    at + edge_delay,
                    (*input, in_pol, g.comp),
                );
            }
        }
    }

    // ---- endpoints: worst paths and unconstrained ---------------------
    let mut paths: Vec<TimingPath> = Vec::new();
    let mut unconstrained: Vec<SignalId> = Vec::new();
    let mut max_depth = 0usize;
    for ep in &endpoints {
        let i = ep.signal.index();
        match arrivals[i].worst() {
            Some((at, pol)) => {
                let mut points: Vec<PathPoint> = Vec::new();
                let mut cursor = Some((ep.signal, pol, at));
                while let Some((sig, pol, at)) = cursor {
                    let via = prev[sig.index()][pol.index()];
                    points.push(PathPoint {
                        signal: sig,
                        polarity: pol,
                        at_fs: at,
                        comp: via.map(|(_, _, c)| c),
                    });
                    cursor = via.map(|(ps, pp, _)| {
                        let pat = match pp {
                            Polarity::Rise => arrivals[ps.index()].rise_fs,
                            Polarity::Fall => arrivals[ps.index()].fall_fs,
                        }
                        .unwrap_or(0.0);
                        (ps, pp, pat)
                    });
                }
                points.reverse();
                max_depth = max_depth.max(points.len().saturating_sub(1));
                paths.push(TimingPath {
                    endpoint: ep.signal,
                    kind: ep.kind,
                    arrival_fs: at,
                    polarity: pol,
                    points,
                });
            }
            None => {
                if !loop_tainted[i] {
                    unconstrained.push(ep.signal);
                }
            }
        }
    }
    paths.sort_by(|a, b| {
        b.arrival_fs
            .partial_cmp(&a.arrival_fs)
            .expect("arrivals are finite")
    });
    unconstrained.sort_by_key(|s| s.index());
    unconstrained.dedup();

    Analysis {
        arrivals,
        paths,
        loops,
        unconstrained,
        startpoints,
        endpoints,
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::logic::Logic;

    fn inv_chain(n: usize, delay: u64) -> (Netlist, Vec<SignalId>) {
        let mut nl = Netlist::new();
        let mut sigs = vec![nl.signal_with_init("s0", Logic::Zero)];
        for i in 1..=n {
            let s = nl.signal(format!("s{i}"));
            nl.gate(GateOp::Inv, &[sigs[i - 1]], s, delay);
            sigs.push(s);
        }
        (nl, sigs)
    }

    #[test]
    fn chain_arrivals_accumulate_per_stage() {
        let (nl, sigs) = inv_chain(4, 1_000);
        let a = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(a.arrival(sigs[0]).worst().unwrap().0, 0.0);
        assert_eq!(a.arrival(sigs[4]).worst().unwrap().0, 4_000.0);
        let crit = a.critical().expect("chain end is an endpoint");
        assert_eq!(crit.endpoint, sigs[4]);
        assert_eq!(crit.points.len(), 5, "startpoint + 4 gates");
        assert_eq!(a.max_depth, 4);
    }

    #[test]
    fn inverting_gates_swap_polarity() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[a], y, 500);
        let z = nl.signal("z");
        nl.gate(GateOp::Buf, &[y], z, 250);
        let an = analyze(&nl, &netlist_delays(&nl));
        // One inverter: both polarities exist (source has both).
        let yv = an.arrival(y);
        assert_eq!(yv.rise_fs, Some(500.0));
        assert_eq!(yv.fall_fs, Some(500.0));
        let crit = an.critical().unwrap();
        assert_eq!(crit.endpoint, z);
        assert_eq!(crit.arrival_fs, 750.0);
    }

    #[test]
    fn asymmetric_delay_splits_polarities() {
        let mut nl = Netlist::new();
        let a = nl.signal_with_init("a", Logic::Zero);
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[a], y, 1);
        let mut delays = netlist_delays(&nl);
        delays[0] = DelayFs {
            fall_fs: 100.0,
            rise_fs: 300.0,
        };
        let an = analyze(&nl, &delays);
        let yv = an.arrival(y);
        assert_eq!(yv.rise_fs, Some(300.0), "rise timed by t_PLH");
        assert_eq!(yv.fall_fs, Some(100.0), "fall timed by t_PHL");
    }

    #[test]
    fn dff_cuts_paths_and_defines_endpoints() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 10_000, 5_000);
        let q = nl.signal("q");
        let d = nl.signal("d");
        nl.dff(d, clk, None, q, 150);
        let y = nl.signal("y");
        nl.gate(GateOp::Inv, &[q], y, 1_000);
        nl.gate(GateOp::Inv, &[y], d, 1_000);
        let an = analyze(&nl, &netlist_delays(&nl));
        // d is an endpoint two gates after the q startpoint.
        assert_eq!(an.arrival(d).worst().unwrap().0, 2_000.0);
        assert!(an
            .endpoints
            .iter()
            .any(|e| e.signal == d && e.kind == EndpointKind::DffData));
        assert!(an.startpoints.contains(&q));
        assert!(an.loops.is_empty(), "dff breaks the cycle");
    }

    #[test]
    fn unreachable_endpoint_is_unconstrained() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 10_000, 5_000);
        // A gate chain forming a cycle among plain gates feeds nothing;
        // instead: d input driven by a gate whose input is driven by
        // nothing-with-arrival? All undriven signals are startpoints, so
        // build the only truly unreachable case: a gate fed by a loop is
        // tainted, while a DFF d fed by *no* component at all is a
        // startpoint. Reconvergence: endpoint driven by gate consuming a
        // loop output is loop-tainted, hence NOT unconstrained.
        let a = nl.signal_with_init("a", Logic::Zero);
        let b = nl.signal("b");
        nl.gate(GateOp::Inv, &[a], b, 100);
        let q = nl.signal("q");
        nl.dff(b, clk, None, q, 150);
        let an = analyze(&nl, &netlist_delays(&nl));
        assert!(an.unconstrained.is_empty(), "{:?}", an.unconstrained);
    }

    #[test]
    fn ring_is_reported_as_loop_not_path() {
        let mut nl = Netlist::new();
        let ports =
            dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "r", 1_000).unwrap();
        let an = analyze(&nl, &netlist_delays(&nl));
        assert_eq!(an.loops.len(), 1);
        assert_eq!(an.ring_periods_fs(), vec![10_000.0]);
        assert_eq!(an.ring_period_fs().unwrap(), 10_000.0);
        // Ring outputs are loop-tainted, not unconstrained.
        assert!(an.unconstrained.is_empty());
        let _ = ports;
    }
}

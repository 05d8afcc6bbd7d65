//! Netlist levelization with SCC condensation.
//!
//! [`graph`](crate::graph) levelizes the *combinational* portion of a
//! netlist for timing; dataflow clients (the `netcheck::dataflow`
//! fixpoint engine) need the same structure over **every** component —
//! flip-flops, latches and clocks included — because analyses such as
//! X-propagation iterate through sequential feedback. This module
//! condenses the full component graph into strongly connected
//! components (ring oscillators, FSM feedback loops) and emits a
//! topological order of the condensation: processing components in
//! [`Levelization::order`] visits every driver's SCC before (or
//! together with) its sinks'.

use dsim::netlist::{Component, Netlist};

/// The condensed component graph of one netlist.
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Every component index, SCC by SCC, in topological order of the
    /// condensation (drivers before sinks; members of one loop are
    /// adjacent).
    pub order: Vec<usize>,
    /// `scc_of[component] == id` into [`Levelization::sccs`].
    pub scc_of: Vec<usize>,
    /// SCC member lists, indexed by SCC id, in topological order.
    pub sccs: Vec<Vec<usize>>,
}

/// Successor lists over components: `succ[i]` holds every component
/// consuming a signal that component `i` drives. Shared by
/// [`levelize`] and its clients so both see the identical graph.
pub fn component_successors(nl: &Netlist) -> Vec<Vec<usize>> {
    let n = nl.components().len();
    let mut driver_of: Vec<Vec<usize>> = vec![Vec::new(); nl.signal_count()];
    for (i, comp) in nl.components().iter().enumerate() {
        let out = match comp {
            Component::Gate { output, .. } => *output,
            Component::Dff { q, .. } | Component::Latch { q, .. } => *q,
            Component::Clock { output, .. } => *output,
        };
        driver_of[out.index()].push(i);
    }
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, comp) in nl.components().iter().enumerate() {
        let mut sinks: Vec<dsim::netlist::SignalId> = Vec::new();
        match comp {
            Component::Gate { inputs, .. } => sinks.extend(inputs.iter().copied()),
            Component::Dff { d, clk, rst_n, .. } => {
                sinks.push(*d);
                sinks.push(*clk);
                sinks.extend(*rst_n);
            }
            Component::Latch { d, en, rst_n, .. } => {
                sinks.push(*d);
                sinks.push(*en);
                sinks.extend(*rst_n);
            }
            Component::Clock { .. } => {}
        }
        for s in sinks {
            for &driver in &driver_of[s.index()] {
                if !succ[driver].contains(&i) {
                    succ[driver].push(i);
                }
            }
        }
    }
    succ
}

/// Condenses the full component graph (through sequential elements)
/// into SCCs and orders them topologically.
pub fn levelize(nl: &Netlist) -> Levelization {
    let succ = component_successors(nl);
    let mut sccs = strongly_connected(&succ);
    // Tarjan emits SCCs in reverse topological order of the
    // condensation (sinks first); reverse for drivers-first.
    sccs.reverse();
    let mut scc_of = vec![usize::MAX; succ.len()];
    let mut order = Vec::with_capacity(succ.len());
    for (id, scc) in sccs.iter_mut().enumerate() {
        scc.sort_unstable();
        for &c in scc.iter() {
            scc_of[c] = id;
            order.push(c);
        }
    }
    Levelization {
        order,
        scc_of,
        sccs,
    }
}

/// Iterative Tarjan SCC over an adjacency list (explicit DFS frames —
/// deep ripple chains must not overflow the call stack). SCCs come out
/// in reverse topological order of the condensation (sinks first).
/// Shared by [`levelize`], [`crate::graph::analyze`] and netcheck's
/// combinational-loop rule.
pub fn strongly_connected(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < succ[v].len() {
                let w = succ[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::logic::Logic;
    use dsim::netlist::{GateOp, Netlist};

    #[test]
    fn ring_collapses_to_one_scc_ordered_before_its_sinks() {
        let mut nl = Netlist::new();
        let ports =
            dsim::builders::ring_oscillator(&mut nl, &[GateOp::Inv; 5], "ring", 100_000).unwrap();
        let y = nl.signal("y");
        nl.gate(GateOp::Buf, &[ports.out], y, 100_000);
        let lv = levelize(&nl);
        let ring_scc: Vec<&Vec<usize>> = lv.sccs.iter().filter(|s| s.len() == 5).collect();
        assert_eq!(ring_scc.len(), 1, "one 5-stage ring SCC");
        // The buffer consumes the ring output: its SCC comes later.
        let buf = nl
            .components()
            .iter()
            .position(|c| {
                matches!(
                    c,
                    Component::Gate {
                        op: GateOp::Buf,
                        ..
                    }
                )
            })
            .unwrap();
        let ring_id = lv.scc_of[ring_scc[0][0]];
        assert!(lv.scc_of[buf] > ring_id);
        assert_eq!(lv.order.len(), nl.components().len());
    }

    #[test]
    fn acyclic_pipeline_orders_drivers_first() {
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let a = nl.signal_with_init("a", Logic::Zero);
        let an = nl.signal("an");
        nl.gate(GateOp::Inv, &[a], an, 100_000); // component 1
        let q = nl.signal_with_init("q", Logic::Zero);
        nl.dff(an, clk, None, q, 150_000); // component 2
        let lv = levelize(&nl);
        let pos = |c: usize| lv.order.iter().position(|&x| x == c).unwrap();
        assert!(pos(1) < pos(2), "inverter before the flop it feeds");
        assert!(pos(0) < pos(2), "clock before the flop it drives");
        assert!(lv.sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn sequential_feedback_is_one_scc() {
        // q feeds an inverter feeding its own d: a toggle flop. The
        // loop goes *through* the flop, so condensation must include
        // sequential elements.
        let mut nl = Netlist::new();
        let clk = nl.signal("clk");
        nl.symmetric_clock(clk, 2_000_000, 1_000_000);
        let q = nl.signal_with_init("q", Logic::Zero);
        let qb = nl.signal_with_init("qb", Logic::One);
        nl.dff(qb, clk, None, q, 150_000);
        nl.gate(GateOp::Inv, &[q], qb, 100_000);
        let lv = levelize(&nl);
        assert!(lv.sccs.iter().any(|s| s.len() == 2), "{:?}", lv.sccs);
    }
}

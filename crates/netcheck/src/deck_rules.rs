//! Rules over spicelite circuits and decks (`NC02xx`).
//!
//! * `NC0201` — dangling node (touches exactly one device terminal);
//! * `NC0202` — no DC-conductive path to ground, which makes the MNA
//!   matrix structurally singular (the node's potential is unfixed);
//! * `NC0203` — zero / negative / implausibly extreme device values.

use spicelite::circuit::Circuit;
use spicelite::devices::Device;
use spicelite::netlist::Deck;

use crate::diagnostic::{Diagnostic, Location, Report};

/// Runs every circuit-level rule.
pub fn check_circuit(circuit: &Circuit) -> Report {
    let mut report = Report::new();
    dangling_nodes(circuit, &mut report);
    ground_path(circuit, &mut report);
    device_values(circuit, &mut report);
    report.sort();
    report
}

/// Runs every rule applicable to a parsed deck.
pub fn check_deck(deck: &Deck) -> Report {
    check_circuit(&deck.circuit)
}

/// `NC0201`: dangling nodes.
fn dangling_nodes(circuit: &Circuit, report: &mut Report) {
    let mut degree = vec![0usize; circuit.node_count()];
    for device in circuit.devices() {
        for node in device_terminals(device) {
            degree[node] += 1;
        }
    }
    for (idx, &deg) in degree.iter().enumerate().skip(1) {
        if deg == 1 {
            let name = node_name_by_index(circuit, idx);
            report.push(Diagnostic::warning(
                "NC0201",
                Location::object(name),
                "node touches only one device terminal (dangling)",
            ));
        }
    }
}

/// `NC0202`: DC path to ground.
fn ground_path(circuit: &Circuit, report: &mut Report) {
    // Union-find over DC-conductive element edges. Capacitors are
    // open at DC; current sources impose a current, not a potential;
    // MOSFET gates are insulated — but drain–source conducts.
    let mut uf = UnionFind::new(circuit.node_count());
    for device in circuit.devices() {
        match device {
            Device::Resistor { a, b, .. } => uf.union(a.index(), b.index()),
            Device::Vsource { pos, neg, .. } => uf.union(pos.index(), neg.index()),
            Device::Mosfet { d, s, .. } => uf.union(d.index(), s.index()),
            Device::Capacitor { .. } | Device::Isource { .. } => {}
        }
    }
    let ground = uf.find(0);
    for idx in 1..circuit.node_count() {
        if uf.find(idx) != ground {
            let name = node_name_by_index(circuit, idx);
            report.push(Diagnostic::error(
                "NC0202",
                Location::object(name),
                "no DC path to ground: the node's potential is structurally \
                 unconstrained, predicting a singular MNA matrix",
            ));
        }
    }
}

/// `NC0203`: device value sanity.
fn device_values(circuit: &Circuit, report: &mut Report) {
    for device in circuit.devices() {
        let findings: Vec<String> = match device {
            Device::Resistor { ohms, .. } => value_findings("resistance", *ohms, 1e-3, 1e12),
            Device::Capacitor { farads, .. } => value_findings("capacitance", *farads, 1e-21, 1.0),
            Device::Mosfet { w, l, .. } => {
                let mut f = value_findings("channel width", *w, 1e-9, 1e-3);
                f.extend(value_findings("channel length", *l, 1e-9, 1e-3));
                f
            }
            Device::Vsource { .. } | Device::Isource { .. } => Vec::new(),
        };
        for message in findings {
            report.push(Diagnostic::warning(
                "NC0203",
                Location::object(device.name()),
                message,
            ));
        }
    }
}

/// Flags non-finite/non-positive values (the builders normally reject
/// these, so reaching one here means the circuit was assembled by other
/// means) and magnitudes far outside the plausible band.
fn value_findings(what: &str, value: f64, lo: f64, hi: f64) -> Vec<String> {
    if !value.is_finite() || value <= 0.0 {
        vec![format!(
            "{what} of {value:e} is not a positive finite number"
        )]
    } else if value < lo {
        vec![format!(
            "{what} of {value:e} is implausibly small (< {lo:e})"
        )]
    } else if value > hi {
        vec![format!(
            "{what} of {value:e} is implausibly large (> {hi:e})"
        )]
    } else {
        Vec::new()
    }
}

fn device_terminals(device: &Device) -> Vec<usize> {
    match device {
        Device::Resistor { a, b, .. } | Device::Capacitor { a, b, .. } => {
            vec![a.index(), b.index()]
        }
        Device::Vsource { pos, neg, .. } => vec![pos.index(), neg.index()],
        Device::Isource { from, to, .. } => vec![from.index(), to.index()],
        Device::Mosfet { d, g, s, .. } => vec![d.index(), g.index(), s.index()],
    }
}

/// Reverse-maps a raw node index to its name (linear scan; lint-time only).
fn node_name_by_index(circuit: &Circuit, idx: usize) -> String {
    for device in circuit.devices() {
        for node in terminals_ids(device) {
            if node.index() == idx {
                return circuit.node_name(node).to_string();
            }
        }
    }
    format!("node#{idx}")
}

fn terminals_ids(device: &Device) -> Vec<spicelite::circuit::NodeId> {
    match device {
        Device::Resistor { a, b, .. } | Device::Capacitor { a, b, .. } => vec![*a, *b],
        Device::Vsource { pos, neg, .. } => vec![*pos, *neg],
        Device::Isource { from, to, .. } => vec![*from, *to],
        Device::Mosfet { d, g, s, .. } => vec![*d, *g, *s],
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spicelite::devices::Stimulus;

    fn rules_fired(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    #[test]
    fn grounded_divider_is_clean() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let report = check_circuit(&ckt);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn groundless_island_fires_nc0202() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        // Floating island: source and resistor between a and b only.
        ckt.add_vsource("V1", a, b, Stimulus::Dc(1.0)).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        let report = check_circuit(&ckt);
        assert!(
            rules_fired(&report).contains(&"NC0202"),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn capacitor_only_node_fires_nc0202() {
        // A node tied down only through a capacitor has no DC path.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        // b reaches ground through R1–V1, so this variant is clean…
        assert!(!check_circuit(&ckt).has_errors());
        // …but an isolated cap-only node is not.
        let c = ckt.node("c");
        ckt.add_capacitor("C2", c, Circuit::GROUND, 1e-12).unwrap();
        let report = check_circuit(&ckt);
        assert!(
            rules_fired(&report).contains(&"NC0202"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn dangling_node_fires_nc0201() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let stub = ckt.node("stub");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, stub, 1e3).unwrap();
        let report = check_circuit(&ckt);
        assert!(
            rules_fired(&report).contains(&"NC0201"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn extreme_values_fire_nc0203() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        ckt.add_resistor("Rtiny", a, Circuit::GROUND, 1e-9).unwrap();
        ckt.add_resistor("Rhuge", a, Circuit::GROUND, 1e15).unwrap();
        let report = check_circuit(&ckt);
        let hits = rules_fired(&report)
            .iter()
            .filter(|r| **r == "NC0203")
            .count();
        assert_eq!(hits, 2, "{}", report.render_text());
    }

    #[test]
    fn parsed_ring_deck_is_clean() {
        let deck = spicelite::netlist::parse(
            "divider
V1 in 0 DC 3.3
R1 in mid 1k
R2 mid 0 2.2k
C1 mid 0 10p
",
        )
        .unwrap();
        let report = check_deck(&deck);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

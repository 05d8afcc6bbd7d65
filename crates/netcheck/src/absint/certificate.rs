//! The certification artifact: the interval chain, the findings, and
//! the identity of the configuration and envelope they prove.

use sensor::unit::SensorConfig;

use crate::diagnostic::{json_string, Report};

use super::bundle::RuntimeEnvelope;
use super::ir::FlowGraph;

/// The output of one [`certify`](super::engine::certify) run.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Bundle name.
    pub name: String,
    /// Fingerprint of the exact sensor configuration the chain was
    /// derived for ([`config_fingerprint`]); the proof says nothing
    /// about any other configuration.
    pub fingerprint: String,
    /// Certified junction-temperature range, °C.
    pub temp_range_c: (f64, f64),
    /// Certified relative supply excursion.
    pub supply_tolerance: f64,
    /// Runtime envelope the NC10xx bank was discharged against, if any.
    pub runtime: Option<RuntimeEnvelope>,
    /// The derived interval chain.
    pub graph: FlowGraph,
    /// Every finding; empty or warning-only means proven.
    pub report: Report,
}

impl Certificate {
    /// True when every proof obligation was discharged: no
    /// error-severity findings (warnings such as `NC1002` survive —
    /// they flag missing headroom, not a broken promise).
    pub fn is_proven(&self) -> bool {
        !self.report.has_errors()
    }

    /// Human-readable certificate: header, interval chain, findings.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "certificate `{}` (config {})\n",
            self.name, self.fingerprint
        ));
        out.push_str(&format!(
            "  envelope: {:.1}..{:.1} °C, ±{:.1} % supply\n",
            self.temp_range_c.0,
            self.temp_range_c.1,
            self.supply_tolerance * 100.0
        ));
        match &self.runtime {
            Some(rt) => out.push_str(&format!(
                "  runtime: deadline {} ms, staleness {} ms, checkpoint {} ms\n",
                rt.deadline_ms, rt.staleness_bound_ms, rt.checkpoint_interval_ms
            )),
            None => out.push_str("  runtime: (no envelope requested)\n"),
        }
        out.push_str("interval chain:\n");
        out.push_str(&self.graph.render_chain());
        if self.report.is_clean() {
            out.push_str("verdict: PROVEN — all obligations discharged\n");
        } else {
            out.push_str(&self.report.render_text());
            out.push_str(if self.is_proven() {
                "verdict: PROVEN with warnings\n"
            } else {
                "verdict: NOT PROVEN\n"
            });
        }
        out
    }

    /// Compact JSON rendering (no external serializer): metadata, the
    /// chain as an array of nodes, and the findings array.
    pub fn render_json(&self) -> String {
        let nodes: Vec<String> = self
            .graph
            .nodes()
            .iter()
            .map(|n| {
                format!(
                    "{{\"kind\":\"{}\",\"label\":{},\"lo\":{:e},\"hi\":{:e},\"unit\":\"{}\",\
                     \"inputs\":{:?}}}",
                    n.kind,
                    json_string(&n.label),
                    n.interval.lo(),
                    n.interval.hi(),
                    n.unit,
                    n.inputs
                )
            })
            .collect();
        let runtime = match &self.runtime {
            Some(rt) => format!(
                "{{\"deadline_ms\":{},\"staleness_bound_ms\":{},\"checkpoint_interval_ms\":{}}}",
                rt.deadline_ms, rt.staleness_bound_ms, rt.checkpoint_interval_ms
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":{},\"fingerprint\":{},\"temp_range_c\":[{},{}],\
             \"supply_tolerance\":{},\"runtime\":{runtime},\"proven\":{},\
             \"chain\":[{}],\"diagnostics\":{}}}",
            json_string(&self.name),
            json_string(&self.fingerprint),
            self.temp_range_c.0,
            self.temp_range_c.1,
            self.supply_tolerance,
            self.is_proven(),
            nodes.join(","),
            self.report.render_json()
        )
    }
}

/// Fingerprints the analysis-relevant identity of a sensor
/// configuration: technology, per-stage sizing, wiring, and every
/// digitizer parameter. Computed as FNV-1a over a canonical
/// description (via the shared [`dst::hash::fnv1a64`]), rendered as
/// 16 hex digits — collision-resistant enough to catch "certificate
/// from a different config" mistakes, with no external hashing
/// dependency.
pub fn config_fingerprint(config: &SensorConfig) -> String {
    let mut canon = format!(
        "{}|vdd={:.6e}|clk={:.6e}|win={}|settle={}|cb={}|wb={}|wire={:.6e}",
        config.tech.name,
        config.tech.vdd.get(),
        config.ref_clock.get(),
        config.window_cycles,
        config.settle_cycles,
        config.counter_bits,
        config.word_bits,
        config.ring.wire_cap().get(),
    );
    for gate in config.ring.stages() {
        canon.push_str(&format!(
            "|{}:{:.6e}:{:.6e}",
            gate.kind(),
            gate.wn(),
            gate.wp()
        ));
    }
    format!("{:016x}", dst::hash::fnv1a64(canon.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::bundle::CertifyBundle;
    use crate::absint::engine::certify;

    fn cert(text: &str) -> Certificate {
        certify(&CertifyBundle::parse(text, "t").unwrap()).unwrap()
    }

    const BASE: &str = "[ring]\nmix = 5xINV\n[runtime]\ndeadline_ms = 250\n";

    #[test]
    fn unproven_certificate_covers_nothing() {
        let c = cert(
            "[ring]\nmix = 5xINV\n[digitizer]\ncounter_bits = 8\n[runtime]\ndeadline_ms = 250\n",
        );
        assert!(!c.is_proven());
    }

    #[test]
    fn no_runtime_envelope_covers_nothing() {
        let c = cert("[ring]\nmix = 5xINV\n");
        assert!(c.is_proven());
        assert!(c.runtime.is_none());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = cert(BASE);
        let b = cert("[ring]\nmix = 5xINV\n[digitizer]\nwindow_cycles = 4096\n");
        let c = cert(BASE);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, c.fingerprint, "fingerprint is deterministic");
        assert_eq!(a.fingerprint.len(), 16);
    }

    #[test]
    fn renderings_contain_chain_and_verdict() {
        let c = cert(BASE);
        let text = c.render_text();
        assert!(text.contains("interval chain:"));
        assert!(text.contains("ring-period"));
        assert!(text.contains("PROVEN"));
        let json = c.render_json();
        assert!(json.contains("\"proven\":true"));
        assert!(json.contains("\"chain\":["));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}

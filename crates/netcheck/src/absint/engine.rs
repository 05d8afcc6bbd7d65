//! The abstract interpreter: samples the delay model over the
//! certified temperature × supply grid, derives sound intervals for
//! every quantity of the conversion pipeline, and discharges the
//! NC09xx/NC10xx proof obligations against them.
//!
//! Two operating envelopes are distinguished deliberately:
//!
//! * the **supply envelope** (nominal rail ± `supply_tolerance`) feeds
//!   the overflow and deadline rules (`NC0901`, `NC0904`, `NC0905`,
//!   `NC10xx`) — silicon in the field sees rail excursion;
//! * the **nominal rail** feeds the calibration-domain rules (`NC0902`,
//!   `NC0903`) — calibration happens on a tester with a controlled
//!   supply, and the code-to-temperature line is fit there.
//!
//! Every base interval is a sampled hull widened by the largest
//! adjacent-sample step ([`super::interval::IntervalBuilder`]); the
//! soundness property test re-checks the derived intervals against
//! concrete evaluations at random interior corners.

use dsim::builders::MIN_TOGGLE_PERIOD_FS;
use sensor::unit::CodeCalibration;
use tsense_core::units::{Celsius, Seconds, Volts};

use std::fmt;

use crate::diagnostic::{Diagnostic, Location, Report};
use crate::pass::rules;

use super::bundle::CertifyBundle;
use super::certificate::{config_fingerprint, Certificate};
use super::interval::{Interval, IntervalBuilder};
use super::ir::{FlowGraph, NodeKind};

/// Temperature samples across the certified range.
const TEMP_SAMPLES: usize = 41;

/// Relative tolerance used when comparing calibration anchors against
/// the unwidened sampled hull (`NC0903`): anchors at the exact range
/// endpoints must pass despite float round-off.
const ANCHOR_REL_TOL: f64 = 1e-9;

/// Retry-headroom fraction for `NC1002`: a conversion over half the
/// deadline leaves no room for a second attempt.
const HEADROOM_FRACTION: f64 = 0.5;

/// The engine could not evaluate the delay model somewhere inside the
/// requested envelope — nothing can be proven, soundly or otherwise.
#[derive(Debug)]
pub struct CertifyError {
    /// What failed and where.
    pub reason: String,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot certify: {}", self.reason)
    }
}

impl std::error::Error for CertifyError {}

/// Runs the abstract interpretation over a bundle and returns the
/// certificate: the full interval chain plus every NC09xx/NC10xx
/// finding (an empty report means all obligations are proven).
///
/// # Errors
///
/// [`CertifyError`] when the delay model is unevaluable anywhere in
/// the envelope (e.g. the supply excursion undercuts a device
/// threshold at the cold corner) — with no sound base interval there
/// is nothing to certify.
pub fn certify(bundle: &CertifyBundle) -> Result<Certificate, CertifyError> {
    let cfg = &bundle.config;
    let ring = &cfg.ring;
    let (t_lo, t_hi) = bundle.temp_range_c;
    let temps: Vec<f64> = (0..TEMP_SAMPLES)
        .map(|i| t_lo + (t_hi - t_lo) * i as f64 / (TEMP_SAMPLES - 1) as f64)
        .collect();
    let tol = bundle.supply_tolerance;
    let supply_scales: Vec<f64> = if tol > 0.0 {
        vec![1.0 - tol, 1.0 - tol / 2.0, 1.0, 1.0 + tol / 2.0, 1.0 + tol]
    } else {
        vec![1.0]
    };

    let fail = |what: &str, scale: f64, t: f64, e: &dyn fmt::Display| CertifyError {
        reason: format!("{what} unevaluable at {t:.1} °C, {scale:.3}× nominal supply: {e}"),
    };

    // Sample per-stage delays and the ring period over the grid.
    let n_stages = ring.stage_count();
    let mut stage_builders = vec![IntervalBuilder::new(); n_stages];
    let mut period_env = IntervalBuilder::new();
    let mut period_nom = IntervalBuilder::new();
    let mut nominal_samples: Vec<f64> = Vec::with_capacity(temps.len());
    for &scale in &supply_scales {
        let mut tech = cfg.tech.clone();
        tech.vdd = Volts::new(cfg.tech.vdd.get() * scale);
        let nominal = scale == 1.0;
        for &t in &temps {
            let at = Celsius::new(t);
            let p = ring
                .period(&tech, at)
                .map_err(|e| fail("ring period", scale, t, &e))?;
            period_env.push(p.get());
            if nominal {
                period_nom.push(p.get());
                nominal_samples.push(p.get());
            }
            for (i, gate) in ring.stages().iter().enumerate() {
                let d = gate
                    .delays(&tech, at, ring.stage_load(&tech, i))
                    .map_err(|e| fail("stage delay", scale, t, &e))?;
                stage_builders[i].push(d.pair_sum().get());
            }
        }
        period_env.break_run();
        for b in &mut stage_builders {
            b.break_run();
        }
    }

    let mut graph = FlowGraph::new();
    let mut report = Report::new();
    let obj = |name: String| Location::object(name);

    let stage_ids: Vec<_> = ring
        .stages()
        .iter()
        .zip(&stage_builders)
        .enumerate()
        .map(|(i, (gate, b))| {
            graph.push(
                NodeKind::StageDelay,
                format!("stage {i} ({})", gate.kind()),
                b.build().expect("grid is non-empty"),
                "s",
                vec![],
            )
        })
        .collect();
    let p_env = period_env.build().expect("grid is non-empty");
    let p_env_id = graph.push(
        NodeKind::RingPeriod,
        format!("ring period (±{:.1} % rail)", tol * 100.0),
        p_env,
        "s",
        stage_ids.clone(),
    );
    let p_nom = period_nom.build().expect("nominal lane sampled");
    let p_nom_hull = period_nom.sample_hull().expect("nominal lane sampled");
    let p_nom_id = graph.push(
        NodeKind::RingPeriod,
        "ring period (nominal rail)".to_string(),
        p_nom,
        "s",
        stage_ids,
    );

    // Conversion pipeline on the supply envelope.
    let cycles = (cfg.window_cycles + cfg.settle_cycles) as f64;
    let conv = p_env.scale(cycles);
    let conv_id = graph.push(
        NodeKind::ConversionTime,
        format!(
            "conversion ({} + {} cycles)",
            cfg.settle_cycles, cfg.window_cycles
        ),
        conv,
        "s",
        vec![p_env_id],
    );
    let f_ref = cfg.ref_clock.get();
    let count = p_env.scale(cfg.window_cycles as f64 * f_ref).floor();
    let count_id = graph.push(
        NodeKind::CounterCount,
        format!(
            "count ({} cycles × {:.0} MHz)",
            cfg.window_cycles,
            f_ref / 1e6
        ),
        count,
        "LSB",
        vec![p_env_id],
    );

    // NC0901: does the reachable count fit the hardware counter?
    let counter_capacity = width_capacity(cfg.counter_bits);
    if count.hi() > counter_capacity {
        report.push(Diagnostic::at(
            rules::NC0901,
            obj(format!("{}-bit counter", cfg.counter_bits)),
            format!(
                "reachable count interval {count} LSB exceeds the {}-bit counter's capacity \
                 {counter_capacity:.0}: the counter wraps silently at the hot/low-rail corner \
                 and the unit reports a bogus small code",
                cfg.counter_bits
            ),
        ));
    }

    // NC0904: does the latched output word represent every code?
    let word_capacity = width_capacity(cfg.word_bits);
    if count.hi() > word_capacity {
        report.push(Diagnostic::at(
            rules::NC0904,
            obj(format!("{}-bit word", cfg.word_bits)),
            format!(
                "reachable code interval {count} LSB exceeds the {}-bit output word's \
                 capacity {word_capacity:.0}: hot-corner codes truncate",
                cfg.word_bits
            ),
        ));
    }

    // NC0905 (opt-in): the gate-level counter's toggle loop needs the
    // ring period to clear 2·(t_DFF + t_gate) at the fastest corner.
    if bundle.gate_level {
        let min_period_s = MIN_TOGGLE_PERIOD_FS as f64 * 1e-15;
        if p_env.lo() < min_period_s {
            report.push(Diagnostic::at(
                rules::NC0905,
                obj("gate-level counter".to_string()),
                format!(
                    "fastest-corner ring period {:.3e} s violates the counter's {:.3e} s \
                     toggle-loop constraint; divide the ring clock first",
                    p_env.lo(),
                    min_period_s
                ),
            ));
        }
    }

    // Calibration-domain rules run on the nominal rail: the tester
    // controls the supply while the two-point line is fit.
    let monotone = nominal_samples.windows(2).all(|w| w[1] > w[0]);
    let anchor_codes = calibration_rules(
        bundle,
        &mut graph,
        &mut report,
        monotone,
        &nominal_samples,
        &temps,
        p_nom_hull,
        p_nom_id,
    );

    // Calibrated output word, when a calibration line exists — the
    // chain's terminal node (informational; NC0904 covers capacity).
    if let Some((code_lo, code_hi)) = anchor_codes {
        if let Ok(cal) = CodeCalibration::fit(
            code_lo,
            Celsius::new(bundle.cal_anchors_c.0),
            code_hi,
            Celsius::new(bundle.cal_anchors_c.1),
        ) {
            let out = count.scale(cal.gain).add(&Interval::point(cal.offset));
            graph.push(
                NodeKind::OutputWord,
                format!("calibrated output (gain {:.4e} °C/LSB)", cal.gain),
                out,
                "°C",
                vec![count_id],
            );
        }
    }

    // NC10xx: the runtime envelope, against the *provable* conversion
    // interval (not the nominal-rail point estimate the runtime checks
    // at start-up).
    if let Some(rt) = &bundle.runtime {
        let conv_ms = conv.scale(1e3);
        let deadline_id = graph.push(
            NodeKind::DeadlineBudget,
            "runtime deadline".to_string(),
            Interval::point(rt.deadline_ms),
            "ms",
            vec![],
        );
        let budget_loc = obj(format!("deadline {} ms", rt.deadline_ms));
        if conv_ms.hi() > rt.deadline_ms {
            report.push(Diagnostic::at(
                rules::NC1001,
                budget_loc,
                format!(
                    "provable worst-case conversion {conv_ms} ms exceeds the {} ms deadline: \
                     a direct read can miss it somewhere inside the certified envelope",
                    rt.deadline_ms
                ),
            ));
        } else if conv_ms.hi() > HEADROOM_FRACTION * rt.deadline_ms {
            report.push(Diagnostic::at(
                rules::NC1002,
                budget_loc,
                format!(
                    "provable worst-case conversion {:.3e} ms consumes more than half the \
                     {} ms deadline: no headroom for a retry anywhere in the envelope",
                    conv_ms.hi(),
                    rt.deadline_ms
                ),
            ));
        }
        let _ = deadline_id;

        if rt.checkpoint_interval_ms > 0 {
            let worst_age_ms = rt.checkpoint_interval_ms as f64 + conv_ms.hi();
            let stale_id = graph.push(
                NodeKind::CacheStaleness,
                format!(
                    "recovered-cache age (checkpoint {} ms)",
                    rt.checkpoint_interval_ms
                ),
                Interval::new(0.0, worst_age_ms),
                "ms",
                vec![conv_id],
            );
            let _ = stale_id;
            if (rt.staleness_bound_ms as f64) < worst_age_ms {
                report.push(Diagnostic::at(
                    rules::NC1003,
                    obj(format!(
                        "staleness {} ms, checkpoint every {} ms",
                        rt.staleness_bound_ms, rt.checkpoint_interval_ms
                    )),
                    format!(
                        "staleness bound {} ms cannot cover a full checkpoint interval plus \
                         one provable conversion ({:.3} ms): a crash-recovered process may \
                         hold nothing servable until its first scan lands",
                        rt.staleness_bound_ms, worst_age_ms
                    ),
                ));
            }
        }
    }

    report.sort();
    Ok(Certificate {
        name: bundle.name.clone(),
        fingerprint: config_fingerprint(cfg),
        temp_range_c: bundle.temp_range_c,
        supply_tolerance: tol,
        runtime: bundle.runtime,
        graph,
        report,
    })
}

/// Largest value a `bits`-wide counter or word can hold.
fn width_capacity(bits: u32) -> f64 {
    if bits >= 64 {
        u64::MAX as f64
    } else {
        ((1u64 << bits) - 1) as f64
    }
}

/// The nominal-rail calibration rules: `NC0902` (quantization step vs
/// resolution spec) and `NC0903` (anchors bracket the reachable period
/// hull). Returns the anchor codes when a calibration line is fittable.
#[allow(clippy::too_many_arguments)]
fn calibration_rules(
    bundle: &CertifyBundle,
    graph: &mut FlowGraph,
    report: &mut Report,
    monotone: bool,
    nominal_samples: &[f64],
    temps: &[f64],
    p_nom_hull: Interval,
    p_nom_id: super::ir::NodeId,
) -> Option<(u64, u64)> {
    let cfg = &bundle.config;
    let (cal_lo_c, cal_hi_c) = bundle.cal_anchors_c;
    let anchor_loc = Location::object(format!("anchors {cal_lo_c} °C / {cal_hi_c} °C"));

    // Slope of period vs temperature on the nominal rail, from
    // adjacent-sample finite differences (sound for the same reason the
    // base hulls are: widened by the largest step between samples).
    let mut slope_b = IntervalBuilder::new();
    for w in nominal_samples.windows(2).zip(temps.windows(2)) {
        let (p, t) = w;
        slope_b.push((p[1] - p[0]) / (t[1] - t[0]));
    }
    let slope = slope_b.build().expect("at least two temperature samples");
    graph.push(
        NodeKind::QuantizationStep,
        "period slope dP/dT (nominal rail)".to_string(),
        slope,
        "s/°C",
        vec![p_nom_id],
    );

    // NC0902: worst-case quantization step T_ref/(M·dP/dT) vs spec.
    let spec_loc = Location::object(format!("spec {} °C/LSB", bundle.resolution_spec_c));
    if slope.lo() <= 0.0 {
        report.push(Diagnostic::at(
            rules::NC0902,
            spec_loc,
            format!(
                "period slope interval {slope} s/°C is not provably positive: the \
                 quantization step is unbounded and no resolution spec can hold"
            ),
        ));
    } else {
        let denom = slope.scale(cfg.ref_clock.get() * cfg.window_cycles as f64);
        let step = denom.recip();
        graph.push(
            NodeKind::QuantizationStep,
            "quantization step T_ref/(M·dP/dT)".to_string(),
            step,
            "°C/LSB",
            vec![p_nom_id],
        );
        if step.hi() > bundle.resolution_spec_c {
            report.push(Diagnostic::at(
                rules::NC0902,
                spec_loc,
                format!(
                    "worst-case quantization step {step} °C/LSB exceeds the declared \
                     {} °C/LSB resolution spec",
                    bundle.resolution_spec_c
                ),
            ));
        }
    }

    // NC0903: the two-point line is only valid where the anchors
    // bracket the transfer curve, and bracketing is only meaningful
    // when the curve is provably monotone.
    if !monotone {
        report.push(Diagnostic::at(
            rules::NC0903,
            anchor_loc,
            "period vs temperature is not provably monotone on the nominal rail: \
             two-point anchors cannot be shown to bracket the reachable periods"
                .to_string(),
        ));
        return None;
    }
    let tech = &cfg.tech;
    let p_at = |t: f64| cfg.ring.period(tech, Celsius::new(t)).map(Seconds::get);
    let (Ok(p_cal_lo), Ok(p_cal_hi)) = (p_at(cal_lo_c), p_at(cal_hi_c)) else {
        report.push(Diagnostic::at(
            rules::NC0903,
            anchor_loc,
            "a calibration anchor temperature is outside the ring model's evaluable \
             domain"
                .to_string(),
        ));
        return None;
    };
    let lo_anchor = graph.push(
        NodeKind::CalibrationAnchor,
        format!("anchor period at {cal_lo_c} °C"),
        Interval::point(p_cal_lo),
        "s",
        vec![],
    );
    let hi_anchor = graph.push(
        NodeKind::CalibrationAnchor,
        format!("anchor period at {cal_hi_c} °C"),
        Interval::point(p_cal_hi),
        "s",
        vec![],
    );
    let _ = (lo_anchor, hi_anchor);
    // Compare against the *unwidened* sampled hull: the anchors are
    // evaluated by the same model, so endpoints match exactly up to
    // float round-off — the widened interval would reject every
    // anchor placed at the range edge.
    let brackets = p_cal_lo <= p_nom_hull.lo() * (1.0 + ANCHOR_REL_TOL)
        && p_cal_hi >= p_nom_hull.hi() * (1.0 - ANCHOR_REL_TOL);
    if !brackets {
        report.push(Diagnostic::at(
            rules::NC0903,
            anchor_loc,
            format!(
                "anchor periods [{p_cal_lo:.6e}, {p_cal_hi:.6e}] s do not bracket the \
                 reachable nominal-rail period hull {p_nom_hull} s: readings outside the \
                 anchors extrapolate the two-point line"
            ),
        ));
        return None;
    }
    let spec = cfg.digitizer_spec().ok()?;
    Some((
        cfg.wrap_to_counter(spec.quantized_count(Seconds::new(p_cal_lo))),
        cfg.wrap_to_counter(spec.quantized_count(Seconds::new(p_cal_hi))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::bundle::CertifyBundle;

    fn bundle(extra: &str) -> CertifyBundle {
        let text = format!("[ring]\nmix = 5xINV\n[runtime]\ndeadline_ms = 250\n{extra}");
        CertifyBundle::parse(&text, "test").unwrap()
    }

    #[test]
    fn default_bundle_certifies_clean() {
        let cert = certify(&bundle("")).unwrap();
        assert!(
            cert.report.is_clean(),
            "expected clean:\n{}",
            cert.report.render_text()
        );
        assert!(cert.is_proven());
        // The chain reaches the calibrated output word.
        assert!(cert
            .graph
            .nodes()
            .iter()
            .any(|n| n.kind == NodeKind::OutputWord));
    }

    #[test]
    fn undersized_counter_flags_nc0901() {
        // Hot-corner count at the default window is ~3.1k: 12 bits
        // (4095) still fits, 11 bits (2047) provably overflows.
        let cert = certify(&bundle("[digitizer]\ncounter_bits = 11\n")).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0901"), "{}", cert.report.render_text());
        assert!(!cert.is_proven());
        // Doubling the window pushes the reachable count past 4095:
        // the 12-bit regression the acceptance tests seed.
        let cert = certify(&bundle(
            "[digitizer]\ncounter_bits = 12\nwindow_cycles = 131072\n",
        ))
        .unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0901"), "{}", cert.report.render_text());
    }

    #[test]
    fn narrow_word_flags_nc0904() {
        let cert = certify(&bundle("[digitizer]\nword_bits = 11\n")).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0904"), "{}", cert.report.render_text());
    }

    #[test]
    fn narrow_calibration_flags_nc0903() {
        let cert = certify(&bundle("[calibration]\nlow_c = 0\nhigh_c = 100\n")).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0903"), "{}", cert.report.render_text());
    }

    #[test]
    fn tight_resolution_spec_flags_nc0902() {
        let cert = certify(&bundle("[spec]\nresolution_c_per_lsb = 0.0001\n")).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0902"), "{}", cert.report.render_text());
    }

    #[test]
    fn impossible_deadline_flags_nc1001_and_tight_flags_nc1002() {
        // Conversion is tens of µs; a 10 µs deadline is unprovable.
        let text = "[ring]\nmix = 5xINV\n[runtime]\ndeadline_ms = 0.01\n";
        let cert = certify(&CertifyBundle::parse(text, "t").unwrap()).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC1001"), "{}", cert.report.render_text());

        // Fits, but with less than 2× headroom.
        let conv_hi_ms = cert
            .graph
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::ConversionTime)
            .unwrap()
            .interval
            .hi()
            * 1e3;
        let text = format!(
            "[ring]\nmix = 5xINV\n[runtime]\ndeadline_ms = {}\n",
            conv_hi_ms * 1.5
        );
        let cert = certify(&CertifyBundle::parse(&text, "t").unwrap()).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["NC1002"], "{}", cert.report.render_text());
        assert!(cert.is_proven(), "warnings do not block certification");
    }

    #[test]
    fn short_staleness_flags_nc1003() {
        let text = "[ring]\nmix = 5xINV\n[runtime]\ndeadline_ms = 250\n\
                    staleness_bound_ms = 500\ncheckpoint_interval_ms = 500\n";
        let cert = certify(&CertifyBundle::parse(text, "t").unwrap()).unwrap();
        let fired: Vec<_> = cert.report.diagnostics().iter().map(|d| d.rule).collect();
        // 500 ms < 500 ms + one conversion: the sound rule fires where
        // the runtime's start-up check (staleness < checkpoint) does not.
        assert!(fired.contains(&"NC1003"), "{}", cert.report.render_text());
    }

    #[test]
    fn gate_level_toggle_constraint_is_opt_in() {
        // A 100 MHz-class divided ring at ~300–700 ps clears 500 ps only
        // marginally; the behavioral default must not fire NC0905.
        let behavioral = certify(&bundle("")).unwrap();
        assert!(!behavioral
            .report
            .diagnostics()
            .iter()
            .any(|d| d.rule == "NC0905"));
        // With the flag on, the fast cold/high-rail corner of a 5×INV
        // ring dips below 2·(t_DFF + t_gate) = 500 ps and must fire.
        let gl = certify(&bundle("[digitizer]\ngate_level = true\n")).unwrap();
        let p_lo = gl
            .graph
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::RingPeriod)
            .unwrap();
        let _ = p_lo;
        let fired = gl.report.diagnostics().iter().any(|d| d.rule == "NC0905");
        let min_period_s = MIN_TOGGLE_PERIOD_FS as f64 * 1e-15;
        let env = gl
            .graph
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::RingPeriod)
            .map(|n| n.interval)
            .next()
            .unwrap();
        assert_eq!(
            fired,
            env.lo() < min_period_s,
            "NC0905 fires exactly when the envelope dips below the constraint"
        );
    }

    #[test]
    fn envelope_widens_with_supply_tolerance() {
        let tight = certify(&bundle("[tech]\nsupply_tolerance = 0.0\n")).unwrap();
        let wide = certify(&bundle("[tech]\nsupply_tolerance = 0.1\n")).unwrap();
        let env_of = |c: &Certificate| {
            c.graph
                .nodes()
                .iter()
                .find(|n| n.kind == NodeKind::RingPeriod)
                .unwrap()
                .interval
        };
        assert!(env_of(&wide).encloses(&env_of(&tight)));
        assert!(env_of(&wide).width() > env_of(&tight).width());
    }
}

//! `sta` — STA-vs-transient temperature sweep: same transfer function,
//! two independent engines, and the wall-clock ratio between them.
//!
//! A Fig. 2-style 5-point sweep of a 5-inverter ring is evaluated
//! twice:
//!
//! * **transient** — the transistor-level route: build the spicelite
//!   ring, run a transient at every temperature, measure crossings
//!   (`stdcell::ring::TransistorRing::period_curve`);
//! * **STA** — the timing-graph route: price each stage's delay pair
//!   analytically and sum Eq. 1 around the loop (`sta::transfer`), no
//!   simulation anywhere.
//!
//! The report records both period curves, both wall times, the speedup,
//! and the worst relative period difference. The two engines rest on
//! *different* device models (Level-1 SPICE vs alpha-power), so the
//! difference is recorded as context, not asserted — the exactness
//! claim lives in the `sta`-vs-`dsim` cross-validation suite, where
//! both sides share one delay model.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use sta::AnalyticalModel;
use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;

use crate::{artifact_head, render_table, write_artifact};

/// The sweep temperatures, °C (Fig. 2 pitch at 5 points).
pub const SWEEP_TEMPS_C: [f64; 5] = [-50.0, 0.0, 50.0, 100.0, 150.0];

/// The `Wp/Wn` sizing ratio both engines use.
pub const RATIO: f64 = 2.0;

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if either engine fails — the harness is a diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let kinds = [GateKind::Inv; 5];

    // ---- transient path (transistor-level) ----------------------------
    let lib = CellLibrary::um350(RATIO);
    let ring = lib.uniform_ring(GateKind::Inv, 5).expect("ring");
    let t0 = Instant::now();
    let sim_curve = ring.period_curve(&SWEEP_TEMPS_C).expect("transient sweep");
    let transient_s = t0.elapsed().as_secs_f64();

    // ---- STA path (timing graph) --------------------------------------
    let model = AnalyticalModel::um350(RATIO);
    let t0 = Instant::now();
    let sta_periods: Vec<f64> = SWEEP_TEMPS_C
        .iter()
        .map(|&t| sta::period_at(&kinds, &model, t).expect("sta period"))
        .collect();
    let sta_s = t0.elapsed().as_secs_f64();

    let speedup = transient_s / sta_s.max(1e-9);
    let max_rel_diff = sim_curve
        .iter()
        .zip(&sta_periods)
        .map(|(&(_, sim), &sta)| ((sta - sim) / sim).abs())
        .fold(0.0_f64, f64::max);

    // ---- artifacts ----------------------------------------------------
    let mut json = artifact_head();
    let _ = writeln!(json, "  \"ring\": \"5xINV\",");
    let _ = writeln!(json, "  \"ratio\": {RATIO},");
    let _ = writeln!(
        json,
        "  \"temps_c\": [{}],",
        SWEEP_TEMPS_C.map(|t| t.to_string()).join(", ")
    );
    let _ = writeln!(
        json,
        "  \"transient_periods_s\": [{}],",
        sim_curve
            .iter()
            .map(|&(_, p)| format!("{p:e}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "  \"sta_periods_s\": [{}],",
        sta_periods
            .iter()
            .map(|p| format!("{p:e}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"transient_wall_s\": {transient_s:.6},");
    let _ = writeln!(json, "  \"sta_wall_s\": {sta_s:.6},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.1},");
    let _ = writeln!(json, "  \"max_rel_period_diff\": {max_rel_diff:.6}");
    json.push('}');
    json.push('\n');
    write_artifact(out_dir, "BENCH_sta_sweep.json", &json);

    // ---- report -------------------------------------------------------
    let rows: Vec<Vec<String>> = SWEEP_TEMPS_C
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let sim = sim_curve[i].1;
            let sta = sta_periods[i];
            vec![
                format!("{t:.0}"),
                format!("{:.4}", sim * 1e9),
                format!("{:.4}", sta * 1e9),
                format!("{:+.2}", 100.0 * (sta - sim) / sim),
            ]
        })
        .collect();
    let mut report = String::new();
    report.push_str("sta — STA vs transient 5-point temperature sweep (5xINV ring)\n\n");
    report.push_str(&render_table(
        &["temp C", "transient ns", "STA ns", "diff %"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\ntransient sweep: {transient_s:.3} s   STA sweep: {sta_s:.6} s   speedup: {speedup:.0}x"
    );
    let _ = writeln!(
        report,
        "speedup check (STA at least 10x faster): {}",
        if speedup >= 10.0 { "PASS" } else { "FAIL" }
    );
    // Sanity, not equality: different device models, same physics.
    let _ = writeln!(
        report,
        "shape check (period grows with T in both engines): {}",
        if sim_curve.windows(2).all(|w| w[1].1 > w[0].1)
            && sta_periods.windows(2).all(|w| w[1] > w[0])
        {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "max relative period difference: {max_rel_diff:.4}");
    let _ = writeln!(report, "artifact: BENCH_sta_sweep.json");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sta_sweep_report_passes_its_checks() {
        let dir = crate::TestDir::new("sta_sweep");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        assert!(dir.join("BENCH_sta_sweep.json").exists());
    }
}

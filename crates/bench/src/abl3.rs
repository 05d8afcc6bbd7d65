//! Abl-3 — integrator choice and timestep versus simulated period.
//!
//! How much does the transistor-level ring period depend on the
//! numerical settings of the simulator? Backward Euler's first-order
//! damping slows convergence in the step size; trapezoidal converges
//! faster. Both must agree in the fine-step limit — this is the
//! numerical-hygiene check behind every spicelite-derived number in the
//! repository.

use std::fmt::Write as _;
use std::path::Path;

use spicelite::transient::{run_transient, Integrator, TranOptions};
use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;

use crate::{render_table, write_artifact};

fn measured_period(dt_ps: f64, integrator: Integrator) -> f64 {
    let lib = CellLibrary::um350(2.0);
    let ring = lib.uniform_ring(GateKind::Inv, 5).expect("ring");
    let ckt = ring.elaborate(27.0).expect("circuit");
    let dt = dt_ps * 1e-12;
    let opts = TranOptions::to_time(2e-9)
        .with_uic()
        .with_steps(dt, dt)
        .with_integrator(integrator);
    let wave = run_transient(&ckt, &opts).expect("transient");
    wave.period("n0", 1.65, 2).expect("period")
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if any evaluation fails.
pub fn run(out_dir: &Path) -> String {
    let steps_ps = [4.0, 2.0, 1.0, 0.5];
    let mut csv = String::from("dt_ps,period_be_ps,period_trap_ps\n");
    let mut rows = Vec::new();
    let mut be = Vec::new();
    let mut tr = Vec::new();
    for &dt in &steps_ps {
        let p_be = measured_period(dt, Integrator::BackwardEuler) * 1e12;
        let p_tr = measured_period(dt, Integrator::Trapezoidal) * 1e12;
        be.push(p_be);
        tr.push(p_tr);
        let _ = writeln!(csv, "{dt},{p_be:.3},{p_tr:.3}");
        rows.push(vec![
            format!("{dt:.1}"),
            format!("{p_be:.2}"),
            format!("{p_tr:.2}"),
        ]);
    }
    write_artifact(out_dir, "abl3_integrator.csv", &csv);

    // Convergence: both integrators approach the same fine-step answer,
    // and trapezoidal moves less over the sweep (higher order).
    let ref_period = tr[tr.len() - 1];
    let be_drift = (be[0] - be[be.len() - 1]).abs();
    let tr_drift = (tr[0] - tr[tr.len() - 1]).abs();
    let agree = ((be[be.len() - 1] - ref_period) / ref_period).abs() < 0.02;

    let mut report = String::new();
    report.push_str("Abl-3 — simulated ring period vs integrator and timestep (27 C)\n\n");
    report.push_str(&render_table(
        &["dt (ps)", "BE period (ps)", "trap period (ps)"],
        &rows,
    ));
    let _ = writeln!(report, "\nBE drift over the sweep    : {be_drift:.3} ps");
    let _ = writeln!(report, "trap drift over the sweep  : {tr_drift:.3} ps");
    let _ = writeln!(
        report,
        "integrators agree at fine dt: {}",
        if agree { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(
        report,
        "trapezoidal converges faster: {}",
        if tr_drift <= be_drift + 1e-9 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(report, "series CSV: abl3_integrator.csv");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abl3_report_passes() {
        let dir = crate::TestDir::new("abl3");
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
    }
}

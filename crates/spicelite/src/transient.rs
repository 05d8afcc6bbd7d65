//! Transient analysis: backward-Euler / trapezoidal integration with
//! adaptive step control.
//!
//! Every accepted step solves the nonlinear circuit with Newton–Raphson
//! around capacitor Norton companions. The step shrinks on Newton failure
//! and grows after a run of easy steps, bounded by `[dt_min, dt_max]`.
//! Ring oscillators are started either from declared initial conditions
//! (`uic`, the usual way — SPICE's `.tran ... UIC`) or from a DC
//! operating point.

use crate::circuit::{Circuit, NodeId};
use crate::dc::{newton_solve, solve_dc, SolverOptions};
use crate::devices::Device;
use crate::error::{Result, SimError};
use crate::mna::{node_voltage, CapCompanion};
use crate::waveform::Waveform;

/// Numerical integration scheme for capacitor currents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order, L-stable, slightly lossy (numerical damping).
    BackwardEuler,
    /// Second-order, energy-preserving; the default, matching HSPICE's
    /// default for oscillator work.
    #[default]
    Trapezoidal,
}

/// Transient analysis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Initial/nominal time step, seconds.
    pub dt: f64,
    /// Smallest allowed step before the run aborts.
    pub dt_min: f64,
    /// Largest allowed step (accuracy bound).
    pub dt_max: f64,
    /// Integration scheme.
    pub integrator: Integrator,
    /// `true`: start from the declared initial conditions without a DC
    /// solve (needed for oscillators, which have no useful DC point).
    pub uic: bool,
    /// Newton solver settings per step.
    pub solver: SolverOptions,
    /// Watchdog budget: total Newton step *attempts* (accepted or
    /// rejected) before the run aborts with
    /// [`SimError::ConvergenceTimeout`]. Keeps pathological decks —
    /// e.g. fault-injected supplies that thrash the adaptive step
    /// controller — from looping effectively forever between `dt_min`
    /// retries. The default (10 million) is far above any healthy run
    /// in this workspace (thousands of steps).
    pub max_steps: u64,
}

impl TranOptions {
    /// Sensible defaults for a run to `t_stop`: `dt = t_stop/1000`,
    /// `dt_min = dt/10⁶`, `dt_max = dt`, trapezoidal, `uic = false`.
    pub fn to_time(t_stop: f64) -> Self {
        let dt = t_stop / 1000.0;
        TranOptions {
            t_stop,
            dt,
            dt_min: dt * 1e-6,
            dt_max: dt,
            integrator: Integrator::Trapezoidal,
            uic: false,
            solver: SolverOptions::default(),
            max_steps: 10_000_000,
        }
    }

    /// Switches on `uic` (start from initial conditions).
    #[must_use]
    pub fn with_uic(mut self) -> Self {
        self.uic = true;
        self
    }

    /// Selects the integration scheme.
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Overrides the step bounds.
    #[must_use]
    pub fn with_steps(mut self, dt: f64, dt_max: f64) -> Self {
        self.dt = dt;
        self.dt_max = dt_max;
        self.dt_min = dt * 1e-6;
        self
    }

    /// Overrides the Newton step-attempt watchdog budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }
}

/// Internal per-capacitor integration state.
#[derive(Debug, Clone, Copy, Default)]
struct CapState {
    /// Voltage across the capacitor at the last accepted time point.
    v: f64,
    /// Current through the capacitor at the last accepted time point
    /// (used by the trapezoidal rule).
    i: f64,
}

fn capacitor_terminals(circuit: &Circuit) -> Vec<(NodeId, NodeId, f64)> {
    circuit
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::Capacitor { a, b, farads, .. } => Some((*a, *b, *farads)),
            _ => None,
        })
        .collect()
}

/// Runs a transient analysis and records every accepted time point.
///
/// # Errors
///
/// * [`SimError::NoConvergence`] if the initial DC point (non-`uic` runs)
///   cannot be found;
/// * [`SimError::StepUnderflow`] if Newton keeps failing even at
///   `dt_min`;
/// * [`SimError::ConvergenceTimeout`] if the watchdog budget
///   ([`TranOptions::max_steps`]) is exhausted before reaching `t_stop`;
/// * [`SimError::SingularMatrix`] for structurally defective circuits.
///
/// # Panics
///
/// Panics if `t_stop`, `dt` or the step bounds are not positive and
/// ordered (`0 < dt_min ≤ dt ≤ dt_max`).
pub fn run_transient(circuit: &Circuit, opts: &TranOptions) -> Result<Waveform> {
    assert!(opts.t_stop > 0.0, "t_stop must be positive");
    assert!(
        opts.dt_min > 0.0 && opts.dt_min <= opts.dt && opts.dt <= opts.dt_max,
        "need 0 < dt_min <= dt <= dt_max"
    );
    let caps = capacitor_terminals(circuit);
    let n = circuit.unknown_count();

    // Initial state.
    let mut x = if opts.uic {
        let mut x0 = vec![0.0; n];
        for &(node, v) in circuit.initial_conditions() {
            if !node.is_ground() {
                x0[node.index() - 1] = v;
            }
        }
        x0
    } else {
        solve_dc(circuit, &opts.solver)?.unknowns().to_vec()
    };

    let mut cap_state: Vec<CapState> = caps
        .iter()
        .map(|&(a, b, _)| CapState {
            v: node_voltage(&x, a) - node_voltage(&x, b),
            i: 0.0,
        })
        .collect();

    let mut wave = Waveform::for_circuit(circuit);
    wave.push(0.0, &x);

    let mut t = 0.0;
    let mut h = opts.dt;
    let mut easy_streak = 0u32;
    let mut attempts: u64 = 0;

    while t < opts.t_stop {
        if t + h > opts.t_stop {
            h = opts.t_stop - t;
        }
        attempts += 1;
        if attempts > opts.max_steps {
            return Err(SimError::ConvergenceTimeout {
                steps: opts.max_steps,
                at_time: t,
            });
        }
        // Build companions for this step size. The very first step always
        // uses backward Euler: the capacitor currents stored at t = 0 are
        // not yet consistent with the circuit (especially under `uic`),
        // and trapezoidal integration would ring on that inconsistency.
        let scheme = if t == 0.0 {
            Integrator::BackwardEuler
        } else {
            opts.integrator
        };
        let companions: Vec<CapCompanion> = caps
            .iter()
            .zip(&cap_state)
            .map(|(&(_, _, c), st)| match scheme {
                Integrator::BackwardEuler => {
                    let geq = c / h;
                    CapCompanion {
                        geq,
                        jeq: -geq * st.v,
                    }
                }
                Integrator::Trapezoidal => {
                    let geq = 2.0 * c / h;
                    CapCompanion {
                        geq,
                        jeq: -geq * st.v - st.i,
                    }
                }
            })
            .collect();

        match newton_solve(
            circuit,
            &x,
            Some(t + h),
            Some(&companions),
            opts.solver.gmin,
            1.0,
            &opts.solver,
        ) {
            Ok(x_new) => {
                // Accept: update capacitor memory.
                for ((st, comp), &(a, b, _)) in cap_state.iter_mut().zip(&companions).zip(&caps) {
                    let v_new = node_voltage(&x_new, a) - node_voltage(&x_new, b);
                    st.i = comp.geq * v_new + comp.jeq;
                    st.v = v_new;
                }
                x = x_new;
                t += h;
                wave.push(t, &x);
                easy_streak += 1;
                if easy_streak >= 4 && h < opts.dt_max {
                    h = (h * 1.3).min(opts.dt_max);
                    easy_streak = 0;
                }
            }
            Err(SimError::NoConvergence { .. }) => {
                easy_streak = 0;
                h *= 0.5;
                if h < opts.dt_min {
                    return Err(SimError::StepUnderflow { at_time: t });
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(wave)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::Stimulus;

    fn rc_circuit(r: f64, c: f64, v: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(v))
            .unwrap();
        ckt.add_resistor("R1", a, out, r).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
        ckt
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // τ = 1 µs; check v(τ) ≈ V(1 − 1/e).
        let ckt = rc_circuit(1e3, 1e-9, 1.0);
        let opts = TranOptions::to_time(5e-6).with_uic().with_steps(5e-9, 5e-9);
        let wave = run_transient(&ckt, &opts).unwrap();
        let v_tau = wave.sample_at("out", 1e-6).unwrap();
        let expect = 1.0 - (-1.0_f64).exp();
        assert!(
            (v_tau - expect).abs() < 5e-3,
            "v(τ) = {v_tau}, expect {expect}"
        );
        let v_end = wave.sample_at("out", 5e-6).unwrap();
        assert!((v_end - 1.0).abs() < 1e-2, "fully charged: {v_end}");
    }

    #[test]
    fn backward_euler_also_converges_to_final_value() {
        let ckt = rc_circuit(1e3, 1e-9, 2.0);
        let opts = TranOptions::to_time(10e-6)
            .with_uic()
            .with_steps(10e-9, 10e-9)
            .with_integrator(Integrator::BackwardEuler);
        let wave = run_transient(&ckt, &opts).unwrap();
        let v_end = wave.sample_at("out", 10e-6).unwrap();
        assert!((v_end - 2.0).abs() < 2e-2);
    }

    #[test]
    fn trapezoidal_more_accurate_than_backward_euler() {
        let ckt = rc_circuit(1e3, 1e-9, 1.0);
        let run = |integ: Integrator| {
            let opts = TranOptions::to_time(2e-6)
                .with_uic()
                .with_steps(20e-9, 20e-9)
                .with_integrator(integ);
            let wave = run_transient(&ckt, &opts).unwrap();
            wave.sample_at("out", 1e-6).unwrap()
        };
        let expect = 1.0 - (-1.0_f64).exp();
        let err_be = (run(Integrator::BackwardEuler) - expect).abs();
        let err_tr = (run(Integrator::Trapezoidal) - expect).abs();
        assert!(err_tr < err_be, "trap {err_tr} vs BE {err_be}");
    }

    #[test]
    fn dc_start_skips_the_transient() {
        // Starting from the DC point, the RC output is already charged.
        let ckt = rc_circuit(1e3, 1e-9, 1.0);
        let opts = TranOptions::to_time(1e-6).with_steps(10e-9, 10e-9);
        let wave = run_transient(&ckt, &opts).unwrap();
        let v0 = wave.sample_at("out", 0.0).unwrap();
        assert!((v0 - 1.0).abs() < 1e-4, "starts charged: {v0}");
    }

    #[test]
    fn pulse_propagates_through_rc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            Stimulus::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 100e-9,
                rise: 1e-9,
                fall: 1e-9,
                width: 400e-9,
                period: 0.0,
            },
        )
        .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 10e-12)
            .unwrap();
        let opts = TranOptions::to_time(1e-6).with_uic().with_steps(1e-9, 1e-9);
        let wave = run_transient(&ckt, &opts).unwrap();
        assert!(
            wave.sample_at("out", 50e-9).unwrap().abs() < 1e-3,
            "before the pulse"
        );
        assert!(
            wave.sample_at("out", 400e-9).unwrap() > 0.99,
            "charged during the pulse"
        );
        assert!(
            wave.sample_at("out", 900e-9).unwrap() < 0.01,
            "discharged after"
        );
    }

    #[test]
    fn initial_conditions_respected_with_uic() {
        let mut ckt = rc_circuit(1e3, 1e-9, 0.0);
        let out = ckt.find_node("out").unwrap();
        ckt.set_initial_condition(out, 1.0);
        let opts = TranOptions::to_time(3e-6)
            .with_uic()
            .with_steps(10e-9, 10e-9);
        let wave = run_transient(&ckt, &opts).unwrap();
        assert!((wave.sample_at("out", 0.0).unwrap() - 1.0).abs() < 1e-12);
        // Discharges toward the 0 V source.
        let v_tau = wave.sample_at("out", 1e-6).unwrap();
        assert!((v_tau - (-1.0_f64).exp()).abs() < 5e-3);
    }

    #[test]
    fn step_budget_times_out_typed() {
        // 5000 steps are needed (5 µs at 1 ns); a 100-step budget must
        // abort with the typed watchdog error, not hang or underflow.
        let ckt = rc_circuit(1e3, 1e-9, 1.0);
        let opts = TranOptions::to_time(5e-6)
            .with_uic()
            .with_steps(1e-9, 1e-9)
            .with_max_steps(100);
        match run_transient(&ckt, &opts) {
            Err(SimError::ConvergenceTimeout { steps, at_time }) => {
                assert_eq!(steps, 100);
                assert!(at_time > 0.0 && at_time < 5e-6, "aborted at {at_time}");
            }
            other => panic!("expected ConvergenceTimeout, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "t_stop must be positive")]
    fn bad_options_rejected() {
        let ckt = rc_circuit(1e3, 1e-9, 1.0);
        let mut opts = TranOptions::to_time(1e-6);
        opts.t_stop = -1.0;
        let _ = run_transient(&ckt, &opts);
    }
}

//! The paper pipeline's layers, timed in the traced `serve-mixed` run:
//! the experiments that make up nearly all of the paper reproduction's
//! wall time, driven through the public layer calls — the Fig. 2 ratio
//! sweep, the Fig. 3 paper set and exhaustive search, the ext1
//! extended-cell searches, the transistor-level re-simulation of each
//! shortlist, and the STA period sweep.
//!
//! The pipeline is not a workload of its own: it is pure computation,
//! and on a shared machine whose core speed drifts its wall time spread
//! past any bound a workload may set (see `perfbench/NOISE.md`). Its
//! layers are reported per layer, without a bound, and each pass still
//! checks the paper's claims and that its results match the first pass.

use std::time::Instant;

use sta::AnalyticalModel;
use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::optimize::{config_search, exhaustive_config_search, ratio_sweep, SweepSettings};
use tsense_core::ring::{CellConfig, PeriodCurve};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Seconds};

use crate::measure::{median, Tracer};
use crate::Outcome;

/// Fig. 2's ratios and the three it re-simulates at transistor level.
const FIG2_RATIOS: [f64; 5] = [1.5, 1.75, 2.25, 3.0, 4.0];
const FIG2_SIM_RATIOS: [f64; 3] = [1.5, 2.25, 4.0];
/// Fig. 3's fixed library sizing and the size of its re-simulated
/// shortlist.
const FIG3_RATIO: f64 = 1.5;
const SHORTLIST: usize = 8;
/// Ext-1's library sizings.
const EXT1_RATIOS: [f64; 4] = [1.25, 1.5, 2.0, 3.0];
/// The STA sweep's sizing and temperatures.
const STA_RATIO: f64 = 2.0;
const STA_TEMPS_C: [f64; 5] = [-50.0, 0.0, 50.0, 100.0, 150.0];
/// Transient re-simulations sample 9 temperatures over −50…150 °C.
const SIM_TEMPS: usize = 9;

const CORE: &str = "tsense_core::optimize";
const STDCELL: &str = "stdcell::ring";
const STA: &str = "sta";

/// One pass: per-call durations by layer, the checked claims, and a
/// digest of every number the pass produced.
struct Pass {
    calls: Vec<(&'static str, u64)>,
    configs: u64,
    period_points: u64,
    digest: u64,
    failures: Vec<String>,
}

fn nl_of(curve: &[(f64, f64)]) -> Result<f64, String> {
    let pc = PeriodCurve::new(
        curve.iter().map(|&(t, _)| Celsius::new(t)).collect(),
        curve.iter().map(|&(_, p)| Seconds::new(p)).collect(),
    );
    NonLinearity::of_curve(&pc, FitKind::LeastSquares)
        .map(|nl| nl.max_abs_percent())
        .map_err(|e| format!("NL analysis: {e:?}"))
}

struct Digest(u64);

impl Digest {
    fn add(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Transient re-simulation of one ring at `temps`: one `stdcell::ring`
/// call.
fn simulate(
    tracer: &mut Tracer,
    pass: &mut Pass,
    lib: &CellLibrary,
    config: &CellConfig,
    temps: &[f64],
) -> Result<Vec<(f64, f64)>, String> {
    let ring = lib
        .ring_from_config(config)
        .map_err(|e| format!("ring {config}: {e:?}"))?;
    let (curve, ns) = tracer.time(STDCELL, "period_curve", temps.len() as u64, || {
        ring.period_curve(temps)
    });
    pass.calls.push((STDCELL, ns));
    pass.period_points += temps.len() as u64;
    curve.map_err(|e| format!("transient of {config}: {e:?}"))
}

fn run_pass(tracer: &mut Tracer) -> Result<Pass, String> {
    let tech = Technology::um350();
    let settings = SweepSettings::default();
    let sim_temps: Vec<f64> = (0..SIM_TEMPS)
        .map(|i| -50.0 + 200.0 * i as f64 / (SIM_TEMPS - 1) as f64)
        .collect();
    let mut pass = Pass {
        calls: Vec::new(),
        configs: 0,
        period_points: 0,
        digest: 0,
        failures: Vec::new(),
    };
    let mut digest = Digest(0xCBF2_9CE4_8422_2325);

    // Fig. 2: the ratio sweep and its transistor-level cross-check.
    let (sweep, ns) = tracer.time(CORE, "ratio_sweep", FIG2_RATIOS.len() as u64, || {
        ratio_sweep(&tech, GateKind::Inv, 1e-6, 5, &FIG2_RATIOS, &settings)
    });
    pass.calls.push((CORE, ns));
    let sweep = sweep.map_err(|e| format!("ratio sweep: {e:?}"))?;
    pass.configs += sweep.len() as u64;
    let min_nl = sweep
        .iter()
        .map(|p| p.max_nl_percent)
        .fold(f64::INFINITY, f64::min);
    if min_nl >= 0.2 {
        pass.failures.push(format!(
            "fig2: best ratio NL {min_nl:.4} % is not below 0.2 %"
        ));
    }
    let inv5 = CellConfig::uniform(GateKind::Inv, 5).map_err(|e| format!("{e:?}"))?;
    let mut sim_nl = Vec::new();
    for &ratio in &FIG2_SIM_RATIOS {
        let curve = simulate(
            tracer,
            &mut pass,
            &CellLibrary::um350(ratio),
            &inv5,
            &sim_temps,
        )?;
        sim_nl.push(nl_of(&curve)?);
    }
    let model_nl: Vec<f64> = FIG2_SIM_RATIOS
        .iter()
        .map(|&r| {
            sweep
                .iter()
                .find(|p| p.ratio == r)
                .map_or(f64::NAN, |p| p.max_nl_percent)
        })
        .collect();
    let argmin = |v: &[f64]| (0..v.len()).min_by(|&a, &b| v[a].total_cmp(&v[b]));
    if argmin(&sim_nl) != argmin(&model_nl) {
        pass.failures
            .push("fig2: simulation and model disagree on the best ratio".into());
    }
    sweep.iter().for_each(|p| digest.add(p.max_nl_percent));
    sim_nl.iter().for_each(|&x| digest.add(x));

    // Fig. 3: the paper set, the exhaustive search, and the re-simulated
    // analytical shortlist against the 5×INV baseline.
    let paper_set = CellConfig::paper_fig3_set();
    let (ranked, ns) = tracer.time(CORE, "config_search", paper_set.len() as u64, || {
        config_search(&tech, &paper_set, 1e-6, FIG3_RATIO, &settings)
    });
    pass.calls.push((CORE, ns));
    let ranked = ranked.map_err(|e| format!("config search: {e:?}"))?;
    pass.configs += ranked.len() as u64;
    ranked.iter().for_each(|p| digest.add(p.max_nl_percent));
    let (full, ns) = tracer.time(CORE, "exhaustive_config_search", 0, || {
        exhaustive_config_search(&tech, &GateKind::PAPER_SET, 5, 1e-6, FIG3_RATIO, &settings)
    });
    pass.calls.push((CORE, ns));
    let full = full.map_err(|e| format!("exhaustive search: {e:?}"))?;
    pass.configs += full.len() as u64;
    let inv_nl = full
        .iter()
        .find(|p| p.config == inv5)
        .map_or(f64::NAN, |p| p.max_nl_percent);
    let best = full.first().map_or(f64::NAN, |p| p.max_nl_percent);
    if !(best < 0.5 * inv_nl && best < 0.2) {
        pass.failures.push(format!(
            "fig3: best mix {best:.4} % is not below half of 5xINV {inv_nl:.4} % and 0.2 %"
        ));
    }
    let lib = CellLibrary::um350(FIG3_RATIO);
    let mut best_sim = f64::INFINITY;
    for p in full.iter().take(SHORTLIST) {
        let nl = nl_of(&simulate(tracer, &mut pass, &lib, &p.config, &sim_temps)?)?;
        best_sim = best_sim.min(nl);
        digest.add(nl);
    }
    let inv_sim = nl_of(&simulate(tracer, &mut pass, &lib, &inv5, &sim_temps)?)?;
    if best_sim >= inv_sim {
        pass.failures.push(format!(
            "fig3: simulated winner {best_sim:.4} % does not beat 5xINV {inv_sim:.4} %"
        ));
    }
    digest.add(inv_sim);

    // Ext-1: the paper and extended cell sets at four sizings, then the
    // 5- and 7-stage extended searches.
    let mut searches: Vec<(&[GateKind], usize, f64)> = Vec::new();
    for &ratio in &EXT1_RATIOS {
        searches.push((&GateKind::PAPER_SET, 5, ratio));
        searches.push((&GateKind::EXTENDED_SET, 5, ratio));
    }
    searches.push((&GateKind::EXTENDED_SET, 5, FIG3_RATIO));
    searches.push((&GateKind::EXTENDED_SET, 7, FIG3_RATIO));
    let mut bests = Vec::new();
    for (kinds, stages, ratio) in searches {
        let (found, ns) = tracer.time(CORE, "exhaustive_config_search", 0, || {
            exhaustive_config_search(&tech, kinds, stages, 1e-6, ratio, &settings)
        });
        pass.calls.push((CORE, ns));
        let found = found.map_err(|e| format!("ext1 search: {e:?}"))?;
        pass.configs += found.len() as u64;
        let b = found.first().map_or(f64::NAN, |p| p.max_nl_percent);
        digest.add(b);
        bests.push(b);
    }
    for pair in bests[..2 * EXT1_RATIOS.len()].chunks(2) {
        if pair[1] > pair[0] + 1e-12 {
            pass.failures
                .push("ext1: the extended set did worse than the paper set".into());
        }
    }

    // STA: the transient and timing-graph sweeps of the same ring.
    let lib = CellLibrary::um350(STA_RATIO);
    let transient = simulate(tracer, &mut pass, &lib, &inv5, &STA_TEMPS_C)?;
    let model = AnalyticalModel::um350(STA_RATIO);
    let kinds = [GateKind::Inv; 5];
    let mut sta_periods = Vec::new();
    for &t in &STA_TEMPS_C {
        let (period, ns) = tracer.time(STA, "period_at", 1, || sta::period_at(&kinds, &model, t));
        pass.calls.push((STA, ns));
        sta_periods.push(period.map_err(|e| format!("sta period: {e:?}"))?);
    }
    let rising = |v: &[f64]| v.windows(2).all(|w| w[1] > w[0]);
    let sim_periods: Vec<f64> = transient.iter().map(|&(_, p)| p).collect();
    if !rising(&sim_periods) || !rising(&sta_periods) {
        pass.failures
            .push("sta: period does not grow with temperature in both engines".into());
    }
    sim_periods
        .iter()
        .chain(&sta_periods)
        .for_each(|&x| digest.add(x));
    pass.digest = digest.0;
    Ok(pass)
}

/// Times the paper pipeline's layers for about `seconds`, one pass
/// after another and at least one pass. Every pass re-checks the
/// paper's claims and that it reproduces the first pass. The per-layer
/// metrics are medians over the passes. The pipeline is deterministic,
/// so it takes no seed.
pub fn run_layers(seconds: f64, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // Start another pass only if one more, as long as the last, fits.
    while walls
        .last()
        .is_none_or(|w| start.elapsed().as_secs_f64() + w <= seconds)
    {
        let t = Instant::now();
        let pass = run_pass(tracer)?;
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += pass.calls.len() as u64;
        if passes
            .first()
            .is_some_and(|first| first.digest != pass.digest)
        {
            out.violations
                .push("paper: a pass produced different results".into());
        }
        out.violations.extend(pass.failures.iter().cloned());
        passes.push(pass);
    }
    let layer_total = |pass: &Pass, layer: &str| -> u64 {
        pass.calls
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    };
    let layer_calls =
        |pass: &Pass, layer: &str| pass.calls.iter().filter(|(l, _)| *l == layer).count() as f64;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.metric(
        "core.search_ms",
        per_pass(&|p| layer_total(p, CORE) as f64 / 1e6),
        "ms",
    );
    out.metric("core.configs", per_pass(&|p| p.configs as f64), "count");
    out.metric(
        "stdcell.period_curve_ms",
        per_pass(&|p| layer_total(p, STDCELL) as f64 / 1e6),
        "ms",
    );
    out.metric(
        "stdcell.ring_ms",
        per_pass(&|p| layer_total(p, STDCELL) as f64 / 1e6 / layer_calls(p, STDCELL)),
        "ms",
    );
    out.metric(
        "stdcell.period_points",
        per_pass(&|p| p.period_points as f64),
        "count",
    );
    out.metric(
        "sta.period_us",
        per_pass(&|p| layer_total(p, STA) as f64 / 1e3 / layer_calls(p, STA)),
        "us",
    );
    out.metric("paper.wall_s", median(&walls), "s");
    out.note(format!(
        "paper pipeline: {} passes, pass walls {:.3?} s",
        walls.len(),
        walls
    ));
    Ok(())
}

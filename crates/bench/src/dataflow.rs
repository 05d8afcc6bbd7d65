//! `dataflow` — the parallel incremental netlist-lint driver as a
//! benchmark: lints every shipped certify bundle's full gate-level
//! surface (smart unit, digitizer, 4-channel mux scan) through
//! `netcheck::run_targets` and records what the cache and the worker
//! pool buy.
//!
//! Three questions, three sections:
//!
//! 1. **Coverage**: every `examples/certify/*.toml` bundle must lint
//!    clean under all four dataflow families (NC11xx–NC14xx) — zero
//!    errors, zero warnings.
//! 2. **Cache**: a warm run (every target answered from the on-disk
//!    cache) must be at least 5× faster than the cold run, and the
//!    merged report must stay byte-identical across no-cache, cold,
//!    and warm modes and across worker counts.
//! 3. **Scheduling**: `--jobs N` wall-clock scaling. CPU-bound scaling
//!    is only observable with ≥4 hardware threads, so the JSON records
//!    the core count next to the measured ratio; a latency-bound probe
//!    (targets that wait, as cache-miss I/O does) demonstrates the
//!    pool overlaps stalls on any machine.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netcheck::{
    check_netlist_dataflow, check_sensor_config, AnalysisTarget, CertifyBundle, DriverOptions,
    Report,
};
use tsense_core::units::{Celsius, Seconds};

use crate::{artifact_head, cores, render_table, write_artifact};

/// Number of timing repetitions; the minimum is reported.
const REPS: usize = 3;

/// Synthetic latency-bound targets for the scheduling probe.
const PROBE_TARGETS: usize = 8;
const PROBE_STALL: Duration = Duration::from_millis(4);

/// One certify bundle linted over its full gate-level surface: the
/// smart unit, the standalone digitizer, and a 4-channel mux scan at
/// slightly spread ring periods.
struct BundleTarget {
    name: String,
    text: String,
}

impl BundleTarget {
    /// The lint period: the bundle's nominal 25 °C ring period, clamped
    /// to the divider toggle-loop floor exactly as the CLI does — the
    /// dataflow families are structural, so the period only picks the
    /// clock-domain roots.
    fn lint_period(&self, bundle: &CertifyBundle) -> Seconds {
        let cfg = &bundle.config;
        let period = cfg
            .ring
            .period(&cfg.tech, Celsius::new(25.0))
            .expect("shipped ring evaluates at nominal temperature");
        let floor_ps =
            2.0 * (dsim::builders::DFF_DELAY_FS + dsim::builders::GATE_DELAY_FS) as f64 * 1e-3;
        Seconds::from_picos(period.as_picos().max(floor_ps))
    }
}

impl AnalysisTarget for BundleTarget {
    fn path(&self) -> &str {
        &self.name
    }

    fn fingerprint_payload(&self) -> Vec<u8> {
        self.text.clone().into_bytes()
    }

    fn rule_set(&self) -> &str {
        "bench-bundle-surface"
    }

    fn analyze(&self) -> Report {
        let bundle = CertifyBundle::parse(&self.text, &self.name).expect("shipped bundle parses");
        let cfg = &bundle.config;
        let mut report = check_sensor_config(cfg);
        let p = self.lint_period(&bundle);
        let unit = sensor::gateunit::GateLevelUnit::new(
            p,
            cfg.ref_clock,
            cfg.settle_cycles,
            cfg.window_cycles,
        )
        .expect("shipped unit builds");
        report.extend(check_netlist_dataflow(unit.netlist()));
        let dig = sensor::digitizer::GateLevelDigitizer::new(p, cfg.ref_clock, cfg.window_cycles)
            .expect("shipped digitizer builds");
        report.extend(check_netlist_dataflow(&dig.netlist()));
        let periods: Vec<Seconds> = (0..4)
            .map(|i| Seconds::from_picos(p.as_picos() * (1.0 + 0.1 * i as f64)))
            .collect();
        let scan =
            sensor::muxscan::GateLevelMuxScan::new(&periods, cfg.ref_clock, cfg.window_cycles)
                .expect("shipped mux scan builds");
        report.extend(check_netlist_dataflow(scan.netlist()));
        report
    }
}

/// A target that stalls instead of computing — the shape of a cache
/// miss waiting on storage. Lets the probe show worker overlap even on
/// a single hardware thread.
struct StallTarget {
    name: String,
}

impl AnalysisTarget for StallTarget {
    fn path(&self) -> &str {
        &self.name
    }

    fn fingerprint_payload(&self) -> Vec<u8> {
        self.name.clone().into_bytes()
    }

    fn rule_set(&self) -> &str {
        "bench-stall-probe"
    }

    fn analyze(&self) -> Report {
        std::thread::sleep(PROBE_STALL);
        Report::new()
    }
}

fn example_bundles() -> Vec<BundleTarget> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/certify");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/certify exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|p| BundleTarget {
            name: p.file_stem().unwrap().to_string_lossy().into_owned(),
            text: std::fs::read_to_string(&p).expect("bundle readable"),
        })
        .collect()
}

fn opts(jobs: usize, cache: Option<&Path>) -> DriverOptions {
    DriverOptions {
        jobs,
        cache_dir: cache.map(Path::to_path_buf),
        ..DriverOptions::default()
    }
}

/// Runs `run_targets` and returns (elapsed, outcome).
fn timed(
    targets: &[&dyn AnalysisTarget],
    o: &DriverOptions,
) -> (Duration, netcheck::DriverOutcome) {
    let t = Instant::now();
    let out = netcheck::run_targets(targets, o);
    (t.elapsed(), out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if a shipped bundle fails to parse or its gate-level
/// topologies fail to build — the harness is a diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let owned = example_bundles();
    let targets: Vec<&dyn AnalysisTarget> = owned.iter().map(|t| t as _).collect();
    assert!(!targets.is_empty(), "no certify bundles found");

    let scratch = std::env::temp_dir().join("tsense_bench_dataflow_cache");
    let _ = std::fs::remove_dir_all(&scratch);

    // ---- coverage + byte-identity reference (no cache, 1 job) --------
    let (_, reference) = timed(&targets, &opts(1, None));
    let errors = reference.report.count(netcheck::Severity::Error);
    let warnings = reference.report.count(netcheck::Severity::Warning);
    let clean = errors == 0 && warnings == 0;

    // ---- cold / warm / jobs timings (best of REPS) --------------------
    let mut cold_1 = Duration::MAX;
    let mut cold_4 = Duration::MAX;
    let mut identical = true;
    for rep in 0..REPS {
        let d1 = scratch.join(format!("cold1-{rep}"));
        let (t1, o1) = timed(&targets, &opts(1, Some(&d1)));
        cold_1 = cold_1.min(t1);
        let d4 = scratch.join(format!("cold4-{rep}"));
        let (t4, o4) = timed(&targets, &opts(4, Some(&d4)));
        cold_4 = cold_4.min(t4);
        identical &= o1.report.render_text() == reference.report.render_text();
        identical &= o4.report.render_text() == reference.report.render_text();
    }
    let warm_dir = scratch.join("cold1-0");
    let mut warm = Duration::MAX;
    let mut warm_hits = 0usize;
    for _ in 0..REPS {
        let (t, o) = timed(&targets, &opts(1, Some(&warm_dir)));
        warm = warm.min(t);
        warm_hits = o.stats.hits;
        identical &= o.report.render_text() == reference.report.render_text();
    }
    let warm_speedup = ms(cold_1) / ms(warm).max(1e-6);
    let jobs_speedup = ms(cold_1) / ms(cold_4).max(1e-6);

    // ---- latency-bound scheduling probe (no cache) --------------------
    let probe_owned: Vec<StallTarget> = (0..PROBE_TARGETS)
        .map(|i| StallTarget {
            name: format!("stall-{i}"),
        })
        .collect();
    let probe: Vec<&dyn AnalysisTarget> = probe_owned.iter().map(|t| t as _).collect();
    let (probe_1, _) = timed(&probe, &opts(1, None));
    let (probe_4, _) = timed(&probe, &opts(4, None));
    let probe_speedup = ms(probe_1) / ms(probe_4).max(1e-6);

    let cores = cores();
    let _ = std::fs::remove_dir_all(&scratch);

    // ---- pass/fail ----------------------------------------------------
    // CPU-bound jobs scaling is only claimable with ≥4 hardware
    // threads; below that the latency probe carries the scheduling
    // claim.
    let scaling_ok = if cores >= 4 {
        jobs_speedup > 1.5
    } else {
        probe_speedup > 1.5
    };
    let pass =
        clean && identical && warm_hits == targets.len() && warm_speedup >= 5.0 && scaling_ok;

    // ---- artifacts ----------------------------------------------------
    let mut json = artifact_head();
    let _ = writeln!(json, "  \"targets\": {},", targets.len());
    let _ = writeln!(
        json,
        "  \"bundles\": [{}],",
        owned
            .iter()
            .map(|t| format!("\"{}\"", t.name))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"errors\": {errors},");
    let _ = writeln!(json, "  \"warnings\": {warnings},");
    let _ = writeln!(json, "  \"clean\": {clean},");
    let _ = writeln!(json, "  \"cold_ms_jobs1\": {:.3},", ms(cold_1));
    let _ = writeln!(json, "  \"cold_ms_jobs4\": {:.3},", ms(cold_4));
    let _ = writeln!(json, "  \"warm_ms_jobs1\": {:.3},", ms(warm));
    let _ = writeln!(json, "  \"warm_cache_hits\": {warm_hits},");
    let _ = writeln!(json, "  \"warm_speedup\": {warm_speedup:.2},");
    let _ = writeln!(json, "  \"jobs_speedup\": {jobs_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"latency_probe\": {{\"targets\": {PROBE_TARGETS}, \"stall_ms\": {}, \
         \"jobs1_ms\": {:.3}, \"jobs4_ms\": {:.3}, \"speedup\": {probe_speedup:.2}}},",
        PROBE_STALL.as_millis(),
        ms(probe_1),
        ms(probe_4)
    );
    let _ = writeln!(json, "  \"byte_identical\": {identical},");
    let _ = writeln!(json, "  \"pass\": {pass}");
    json.push_str("}\n");
    write_artifact(out_dir, "BENCH_netcheck_dataflow.json", &json);

    // ---- report -------------------------------------------------------
    let rows = vec![
        vec![
            "cold, 1 job".to_string(),
            format!("{:.2}", ms(cold_1)),
            "-".to_string(),
        ],
        vec![
            "cold, 4 jobs".to_string(),
            format!("{:.2}", ms(cold_4)),
            format!("{jobs_speedup:.2}x"),
        ],
        vec![
            "warm, 1 job".to_string(),
            format!("{:.2}", ms(warm)),
            format!("{warm_speedup:.2}x"),
        ],
        vec![
            format!(
                "stall probe, 1 job ({PROBE_TARGETS}x{}ms)",
                PROBE_STALL.as_millis()
            ),
            format!("{:.2}", ms(probe_1)),
            "-".to_string(),
        ],
        vec![
            "stall probe, 4 jobs".to_string(),
            format!("{:.2}", ms(probe_4)),
            format!("{probe_speedup:.2}x"),
        ],
    ];
    let mut report = String::from("dataflow: parallel incremental netlist-lint driver\n\n");
    report.push_str(&render_table(&["mode", "wall ms", "speedup"], &rows));
    let _ = writeln!(
        report,
        "\n{} bundles x 3 topologies: {errors} error(s), {warnings} warning(s)",
        targets.len()
    );
    let _ = writeln!(
        report,
        "reports byte-identical across modes/jobs: {identical}; warm hits {warm_hits}/{}",
        targets.len()
    );
    let _ = writeln!(report, "hardware threads: {cores}");
    let _ = writeln!(report, "overall: {}", if pass { "PASS" } else { "FAIL" });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_bench_is_clean_cached_and_deterministic() {
        let dir = std::env::temp_dir().join("tsense_bench_dataflow_test");
        let report = run(&dir);
        assert!(report.contains("overall: PASS"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_netcheck_dataflow.json")).unwrap();
        assert!(json.contains("\"clean\": true"), "{json}");
        assert!(json.contains("\"byte_identical\": true"), "{json}");
        assert!(json.contains("\"pass\": true"), "{json}");
    }
}

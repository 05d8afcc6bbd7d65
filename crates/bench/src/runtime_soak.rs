//! `soak` — the supervised monitoring runtime as a benchmark: paired
//! short soaks with and without a chaos storm, recording throughput,
//! tail latency, and the recovery path's behavior.
//!
//! The soak is the robustness analogue of the accuracy figures one
//! level up the stack from the fault campaign: instead of asking *"is
//! one faulty reading caught?"*, it asks *"does a long-running service
//! keep its deadline/staleness contract while faults strike, clear,
//! and the process itself is killed and recovered mid-storm?"*. The
//! liveness invariants (zero late replies, zero silent-stale reads,
//! breakers re-closed, checkpoint recovery) must PASS in both runs.

use std::fmt::Write as _;
use std::path::Path;

use runtime::{run_soak, RuntimeConfig, SoakConfig, SoakReport};

use crate::{render_table, runs_json, verdict, write_artifact};

/// Seed shared by both runs (and CI's 60-second smoke soak).
pub const SOAK_SEED: u64 = 42;

fn soak_config(tag: &str, chaos: bool) -> SoakConfig {
    // Checkpoints are scratch state, not an artifact: keep them out of
    // the results directory.
    let ckpt_dir = std::env::temp_dir().join(format!(
        "tsense_bench_soak_ckpt_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&ckpt_dir).ok();
    SoakConfig {
        seed: SOAK_SEED,
        duration_ms: 2_000,
        drain_ms: 3_000,
        sites: 9,
        faults: if chaos { 8 } else { 0 },
        clients: 3,
        request_interval_ms: 2,
        restart_at_ms: chaos.then_some(1_000),
        ambient_c: 85.0,
        runtime: RuntimeConfig {
            scan_interval_ms: 25,
            checkpoint_interval_ms: 100,
            snapshot_dir: Some(ckpt_dir),
            ..RuntimeConfig::default()
        },
    }
}

fn row(tag: &str, r: &SoakReport) -> Vec<String> {
    vec![
        tag.to_string(),
        r.requests.to_string(),
        format!("{:.0}", r.throughput_per_s),
        r.latency.quantile(0.50).to_string(),
        r.latency.quantile(0.99).to_string(),
        r.served_fresh.to_string(),
        r.served_degraded.to_string(),
        r.typed_errors.to_string(),
        r.breaker_trips.to_string(),
        r.restarts.to_string(),
    ]
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if a soak cannot start — the harness is a diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let quiet = run_soak(&soak_config("quiet", false)).expect("quiet soak");
    let chaos = run_soak(&soak_config("chaos", true)).expect("chaos soak");

    // ---- artifacts ----------------------------------------------------
    let runs = [
        ("quiet", quiet.render_json(false)),
        ("chaos", chaos.render_json(true)),
    ];
    write_artifact(
        out_dir,
        "BENCH_runtime_soak.json",
        &runs_json(SOAK_SEED, &runs),
    );

    // ---- report -------------------------------------------------------
    let mut report = String::new();
    report.push_str(
        "soak — supervised runtime under load, with and without a seeded chaos storm\n\n",
    );
    report.push_str(&render_table(
        &[
            "run", "requests", "req/s", "p50 us", "p99 us", "fresh", "degraded", "errors", "trips",
            "restarts",
        ],
        &[row("quiet", &quiet), row("chaos", &chaos)],
    ));
    report.push('\n');
    for (tag, r, restart) in [("quiet", &quiet, false), ("chaos", &chaos, true)] {
        let _ = writeln!(
            report,
            "{tag}: zero late replies + zero silent-stale: {}",
            verdict(r.late_replies == 0 && r.silent_stale == 0)
        );
        let _ = writeln!(
            report,
            "{tag}: breakers re-closed, liveness invariants hold: {}",
            verdict(r.liveness_ok(restart))
        );
    }
    let _ = writeln!(
        report,
        "chaos: kill-and-recover restored checkpoint seq {:?}, skipped {} corrupt snapshot(s): {}",
        chaos.recovered_seq,
        chaos.corrupt_snapshots_skipped,
        verdict(chaos.restarts == 1 && chaos.recovered_seq.is_some())
    );
    let slowdown = if chaos.throughput_per_s > 0.0 {
        quiet.throughput_per_s / chaos.throughput_per_s
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        report,
        "throughput under chaos: {:.0} vs {:.0} req/s quiet ({slowdown:.2}x slowdown)",
        chaos.throughput_per_s, quiet.throughput_per_s,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_report_passes_its_own_checks() {
        let dir = std::env::temp_dir().join("tsense_bench_soak_test");
        std::fs::remove_dir_all(&dir).ok();
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_runtime_soak.json")).unwrap();
        assert!(json.contains("\"liveness_ok\": true"));
        assert!(json.contains("\"silent_stale\": 0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

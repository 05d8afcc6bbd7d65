//! `wire` and `replicated` — the fleet tier over live TCP as a
//! benchmark: paired open-loop soaks, clean and through the seeded
//! chaos proxy, recording throughput, tail latency, and the graded
//! fleet invariants. The two experiments differ only in their
//! [`Scenario`].
//!
//! `wire` puts the supervised cores behind the length-prefixed frame
//! codec, a threaded server with deadlines and backpressure, and a
//! retrying client, and asks *"does the deadline/staleness contract
//! survive a hostile network (latency spikes, truncation, resets,
//! garbage injection) plus a mid-soak crash-recover and a
//! decommission?"*.
//!
//! `replicated` asks the replication question on top: *"when the
//! primary of a shard group is hard-killed under load, does a backup
//! get promoted with every acked effect intact, do fenced ex-primary
//! writes stay refused, and what does failover cost in tail
//! latency?"*. Its runs must also hold *failover completes* (at least
//! one promotion) and *at-most-once across the promotion* (replayed
//! retries, zero duplicate effects).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use runtime::{run_wire_soak, RetryPolicy, WireSoakConfig, WireSoakReport};
use wire::chaos::ChaosProfile;

use crate::{render_table, runs_json, verdict, write_artifact};

/// Seed shared by every run (and CI's seeded chaos soaks).
pub const WIRE_SEED: u64 = 42;

/// What one experiment does to the tier mid-soak.
pub struct Scenario {
    /// Experiment id.
    pub id: &'static str,
    /// Artifact stem: `BENCH_<stem>.json` and `<stem>_<run>_hist.txt`.
    pub stem: &'static str,
    /// The report's title line.
    pub title: &'static str,
    /// Crash-and-recover `(shard, at_ms)`.
    pub crash: Option<(usize, u64)>,
    /// Decommission `(shard, at_ms)`.
    pub decommission: Option<(usize, u64)>,
    /// Permanently kill `(shard, at_ms)`'s primary.
    pub kill_primary: Option<(usize, u64)>,
}

/// `wire`: a crash-recover and a decommission.
pub const WIRE: Scenario = Scenario {
    id: "wire",
    stem: "wire_fleet",
    title: "fleet tier over live TCP, clean and through the seeded chaos proxy",
    crash: Some((1, 1_000)),
    decommission: Some((2, 1_800)),
    kill_primary: None,
};

/// `replicated`: a crash-recover and a hard primary kill.
pub const REPLICATED: Scenario = Scenario {
    id: "replicated",
    stem: "replicated_fleet",
    title: "shard-group failover under load: a mid-soak primary kill, \
            clean and through the seeded chaos proxy",
    crash: Some((1, 600)),
    decommission: None,
    kill_primary: Some((0, 1_250)),
};

/// Where `tag`'s run keeps its snapshots. They are scratch state for the
/// crash-recover leg, not an artifact: the directory lives outside the
/// results directory and is removed once the soak returns.
fn snap_dir(scenario: &Scenario, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsense_bench_{}_snap_{tag}_{}",
        scenario.stem,
        std::process::id()
    ))
}

/// Runs one soak of `scenario` under a fresh snapshot root, then
/// removes that root, pass or fail.
fn soak(scenario: &Scenario, tag: &str, chaos: bool) -> WireSoakReport {
    let dir = snap_dir(scenario, tag);
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = WireSoakConfig {
        seed: WIRE_SEED,
        duration_ms: 2_500,
        rate_hz: 200.0,
        clients: 4,
        chaos: chaos.then(ChaosProfile::hostile),
        client_retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 2,
            max_delay_ms: 40,
            ..RetryPolicy::default()
        },
        crash: scenario.crash,
        decommission: scenario.decommission,
        kill_primary: scenario.kill_primary,
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = Some(dir.clone());
    let report = run_wire_soak(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    report.unwrap_or_else(|e| panic!("{tag} wire soak: {e}"))
}

fn row(tag: &str, r: &WireSoakReport) -> Vec<String> {
    vec![
        tag.to_string(),
        r.requests.to_string(),
        format!("{:.0}", r.throughput_rps),
        r.latency.quantile(0.50).to_string(),
        r.latency.quantile(0.99).to_string(),
        r.latency.quantile(0.999).to_string(),
        r.server.shed.to_string(),
        r.server.deduped.to_string(),
        r.server.failovers.to_string(),
        r.server.replicated.to_string(),
        r.server.promotions.to_string(),
        r.server.fenced_writes.to_string(),
        r.chaos_faults.map_or("-".into(), |f| f.to_string()),
    ]
}

/// Runs `scenario`'s experiment; see module docs.
///
/// # Panics
///
/// Panics if a soak cannot start — the harness is a diagnostic tool.
pub fn run(scenario: &Scenario, out_dir: &Path) -> String {
    let clean = soak(scenario, "clean", false);
    let chaos = soak(scenario, "chaos", true);
    let runs = [("clean", &clean), ("chaos", &chaos)];
    let kill = scenario.kill_primary.is_some();

    // ---- artifacts ----------------------------------------------------
    let json: Vec<(&str, String)> = runs.iter().map(|(t, r)| (*t, r.render_json())).collect();
    let name = format!("BENCH_{}.json", scenario.stem);
    write_artifact(out_dir, &name, &runs_json(WIRE_SEED, &json));
    for (tag, r) in runs {
        let hist = format!("{}_{tag}_hist.txt", scenario.stem);
        write_artifact(out_dir, &hist, &r.latency.render());
    }

    // ---- report -------------------------------------------------------
    let mut report = format!("{} — {}\n\n", scenario.id, scenario.title);
    report.push_str(&render_table(
        &[
            "run",
            "requests",
            "req/s",
            "p50 us",
            "p99 us",
            "p999 us",
            "shed",
            "deduped",
            "failovers",
            "replicated",
            "promotions",
            "fenced",
            "faults",
        ],
        &[row("clean", &clean), row("chaos", &chaos)],
    ));
    report.push('\n');
    for (tag, r) in runs {
        let _ = writeln!(
            report,
            "{tag}: graded fleet invariants (honest staleness, no decommissioned serve, \
             no resurrected cache, at-most-once{}): {}",
            if kill { ", failover completes" } else { "" },
            verdict(r.invariants_ok())
        );
        for v in &r.violations {
            let _ = writeln!(report, "{tag}:   violation: {v}");
        }
        if kill {
            let _ = writeln!(
                report,
                "{tag}: {} promotion(s), {} effect record(s) shipped to backups, \
                 {} fenced write(s), {} duplicate effect(s): {}",
                r.server.promotions,
                r.server.replicated,
                r.server.fenced_writes,
                r.server.duplicate_effects,
                verdict(r.server.promotions >= 1 && r.server.duplicate_effects == 0)
            );
        }
    }
    let _ = writeln!(
        report,
        "chaos: {} network fault(s) injected, {} retried request(s) deduplicated, \
         {} duplicate effect(s): {}",
        chaos.chaos_faults.unwrap_or(0),
        chaos.server.deduped,
        chaos.server.duplicate_effects,
        verdict(chaos.server.duplicate_effects == 0)
    );
    if kill {
        let _ = writeln!(
            report,
            "failover cost: clean p99 {} us vs chaos p99 {} us across the primary kill \
             ({} vs {} completed of {} / {} scheduled)",
            clean.latency.quantile(0.99),
            chaos.latency.quantile(0.99),
            clean.completed,
            chaos.completed,
            clean.requests,
            chaos.requests,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_report_passes_its_own_checks() {
        let dir = crate::TestDir::new("bench_wire");
        let report = run(&WIRE, &dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_wire_fleet.json")).unwrap();
        assert!(json.contains("\"invariants_ok\": true"));
        assert!(json.contains("\"duplicate_effects\": 0"));
        assert_scratch_removed(&WIRE);
    }

    #[test]
    fn replicated_report_passes_its_own_checks() {
        let dir = crate::TestDir::new("bench_replicated");
        let report = run(&REPLICATED, &dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_replicated_fleet.json")).unwrap();
        assert!(json.contains("\"invariants_ok\": true"));
        assert!(json.contains("\"duplicate_effects\": 0"));
        assert_scratch_removed(&REPLICATED);
    }

    fn assert_scratch_removed(scenario: &Scenario) {
        for tag in ["clean", "chaos"] {
            let dir = snap_dir(scenario, tag);
            assert!(!dir.exists(), "{} left behind", dir.display());
        }
    }
}

//! `fleet` — the distributed-fleet deterministic simulator as a
//! benchmark: a large seed sweep of the multi-node topology (shards +
//! consistent-hash router + clients over a faulty message fabric),
//! the parallel sweep driver's wall-clock scaling, and the known-bad
//! router mutation's catch/shrink/replay pipeline.
//!
//! Four questions, four sections:
//!
//! 1. **Cleanliness at scale**: ≥1000 fleet seeds — partitions, lossy
//!    and slow links, duplicated datagrams, shard crashes mid-storm,
//!    decommissions, clock skew — with zero fleet-invariant
//!    violations.
//! 2. **Parallel sweep scaling**: `sweep_jobs` at 4 jobs vs serial,
//!    with the merged outcome byte-identical. CPU-bound scaling is
//!    only observable with ≥4 hardware threads, so the JSON records
//!    the core count next to the measured ratio; a latency-bound
//!    probe (sleeping tasks through the same `run_indexed` pool)
//!    demonstrates ≥3× overlap on any machine.
//! 3. **Mutation catch**: the no-decommission-check router must be
//!    caught within 1000 seeds, shrunk to a minimal event scenario,
//!    and the failing seed must replay byte-for-byte.
//! 4. **Honest degradation**: across a sampled slice of the sweep the
//!    router actually failed over, shards actually absorbed duplicated
//!    datagrams, and clients were still served — the counters prove
//!    the fault paths fired rather than idling (stale discards are
//!    also counted, but not gated: the router's timeout-failover
//!    usually abandons a request before a held-stale response lands).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use runtime::{hunt, run_fleet, sweep_jobs, FleetConfig, FleetInvariant, FleetMutation};

use crate::{artifact_head, cores, render_table, write_artifact};

/// Seeds in the headline clean sweep.
const SWEEP_SEEDS: u64 = 1_000;

/// Seeds in each timed scaling run (smaller so REPS stay cheap).
const TIMED_SEEDS: u64 = 120;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 2;

/// Latency-bound probe shape: tasks that sleep instead of computing.
/// The stall is long enough that the host's timer slack on each wake
/// (a few ms on a shared host) is small beside the 4-job pool's
/// overlap, which is what the probe measures.
const PROBE_TASKS: usize = 16;
const PROBE_STALL: Duration = Duration::from_millis(25);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if the simulated fleet cannot be built — the harness is a
/// diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let base = FleetConfig::default();

    // ---- 1. headline clean sweep -------------------------------------
    let t = Instant::now();
    let clean = sweep_jobs(&base, 0, SWEEP_SEEDS, false, 1);
    let clean_elapsed = t.elapsed();
    let clean_ok = clean.violations.is_empty();

    // ---- 2. parallel scaling (byte-identity + wall clock) ------------
    let mut serial_t = Duration::MAX;
    let mut jobs4_t = Duration::MAX;
    let mut identical = true;
    let reference = sweep_jobs(&base, 0, TIMED_SEEDS, false, 1);
    for _ in 0..REPS {
        let t = Instant::now();
        let s = sweep_jobs(&base, 0, TIMED_SEEDS, false, 1);
        serial_t = serial_t.min(t.elapsed());
        identical &= s == reference;
        let t = Instant::now();
        let p = sweep_jobs(&base, 0, TIMED_SEEDS, false, 4);
        jobs4_t = jobs4_t.min(t.elapsed());
        identical &= p == reference;
    }
    let sweep_speedup = ms(serial_t) / ms(jobs4_t).max(1e-6);

    // Latency-bound probe through the same worker pool: sleeping jobs
    // model seeds blocked on anything other than this machine's cores.
    // The minimum of REPS runs per side, as the sweep timing takes.
    let probe = |jobs: usize| {
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let done = dst::run_indexed(PROBE_TASKS, jobs, |i| {
                    std::thread::sleep(PROBE_STALL);
                    i
                });
                assert_eq!(done.len(), PROBE_TASKS);
                t.elapsed()
            })
            .min()
            .expect("REPS is at least 1")
    };
    let probe_1 = probe(1);
    let probe_4 = probe(4);
    let probe_speedup = ms(probe_1) / ms(probe_4).max(1e-6);

    let cores = cores();
    let scaling_ok = if cores >= 4 {
        sweep_speedup >= 3.0
    } else {
        probe_speedup >= 3.0
    };

    // ---- 3. mutation catch / shrink / replay -------------------------
    let mutated = FleetConfig {
        mutation: FleetMutation::NoDecommissionCheck,
        ..base.clone()
    };
    let hunted = hunt(&mutated, 0, SWEEP_SEEDS);
    let caught = hunted.caught.as_ref();
    let caught_ok = caught.is_some_and(|r| {
        r.violation.as_ref().map(|v| v.invariant) == Some(FleetInvariant::RoutedDecommissioned)
    });
    let (caught_seed, seeds_to_catch) = (caught.map_or(0, |r| r.seed), hunted.seeds);
    let replay_identical = hunted.replays;
    let shrunk_events = hunted
        .shrunk
        .as_ref()
        .map_or(usize::MAX, |s| s.config.events.as_ref().map_or(0, Vec::len));
    let shrink_ok = shrunk_events != usize::MAX;

    // ---- 4. honest degradation counters ------------------------------
    // Fabric weather plus crashes must actually have exercised the
    // failover and staleness-discard paths across the clean sweep.
    let mut stale_discarded = 0u64;
    let mut failovers = 0u64;
    let mut duplicates_absorbed = 0u64;
    let mut served = 0u64;
    for seed in 0..40 {
        let r = run_fleet(&FleetConfig {
            seed,
            ..base.clone()
        });
        stale_discarded += r.stale_discarded;
        failovers += r.failovers;
        duplicates_absorbed += r.duplicates_absorbed;
        served += r.served_fresh + r.served_degraded;
    }
    let exercised_ok = failovers > 0 && duplicates_absorbed > 0 && served > 0;

    let pass = clean_ok
        && identical
        && scaling_ok
        && caught_ok
        && shrink_ok
        && replay_identical
        && exercised_ok;

    // ---- artifacts ----------------------------------------------------
    let mut json = artifact_head();
    let _ = writeln!(json, "  \"sweep_seeds\": {},", clean.seeds);
    let _ = writeln!(json, "  \"sweep_steps\": {},", clean.steps);
    let _ = writeln!(json, "  \"sweep_requests\": {},", clean.requests);
    let _ = writeln!(json, "  \"sweep_crashes\": {},", clean.crashes);
    let _ = writeln!(json, "  \"sweep_violations\": {},", clean.violations.len());
    let _ = writeln!(json, "  \"sweep_ms\": {:.1},", ms(clean_elapsed));
    let _ = writeln!(json, "  \"timed_seeds\": {TIMED_SEEDS},");
    let _ = writeln!(json, "  \"serial_ms\": {:.1},", ms(serial_t));
    let _ = writeln!(json, "  \"jobs4_ms\": {:.1},", ms(jobs4_t));
    let _ = writeln!(json, "  \"sweep_speedup\": {sweep_speedup:.2},");
    let _ = writeln!(json, "  \"byte_identical\": {identical},");
    let _ = writeln!(
        json,
        "  \"latency_probe\": {{\"tasks\": {PROBE_TASKS}, \"stall_ms\": {}, \
         \"jobs1_ms\": {:.3}, \"jobs4_ms\": {:.3}, \"speedup\": {probe_speedup:.2}}},",
        PROBE_STALL.as_millis(),
        ms(probe_1),
        ms(probe_4)
    );
    let _ = writeln!(
        json,
        "  \"mutation\": {{\"name\": \"no-decommission-check\", \"caught\": {caught_ok}, \
         \"caught_seed\": {caught_seed}, \"seeds_scanned\": {seeds_to_catch}, \
         \"shrunk_events\": {}, \"replay_identical\": {replay_identical}}},",
        if shrink_ok {
            shrunk_events.to_string()
        } else {
            "null".to_string()
        }
    );
    let _ = writeln!(json, "  \"stale_discarded\": {stale_discarded},");
    let _ = writeln!(json, "  \"failovers\": {failovers},");
    let _ = writeln!(json, "  \"duplicates_absorbed\": {duplicates_absorbed},");
    let _ = writeln!(json, "  \"served\": {served},");
    let _ = writeln!(json, "  \"pass\": {pass}");
    json.push_str("}\n");
    write_artifact(out_dir, "BENCH_fleet_dst.json", &json);

    // ---- report -------------------------------------------------------
    let rows = vec![
        vec![
            format!("clean sweep ({SWEEP_SEEDS} seeds)"),
            format!("{:.0}", ms(clean_elapsed)),
            format!("{} violation(s)", clean.violations.len()),
        ],
        vec![
            format!("timed sweep, 1 job ({TIMED_SEEDS} seeds)"),
            format!("{:.0}", ms(serial_t)),
            "-".to_string(),
        ],
        vec![
            "timed sweep, 4 jobs".to_string(),
            format!("{:.0}", ms(jobs4_t)),
            format!("{sweep_speedup:.2}x"),
        ],
        vec![
            format!(
                "stall probe, 1 job ({PROBE_TASKS}x{}ms)",
                PROBE_STALL.as_millis()
            ),
            format!("{:.0}", ms(probe_1)),
            "-".to_string(),
        ],
        vec![
            "stall probe, 4 jobs".to_string(),
            format!("{:.0}", ms(probe_4)),
            format!("{probe_speedup:.2}x"),
        ],
    ];
    let mut report = String::from("fleet: distributed-fleet deterministic simulation\n\n");
    report.push_str(&render_table(&["mode", "wall ms", "result"], &rows));
    let _ = writeln!(
        report,
        "\nclean sweep: {} seed(s), {} step(s), {} request(s), {} crash(es)",
        clean.seeds, clean.steps, clean.requests, clean.crashes
    );
    let _ = writeln!(
        report,
        "mutation no-decommission-check: caught={caught_ok} seed={caught_seed} \
         after {seeds_to_catch} seed(s), shrunk to {shrunk_events} event(s), \
         replay byte-identical={replay_identical}"
    );
    let _ = writeln!(
        report,
        "degradation exercised: {failovers} failover(s), {stale_discarded} stale discard(s), \
         {duplicates_absorbed} duplicate(s) absorbed, {served} reading(s) served"
    );
    let _ = writeln!(report, "parallel sweeps byte-identical: {identical}");
    let _ = writeln!(report, "hardware threads: {cores}");
    let _ = writeln!(report, "overall: {}", if pass { "PASS" } else { "FAIL" });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_bench_passes_end_to_end() {
        let dir = crate::TestDir::new("bench_fleet");
        let report = run(&dir);
        assert!(report.contains("overall: PASS"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_fleet_dst.json")).unwrap();
        assert!(json.contains("\"sweep_violations\": 0"), "{json}");
        assert!(json.contains("\"caught\": true"), "{json}");
        assert!(json.contains("\"pass\": true"), "{json}");
    }
}

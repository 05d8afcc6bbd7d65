//! `dst` — the deterministic-simulation harness as a benchmark: a
//! large seeded sweep of the shipped monitoring service (expected
//! clean), plus a mutation-detection run proving the invariant sweep
//! has teeth.
//!
//! Two questions, two sections:
//!
//! 1. **Coverage**: sweep many seeds of the full simulation — client
//!    load, fault storm, torn-write disk, a mid-run crash — and count
//!    invariant violations (the shipped service must show zero) and
//!    seeds/second (how cheap a schedule is to explore).
//! 2. **Sensitivity**: re-introduce a known-bad change (recovery
//!    trusting checkpointed breaker deadlines verbatim) and measure how
//!    many seeds the sweep needs to catch it, that the failing seed
//!    replays deterministically, and how small the shrunk reproducer
//!    gets.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use runtime::{hunt, resolve_sim_events, sweep, Invariant, Mutation, SimConfig, Simulation};

use crate::{artifact_head, render_table, write_artifact};

/// First seed of the sweep (CI replays the same window).
pub const SEED_BASE: u64 = 0;
/// Seeds swept by the full benchmark run.
pub const FULL_SEEDS: u64 = 1_000;
/// Seed budget the mutation must be caught within (the acceptance
/// bound from DESIGN.md §12).
pub const CATCH_BUDGET: u64 = 200;

fn run_with(seeds: u64, out_dir: &Path) -> String {
    let base = SimConfig::default();

    // ---- coverage sweep: the shipped service ---------------------------
    let started = Instant::now();
    let clean = sweep(&base, SEED_BASE, seeds, false);
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let seeds_per_s = clean.seeds as f64 / elapsed;

    // ---- sensitivity: a known-bad mutation must be caught --------------
    let mutated = SimConfig {
        mutation: Mutation::NoCooldownRebase,
        ..base.clone()
    };
    let hunted = hunt(&mutated, SEED_BASE, CATCH_BUDGET);
    let caught = hunted.caught.as_ref();
    let seeds_to_catch = if caught.is_some() { hunted.seeds } else { 0 };
    let invariant = caught
        .and_then(|r| r.violation.as_ref())
        .map(|v| v.invariant);
    let (shrunk_events, shrunk_crashes) = hunted.shrunk.as_ref().map_or((0, 0), |s| {
        (
            s.config.events.as_ref().map_or(0, Vec::len),
            s.config.crashes.len(),
        )
    });

    // ---- artifacts -----------------------------------------------------
    let mut json = artifact_head();
    let _ = writeln!(json, "  \"seed_base\": {SEED_BASE},");
    let _ = writeln!(json, "  \"seeds\": {},", clean.seeds);
    let _ = writeln!(json, "  \"steps\": {},", clean.steps);
    let _ = writeln!(json, "  \"requests\": {},", clean.requests);
    let _ = writeln!(json, "  \"crashes\": {},", clean.crashes);
    let _ = writeln!(json, "  \"violations\": {},", clean.violations.len());
    let _ = writeln!(json, "  \"elapsed_s\": {elapsed:.2},");
    let _ = writeln!(json, "  \"seeds_per_s\": {seeds_per_s:.1},");
    let _ = writeln!(json, "  \"mutation\": {{");
    let _ = writeln!(json, "    \"name\": \"{}\",", Mutation::NoCooldownRebase);
    let _ = writeln!(json, "    \"budget\": {CATCH_BUDGET},");
    let _ = writeln!(json, "    \"seeds_to_catch\": {seeds_to_catch},");
    let _ = writeln!(
        json,
        "    \"invariant\": {},",
        invariant.map_or("null".to_string(), |i| format!("\"{i}\""))
    );
    let _ = writeln!(json, "    \"replay_deterministic\": {},", hunted.replays);
    let _ = writeln!(json, "    \"shrunk_fault_events\": {shrunk_events},");
    let _ = writeln!(json, "    \"shrunk_crashes\": {shrunk_crashes}");
    json.push_str("  }\n}\n");
    write_artifact(out_dir, "BENCH_dst_sweep.json", &json);

    // ---- report --------------------------------------------------------
    let mut report = String::new();
    report
        .push_str("dst — deterministic simulation: seeded schedule sweep + mutation detection\n\n");
    report.push_str(&render_table(
        &[
            "run",
            "seeds",
            "steps",
            "requests",
            "crashes",
            "violations",
            "seeds/s",
        ],
        &[vec![
            "shipped".into(),
            clean.seeds.to_string(),
            clean.steps.to_string(),
            clean.requests.to_string(),
            clean.crashes.to_string(),
            clean.violations.len().to_string(),
            format!("{seeds_per_s:.1}"),
        ]],
    ));
    report.push('\n');
    let _ = writeln!(
        report,
        "shipped service clean across {} seed(s): {}",
        clean.seeds,
        if clean.violations.is_empty() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(
        report,
        "mutation `{}` caught within {CATCH_BUDGET} seed(s): {} (seed #{seeds_to_catch}, {})",
        Mutation::NoCooldownRebase,
        if seeds_to_catch > 0 { "PASS" } else { "FAIL" },
        invariant.map_or("no violation".to_string(), |i| i.to_string()),
    );
    let _ = writeln!(
        report,
        "failing seed replays byte-for-byte: {}",
        if hunted.replays { "PASS" } else { "FAIL" }
    );
    if let Some(first) = caught {
        let original = resolve_sim_events(&mutated.with_seed(first.seed)).len();
        let _ = writeln!(
            report,
            "shrunk reproducer: {original} fault event(s) -> {shrunk_events}, \
             {shrunk_crashes} crash(es): {}",
            if invariant == Some(Invariant::CooldownOverhang) {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    report
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics on I/O failure writing artifacts — the harness is a
/// diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    run_with(FULL_SEEDS, out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_sweep_passes_its_own_checks() {
        let dir = crate::TestDir::new("bench_dst");
        // A reduced sweep keeps the test cheap; the mutation hunt and
        // shrink run at full fidelity either way.
        let report = run_with(40, &dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_dst_sweep.json")).unwrap();
        assert!(json.contains("\"violations\": 0"), "{json}");
        assert!(json.contains("\"replay_deterministic\": true"), "{json}");
        assert!(
            json.contains("\"invariant\": \"cooldown-overhang\""),
            "{json}"
        );
    }
}

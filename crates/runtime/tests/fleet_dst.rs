//! End-to-end contract of the fleet deterministic simulator: the
//! shipped (replicated) fleet is clean across a seed sweep whose
//! failover, dedup and serving paths all fire, the
//! known-bad no-decommission-check router and the known-bad
//! no-epoch-fence backup are both caught, the failing seeds replay
//! byte-for-byte, and the shrunk reproducers are **1-minimal** —
//! remove any single kept event and the violation disappears.

use runtime::{
    render_trace, resolve_fleet_events, run_fleet, shrink_failure, sweep_jobs, task_node,
    FleetConfig, FleetInvariant, FleetMutation, RunReport, Simulation,
};

fn base() -> FleetConfig {
    FleetConfig::default()
}

#[test]
fn shipped_fleet_is_clean_across_seeds_at_any_job_count() {
    let serial = sweep_jobs(&base(), 0, 8, 1);
    assert_eq!(serial.seeds, 8);
    assert!(
        serial.violations.is_empty(),
        "shipped fleet violated on seed {}: {:?}",
        serial.violations[0].seed,
        serial.violations[0].violation
    );
    let parallel = sweep_jobs(&base(), 0, 8, 4);
    assert_eq!(parallel, serial, "parallel sweep must be byte-identical");
}

#[test]
fn known_bad_router_mutation_shrinks_to_a_one_minimal_reproducer() {
    let mutated = FleetConfig {
        mutation: FleetMutation::NoDecommissionCheck,
        ..base()
    };
    // Find a failing seed the way CI does.
    let caught = (0..200)
        .map(|s| mutated.with_seed(s).run())
        .find(|r| r.violation.is_some())
        .expect("mutation survived 200 seeds");
    assert_eq!(
        caught.violation.as_ref().map(|v| v.invariant),
        Some(FleetInvariant::RoutedDecommissioned)
    );

    let failing = FleetConfig {
        seed: caught.seed,
        ..mutated
    };

    // Byte-for-byte replay of the failing seed.
    let a = run_fleet(&failing);
    let b = run_fleet(&failing);
    assert_eq!(a, b);
    assert_eq!(
        render_trace(&a, None),
        render_trace(&b, None),
        "rendered traces must match byte-for-byte"
    );

    // Shrink, then prove 1-minimality: the kept event set still
    // reproduces the violation, and dropping ANY single kept event
    // makes it vanish.
    let shrunk = shrink_failure(&failing).expect("baseline must fail");
    let kept = shrunk.config.events.clone().expect("events pinned");
    assert!(!kept.is_empty(), "this violation needs at least one event");
    assert!(kept.len() <= resolve_fleet_events(&failing).len());
    assert_eq!(
        shrunk.report.violation.as_ref().map(|v| v.invariant),
        Some(FleetInvariant::RoutedDecommissioned),
        "shrunk scenario must reproduce the same invariant"
    );
    for drop in 0..kept.len() {
        let mut thinner = kept.clone();
        thinner.remove(drop);
        let mut cfg = shrunk.config.clone();
        cfg.events = Some(thinner);
        let report = run_fleet(&cfg);
        assert!(
            report
                .violation
                .as_ref()
                .is_none_or(|v| v.invariant != FleetInvariant::RoutedDecommissioned),
            "dropping kept event #{drop} ({}) still reproduces — not 1-minimal",
            kept[drop]
        );
    }
}

#[test]
fn epoch_fence_mutation_shrinks_to_a_one_minimal_reproducer() {
    let mutated = FleetConfig {
        mutation: FleetMutation::NoEpochFence,
        ..base()
    };
    // Find a failing seed the way CI does.
    let caught = (0..200)
        .map(|s| mutated.with_seed(s).run())
        .find(|r| r.violation.is_some())
        .expect("no-epoch-fence survived 200 seeds");
    assert_eq!(
        caught.violation.as_ref().map(|v| v.invariant),
        Some(FleetInvariant::SplitBrain)
    );

    let failing = FleetConfig {
        seed: caught.seed,
        ..mutated
    };

    // Byte-for-byte replay of the failing seed.
    let a = run_fleet(&failing);
    let b = run_fleet(&failing);
    assert_eq!(a, b);

    // Shrink, then prove 1-minimality for the split-brain too.
    let shrunk = shrink_failure(&failing).expect("baseline must fail");
    let kept = shrunk.config.events.clone().expect("events pinned");
    assert!(!kept.is_empty(), "a split-brain needs at least one event");
    assert_eq!(
        shrunk.report.violation.as_ref().map(|v| v.invariant),
        Some(FleetInvariant::SplitBrain),
        "shrunk scenario must reproduce the same invariant"
    );
    for drop in 0..kept.len() {
        let mut thinner = kept.clone();
        thinner.remove(drop);
        let mut cfg = shrunk.config.clone();
        cfg.events = Some(thinner);
        let report = run_fleet(&cfg);
        assert!(
            report
                .violation
                .as_ref()
                .is_none_or(|v| v.invariant != FleetInvariant::SplitBrain),
            "dropping kept event #{drop} ({}) still reproduces — not 1-minimal",
            kept[drop]
        );
    }
}

#[test]
fn the_sweep_exercises_failover_dedup_and_service() {
    // A clean sweep proves little if the fault paths never fired: over
    // seeds 0..40 the router must have failed over, replicas must have
    // absorbed duplicated datagrams, and clients must have been served.
    let (mut failovers, mut duplicates_absorbed, mut served) = (0, 0, 0);
    for seed in 0..40 {
        let r = run_fleet(&FleetConfig { seed, ..base() });
        failovers += r.failovers;
        duplicates_absorbed += r.duplicates_absorbed;
        served += r.served_fresh + r.served_degraded;
    }
    assert!(
        failovers > 0 && duplicates_absorbed > 0 && served > 0,
        "{failovers} failover(s), {duplicates_absorbed} duplicate(s) absorbed, \
         {served} reading(s) served"
    );
}

#[test]
fn replay_node_filter_shows_only_that_nodes_steps() {
    let report = run_fleet(&FleetConfig { seed: 2, ..base() });
    for node in ["router", "shard-1-0", "client-0", "admin", "anti-entropy"] {
        let filtered = render_trace(&report, Some(node));
        let mut saw_any = false;
        for line in filtered.lines() {
            if line.starts_with('#') || line.starts_with("VIOLATION") || line == "clean" {
                continue;
            }
            let task = line.split_whitespace().last().unwrap_or_default();
            assert_eq!(
                task_node(task),
                node,
                "foreign task `{task}` in {node} trace"
            );
            saw_any = true;
        }
        assert!(saw_any, "node {node} never ran");
    }
}

#[test]
fn a_rotted_effect_log_header_recovers_like_a_torn_tail() {
    // On each seed a crash flips a bit in a replica's `TEFL` magic; the
    // log must reopen empty for anti-entropy to refill, not fail
    // recovery.
    for seed in [1214, 1231, 1712, 1915, 2480, 2691] {
        let report = run_fleet(&FleetConfig { seed, ..base() });
        assert!(
            report.violation.is_none(),
            "seed {seed}: {:?}",
            report.violation
        );
    }
}

/// FNV-1a over every fleet seed 0–99's JSON report and rendered trace
/// under `cfg`, folded in seed order.
fn digest(cfg: &FleetConfig) -> u64 {
    let mut bytes = Vec::new();
    for seed in 0..100 {
        let report = run_fleet(&FleetConfig {
            seed,
            ..cfg.clone()
        });
        bytes.extend_from_slice(report.render_json().as_bytes());
        bytes.extend_from_slice(render_trace(&report, None).as_bytes());
    }
    dst::fnv1a64(&bytes)
}

#[test]
fn fleet_outputs_are_pinned_by_their_digest() {
    // A refactor of the replication core, of the simulator or of the
    // TCP tier must leave every simulated run byte-identical. A change that alters a trace
    // on purpose updates these constants and says why.
    let epoch_fence_off = FleetConfig {
        mutation: FleetMutation::NoEpochFence,
        ..base()
    };
    let digests = [digest(&base()), digest(&epoch_fence_off)];
    assert_eq!(
        digests,
        [0x6041_2bbd_d93e_a397, 0x59a8_b1e2_fbc8_d795],
        "{digests:#018x?}"
    );
}

//! Soak mode: sustained operation under a seeded chaos storm, with an
//! optional forced kill-and-recover, and liveness invariants checked on
//! the way out.
//!
//! The driver runs client threads hammering the runtime with reads
//! while a [`faultsim::FaultSchedule`] injects behavioral faults into
//! live channels and clears them on schedule. Midway, the runtime can
//! be shut down (final checkpoint taken), a deliberately *torn*
//! newer snapshot planted in the store — the crash being simulated —
//! and recovered, which must skip the torn file, restore from the last
//! valid checkpoint, and keep serving. After the storm clears, a drain
//! phase keeps reading until breakers re-close and quarantine paroles.
//!
//! The invariants [`SoakReport::liveness_ok`] asserts:
//!
//! 1. every request was answered inside its deadline or with a typed
//!    error — zero silently late replies;
//! 2. zero silently stale readings: age within the staleness bound,
//!    always, and `Fresh` readings at age 0;
//! 3. if a restart was requested, recovery restored a checkpoint;
//! 4. after faults clear, every breaker is Closed again.
//!
//! The first two are graded per reply by `sim::check_reply`, the same
//! check the deterministic simulation runs on every reply.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use dst::{Clock, SystemClock};
use faultsim::FaultSchedule;
use sensor::SensorArray;

use crate::breaker::BreakerState;
use crate::error::{Result, RuntimeError};
use crate::service::{Field, MonitorRuntime, Provenance, RuntimeConfig, RuntimeHandle};
use crate::sim::{check_reply, json_object, Invariant};
use crate::soak_wire::LatencyHistogram;

/// Tuning for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the chaos schedule (and the runtime's retry jitter).
    pub seed: u64,
    /// Chaos horizon: faults strike inside `[0, duration_ms)`.
    pub duration_ms: u64,
    /// Post-storm drain: how long to keep reading so breakers re-close
    /// and quarantined rings parole (ends early once both happen).
    pub drain_ms: u64,
    /// Sensor sites in the reference array.
    pub sites: usize,
    /// Scheduled fault events (`0` disables chaos).
    pub faults: usize,
    /// Client threads issuing reads.
    pub clients: usize,
    /// Pause between one client's consecutive reads, milliseconds.
    pub request_interval_ms: u64,
    /// Kill-and-recover the runtime at this instant, if set.
    pub restart_at_ms: Option<u64>,
    /// The uniform junction temperature the array monitors, °C.
    pub ambient_c: f64,
    /// Runtime tuning (`snapshot_dir` must be set for restarts).
    pub runtime: RuntimeConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            duration_ms: 4_000,
            drain_ms: 3_000,
            sites: 9,
            faults: 12,
            clients: 3,
            request_interval_ms: 5,
            restart_at_ms: Some(2_000),
            ambient_c: 85.0,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// What a soak run observed; the pass/fail gate is
/// [`SoakReport::liveness_ok`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakReport {
    /// Requests issued by the clients.
    pub requests: u64,
    /// Served from fresh conversions.
    pub served_fresh: u64,
    /// Served as degraded medians (quarantine/breaker fallback).
    pub served_degraded: u64,
    /// Served from cache under load shedding.
    pub served_shed: u64,
    /// Typed errors received (deadline misses, stale cache, …).
    pub typed_errors: u64,
    /// Typed deadline misses among the errors.
    pub deadline_misses: u64,
    /// Replies that came back *after* their deadline as data — the
    /// silent lateness the runtime promises never to produce. Must be
    /// zero.
    pub late_replies: u64,
    /// Readings older than the staleness bound served as data — the
    /// silent staleness the runtime promises never to produce. Must be
    /// zero.
    pub silent_stale: u64,
    /// Fresh readings further than the tolerance from the true field
    /// (a just-struck fault can slip one wrong reading through before
    /// the health monitor benches the ring).
    pub out_of_tolerance_fresh: u64,
    /// Reads attempted while the runtime was down for restart.
    pub downtime_skips: u64,
    /// Fault events injected.
    pub injected: usize,
    /// Fault events cleared.
    pub cleared: usize,
    /// Restarts performed.
    pub restarts: u32,
    /// Checkpoint sequence recovery restored from, if a restart ran.
    pub recovered_seq: Option<u64>,
    /// Corrupt/torn snapshots recovery skipped (the planted torn file
    /// plus any real casualties).
    pub corrupt_snapshots_skipped: usize,
    /// Breaker trips across the run (post-restart counters).
    pub breaker_trips: u64,
    /// Background scans completed (post-restart counters).
    pub scans: u64,
    /// Checkpoints persisted (post-restart counters).
    pub checkpoints: u64,
    /// `true` when every breaker ended Closed.
    pub breakers_all_closed: bool,
    /// Channels still quarantined at the end.
    pub quarantined_at_end: usize,
    /// Latency of every answered request (a reading or a typed
    /// error), timed around `read`, µs.
    pub latency: LatencyHistogram,
    /// Successful replies per second over the whole run.
    pub throughput_per_s: f64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
}

impl SoakReport {
    /// The soak's liveness gate (see module docs for the invariants).
    pub fn liveness_ok(&self, restart_requested: bool) -> bool {
        self.requests > 0
            && self.late_replies == 0
            && self.silent_stale == 0
            && self.breakers_all_closed
            && (!restart_requested || (self.restarts > 0 && self.recovered_seq.is_some()))
    }

    /// Human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "soak: {} requests in {:.1} s ({:.0} served/s)\n",
            self.requests, self.elapsed_s, self.throughput_per_s
        ));
        s.push_str(&format!(
            "  served: {} fresh, {} degraded, {} shed; {} typed errors \
             ({} deadline misses)\n",
            self.served_fresh,
            self.served_degraded,
            self.served_shed,
            self.typed_errors,
            self.deadline_misses
        ));
        s.push_str(&format!(
            "  invariants: {} late replies, {} silent-stale reads, \
             {} out-of-tolerance fresh\n",
            self.late_replies, self.silent_stale, self.out_of_tolerance_fresh
        ));
        s.push_str(&format!(
            "  chaos: {} injected, {} cleared, {} breaker trips; \
             restarts {} (recovered seq {:?}, {} corrupt snapshot(s) skipped)\n",
            self.injected,
            self.cleared,
            self.breaker_trips,
            self.restarts,
            self.recovered_seq,
            self.corrupt_snapshots_skipped
        ));
        s.push_str(&format!(
            "  end state: breakers all closed = {}, {} quarantined; \
             latency p50/p99/max = {}/{}/{} us\n",
            self.breakers_all_closed,
            self.quarantined_at_end,
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.latency.max()
        ));
        s
    }

    /// The report as one JSON object — the one rendering `runtime soak
    /// --json` prints and the `soak` bench nests per run.
    /// `liveness_ok` is [`SoakReport::liveness_ok`] of
    /// `restart_requested`.
    pub fn render_json(&self, restart_requested: bool) -> String {
        json_object(&[
            ("requests", self.requests.to_string()),
            ("served_fresh", self.served_fresh.to_string()),
            ("served_degraded", self.served_degraded.to_string()),
            ("served_shed", self.served_shed.to_string()),
            ("typed_errors", self.typed_errors.to_string()),
            ("deadline_misses", self.deadline_misses.to_string()),
            ("late_replies", self.late_replies.to_string()),
            ("silent_stale", self.silent_stale.to_string()),
            ("injected", self.injected.to_string()),
            ("cleared", self.cleared.to_string()),
            ("restarts", self.restarts.to_string()),
            (
                "recovered_seq",
                self.recovered_seq.map_or("null".into(), |s| s.to_string()),
            ),
            (
                "corrupt_snapshots_skipped",
                self.corrupt_snapshots_skipped.to_string(),
            ),
            ("breaker_trips", self.breaker_trips.to_string()),
            ("checkpoints", self.checkpoints.to_string()),
            ("breakers_all_closed", self.breakers_all_closed.to_string()),
            ("quarantined_at_end", self.quarantined_at_end.to_string()),
            ("latency", self.latency.render_json()),
            ("throughput_per_s", format!("{:.1}", self.throughput_per_s)),
            ("elapsed_s", format!("{:.2}", self.elapsed_s)),
            (
                "liveness_ok",
                self.liveness_ok(restart_requested).to_string(),
            ),
        ])
    }
}

#[derive(Default)]
struct Collector {
    requests: AtomicU64,
    fresh: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    typed_errors: AtomicU64,
    deadline_misses: AtomicU64,
    late_replies: AtomicU64,
    silent_stale: AtomicU64,
    out_of_tolerance: AtomicU64,
    downtime_skips: AtomicU64,
}

/// Builds the reference array the soak monitors: `sites` calibrated
/// 5-stage inverter rings (the same reference unit the faultsim
/// campaigns use).
pub fn reference_array(sites: usize) -> SensorArray {
    use sensor::unit::{SensorConfig, SmartSensorUnit};
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;
    use tsense_core::units::Celsius;

    let mut array = SensorArray::new();
    for i in 0..sites {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(
            Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).expect("reference gate"),
            5,
        )
        .expect("reference ring");
        let mut unit = SmartSensorUnit::new(SensorConfig::new(ring, tech)).expect("reference unit");
        unit.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .expect("reference calibration");
        array = array.with_site(
            format!("s{i:02}"),
            1e-3 * (i % 3) as f64,
            1e-3 * (i / 3) as f64,
            unit,
        );
    }
    array
}

/// Runs a soak to completion and reports what happened.
///
/// # Errors
///
/// [`RuntimeError`] when the runtime cannot start or recover — the
/// soak itself never errors on served traffic (that is the point: bad
/// traffic shows up in the report, not as a crash).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport> {
    let mut runtime_cfg = cfg.runtime.clone();
    runtime_cfg.seed = cfg.seed;
    if cfg.restart_at_ms.is_some() {
        assert!(
            runtime_cfg.snapshot_dir.is_some(),
            "soak restart requires a snapshot_dir"
        );
    }
    let ambient = cfg.ambient_c;
    let field: Field = Arc::new(move |_, _| ambient);
    let schedule = if cfg.faults > 0 {
        FaultSchedule::seeded_unit_faults(cfg.seed, cfg.faults, cfg.duration_ms, cfg.sites)
    } else {
        FaultSchedule::default()
    };

    let handle = MonitorRuntime::start(
        reference_array(cfg.sites),
        Arc::clone(&field),
        runtime_cfg.clone(),
    )?;
    let shared: Arc<RwLock<Option<RuntimeHandle>>> = Arc::new(RwLock::new(Some(handle)));
    let stop = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(Collector::default());

    let staleness_bound = runtime_cfg.staleness_bound_ms;
    let deadline = runtime_cfg.default_deadline_ms;
    let tolerance_c = 5.0;

    let mut clients = Vec::new();
    for k in 0..cfg.clients.max(1) {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let col = Arc::clone(&collector);
        let sites = cfg.sites;
        let interval = cfg.request_interval_ms;
        clients.push(
            thread::Builder::new()
                .name(format!("soak-client-{k}"))
                .spawn(move || {
                    let mut latency = LatencyHistogram::new();
                    let mut ch = k % sites.max(1);
                    while !stop.load(Ordering::SeqCst) {
                        {
                            let guard = shared.read().expect("handle lock");
                            match guard.as_ref() {
                                None => {
                                    col.downtime_skips.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(h) => {
                                    col.requests.fetch_add(1, Ordering::Relaxed);
                                    let sent = Instant::now();
                                    let reply = h.read(ch);
                                    latency.record(sent.elapsed().as_micros() as u64);
                                    match reply {
                                        Ok(r) => {
                                            for (invariant, _) in
                                                check_reply(&r, deadline, staleness_bound)
                                            {
                                                let count = if invariant == Invariant::LateReply {
                                                    &col.late_replies
                                                } else {
                                                    &col.silent_stale
                                                };
                                                count.fetch_add(1, Ordering::Relaxed);
                                            }
                                            match r.provenance {
                                                Provenance::Fresh { .. } => {
                                                    col.fresh.fetch_add(1, Ordering::Relaxed);
                                                    if (r.value_c - ambient).abs() > tolerance_c {
                                                        col.out_of_tolerance
                                                            .fetch_add(1, Ordering::Relaxed);
                                                    }
                                                }
                                                Provenance::DegradedMedian { .. } => {
                                                    col.degraded.fetch_add(1, Ordering::Relaxed);
                                                }
                                                Provenance::Shed { .. } => {
                                                    col.shed.fetch_add(1, Ordering::Relaxed);
                                                }
                                            }
                                        }
                                        Err(e) => {
                                            col.typed_errors.fetch_add(1, Ordering::Relaxed);
                                            if matches!(e, RuntimeError::DeadlineExceeded { .. }) {
                                                col.deadline_misses.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        ch = (ch + 1) % sites.max(1);
                        if interval > 0 {
                            thread::sleep(Duration::from_millis(interval));
                        }
                    }
                    latency
                })
                .expect("spawn soak client"),
        );
    }

    // Chaos + restart orchestration on the driver thread. The driver
    // reads time through the Clock abstraction like the runtime does.
    let started = SystemClock::new();
    let now_ms = |started: &SystemClock| started.now_ms();
    let mut report = SoakReport::default();
    let mut active: Vec<(u64, usize, sensor::RingFault)> = Vec::new(); // (clears_at, ch, fault)
    let mut cursor = 0u64;
    let mut restarted = false;

    while now_ms(&started) < cfg.duration_ms {
        let t = now_ms(&started);

        // Forced kill-and-recover, once.
        if let Some(at) = cfg.restart_at_ms {
            if !restarted && t >= at {
                restarted = true;
                let mut guard = shared.write().expect("handle lock");
                if let Some(h) = guard.take() {
                    h.shutdown()?; // takes the final checkpoint
                }
                // Simulate the crash the checkpoint format defends
                // against: plant a *torn* snapshot newer than every
                // valid one. Recovery must skip it.
                if let Some(dir) = &runtime_cfg.snapshot_dir {
                    plant_torn_snapshot(dir);
                }
                let (h, rec) = MonitorRuntime::recover(
                    reference_array(cfg.sites),
                    Arc::clone(&field),
                    runtime_cfg.clone(),
                )?;
                report.restarts += 1;
                report.recovered_seq = rec.recovered_seq;
                report.corrupt_snapshots_skipped = rec.skipped.len();
                // Faults live in the silicon, not the process: re-apply
                // whatever the schedule says is still active.
                for (_, ch, fault) in &active {
                    let _ = h.inject_fault(*ch, *fault);
                }
                *guard = Some(h);
            }
        }

        // Clear faults whose time is up.
        if let Some(guard) = shared.read().ok().filter(|g| g.is_some()) {
            let h = guard.as_ref().expect("filtered Some");
            active.retain(|(clears_at, ch, _)| {
                if t >= *clears_at {
                    let _ = h.clear_fault(*ch);
                    report.cleared += 1;
                    false
                } else {
                    true
                }
            });
            // Inject newly due faults.
            for ev in schedule.due(cursor, t + 1) {
                if let Some(rf) = ev.fault.as_ring_fault() {
                    if h.inject_fault(ev.channel, rf).is_ok() {
                        report.injected += 1;
                        active.push((ev.clears_at_ms(), ev.channel, rf));
                    }
                }
            }
        }
        cursor = t + 1;
        thread::sleep(Duration::from_millis(2));
    }

    // Storm over: clear everything still active and drain until the
    // system heals (or the drain budget runs out).
    if let Some(guard) = shared.read().ok().filter(|g| g.is_some()) {
        let h = guard.as_ref().expect("filtered Some");
        for (_, ch, _) in active.drain(..) {
            let _ = h.clear_fault(ch);
            report.cleared += 1;
        }
    }
    let drain_start = now_ms(&started);
    loop {
        let t = now_ms(&started);
        let healed = {
            let guard = shared.read().expect("handle lock");
            let h = guard.as_ref().expect("runtime alive post-storm");
            let states = h.breaker_states();
            let all_closed = states
                .iter()
                .all(|(_, s)| matches!(s, BreakerState::Closed { .. }));
            all_closed && h.stats().quarantined_now == 0
        };
        if healed || t.saturating_sub(drain_start) >= cfg.drain_ms {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::SeqCst);
    for c in clients {
        report
            .latency
            .merge(&c.join().expect("soak client thread panicked"));
    }

    // Final state and teardown.
    let handle = shared
        .write()
        .expect("handle lock")
        .take()
        .expect("runtime alive at end");
    let states = handle.breaker_states();
    report.breakers_all_closed = states
        .iter()
        .all(|(_, s)| matches!(s, BreakerState::Closed { .. }));
    let stats = handle.shutdown()?;
    report.breaker_trips = stats.breaker_trips;
    report.scans = stats.scans;
    report.checkpoints = stats.checkpoints;
    report.quarantined_at_end = stats.quarantined_now;

    report.requests = collector.requests.load(Ordering::Relaxed);
    report.served_fresh = collector.fresh.load(Ordering::Relaxed);
    report.served_degraded = collector.degraded.load(Ordering::Relaxed);
    report.served_shed = collector.shed.load(Ordering::Relaxed);
    report.typed_errors = collector.typed_errors.load(Ordering::Relaxed);
    report.deadline_misses = collector.deadline_misses.load(Ordering::Relaxed);
    report.late_replies = collector.late_replies.load(Ordering::Relaxed);
    report.silent_stale = collector.silent_stale.load(Ordering::Relaxed);
    report.out_of_tolerance_fresh = collector.out_of_tolerance.load(Ordering::Relaxed);
    report.downtime_skips = collector.downtime_skips.load(Ordering::Relaxed);

    report.elapsed_s = started.now_ms() as f64 / 1e3;
    let served = report.served_fresh + report.served_degraded + report.served_shed;
    report.throughput_per_s = if report.elapsed_s > 0.0 {
        served as f64 / report.elapsed_s
    } else {
        0.0
    };
    Ok(report)
}

/// Plants a truncated (torn) snapshot with a sequence number newer
/// than anything valid in `dir` — the artifact of a crash mid-write
/// that recovery must detect and skip.
fn plant_torn_snapshot(dir: &std::path::Path) {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            e.path()
                .file_stem()?
                .to_str()?
                .strip_prefix("snap-")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap_or(0);
    let torn = format!(
        "TSNAP\tv1\nseq\t{}\ntime\t0\nsite\ts00\ncal\t3ff0",
        newest + 1
    );
    let _ = std::fs::write(dir.join(format!("snap-{:010}.ckpt", newest + 1)), torn);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tsense-soak-{tag}-{}", dst::unique_nonce()))
    }

    #[test]
    fn short_soak_with_chaos_and_restart_holds_liveness() {
        let dir = soak_dir("live");
        let cfg = SoakConfig {
            seed: 42,
            duration_ms: 1_500,
            drain_ms: 4_000,
            sites: 9,
            faults: 6,
            clients: 2,
            request_interval_ms: 4,
            restart_at_ms: Some(700),
            ambient_c: 85.0,
            runtime: RuntimeConfig {
                scan_interval_ms: 25,
                checkpoint_interval_ms: 100,
                snapshot_dir: Some(dir.clone()),
                ..RuntimeConfig::default()
            },
        };
        let report = run_soak(&cfg).unwrap();
        assert!(
            report.liveness_ok(true),
            "liveness violated:\n{}",
            report.render_text()
        );
        assert!(report.injected > 0, "chaos must actually strike");
        assert_eq!(report.restarts, 1);
        assert!(
            report.corrupt_snapshots_skipped >= 1,
            "the planted torn snapshot must be skipped: {}",
            report.render_text()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quiet_soak_serves_only_fresh() {
        let cfg = SoakConfig {
            seed: 7,
            duration_ms: 400,
            drain_ms: 200,
            sites: 5,
            faults: 0,
            clients: 2,
            request_interval_ms: 3,
            restart_at_ms: None,
            ambient_c: 60.0,
            runtime: RuntimeConfig {
                checkpoint_interval_ms: 0,
                ..RuntimeConfig::default()
            },
        };
        let report = run_soak(&cfg).unwrap();
        assert!(report.liveness_ok(false), "{}", report.render_text());
        assert_eq!(report.injected, 0);
        assert!(report.served_fresh > 0);
        assert_eq!(report.out_of_tolerance_fresh, 0, "{}", report.render_text());
    }
}

//! Open-loop load soak against the real wire stack, with the fleet
//! invariants re-asserted on actual TCP bytes.
//!
//! The harness starts a [`WireServer`], optionally fronts it with the
//! seeded [`wire::chaos`] proxy, and drives it with Poisson arrivals:
//! requests are *scheduled* by a seeded exponential process and their
//! latency is measured from the scheduled arrival, not from send — so
//! a stalling server honestly accrues queueing delay instead of
//! silently slowing the load (open-loop, not closed-loop). Latencies go
//! into a [`LatencyHistogram`], a log-linear microsecond histogram.
//!
//! Mid-run the harness can crash-and-recover one shard group's
//! primary (past a torn snapshot it plants first), decommission
//! another, permanently **kill** a third group's primary (forcing an
//! epoch-bumping backup promotion), and storm the group primaries'
//! silicon with a seeded [`faultsim::FaultSchedule`] over the first
//! 80 % of the load, leaving the last 20 % to heal. It then grades the
//! run against the same client-observed invariants the deterministic
//! fleet simulation checks, each violation named after its
//! [`FleetInvariant`]:
//!
//! 1. **Honest staleness** (`fleet-stale-served`) and **no
//!    decommissioned shard served** (`routed-decommissioned`) — every
//!    reading goes through `sim::fleet::check_reading`, the
//!    simulator's own check, with zero skew slack: the TCP tier runs on one clock.
//! 2. **No resurrected cache** (`resurrected-cache`) — recovery never
//!    restores a cached median.
//! 3. **At-most-once effects** (`duplicate-effect`) — no request's
//!    effect is recorded twice: a client retry replays the cached
//!    answer within one incarnation, and after a failover or a crash
//!    the replica whose log holds the effect re-serves it read-only.
//! 4. **Failover completes** — a configured primary kill must produce
//!    a promotion, and no split-brain double execution with it.
//!
//! and against three checks of its own, each a named violation:
//!
//! 5. **Heal** (`heal`, with faults on) — every group that still serves
//!    ends the load with every breaker on its primary closed and no
//!    site quarantined;
//! 6. **Torn snapshot** (`torn-snapshot`, with a crash under a snapshot
//!    root) — recovery skips the planted torn file and, when the crash
//!    lands two checkpoint intervals into the run, restores a
//!    checkpoint;
//! 7. **Load ran** (`harness`) — at least one request completed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use faultsim::FaultSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensor::sta::report::json_escape;
use sensor::RingFault;
use wire::{ChaosProfile, ChaosProxy, WireOutcome};

use crate::breaker::CircuitBreaker;
use crate::client::{ClientError, WireClient, WireClientConfig};
use crate::error::Result;
use crate::retry::RetryPolicy;
use crate::serve::{WireServer, WireServerConfig, WireServerStats};
use crate::sim::fleet::{check_reading, ClientReading, FleetInvariant};
use crate::sim::json_object;

/// Each soak client's retry ladder.
const CLIENT_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_delay_ms: 2,
    max_delay_ms: 40,
    multiplier: 2.0,
    jitter: 0.5,
};

/// Tuning for one wire soak.
#[derive(Debug, Clone)]
pub struct WireSoakConfig {
    /// Seed for arrivals, keys, and chaos.
    pub seed: u64,
    /// Load duration, milliseconds.
    pub duration_ms: u64,
    /// Mean Poisson arrival rate, requests per second.
    pub rate_hz: f64,
    /// Concurrent client workers draining the arrival schedule.
    pub clients: usize,
    /// The server under test.
    pub server: WireServerConfig,
    /// When set, all traffic crosses a chaos proxy with this profile.
    pub chaos: Option<ChaosProfile>,
    /// Crash-and-recover `(shard, at_ms)` mid-run.
    pub crash: Option<(usize, u64)>,
    /// Decommission `(shard, at_ms)` mid-run.
    pub decommission: Option<(usize, u64)>,
    /// Permanently kill `(shard, at_ms)`'s primary mid-run, forcing
    /// an epoch-bumping promotion of its best backup.
    pub kill_primary: Option<(usize, u64)>,
    /// Silicon faults struck on group primaries over the first 80 % of
    /// the load; the last 20 % is the heal window. `0` disables the
    /// storm.
    pub faults: usize,
}

impl Default for WireSoakConfig {
    fn default() -> Self {
        WireSoakConfig {
            seed: 0,
            duration_ms: 3_000,
            rate_hz: 150.0,
            clients: 4,
            server: WireServerConfig::default(),
            chaos: None,
            crash: Some((1, 1_000)),
            decommission: Some((2, 2_000)),
            kill_primary: None,
            faults: 0,
        }
    }
}

/// Sub-buckets per power of two: each bucket is at most 1/16 as wide
/// as its lower edge.
const SUB_BUCKETS: u64 = 16;
/// Buckets covering all of `u64`: 32 exact ones below 32 µs, then
/// [`SUB_BUCKETS`] for each power of two from 2^5 to 2^63.
const BUCKETS: usize = 976;

/// Log-linear latency histogram in microseconds, HdrHistogram's layout
/// with 4 sub-bucket bits: every value below 32 µs has its own bucket,
/// and each power of two above splits into 16 equal sub-buckets, so a
/// bucket's upper bound is within 6.25 % of every value it holds.
///
/// One fixed bucket array: recording allocates nothing. Count, sum and
/// max are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket holding `us`: below 32 the value itself, above it 16
    /// per power of two.
    fn index(us: u64) -> usize {
        let shift = (u64::BITS - us.leading_zeros()).saturating_sub(5);
        (u64::from(shift) * SUB_BUCKETS + (us >> shift)) as usize
    }

    /// The inclusive `[lo, hi]` microsecond range of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let shift = (i as u64 / SUB_BUCKETS).saturating_sub(1);
        let lo = (i as u64 - shift * SUB_BUCKETS) << shift;
        (lo, lo + ((1 << shift) - 1))
    }

    /// Records one latency sample, microseconds.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, microseconds.
    pub fn max(&self) -> u64 {
        self.max_us
    }

    /// Mean latency, microseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum_us as f64 / self.count.max(1) as f64
    }

    /// The `q`-quantile, `q` in `[0, 1]`, microseconds: the upper bound
    /// of the bucket holding the ⌈q·n⌉-th smallest sample, capped at
    /// the max. Never below a sample its bucket holds, so a true
    /// quantile above a bound always reads above it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bounds(i).1.min(self.max_us);
            }
        }
        0
    }

    /// A plain-text rendering: a summary line, then one line per
    /// non-empty bucket — the `--hist-out` artifact.
    pub fn render(&self) -> String {
        let mut out = format!(
            "samples {}  mean {:.1} us  p50 {} us  p99 {} us  p999 {} us  max {} us\n",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max_us,
        );
        for (i, b) in self.buckets.iter().enumerate().filter(|(_, b)| **b > 0) {
            let (lo, hi) = Self::bounds(i);
            out.push_str(&format!("[{lo:>8}..{hi:>8}] us  {b}\n"));
        }
        out
    }

    /// The summary as one JSON object, nested as `"latency"` by both
    /// soak reports.
    pub fn render_json(&self) -> String {
        json_object(&[
            ("samples", self.count.to_string()),
            ("mean_us", format!("{:.1}", self.mean())),
            ("p50_us", self.quantile(0.50).to_string()),
            ("p99_us", self.quantile(0.99).to_string()),
            ("p999_us", self.quantile(0.999).to_string()),
            ("max_us", self.max_us.to_string()),
        ])
    }
}

/// What one wire soak did and whether the fleet invariants held.
#[derive(Debug, Clone)]
pub struct WireSoakReport {
    /// Requests scheduled (and sent).
    pub requests: u64,
    /// Requests answered with a reading.
    pub completed: u64,
    /// Requests answered with a typed shard-side failure.
    pub failed: u64,
    /// `failed`, by the failure's wire `kind` (`shed` for a shed the
    /// client gave up on).
    pub failed_by_kind: BTreeMap<String, u64>,
    /// Requests the client gave up on after its full ladder.
    pub exhausted: u64,
    /// End-to-end latency from scheduled arrival to answer, µs.
    pub latency: LatencyHistogram,
    /// Completed requests per second of load window.
    pub throughput_rps: f64,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
    /// Final server counters.
    pub server: WireServerStats,
    /// Total faults the chaos proxy injected, when chaos was on.
    pub chaos_faults: Option<u64>,
    /// Chaos proxy counter rendering, when chaos was on.
    pub chaos_summary: Option<String>,
    /// Silicon faults the storm struck.
    pub injected: usize,
    /// Storm faults cleared, on expiry or when the storm ended.
    pub cleared: usize,
    /// Trips counted by the serving groups' primaries' breakers at the
    /// end of the load (a crash-rebuilt core counts from 0).
    pub breaker_trips: u64,
    /// Sites still quarantined on the serving groups' primaries at the
    /// end of the load.
    pub quarantined_at_end: usize,
    /// Checkpoint sequence the crash's recovery restored, if any.
    pub recovered_seq: Option<u64>,
    /// Torn or corrupt snapshots the crash's recovery skipped.
    pub snapshots_skipped: usize,
}

impl WireSoakReport {
    /// `true` when every graded check held: the fleet invariants and
    /// the soak's own (heal, torn snapshot, load ran).
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A plain-text summary for CLI and CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests {}  completed {}  failed {}  exhausted {}  throughput {:.1} req/s\n",
            self.requests, self.completed, self.failed, self.exhausted, self.throughput_rps
        ));
        if !self.failed_by_kind.is_empty() {
            let kinds: Vec<String> = self
                .failed_by_kind
                .iter()
                .map(|(kind, n)| format!("{kind} {n}"))
                .collect();
            out.push_str(&format!("failed by kind: {}\n", kinds.join("  ")));
        }
        out.push_str(&format!(
            "server: shed {}  deduped {}  failovers {}  bad_frames {}  crashes {}\n",
            self.server.shed,
            self.server.deduped,
            self.server.failovers,
            self.server.bad_frames,
            self.server.crashes
        ));
        out.push_str(&format!(
            "replication: replicated {}  promotions {}  fenced_writes {}  rejoin_repairs {}\n",
            self.server.replicated,
            self.server.promotions,
            self.server.fenced_writes,
            self.server.rejoin_repairs
        ));
        out.push_str(&format!(
            "storm: injected {}  cleared {}  breaker_trips {}  quarantined_at_end {}\n",
            self.injected, self.cleared, self.breaker_trips, self.quarantined_at_end
        ));
        out.push_str(&format!(
            "recovery: recovered_seq {}  snapshots_skipped {}\n",
            self.recovered_seq.map_or("none".into(), |s| s.to_string()),
            self.snapshots_skipped
        ));
        if let Some(s) = &self.chaos_summary {
            out.push_str(&format!("chaos: {s}\n"));
        }
        out.push_str(&self.latency.render());
        if self.violations.is_empty() {
            out.push_str("invariants: ok\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }

    /// The report as one JSON object — the one rendering, which
    /// `runtime wire-soak --json` prints. `latency` and `server` are the
    /// histogram's and the server counters' own objects; `violations`
    /// is an array of escaped strings.
    pub fn render_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect();
        let kinds: Vec<String> = self
            .failed_by_kind
            .iter()
            .map(|(kind, n)| format!("\"{}\": {n}", json_escape(kind)))
            .collect();
        json_object(&[
            ("requests", self.requests.to_string()),
            ("completed", self.completed.to_string()),
            ("failed", self.failed.to_string()),
            ("failed_by_kind", format!("{{{}}}", kinds.join(", "))),
            ("exhausted", self.exhausted.to_string()),
            ("throughput_rps", format!("{:.1}", self.throughput_rps)),
            ("latency", self.latency.render_json()),
            ("server", self.server.render_json()),
            (
                "chaos_faults",
                self.chaos_faults.map_or("null".into(), |f| f.to_string()),
            ),
            ("injected", self.injected.to_string()),
            ("cleared", self.cleared.to_string()),
            ("breaker_trips", self.breaker_trips.to_string()),
            ("quarantined_at_end", self.quarantined_at_end.to_string()),
            (
                "recovered_seq",
                self.recovered_seq.map_or("null".into(), |s| s.to_string()),
            ),
            ("snapshots_skipped", self.snapshots_skipped.to_string()),
            ("invariants_ok", self.invariants_ok().to_string()),
            ("violations", format!("[{}]", violations.join(", "))),
        ])
    }
}

/// One answered request as the grader sees it.
struct Sample {
    client: usize,
    latency_us: u64,
    result: std::result::Result<crate::client::ClientOutcome, ClientError>,
}

/// Runs one seeded wire soak to completion and grades it.
///
/// # Errors
///
/// Server start errors ([`crate::RuntimeError::FrameBudget`] and the
/// per-shard preflight); the load phase itself never fails — bad
/// outcomes become violations in the report.
pub fn run_wire_soak(cfg: &WireSoakConfig) -> Result<WireSoakReport> {
    let server = WireServer::start(cfg.server.clone(), None)?;
    let proxy = match &cfg.chaos {
        Some(profile) => Some(
            ChaosProxy::start(server.addr(), profile.clone(), cfg.seed).map_err(|e| {
                crate::snapshot::SnapshotError::Io {
                    path: std::path::PathBuf::from("<chaos proxy>"),
                    detail: e.to_string(),
                }
            })?,
        ),
        None => None,
    };
    let target = proxy.as_ref().map_or(server.addr(), ChaosProxy::addr);

    // Seeded Poisson arrival schedule, precomputed.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x50A4_11FE);
    let mut arrivals: Vec<(u64, u64, u64)> = Vec::new(); // (req_id, key, at_ms)
    let mut t_ms = 0.0_f64;
    let mut req_id = cfg.seed << 20;
    while (t_ms as u64) < cfg.duration_ms {
        let u: f64 = rng.random();
        let gap_ms = -(1.0 - u).ln() / cfg.rate_hz.max(1e-9) * 1_000.0;
        t_ms += gap_ms;
        if (t_ms as u64) >= cfg.duration_ms {
            break;
        }
        let key = rng.random_range(0..u64::MAX);
        arrivals.push((req_id, key, t_ms as u64));
        req_id += 1;
    }
    let requests = arrivals.len() as u64;

    let (job_tx, job_rx) = mpsc::channel::<(u64, u64, u64)>();
    for job in &arrivals {
        job_tx.send(*job).expect("receiver alive");
    }
    drop(job_tx);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (sample_tx, sample_rx) = mpsc::channel::<Sample>();

    let start = Instant::now();
    let mut workers = Vec::new();
    for w in 0..cfg.clients.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let sample_tx = sample_tx.clone();
        let client_cfg = WireClientConfig {
            addrs: vec![target],
            retry: CLIENT_RETRY,
            seed: cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..WireClientConfig::default()
        };
        workers.push(
            thread::Builder::new()
                .name(format!("soak-client-{w}"))
                .spawn(move || {
                    let mut client = WireClient::new(client_cfg);
                    loop {
                        let job = {
                            let rx = job_rx.lock().expect("job queue poisoned");
                            rx.recv()
                        };
                        let Ok((req_id, key, at_ms)) = job else {
                            return;
                        };
                        let due = Duration::from_millis(at_ms);
                        let elapsed = start.elapsed();
                        if elapsed < due {
                            thread::sleep(due - elapsed);
                        }
                        let scheduled = start + due;
                        let result = client.request(req_id, key);
                        let sample = Sample {
                            client: w,
                            latency_us: scheduled.elapsed().as_micros() as u64,
                            result,
                        };
                        if sample_tx.send(sample).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn soak client"),
        );
    }
    drop(sample_tx);

    // Admin events and the silicon storm, in one time-sorted list on
    // the same wall timeline as arrivals.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Admin {
        Crash(usize),
        Decommission(usize),
        KillPrimary(usize),
        /// Storm event `i` strikes.
        Strike(usize),
        /// Storm event `i` expires, or the storm ends first.
        Clear(usize),
    }
    let sites = cfg.server.sites_per_shard;
    let storm_ms = cfg.duration_ms * 4 / 5;
    let channels = cfg.server.shards * sites;
    let storm = if cfg.faults > 0 && channels > 0 {
        FaultSchedule::seeded_unit_faults(cfg.seed ^ 0x5345_4E53, cfg.faults, storm_ms, channels)
    } else {
        FaultSchedule::default()
    };
    let mut events: Vec<(u64, Admin)> = Vec::new();
    events.extend(cfg.crash.map(|(g, at)| (at, Admin::Crash(g))));
    events.extend(cfg.decommission.map(|(g, at)| (at, Admin::Decommission(g))));
    events.extend(cfg.kill_primary.map(|(g, at)| (at, Admin::KillPrimary(g))));
    for (i, e) in storm.events().iter().enumerate() {
        events.push((e.at_ms, Admin::Strike(i)));
        events.push((e.clears_at_ms().min(storm_ms), Admin::Clear(i)));
    }
    events.sort_unstable();

    /// A storm fault on the silicon: which event struck which array.
    struct Struck {
        event: usize,
        group: usize,
        replica: usize,
        site: usize,
        fault: RingFault,
    }
    let mut active: Vec<Struck> = Vec::new(); // in strike order
    let (mut injected, mut cleared) = (0, 0);
    let mut recovery = None;
    let mut decommissioned_at = vec![None; cfg.server.shards]; // server stamp per shard
    let mut violations = Vec::new();
    for (at_ms, event) in events {
        let due = Duration::from_millis(at_ms);
        let elapsed = start.elapsed();
        if elapsed < due {
            thread::sleep(due - elapsed);
        }
        match event {
            Admin::Crash(shard) => {
                // The crash the checkpoint format defends against: a
                // torn snapshot newer than every valid one, in the
                // directory of the primary about to crash.
                if let (Some(root), Ok((_, primary, _))) =
                    (&cfg.server.snapshot_root, server.group_view(shard))
                {
                    plant_torn_snapshot(&root.join(format!("shard-{shard}-{primary}")));
                }
                match server.crash_shard(shard) {
                    Ok(rec) => recovery = Some((at_ms, rec)),
                    Err(e) => violations.push(format!("crash of shard {shard} failed: {e}")),
                }
            }
            Admin::Decommission(shard) => match server.decommission(shard) {
                Ok(stamp) => decommissioned_at[shard] = Some(stamp),
                Err(e) => violations.push(format!("decommission of shard {shard} failed: {e}")),
            },
            Admin::KillPrimary(shard) => {
                if let Err(e) = server.kill_primary(shard) {
                    violations.push(format!("primary kill of shard {shard} failed: {e}"));
                }
            }
            Admin::Strike(i) => {
                let e = &storm.events()[i];
                let (group, site) = (e.channel / sites, e.channel % sites);
                let Some(fault) = e.fault.as_ring_fault() else {
                    continue;
                };
                // The group's current primary, which is never a killed
                // replica: a kill promotes a live one.
                let struck = server.group_view(group).and_then(|(_, replica, _)| {
                    server.set_fault(group, replica, site, Some(fault))?;
                    Ok(replica)
                });
                match struck {
                    Ok(replica) => {
                        injected += 1;
                        active.push(Struck {
                            event: i,
                            group,
                            replica,
                            site,
                            fault,
                        });
                    }
                    Err(e) => violations.push(format!("strike of group {group} failed: {e}")),
                }
            }
            Admin::Clear(i) => {
                let Some(pos) = active.iter().position(|a| a.event == i) else {
                    continue;
                };
                let gone = active.remove(pos);
                let (group, replica, site) = (gone.group, gone.replica, gone.site);
                // A later fault still active on the same site stays.
                let latest = active
                    .iter()
                    .rev()
                    .find(|a| (a.group, a.replica, a.site) == (group, replica, site))
                    .map(|a| a.fault);
                match server.set_fault(group, replica, site, latest) {
                    Ok(()) => cleared += 1,
                    Err(e) => violations.push(format!("clear of group {group} failed: {e}")),
                }
            }
        }
    }

    for w in workers {
        drop(w.join());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let chaos_faults = proxy.as_ref().map(|p| p.stats().total_faults());
    let chaos_summary = proxy.as_ref().map(|p| p.stats().render());
    if let Some(p) = proxy {
        p.shutdown();
    }

    // Grade.
    let staleness_bound = cfg.server.runtime.staleness_bound_ms;
    let mut latency = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut failed_by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut exhausted = 0u64;
    while let Ok(sample) = sample_rx.try_recv() {
        latency.record(sample.latency_us);
        match sample.result {
            Ok(out) => match &out.outcome {
                WireOutcome::Reading { fresh, age_ms, .. } => {
                    completed += 1;
                    let reading = ClientReading {
                        client: sample.client,
                        group: out.origin_shard,
                        fresh: *fresh,
                        age_ms: *age_ms,
                        total_age_ms: out.total_age_ms,
                        forwarded_at_ms: out.forwarded_at_ms,
                    };
                    let stamp = decommissioned_at.get(out.origin_shard).copied().flatten();
                    for (invariant, detail) in check_reading(&reading, stamp, staleness_bound, 0) {
                        violations.push(format!("{invariant}: {detail}"));
                    }
                }
                WireOutcome::Failed { kind } => {
                    *failed_by_kind.entry(kind.clone()).or_default() += 1
                }
                // The client returns a shed only once its ladder is spent.
                WireOutcome::Shed { .. } => *failed_by_kind.entry("shed".into()).or_default() += 1,
            },
            Err(ClientError::Exhausted { .. }) => exhausted += 1,
            Err(_) => exhausted += 1,
        }
    }
    let failed = failed_by_kind.values().sum();
    if completed == 0 {
        violations.push("harness: no request completed".into());
    }

    // The storm's end state, on every group that still serves.
    let (mut breaker_trips, mut quarantined_at_end) = (0, 0);
    for group in (0..cfg.server.shards).filter(|&g| decommissioned_at[g].is_none()) {
        let Ok((breakers, quarantined)) = server.primary_breakers(group) else {
            continue;
        };
        breaker_trips += breakers.iter().map(CircuitBreaker::trips).sum::<u64>();
        quarantined_at_end += quarantined;
        let open: Vec<usize> = (0..breakers.len())
            .filter(|&c| !breakers[c].is_closed())
            .collect();
        if cfg.faults > 0 && (!open.is_empty() || quarantined > 0) {
            violations.push(format!(
                "heal: group {group}'s primary ends the load with {quarantined} site(s) \
                 quarantined and {} breaker(s) not closed {open:?}",
                open.len()
            ));
        }
    }

    let (recovered_seq, snapshots_skipped) = recovery
        .as_ref()
        .map_or((None, 0), |(_, r)| (r.recovered_seq, r.snapshots_skipped));
    if let (Some(_), Some((at_ms, _))) = (&cfg.server.snapshot_root, &recovery) {
        if snapshots_skipped == 0 {
            violations.push("torn-snapshot: recovery skipped no snapshot".into());
        }
        let interval = cfg.server.runtime.checkpoint_interval_ms;
        if interval > 0 && *at_ms >= 2 * interval && recovered_seq.is_none() {
            violations.push(format!(
                "torn-snapshot: the crash at {at_ms} ms, two {interval} ms checkpoint \
                 intervals in, recovered no checkpoint"
            ));
        }
    }

    let server_stats = {
        let report = server.drain()?;
        report.stats
    };
    if server_stats.resurrected > 0 {
        violations.push(format!(
            "{}: {} recover(ies) came back with a cached median",
            FleetInvariant::ResurrectedCache,
            server_stats.resurrected
        ));
    }
    if server_stats.duplicate_effects > 0 {
        violations.push(format!(
            "{}: {} request(s) executed twice on one incarnation",
            FleetInvariant::DuplicateEffect,
            server_stats.duplicate_effects
        ));
    }
    if cfg.crash.is_some() && server_stats.crashes == 0 {
        violations.push("harness: configured crash never happened".into());
    }
    if cfg.kill_primary.is_some() && server_stats.promotions == 0 {
        violations.push(
            "failover incomplete: primary was killed but no backup promotion happened".into(),
        );
    }

    Ok(WireSoakReport {
        requests,
        completed,
        failed,
        failed_by_kind,
        exhausted,
        latency,
        throughput_rps: completed as f64 / wall_s.max(1e-9),
        violations,
        server: server_stats,
        chaos_faults,
        chaos_summary,
        injected,
        cleared,
        breaker_trips,
        quarantined_at_end,
        recovered_seq,
        snapshots_skipped,
    })
}

/// Plants a truncated (torn) snapshot two sequence numbers above the
/// newest in `dir` — the artifact of a crash mid-write, which recovery
/// must detect and skip. A checkpoint racing the plant lands below it
/// and cannot overwrite it.
fn plant_torn_snapshot(dir: &Path) {
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
    let seq = newest + 2;
    let torn = format!("TSNAP\tv1\nseq\t{seq}\ntime\t0\nsite\ts00\ncal\t3ff0");
    let _ = std::fs::write(dir.join(format!("snap-{seq:010}.ckpt")), torn);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bucket's inclusive range, in bucket order.
    fn every_bucket() -> impl Iterator<Item = (u64, u64)> {
        (0..BUCKETS).map(LatencyHistogram::bounds)
    }

    #[test]
    fn values_below_32_us_land_in_exact_buckets() {
        for us in 0..32 {
            assert_eq!(
                LatencyHistogram::bounds(LatencyHistogram::index(us)),
                (us, us)
            );
        }
        assert_eq!(LatencyHistogram::bounds(32), (32, 33));
    }

    #[test]
    fn buckets_tile_u64_with_edges_on_powers_of_two() {
        let mut next = 0u64;
        for (i, (lo, hi)) in every_bucket().enumerate() {
            assert_eq!(lo, next, "bucket {i} leaves a gap or overlaps");
            assert_eq!(LatencyHistogram::index(lo), i);
            assert_eq!(LatencyHistogram::index(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
        for e in 5..64 {
            let i = LatencyHistogram::index(1 << e);
            assert_eq!(
                LatencyHistogram::bounds(i).0,
                1 << e,
                "2^{e} opens a bucket"
            );
            assert_eq!(LatencyHistogram::bounds(i - 1).1, (1 << e) - 1);
        }
    }

    #[test]
    fn an_upper_bound_is_within_a_sixteenth_of_every_value_it_holds() {
        // A bucket's lowest value lies furthest below its upper bound.
        for (lo, hi) in every_bucket() {
            assert!((hi - lo) * SUB_BUCKETS < lo.max(1), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn quantile_is_zero_when_empty_and_the_max_at_one() {
        let mut h = LatencyHistogram::new();
        assert_eq!(
            (h.quantile(0.0), h.quantile(0.5), h.quantile(1.0)),
            (0, 0, 0)
        );
        for us in [5, 17, 40, 1_000, 1_033] {
            h.record(us);
        }
        assert_eq!(h.quantile(0.0), 5, "q = 0 reads the smallest sample");
        assert_eq!(h.quantile(0.5), 41, "40 sits in [40, 41]");
        assert_eq!(h.quantile(1.0), 1_033, "capped at the max, not 1087");
        assert_eq!(h.quantile(0.99), 1_033);
    }

    #[test]
    fn render_prints_one_line_per_non_empty_bucket() {
        let mut h = LatencyHistogram::new();
        for us in [7, 7, 40, 41, 1_000] {
            h.record(us);
        }
        let r = h.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(
            lines,
            [
                "samples 5  mean 219.0 us  p50 41 us  p99 1000 us  p999 1000 us  max 1000 us",
                "[       7..       7] us  2",
                "[      40..      41] us  2",
                "[     992..    1023] us  1",
            ],
            "{r}"
        );
    }

    #[test]
    fn json_escapes_violation_strings() {
        let report = WireSoakReport {
            requests: 3,
            completed: 1,
            failed: 2,
            failed_by_kind: BTreeMap::from([("a\"b".into(), 1), ("nohealthy".into(), 1)]),
            exhausted: 0,
            latency: LatencyHistogram::new(),
            throughput_rps: 0.0,
            violations: vec!["a \"quoted\" \\ path\nnext line".into()],
            server: WireServerStats::default(),
            chaos_faults: None,
            chaos_summary: None,
            injected: 0,
            cleared: 0,
            breaker_trips: 0,
            quarantined_at_end: 0,
            recovered_seq: None,
            snapshots_skipped: 0,
        };
        let json = report.render_json();
        assert!(
            json.contains(r#""violations": ["a \"quoted\" \\ path\nnext line"]"#),
            "{json}"
        );
        assert!(json.contains("\"invariants_ok\": false"), "{json}");
        assert!(
            json.contains(r#""failed_by_kind": {"a\"b": 1, "nohealthy": 1},"#),
            "{json}"
        );
        assert!(json.contains("\"recovered_seq\": null,"), "{json}");
        assert!(
            json.contains("\"latency\": {\n    \"samples\": 0,"),
            "{json}"
        );
        assert!(
            json.contains("\"server\": {\n    \"connections\": 0,"),
            "{json}"
        );
    }
}

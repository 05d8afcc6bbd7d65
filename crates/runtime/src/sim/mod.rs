//! Deterministic simulation of the monitoring runtime: the service's
//! own read path, scan/checkpoint maintenance, a seeded fault storm,
//! and crash-recovery cycles, all run single-threaded on a
//! [`dst::VirtualClock`] under seeded interleavings.
//!
//! What makes this a simulation of the *service* rather than a model
//! of it: the tasks drive the exact crate-internal machinery the
//! threaded TCP tier uses — [`ReadJob`](crate::service) is its
//! conversion's retry/breaker/fallback state machine, scans go through
//! `refresh_cache_locked`, checkpoints through `checkpoint_locked`
//! against a [`SimDisk`] with torn-write crash semantics, and recovery
//! through `build_core` — so an invariant violation found here is a bug
//! in the real code, not in a parallel reimplementation.
//!
//! Invariants checked after **every** scheduler step:
//!
//! 1. **Deadline or typed miss** — no `Ok` reply completes past its
//!    absolute deadline ([`Invariant::LateReply`]).
//! 2. **Bounded staleness** — no served reading is older than the
//!    staleness bound, and `Provenance::Fresh` is age 0
//!    ([`Invariant::SilentStale`]).
//! 3. **Breaker legality** — `Closed` failure counts stay under the
//!    trip threshold, `HalfOpen` probe counts under the close
//!    threshold, `Open → HalfOpen` only after the cooldown elapses
//!    ([`Invariant::IllegalBreakerTransition`]), and an `Open` breaker
//!    never promises a probe further than one cooldown into the future
//!    ([`Invariant::CooldownOverhang`] — the invariant that catches
//!    un-rebased deadlines restored from a dead process's clock).
//! 4. **Recovery never restores the cache** — a recovered process must
//!    rescan before serving cached data
//!    ([`Invariant::RecoveryRestoredCache`]).
//!
//! A failing seed replays byte-for-byte: the same [`SimConfig`]
//! produces the same [`StepRecord`] trace and the same violation on
//! every run. [`shrink_failure`] then delta-debugs the fault storm and
//! crash schedule down to a 1-minimal reproducer.
//!
//! The seed pipeline — [`sweep`], [`sweep_jobs`], [`shrink_failure`],
//! [`render_trace`] — is shared with the replicated [`fleet`]
//! simulator through the [`Simulation`] and [`RunReport`] traits.

pub mod fleet;
mod node;

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::{cell::RefCell, fmt};

use dst::{
    shrink_events, Executor, SimDisk, SimDiskProfile, SimDiskStats, StepRecord, TaskState,
    VirtualClock,
};
use faultsim::{FaultEvent, FaultSchedule};

use crate::breaker::BreakerState;
use crate::error::RuntimeError;
use crate::service::{
    enforce_deadline, Core, Field, JobStep, Provenance, ReadJob, RuntimeConfig, ServedReading,
};
use node::Node;

/// A deliberate, known-bad change to the service, applied under
/// simulation to prove the invariant sweep actually catches real bugs
/// (the DST analogue of a mutation test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The service as shipped.
    #[default]
    None,
    /// Recovery trusts checkpointed `Open` breaker deadlines verbatim
    /// instead of re-basing them onto the new incarnation's clock —
    /// reverting the conservative re-base in `CircuitBreaker::restore`.
    /// Caught by [`Invariant::CooldownOverhang`].
    NoCooldownRebase,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::None => write!(f, "none"),
            Mutation::NoCooldownRebase => write!(f, "no-cooldown-rebase"),
        }
    }
}

impl Mutation {
    /// Parses the CLI spelling (`none`, `no-cooldown-rebase`).
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "no-cooldown-rebase" => Some(Mutation::NoCooldownRebase),
            _ => None,
        }
    }
}

/// Which service promise a simulation step broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// An `Ok` reply completed past its absolute deadline without
    /// being converted to a typed miss.
    LateReply,
    /// A served reading was older than the staleness bound, or a
    /// `Fresh` reading claimed a nonzero age.
    SilentStale,
    /// A breaker state or transition the state machine cannot legally
    /// produce (over-threshold counts, a probe before the cooldown).
    IllegalBreakerTransition,
    /// An `Open` breaker promising a probe further than one cooldown
    /// into the future — the signature of a deadline restored from a
    /// dead process's clock without re-basing.
    CooldownOverhang,
    /// A crash-recovered core came up with a non-empty cached median.
    RecoveryRestoredCache,
    /// Recovery itself failed outright (could not rebuild a core).
    RecoveryFailed,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::LateReply => "late-reply",
            Invariant::SilentStale => "silent-stale",
            Invariant::IllegalBreakerTransition => "illegal-breaker-transition",
            Invariant::CooldownOverhang => "cooldown-overhang",
            Invariant::RecoveryRestoredCache => "recovery-restored-cache",
            Invariant::RecoveryFailed => "recovery-failed",
        };
        write!(f, "{s}")
    }
}

/// Grades one `Ok` reply against the service's promises — the check
/// [`run_sim`]'s clients run on every reply.
/// Returns each broken promise with its detail, in this order:
///
/// - [`Invariant::LateReply`]: the reply's `latency_ms` is past the
///   relative `deadline_ms`. Virtual time stands still within a
///   simulation step, so this is the simulator's absolute test;
/// - [`Invariant::SilentStale`]: the reading is older than
///   `staleness_bound_ms`;
/// - [`Invariant::SilentStale`]: a `Fresh` reading claims a nonzero
///   age.
pub(crate) fn check_reply(
    r: &ServedReading,
    deadline_ms: u64,
    staleness_bound_ms: u64,
) -> Vec<(Invariant, String)> {
    let (age_ms, latency_ms) = (r.age_ms, r.latency_ms);
    let mut broken = Vec::new();
    if latency_ms > deadline_ms {
        let detail = format!("Ok reply after {latency_ms} ms, past its {deadline_ms} ms deadline");
        broken.push((Invariant::LateReply, detail));
    }
    if age_ms > staleness_bound_ms {
        let detail = format!("served age {age_ms} > bound {staleness_bound_ms}");
        broken.push((Invariant::SilentStale, detail));
    }
    if matches!(r.provenance, Provenance::Fresh { .. }) && age_ms != 0 {
        let detail = format!("Fresh reading with age {age_ms} ms");
        broken.push((Invariant::SilentStale, detail));
    }
    broken
}

/// One invariant violation, pinned to the scheduler step that produced
/// it. `I` is the simulator's invariant enum ([`Invariant`] or
/// [`fleet::FleetInvariant`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation<I> {
    /// Which promise broke.
    pub invariant: I,
    /// Virtual time of the violating step, milliseconds.
    pub at_ms: u64,
    /// Global step index of the violating step.
    pub step: u64,
    /// Label of the task that was stepped.
    pub task: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// Tuning for one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: drives the scheduler's interleaving, the fault
    /// storm, the disk's tear boundaries, and the retry jitter.
    pub seed: u64,
    /// Sensor sites in the simulated array.
    pub sites: usize,
    /// Concurrent client tasks issuing reads.
    pub clients: usize,
    /// Upper bound on reads per client (clients also stop at the
    /// horizon).
    pub requests_per_client: usize,
    /// Virtual pause between one client's consecutive reads, ms.
    pub request_interval_ms: u64,
    /// Virtual time at which background tasks stop, milliseconds.
    pub horizon_ms: u64,
    /// Seeded fault events drawn over the horizon (ignored when
    /// `events` pins an explicit storm).
    pub faults: usize,
    /// Explicit fault storm, overriding the seeded one — how a shrunk
    /// reproducer pins its minimal event set.
    pub events: Option<Vec<FaultEvent>>,
    /// Virtual times at which the process crashes (power loss: disk
    /// tears, core rebuilt from the newest valid checkpoint).
    pub crashes: Vec<u64>,
    /// The uniform junction temperature the array monitors, °C.
    pub ambient_c: f64,
    /// The known-bad change under test, if any.
    pub mutation: Mutation,
    /// Runtime tuning (the simulation drives the read path, scans and
    /// checkpoints itself, with no maintenance thread).
    pub runtime: RuntimeConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            sites: 4,
            clients: 3,
            requests_per_client: 120,
            request_interval_ms: 15,
            horizon_ms: 2_500,
            faults: 5,
            events: None,
            crashes: vec![1_500],
            ambient_c: 85.0,
            mutation: Mutation::None,
            runtime: RuntimeConfig {
                default_deadline_ms: 250,
                scan_interval_ms: 80,
                checkpoint_interval_ms: 200,
                staleness_bound_ms: 600,
                snapshot_dir: Some(PathBuf::from("/sim/snaps")),
                snapshot_keep: 3,
                ..RuntimeConfig::default()
            },
        }
    }
}

/// What one simulated run did and found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// The mutation that was active.
    pub mutation: Mutation,
    /// The first invariant violation, if any (the run stops there).
    pub violation: Option<Violation<Invariant>>,
    /// The full replayable schedule.
    pub trace: Vec<StepRecord>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Client requests issued.
    pub requests: u64,
    /// Replies served fresh.
    pub served_fresh: u64,
    /// Replies served as degraded medians.
    pub served_degraded: u64,
    /// Typed errors received by clients.
    pub typed_errors: u64,
    /// Typed deadline misses among those errors.
    pub deadline_misses: u64,
    /// Fault events injected.
    pub injected: u64,
    /// Fault events cleared.
    pub cleared: u64,
    /// Crashes simulated.
    pub crashes: u64,
    /// Checkpoints persisted across all incarnations.
    pub checkpoints: u64,
    /// In-flight requests aborted by a crash.
    pub aborted_in_flight: u64,
    /// Per-crash checkpoint sequence recovered from (`None` = fresh
    /// start, nothing valid on disk).
    pub recovered_seqs: Vec<Option<u64>>,
    /// Snapshots recovery skipped as torn/corrupt, across all crashes.
    pub snapshots_skipped: u64,
    /// Final simulated-disk counters.
    pub disk: SimDiskStats,
}

/// A seeded simulator driven by the shared seed pipeline: [`sweep`],
/// [`sweep_jobs`], [`shrink_failure`] and [`render_trace`].
/// Implemented by the single-node [`SimConfig`] and the replicated
/// [`fleet::FleetConfig`]; each keeps its own invariants, mutations and
/// shrink order.
pub trait Simulation: Clone + Sync {
    /// What one run reports.
    type Report: RunReport + Clone + PartialEq + fmt::Debug + Send;
    /// This config with its master seed replaced.
    fn with_seed(&self, seed: u64) -> Self;
    /// Runs the config to completion or to its first invariant
    /// violation. Pure: the same config always returns the same report.
    fn run(&self) -> Self::Report;
    /// Pins the config's scenario and cuts it down, in this
    /// simulator's own shrink order, to a 1-minimal set that
    /// `reproduces` still accepts.
    fn minimize(&self, reproduces: impl Fn(&Self) -> bool) -> Self;
    /// The pinned scenario of a shrunk config, for a reproducer
    /// header: a count phrase and one line per event.
    fn scenario(&self) -> (String, Vec<String>);
}

/// What the shared seed pipeline reads from one run's report.
pub trait RunReport {
    /// Which promises a run can break.
    type Invariant: Copy + PartialEq + fmt::Debug + fmt::Display;
    /// Trace-header label: `dst` or `fleet dst`.
    const KIND: &'static str;
    /// The seed that produced this run.
    fn seed(&self) -> u64;
    /// The mutation that was active.
    fn mutation(&self) -> &dyn fmt::Display;
    /// The first invariant violation, if any.
    fn violation(&self) -> Option<&Violation<Self::Invariant>>;
    /// The full replayable schedule.
    fn trace(&self) -> &[StepRecord];
    /// Scheduler steps, client requests and crashes: what this run
    /// adds to a sweep's totals.
    fn totals(&self) -> [u64; 3];
    /// The run as one JSON object — what `runtime dst --replay S
    /// --json` prints.
    fn render_json(&self) -> String;
}

/// Renders `fields` — keys with values that are JSON already — as one
/// JSON object, a field per line, indenting a nested object's lines
/// one level: the shape of every report the `runtime` CLI prints with
/// `--json`.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {}", value.replace('\n', "\n  ")))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

/// A run's first violation as a one-line JSON object, or `null`.
fn violation_json<I: fmt::Display>(violation: Option<&Violation<I>>) -> String {
    violation.map_or("null".to_string(), |v| {
        format!(
            "{{\"invariant\": \"{}\", \"step\": {}, \"at_ms\": {}, \"task\": \"{}\"}}",
            v.invariant, v.step, v.at_ms, v.task
        )
    })
}

impl Simulation for SimConfig {
    type Report = SimReport;

    fn with_seed(&self, seed: u64) -> Self {
        SimConfig {
            seed,
            ..self.clone()
        }
    }

    fn run(&self) -> SimReport {
        run_sim(self)
    }

    /// Shrinks the fault storm first (crash schedule held), then the
    /// crash times (minimal storm held).
    fn minimize(&self, reproduces: impl Fn(&Self) -> bool) -> Self {
        let pinned = |events: Vec<FaultEvent>, crashes: Vec<u64>| SimConfig {
            events: Some(events),
            crashes,
            ..self.clone()
        };
        let events = shrink_events(resolve_events(self), |evs| {
            reproduces(&pinned(evs.to_vec(), self.crashes.clone()))
        });
        let crashes = shrink_events(self.crashes.clone(), |crs| {
            reproduces(&pinned(events.clone(), crs.to_vec()))
        });
        pinned(events, crashes)
    }

    fn scenario(&self) -> (String, Vec<String>) {
        let events = self.events.as_deref().unwrap_or_default();
        let lines = events.iter().map(|ev| {
            format!(
                "t={} ch={} {:?} for {} ms",
                ev.at_ms, ev.channel, ev.fault, ev.duration_ms
            )
        });
        let count = format!(
            "{} fault event(s), {} crash(es)",
            events.len(),
            self.crashes.len()
        );
        (count, lines.collect())
    }
}

impl RunReport for SimReport {
    type Invariant = Invariant;
    const KIND: &'static str = "dst";

    fn seed(&self) -> u64 {
        self.seed
    }

    fn mutation(&self) -> &dyn fmt::Display {
        &self.mutation
    }

    fn violation(&self) -> Option<&Violation<Invariant>> {
        self.violation.as_ref()
    }

    fn trace(&self) -> &[StepRecord] {
        &self.trace
    }

    fn totals(&self) -> [u64; 3] {
        [self.steps, self.requests, self.crashes]
    }

    fn render_json(&self) -> String {
        json_object(&[
            ("seed", self.seed.to_string()),
            ("mutation", format!("\"{}\"", self.mutation)),
            ("steps", self.steps.to_string()),
            ("requests", self.requests.to_string()),
            ("served_fresh", self.served_fresh.to_string()),
            ("served_degraded", self.served_degraded.to_string()),
            ("typed_errors", self.typed_errors.to_string()),
            ("deadline_misses", self.deadline_misses.to_string()),
            ("injected", self.injected.to_string()),
            ("cleared", self.cleared.to_string()),
            ("crashes", self.crashes.to_string()),
            ("checkpoints", self.checkpoints.to_string()),
            ("snapshots_skipped", self.snapshots_skipped.to_string()),
            ("violation", violation_json(self.violation.as_ref())),
        ])
    }
}

/// Renders a replayable trace (and the violation, if any) for humans
/// and CI artifacts, optionally filtered to one node's steps — `node`
/// matches [`fleet::task_node`] labels (`shard-G-R`, `router`,
/// `client-N`, `admin`, `anti-entropy`).
pub fn render_trace<R: RunReport>(report: &R, node: Option<&str>) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "# {} trace: seed {} mutation {} ({} steps{})\n",
        R::KIND,
        report.seed(),
        report.mutation(),
        report.trace().len(),
        node.map(|n| format!(", node {n}")).unwrap_or_default()
    ));
    for r in report.trace() {
        if node.is_some_and(|n| fleet::task_node(&r.task) != n) {
            continue;
        }
        s.push_str(&format!("{:>6}  t={:<8} {}\n", r.step, r.at_ms, r.task));
    }
    match report.violation() {
        Some(v) => s.push_str(&format!(
            "VIOLATION {} at step {} (t={} ms, task {}): {}\n",
            v.invariant, v.step, v.at_ms, v.task, v.detail
        )),
        None => s.push_str("clean\n"),
    }
    s
}

/// The first violation a run's tasks flag, held until the per-step
/// check pins it to the step that flagged it. Later flags are dropped:
/// a run reports only its first violation.
struct Latch<I>(Option<Violation<I>>);

impl<I> Latch<I> {
    fn flag(&mut self, invariant: I, at_ms: u64, detail: String) {
        if self.0.is_none() {
            self.0 = Some(Violation {
                invariant,
                at_ms,
                step: 0,
                task: String::new(),
                detail,
            });
        }
    }

    /// The flagged violation, pinned to `record`'s step and task.
    fn pin(&mut self, record: &StepRecord) -> Option<Violation<I>> {
        let mut v = self.0.take()?;
        v.step = record.step;
        v.task = record.task.clone();
        Some(v)
    }
}

/// Everything the simulation tasks share.
struct SimWorld {
    node: Node,
    /// Bumped on every crash; in-flight jobs from older incarnations
    /// are aborted (their process died).
    incarnation: u64,
    prev_breakers: Vec<BreakerState>,
    violation: Latch<Invariant>,
    /// The report the tasks count into; the end-of-run facts are set
    /// after the run.
    report: SimReport,
}

fn breaker_snapshot(core: &Core) -> Vec<BreakerState> {
    let state = core.state.lock().expect("state poisoned");
    state.breakers.iter().map(|b| b.state().clone()).collect()
}

/// The fault storm a config resolves to: explicit events if pinned,
/// otherwise the seeded schedule. Exposed so harnesses can compare a
/// shrunk reproducer against the storm it was cut from.
pub fn resolve_events(cfg: &SimConfig) -> Vec<FaultEvent> {
    match &cfg.events {
        Some(evs) => {
            let mut evs = evs.clone();
            evs.sort_by_key(|e| e.at_ms);
            evs
        }
        None if cfg.faults == 0 => Vec::new(),
        None => FaultSchedule::seeded_unit_faults(cfg.seed, cfg.faults, cfg.horizon_ms, cfg.sites)
            .events()
            .to_vec(),
    }
}

/// Runs one seeded simulation to completion (or to its first invariant
/// violation) and reports what happened. Pure: the same config always
/// returns the same report, trace included.
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    let mut runtime_cfg = cfg.runtime.clone();
    runtime_cfg.seed = cfg.seed;
    let clock = Arc::new(VirtualClock::new());
    let ambient = cfg.ambient_c;
    let field: Field = Arc::new(move |_, _| ambient);
    let node = Node::start(
        cfg.sites,
        field,
        runtime_cfg.clone(),
        Arc::clone(&clock) as _,
        Arc::new(SimDisk::new(cfg.seed, SimDiskProfile::default())),
        None,
    );

    let world = Rc::new(RefCell::new(SimWorld {
        prev_breakers: breaker_snapshot(node.core()),
        node,
        incarnation: 0,
        violation: Latch(None),
        report: SimReport {
            seed: cfg.seed,
            mutation: cfg.mutation,
            ..SimReport::default()
        },
    }));

    let mut ex = Executor::new(cfg.seed, Arc::clone(&clock));
    let horizon = cfg.horizon_ms;

    // Client tasks: each drives ReadJob — the TCP tier's exact
    // retry/breaker/fallback machine — as discrete steps.
    for k in 0..cfg.clients {
        let world = Rc::clone(&world);
        let sites = cfg.sites.max(1);
        let interval = cfg.request_interval_ms.max(1);
        let budget_ms = runtime_cfg.default_deadline_ms;
        let bound_ms = runtime_cfg.staleness_bound_ms;
        let mut remaining = cfg.requests_per_client;
        let mut chan = k % sites;
        let mut job: Option<(ReadJob, u64, u64)> = None; // (job, deadline_abs, incarnation)
        ex.spawn(format!("client-{k}"), (k as u64) * 3, move |now| {
            let mut w = world.borrow_mut();
            if let Some((_, _, inc)) = &job {
                if *inc != w.incarnation {
                    // The process serving this request died mid-flight.
                    job = None;
                    w.report.aborted_in_flight += 1;
                }
            }
            match &mut job {
                None => {
                    if remaining == 0 || now >= horizon {
                        return TaskState::Done;
                    }
                    remaining -= 1;
                    w.report.requests += 1;
                    let core = Arc::clone(w.node.core());
                    let submitted = core.now_ms();
                    let deadline_abs = submitted + core.config.default_deadline_ms;
                    job = Some((
                        ReadJob::new(&core, chan, submitted, deadline_abs),
                        deadline_abs,
                        w.incarnation,
                    ));
                    chan = (chan + 1) % sites;
                    TaskState::Runnable
                }
                Some((j, deadline_abs, _)) => {
                    let core = Arc::clone(w.node.core());
                    let deadline = *deadline_abs;
                    match j.step(&core) {
                        JobStep::Backoff { delay_ms } => TaskState::SleepUntil(now + delay_ms),
                        JobStep::Done(result) => {
                            job = None;
                            match enforce_deadline(&core, deadline, result) {
                                Ok(r) => {
                                    for (invariant, detail) in check_reply(&r, budget_ms, bound_ms)
                                    {
                                        w.violation.flag(invariant, now, detail);
                                    }
                                    if matches!(r.provenance, Provenance::Fresh { .. }) {
                                        w.report.served_fresh += 1;
                                    } else {
                                        w.report.served_degraded += 1;
                                    }
                                }
                                Err(e) => {
                                    w.report.typed_errors += 1;
                                    if matches!(e, RuntimeError::DeadlineExceeded { .. }) {
                                        w.report.deadline_misses += 1;
                                    }
                                }
                            }
                            TaskState::SleepUntil(now + interval)
                        }
                    }
                }
            }
        });
    }

    // Maintenance: the background scan (health monitor + cache
    // refresh) and the periodic checkpoint, at their configured
    // cadence.
    {
        let world = Rc::clone(&world);
        let interval = runtime_cfg.scan_interval_ms.max(1);
        ex.spawn("scan", 1, move |now| {
            if now >= horizon {
                return TaskState::Done;
            }
            world.borrow().node.scan();
            TaskState::SleepUntil(now + interval)
        });
    }
    if runtime_cfg.checkpoint_interval_ms > 0 && runtime_cfg.snapshot_dir.is_some() {
        let world = Rc::clone(&world);
        let interval = runtime_cfg.checkpoint_interval_ms;
        ex.spawn("checkpoint", interval, move |now| {
            if now >= horizon {
                return TaskState::Done;
            }
            let mut w = world.borrow_mut();
            if w.node.checkpoint(0) {
                w.report.checkpoints += 1;
            }
            TaskState::SleepUntil(now + interval)
        });
    }

    // The fault storm: inject and clear on schedule. Faults live in
    // the silicon, so the node re-applies them after a crash.
    let events = resolve_events(cfg);
    if !events.is_empty() {
        let world = Rc::clone(&world);
        let first = events[0].at_ms;
        let mut idx = 0usize;
        ex.spawn("storm", first, move |now| {
            let mut w = world.borrow_mut();
            w.report.cleared += w.node.clear_due(now);
            while idx < events.len() && events[idx].at_ms <= now {
                let ev = &events[idx];
                idx += 1;
                if let Some(rf) = ev.fault.as_ring_fault() {
                    if w.node.strike(ev.channel, rf, ev.clears_at_ms()) {
                        w.report.injected += 1;
                    }
                }
            }
            let next_inject = events.get(idx).map(|e| e.at_ms);
            match (next_inject, w.node.next_clear()) {
                (None, None) => TaskState::Done,
                (a, b) => TaskState::SleepUntil(a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX))),
            }
        });
    }

    // Crashes: power loss (the disk tears its volatile state), then
    // recovery from whatever survived, through the real build path.
    if !cfg.crashes.is_empty() {
        let world = Rc::clone(&world);
        let mut crash_times = cfg.crashes.clone();
        crash_times.sort_unstable();
        let first = crash_times[0];
        let mut idx = 0usize;
        let rebase = cfg.mutation != Mutation::NoCooldownRebase;
        ex.spawn("crash", first, move |now| {
            let mut w = world.borrow_mut();
            w.report.crashes += 1;
            idx += 1;
            match w.node.crash(rebase) {
                Ok((rec, resurrected)) => {
                    w.report.snapshots_skipped += rec.snapshots_skipped as u64;
                    if resurrected {
                        w.violation.flag(
                            Invariant::RecoveryRestoredCache,
                            now,
                            "recovered core came up with a cached median".into(),
                        );
                    }
                    w.report.recovered_seqs.push(rec.recovered_seq);
                    w.prev_breakers = breaker_snapshot(w.node.core());
                    w.incarnation += 1;
                }
                Err(e) => w
                    .violation
                    .flag(Invariant::RecoveryFailed, now, e.to_string()),
            }
            match crash_times.get(idx) {
                Some(at) => TaskState::SleepUntil((*at).max(now + 1)),
                None => TaskState::Done,
            }
        });
    }

    // Run, checking every invariant after every step.
    let check_world = Rc::clone(&world);
    let violation = ex.run(horizon + 10_000, 500_000, move |record: &StepRecord| {
        let mut w = check_world.borrow_mut();
        if let Some(v) = w.violation.pin(record) {
            return Some(v);
        }
        let core = Arc::clone(w.node.core());
        let now = core.now_ms();
        let cfg = &core.config.breaker;
        let cur = breaker_snapshot(&core);
        for (i, s) in cur.iter().enumerate() {
            let bad = |invariant: Invariant, detail: String| {
                Some(Violation {
                    invariant,
                    at_ms: record.at_ms,
                    step: record.step,
                    task: record.task.clone(),
                    detail: format!("channel {i}: {detail}"),
                })
            };
            match s {
                BreakerState::Open { until_ms, .. }
                    if until_ms.saturating_sub(now) > cfg.cooldown_ms =>
                {
                    return bad(
                        Invariant::CooldownOverhang,
                        format!(
                            "Open until t={until_ms} is {} ms past now+cooldown (now {now}, \
                             cooldown {})",
                            until_ms - now - cfg.cooldown_ms,
                            cfg.cooldown_ms
                        ),
                    );
                }
                BreakerState::Closed { failures } if *failures >= cfg.failure_threshold => {
                    return bad(
                        Invariant::IllegalBreakerTransition,
                        format!(
                            "Closed with {failures} failures at threshold {}",
                            cfg.failure_threshold
                        ),
                    );
                }
                BreakerState::HalfOpen { successes } if *successes >= cfg.halfopen_successes => {
                    return bad(
                        Invariant::IllegalBreakerTransition,
                        format!(
                            "HalfOpen with {successes} successes at close threshold {}",
                            cfg.halfopen_successes
                        ),
                    );
                }
                _ => {}
            }
            if let (Some(BreakerState::Open { until_ms, .. }), BreakerState::HalfOpen { .. }) =
                (w.prev_breakers.get(i), s)
            {
                if now < *until_ms {
                    return bad(
                        Invariant::IllegalBreakerTransition,
                        format!("probe admitted at t={now}, before cooldown ends at {until_ms}"),
                    );
                }
            }
        }
        w.prev_breakers = cur;
        None
    });

    let mut w = world.borrow_mut();
    SimReport {
        violation,
        trace: ex.trace().to_vec(),
        steps: ex.steps(),
        disk: w.node.disk().stats(),
        ..std::mem::take(&mut w.report)
    }
}

/// Aggregate of a seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// Seeds run.
    pub seeds: u64,
    /// Total scheduler steps across the seeds.
    pub steps: u64,
    /// Total client requests across the seeds.
    pub requests: u64,
    /// Total crashes simulated across the seeds.
    pub crashes: u64,
    /// Full reports of the seeds that violated an invariant.
    pub violations: Vec<R>,
}

impl<R: RunReport> SweepOutcome<R> {
    fn new() -> Self {
        SweepOutcome {
            seeds: 0,
            steps: 0,
            requests: 0,
            crashes: 0,
            violations: Vec::new(),
        }
    }

    /// Counts one seed's run.
    fn add(&mut self, report: R) {
        let [steps, requests, crashes] = report.totals();
        self.seeds += 1;
        self.steps += steps;
        self.requests += requests;
        self.crashes += crashes;
        if report.violation().is_some() {
            self.violations.push(report);
        }
    }
}

/// Runs `count` seeds starting at `seed_base` and collects every
/// violating report.
pub fn sweep<S: Simulation>(base: &S, seed_base: u64, count: u64) -> SweepOutcome<S::Report> {
    let mut out = SweepOutcome::new();
    for i in 0..count {
        out.add(base.with_seed(seed_base + i).run());
    }
    out
}

/// Runs `count` seeds starting at `seed_base` across `jobs` worker
/// threads, merging per-seed results in seed order so the outcome is
/// byte-identical to the serial [`sweep`]. Seeds run in waves of
/// `jobs * 4` via [`dst::run_indexed`], which bounds how many reports,
/// each with its full trace, are held at once.
pub fn sweep_jobs<S: Simulation>(
    base: &S,
    seed_base: u64,
    count: u64,
    jobs: usize,
) -> SweepOutcome<S::Report> {
    let jobs = jobs.max(1);
    let wave = (jobs * 4) as u64;
    let mut out = SweepOutcome::new();
    let mut next = 0u64;
    while next < count {
        let len = wave.min(count - next) as usize;
        let first = seed_base + next;
        for report in dst::run_indexed(len, jobs, |i| base.with_seed(first + i as u64).run()) {
            out.add(report);
        }
        next += len as u64;
    }
    out
}

/// A failing case cut down to a 1-minimal reproducer.
#[derive(Debug, Clone)]
pub struct ShrunkCase<S: Simulation> {
    /// The minimized config: its scenario pinned explicitly; same
    /// seed, so the schedule replays exactly.
    pub config: S,
    /// The minimized run, still violating the same invariant.
    pub report: S::Report,
}

/// Shrinks a failing config's scenario, in the simulator's own order
/// ([`Simulation::minimize`]), to a 1-minimal set that still
/// reproduces the *same* invariant violation. Returns `None` when the
/// config does not fail in the first place.
pub fn shrink_failure<S: Simulation>(cfg: &S) -> Option<ShrunkCase<S>> {
    let target = cfg.run().violation()?.invariant;
    let same = |r: &S::Report| r.violation().is_some_and(|v| v.invariant == target);
    let config = cfg.minimize(|c| same(&c.run()));
    let report = config.run();
    debug_assert!(same(&report));
    Some(ShrunkCase { config, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig {
            clients: 2,
            requests_per_client: 60,
            horizon_ms: 2_000,
            faults: 4,
            crashes: vec![1_200],
            ..SimConfig::default()
        }
    }

    #[test]
    fn clean_run_replays_byte_for_byte() {
        let cfg = SimConfig { seed: 3, ..quick() };
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a, b, "identical config must replay identically");
        assert!(
            a.violation.is_none(),
            "shipped service must be clean: {:?}",
            a.violation
        );
        assert!(a.requests > 0 && a.steps > 0);
        assert_eq!(a.crashes, 1);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let base = quick();
        let serial = sweep(&base, 0, 6);
        for jobs in [1, 2, 4] {
            assert_eq!(sweep_jobs(&base, 0, 6, jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let traces: std::collections::HashSet<usize> = (0..4u64)
            .map(|s| run_sim(&SimConfig { seed: s, ..quick() }).trace.len())
            .collect();
        // Not all four runs may differ in length, but the schedule
        // space must not collapse to a single point.
        assert!(traces.len() > 1, "4 seeds produced identical schedules");
    }

    #[test]
    fn shipped_service_survives_a_seed_sweep() {
        let out = sweep(&quick(), 0, 15);
        assert_eq!(out.seeds, 15);
        assert!(
            out.violations.is_empty(),
            "seed {} violated: {:?}",
            out.violations[0].seed,
            out.violations[0].violation
        );
        assert!(out.crashes >= 15, "every seed crashes at least once");
    }

    #[test]
    fn no_cooldown_rebase_mutation_is_caught_within_200_seeds() {
        let base = SimConfig {
            mutation: Mutation::NoCooldownRebase,
            ..quick()
        };
        let caught = (0..200)
            .map(|s| base.with_seed(s).run())
            .find(|r| r.violation.is_some())
            .expect("mutation survived 200 seeds");
        let v = caught.violation.as_ref().expect("violating report");
        assert_eq!(
            v.invariant,
            Invariant::CooldownOverhang,
            "expected the un-rebased deadline signature, got {v:?}"
        );

        // The failing seed replays deterministically: identical
        // violation and identical trace on two consecutive runs.
        let failing = SimConfig {
            seed: caught.seed,
            ..base.clone()
        };
        let r1 = run_sim(&failing);
        let r2 = run_sim(&failing);
        assert_eq!(r1, r2, "failing seed must replay byte-for-byte");
        assert_eq!(r1.violation.as_ref(), Some(v));

        // And shrinks to a minimal storm that still reproduces it.
        let shrunk = shrink_failure(&failing).expect("baseline fails, so shrinking must succeed");
        let kept = shrunk.config.events.as_ref().expect("events pinned").len();
        assert!(
            kept <= resolve_events(&failing).len(),
            "shrinking must never grow the storm"
        );
        assert_eq!(
            shrunk.report.violation.as_ref().map(|w| w.invariant),
            Some(Invariant::CooldownOverhang),
            "the shrunk case reproduces the same invariant"
        );
        assert!(!shrunk.config.crashes.is_empty(), "this bug needs a crash");
    }

    #[test]
    fn storm_free_sim_serves_fresh_only() {
        let cfg = SimConfig {
            seed: 9,
            faults: 0,
            crashes: Vec::new(),
            ..quick()
        };
        let report = run_sim(&cfg);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert_eq!(report.injected, 0);
        assert_eq!(report.crashes, 0);
        assert!(report.served_fresh > 0);
        assert_eq!(report.served_degraded, 0, "no faults, no fallbacks");
    }

    #[test]
    fn reply_check_boundaries() {
        let ok = ServedReading {
            value_c: 85.0,
            provenance: Provenance::DegradedMedian {
                confidence: 1.0,
                quarantined: 0,
            },
            age_ms: 600,
            latency_ms: 250,
        };
        let broken = |r: &ServedReading| -> Vec<Invariant> {
            check_reply(r, 250, 600)
                .into_iter()
                .map(|(invariant, _)| invariant)
                .collect()
        };
        // Latency at the deadline and age at the bound: clean.
        assert!(broken(&ok).is_empty());
        let late = ServedReading {
            latency_ms: 251,
            ..ok.clone()
        };
        assert_eq!(broken(&late), [Invariant::LateReply]);
        let aged_fresh = ServedReading {
            provenance: Provenance::Fresh { channel: 0 },
            age_ms: 1,
            ..ok
        };
        assert_eq!(broken(&aged_fresh), [Invariant::SilentStale]);
    }

    #[test]
    fn trace_renders_for_artifacts() {
        let report = run_sim(&SimConfig { seed: 1, ..quick() });
        let text = render_trace(&report, None);
        assert!(text.contains("seed 1"));
        assert!(text.lines().count() > 10);
        assert!(text.ends_with("clean\n") || text.contains("VIOLATION"));
    }
}

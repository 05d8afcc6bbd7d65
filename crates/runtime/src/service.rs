//! The supervised monitoring service: a multi-threaded runtime that
//! owns a [`SensorArray`] and serves temperature readings through a
//! bounded request queue under deadline scheduling.
//!
//! Architecture (one supervision tree, all state behind one lock):
//!
//! ```text
//!   clients ──▶ bounded queue ──▶ worker threads ──▶ per-unit supervisor
//!      │ (full? shed to cached        │                 retry ladder +
//!      ▼  median, typed)              ▼                 circuit breaker
//!   typed reply ◀── deadline check ── ArrayState (array, breakers,
//!                                     cache, snapshot seq)
//!                      maintenance thread: degraded scans (health
//!                      monitor + parole) and periodic checkpoints
//! ```
//!
//! The contract every reply honors:
//!
//! * **Deadline or typed miss** — a request is answered before its
//!   absolute deadline, or with [`RuntimeError::DeadlineExceeded`];
//!   never with quietly late data.
//! * **Provenance, not silence** — every reading says where it came
//!   from ([`Provenance::Fresh`] conversion, quarantine/breaker
//!   fallback to the survivors' [`Provenance::DegradedMedian`], or a
//!   load-shedding [`Provenance::Shed`] cache hit) and how old it is.
//! * **Bounded staleness** — cached data older than the staleness
//!   bound is a [`RuntimeError::StaleCache`], never served.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use dst::{Clock, RealFs, SimFs, SystemClock};
use sensor::{HealthPolicy, RingFault, SensorArray, SensorError, SmartSensorUnit};
use tsense_core::units::Celsius;

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::{Result, RuntimeError};
use crate::retry::{Backoff, RetryPolicy};
use crate::snapshot::{RuntimeSnapshot, SiteSnapshot, SnapshotError, SnapshotStore};

/// Thermal field type: die position → junction temperature, °C.
pub type Field = Arc<dyn Fn(f64, f64) -> f64 + Send + Sync>;

/// How many served medians the checkpointed ring buffer retains.
const READING_RING_CAPACITY: usize = 64;

/// Extra time a client waits past its deadline for the worker's own
/// typed deadline-miss reply before synthesizing one locally.
const REPLY_GRACE_MS: u64 = 25;

/// Tuning for one monitoring runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads serving the request queue. `0` is allowed (no
    /// fresh reads are ever served — useful to test shedding).
    pub workers: usize,
    /// Bounded queue depth; a full queue sheds to the cached median.
    /// `0` sheds every request.
    pub queue_capacity: usize,
    /// Default per-request deadline, milliseconds.
    pub default_deadline_ms: u64,
    /// Background degraded-scan period (health monitor + cache
    /// refresh + parole), milliseconds.
    pub scan_interval_ms: u64,
    /// Checkpoint period, milliseconds.
    pub checkpoint_interval_ms: u64,
    /// Maximum age at which cached data may still be served,
    /// milliseconds.
    pub staleness_bound_ms: u64,
    /// Retry policy for supervised unit reads.
    pub retry: RetryPolicy,
    /// Per-unit circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Health policy for degraded scans (set
    /// [`HealthPolicy::parole_after`] to let quarantined rings earn
    /// their way back).
    pub policy: HealthPolicy,
    /// Where checkpoints go; `None` disables checkpointing.
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshots retained on disk.
    pub snapshot_keep: usize,
    /// Seed for retry jitter (the only randomness in the service).
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline_ms: 250,
            scan_interval_ms: 50,
            checkpoint_interval_ms: 500,
            // Must cover at least one checkpoint interval, or a crash
            // can leave a window in which nothing recoverable is fresh
            // enough to serve (`NC0801`).
            staleness_bound_ms: 600,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            policy: HealthPolicy::default().with_parole_after(3),
            snapshot_dir: None,
            snapshot_keep: 4,
            seed: 0,
        }
    }
}

/// Where a served reading came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// A fresh conversion on the requested channel.
    Fresh {
        /// The channel that converted.
        channel: usize,
    },
    /// The requested channel is quarantined or its breaker is open;
    /// the reading is the survivors' median.
    DegradedMedian {
        /// Surviving fraction of the array, `(0, 1]`.
        confidence: f64,
        /// Quarantined sites at the time of the backing scan.
        quarantined: usize,
    },
    /// Load shedding: the queue was full, so the cached median was
    /// served without touching the array.
    Shed {
        /// Surviving fraction behind the cached median.
        confidence: f64,
    },
}

/// One reading, with honest provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReading {
    /// Temperature, °C.
    pub value_c: f64,
    /// Where the value came from.
    pub provenance: Provenance,
    /// Age of the underlying data, milliseconds (0 for fresh
    /// conversions). Never exceeds the configured staleness bound.
    pub age_ms: u64,
    /// Submit-to-reply latency, milliseconds.
    pub latency_ms: u64,
}

/// Counters the runtime exposes (monotonic since start).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Readings served from fresh conversions.
    pub served_fresh: u64,
    /// Readings served as degraded medians (quarantine/breaker
    /// fallback).
    pub served_degraded: u64,
    /// Readings served from cache under load shedding.
    pub served_shed: u64,
    /// Requests shed because the queue was full.
    pub queue_sheds: u64,
    /// Typed deadline misses.
    pub deadline_misses: u64,
    /// Requests rejected by an open breaker (served via fallback).
    pub breaker_rejections: u64,
    /// Requests that hit a quarantined channel (served via fallback).
    pub quarantine_fallbacks: u64,
    /// Retry attempts beyond the first, across all requests.
    pub retries: u64,
    /// Typed stale-cache rejections.
    pub stale_rejections: u64,
    /// Background degraded scans completed.
    pub scans: u64,
    /// Checkpoints persisted.
    pub checkpoints: u64,
    /// Total breaker trips across all channels.
    pub breaker_trips: u64,
    /// Channels currently quarantined.
    pub quarantined_now: usize,
}

/// What recovery restored (and what it had to skip).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovered from, if any.
    pub recovered_seq: Option<u64>,
    /// Corrupt or torn snapshots skipped on the way down, newest
    /// first: `(path, why)`.
    pub skipped: Vec<(PathBuf, String)>,
    /// Sites whose calibration was restored.
    pub restored_calibrations: usize,
    /// Sites whose quarantine verdict was restored.
    pub restored_quarantine: usize,
    /// Breakers restored into a non-closed state.
    pub restored_open_breakers: usize,
    /// Orphaned `*.tmp` checkpoint files left by crashed incarnations
    /// and garbage-collected when the snapshot store opened.
    pub gc_orphaned_tmp: u64,
    /// The replica-group epoch carried by the recovered snapshot (0
    /// when nothing was recovered or the snapshot predates epochs).
    pub recovered_epoch: u64,
    /// Snapshots skipped as torn or corrupt: every entry of `skipped`
    /// when one validated, every candidate examined when none did.
    pub snapshots_skipped: usize,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    served_fresh: AtomicU64,
    served_degraded: AtomicU64,
    served_shed: AtomicU64,
    queue_sheds: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    breaker_rejections: AtomicU64,
    quarantine_fallbacks: AtomicU64,
    retries: AtomicU64,
    stale_rejections: AtomicU64,
    scans: AtomicU64,
    checkpoints: AtomicU64,
}

struct Request {
    channel: usize,
    submitted_ms: u64,
    deadline_ms: u64,
    reply: mpsc::Sender<Result<ServedReading>>,
}

/// Bounded MPMC queue: mutexed deque + condvar, non-blocking submit.
struct BoundedQueue {
    inner: Mutex<VecDeque<Request>>,
    not_empty: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// `false` when the queue is full (caller sheds).
    fn try_push(&self, req: Request) -> bool {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(req);
        drop(q);
        self.not_empty.notify_one();
        true
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Request> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if let Some(r) = q.pop_front() {
            return Some(r);
        }
        let (mut q, _) = self
            .not_empty
            .wait_timeout(q, timeout)
            .expect("queue poisoned");
        q.pop_front()
    }
}

pub(crate) struct CachedMedian {
    pub(crate) value_c: f64,
    pub(crate) confidence: f64,
    pub(crate) quarantined: usize,
    pub(crate) taken_at_ms: u64,
}

/// Everything behind the state lock.
pub(crate) struct ArrayState {
    pub(crate) array: SensorArray,
    pub(crate) field: Field,
    pub(crate) breakers: Vec<CircuitBreaker>,
    pub(crate) cache: Option<CachedMedian>,
    /// Recent served medians for the checkpoint: `(t_ms, °C, conf)`.
    pub(crate) history: VecDeque<(u64, f64, f64)>,
    pub(crate) store: Option<SnapshotStore>,
    pub(crate) seq: u64,
}

pub(crate) struct Core {
    pub(crate) state: Mutex<ArrayState>,
    queue: BoundedQueue,
    stop: AtomicBool,
    /// Held while [`Core::request_stop`] sets `stop` and notifies
    /// `wake`, so a stop that lands between the maintenance loop's
    /// check and its wait is never lost.
    wake_lock: Mutex<()>,
    /// Wakes the maintenance loop out of its wait when a stop is
    /// requested.
    wake: Condvar,
    clock: Arc<dyn Clock>,
    /// `clock.now_ms()` at this incarnation's start; `now_ms` is
    /// relative to it, so a recovered process starts at t = 0 like a
    /// real restart does.
    epoch_ms: u64,
    pub(crate) stats: Counters,
    request_nonce: AtomicU64,
    /// The replica-group epoch this node currently holds or has
    /// adopted. 0 means unreplicated. Stamped into every checkpoint so
    /// a recovered ex-primary knows the epoch it last served at.
    group_epoch: AtomicU64,
    pub(crate) config: RuntimeConfig,
}

impl Core {
    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms().saturating_sub(self.epoch_ms)
    }

    /// The replica-group epoch this core last adopted.
    pub(crate) fn group_epoch(&self) -> u64 {
        self.group_epoch.load(Ordering::SeqCst)
    }

    /// Adopts a (higher) replica-group epoch; lower values are ignored
    /// so a stale `Promote` can never roll the fence back.
    pub(crate) fn adopt_group_epoch(&self, epoch: u64) {
        self.group_epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Asks this core's background loops to exit: the maintenance loop
    /// wakes at once, a worker at its next queue poll. This is how the
    /// wire tier retires a crashed incarnation's maintenance thread
    /// without a full [`RuntimeHandle`].
    pub(crate) fn request_stop(&self) {
        let _held = self.wake_lock.lock().expect("wake poisoned");
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Waits until `now_ms` reaches `due_ms`. Returns `false`, at once,
    /// when a stop is requested before then.
    fn wait_until(&self, due_ms: u64) -> bool {
        let mut held = self.wake_lock.lock().expect("wake poisoned");
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            let now = self.now_ms();
            if now >= due_ms {
                return true;
            }
            let wait = Duration::from_millis(due_ms - now);
            held = self.wake.wait_timeout(held, wait).expect("wake poisoned").0;
        }
    }
}

/// Namespace for starting and recovering monitoring runtimes.
pub struct MonitorRuntime;

impl MonitorRuntime {
    /// Starts a runtime over `array`, measured against `field`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnservableConfig`] when any site's worst-case
    /// conversion time cannot fit the deadline budget (the static
    /// `netcheck` rule `NC0701` flags the same condition);
    /// [`RuntimeError::Snapshot`] when the snapshot directory cannot
    /// be opened.
    pub fn start(array: SensorArray, field: Field, config: RuntimeConfig) -> Result<RuntimeHandle> {
        Self::start_inner(array, field, config, false).map(|(h, _)| h)
    }

    /// Starts a runtime, first restoring calibration, quarantine,
    /// breaker states, and the reading ring buffer from the newest
    /// CRC-valid snapshot in `config.snapshot_dir`. Torn or corrupt
    /// snapshots are skipped (and reported); if nothing on disk
    /// validates, the runtime starts fresh and says so.
    ///
    /// The cached median is deliberately *not* restored: a restarted
    /// process must rescan before serving cached data, so recovery can
    /// never introduce silent staleness.
    ///
    /// # Errors
    ///
    /// As [`MonitorRuntime::start`].
    pub fn recover(
        array: SensorArray,
        field: Field,
        config: RuntimeConfig,
    ) -> Result<(RuntimeHandle, RecoveryReport)> {
        Self::start_inner(array, field, config, true)
    }

    fn start_inner(
        array: SensorArray,
        field: Field,
        config: RuntimeConfig,
        recover: bool,
    ) -> Result<(RuntimeHandle, RecoveryReport)> {
        let (core, report) = build_core(
            array,
            field,
            config,
            recover,
            Arc::new(SystemClock::new()),
            Arc::new(RealFs),
            true,
        )?;
        let mut threads = Vec::new();
        for i in 0..core.config.workers {
            let c = Arc::clone(&core);
            threads.push(
                thread::Builder::new()
                    .name(format!("tsense-worker-{i}"))
                    .spawn(move || worker_loop(&c))
                    .expect("spawn worker"),
            );
        }
        {
            let c = Arc::clone(&core);
            threads.push(
                thread::Builder::new()
                    .name("tsense-maint".into())
                    .spawn(move || maintenance_loop(&c))
                    .expect("spawn maintenance"),
            );
        }
        Ok((RuntimeHandle { core, threads }, report))
    }
}

/// Builds the service core — state, breakers, recovery — without
/// spawning any threads, against explicit clock and filesystem
/// capabilities. The real runtime calls this with [`SystemClock`] and
/// [`RealFs`] and spawns its worker and maintenance threads on top; the
/// deterministic simulation calls it with a [`dst::VirtualClock`] and a
/// [`dst::SimDisk`] and drives the identical logic single-threaded.
///
/// With `recover`, the core restores calibration, quarantine, breaker
/// states and the reading ring from the newest valid checkpoint in
/// `config.snapshot_dir`, skipping torn or corrupt ones; otherwise it
/// starts cold. Either way the store opens once, and that open
/// garbage-collects orphaned temp files.
///
/// `rebase_breakers` selects how checkpointed `Open` breaker deadlines
/// are restored: `true` is the correct behavior (re-serve the cooldown
/// against this incarnation's clock); `false` trusts the foreign
/// timestamps verbatim — the known-bad mutation the DST sweep exists to
/// catch.
pub(crate) fn build_core(
    mut array: SensorArray,
    field: Field,
    config: RuntimeConfig,
    recover: bool,
    clock: Arc<dyn Clock>,
    fs: Arc<dyn SimFs>,
    rebase_breakers: bool,
) -> Result<(Arc<Core>, RecoveryReport)> {
    validate_deadline_budget(&array, &config)?;
    let store = match &config.snapshot_dir {
        Some(dir) => Some(SnapshotStore::open_on(
            Arc::clone(&fs),
            dir,
            config.snapshot_keep,
        )?),
        None => None,
    };
    let mut breakers: Vec<CircuitBreaker> = (0..array.channel_count())
        .map(|_| CircuitBreaker::new(config.breaker.clone()))
        .collect();

    let mut report = RecoveryReport::default();
    let mut snap = None;
    if let Some(store) = &store {
        report.gc_orphaned_tmp = store.orphaned_tmp_collected();
        if recover {
            match store.load_latest() {
                Ok((snapshot, log)) => {
                    report.snapshots_skipped = log.skipped.len();
                    report.skipped = log.skipped;
                    snap = Some(snapshot);
                }
                Err(SnapshotError::NoValidSnapshot { examined, .. }) => {
                    report.snapshots_skipped = examined;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    let mut history = VecDeque::new();
    let mut seq = 0;
    let mut group_epoch = 0;
    if let Some(snapshot) = snap {
        report.recovered_seq = Some(snapshot.seq);
        report.recovered_epoch = snapshot.epoch;
        seq = snapshot.seq;
        group_epoch = snapshot.epoch;
        for site in &snapshot.sites {
            let Some(ch) = array.site_index(&site.name) else {
                continue;
            };
            if let Some(cal) = site.calibration {
                array.sites_mut()[ch].unit.set_calibration(cal);
                report.restored_calibrations += 1;
            }
            if let Some(status) = &site.quarantined {
                array.set_quarantine(ch, status.clone())?;
                report.restored_quarantine += 1;
            }
            if rebase_breakers {
                breakers[ch].restore(site.breaker.clone(), 0);
            } else {
                breakers[ch].restore_raw(site.breaker.clone());
            }
            if !breakers[ch].is_closed() {
                report.restored_open_breakers += 1;
            }
        }
        history.extend(snapshot.readings.iter().copied());
    }

    let epoch_ms = clock.now_ms();
    let core = Arc::new(Core {
        state: Mutex::new(ArrayState {
            array,
            field,
            breakers,
            cache: None,
            history,
            store,
            seq,
        }),
        queue: BoundedQueue::new(config.queue_capacity),
        stop: AtomicBool::new(false),
        wake_lock: Mutex::new(()),
        wake: Condvar::new(),
        clock,
        epoch_ms,
        stats: Counters::default(),
        request_nonce: AtomicU64::new(0),
        group_epoch: AtomicU64::new(group_epoch),
        config,
    });
    Ok((core, report))
}

/// Startup preflight over the deadline and freshness budgets: the
/// shared `netcheck` passes run here — the same `NC0701` (worst-case
/// conversion vs deadline) and `NC0801` (staleness vs checkpoint
/// interval) rules the lint frontend fires, so the static and dynamic
/// verdicts can never drift apart.
pub(crate) fn validate_deadline_budget(array: &SensorArray, config: &RuntimeConfig) -> Result<()> {
    let deadline_s = config.default_deadline_ms as f64 * 1e-3;
    for site in array.sites() {
        let cfg = site.unit.config();
        let report = netcheck::check_runtime_budget(cfg, deadline_s);
        if report.has_errors() {
            let conversion_ms = netcheck::worst_case_conversion_s(cfg)
                .map(|s| s * 1e3)
                .unwrap_or(f64::NAN);
            return Err(RuntimeError::UnservableConfig {
                site: site.name.clone(),
                conversion_ms,
                deadline_ms: config.default_deadline_ms,
            });
        }
    }
    let report =
        netcheck::check_runtime_tuning(config.staleness_bound_ms, config.checkpoint_interval_ms);
    if report.has_errors() {
        return Err(RuntimeError::UnrecoverableFreshness {
            staleness_bound_ms: config.staleness_bound_ms,
            checkpoint_interval_ms: config.checkpoint_interval_ms,
        });
    }
    Ok(())
}

/// Handle to a running monitor. Dropping it without
/// [`RuntimeHandle::shutdown`] detaches the threads, which then run
/// until the process exits. `shutdown` stops them (the maintenance
/// thread at once, each worker at its next queue poll) and takes a
/// final checkpoint.
pub struct RuntimeHandle {
    core: Arc<Core>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl RuntimeHandle {
    /// Milliseconds since the runtime started (its monotonic clock).
    pub fn now_ms(&self) -> u64 {
        self.core.now_ms()
    }

    /// Requests a reading from `channel` under the default deadline.
    ///
    /// # Errors
    ///
    /// Every failure is typed: see [`RuntimeError`].
    pub fn read(&self, channel: usize) -> Result<ServedReading> {
        self.read_with_deadline(channel, self.core.config.default_deadline_ms)
    }

    /// Requests a reading from `channel`, to be served within
    /// `deadline_ms` from now.
    ///
    /// # Errors
    ///
    /// Every failure is typed: see [`RuntimeError`].
    pub fn read_with_deadline(&self, channel: usize, deadline_ms: u64) -> Result<ServedReading> {
        let core = &self.core;
        if core.stop.load(Ordering::SeqCst) {
            return Err(RuntimeError::Shutdown);
        }
        let submitted_ms = core.now_ms();
        let deadline_abs = submitted_ms + deadline_ms;
        let (tx, rx) = mpsc::channel();
        let accepted = core.queue.try_push(Request {
            channel,
            submitted_ms,
            deadline_ms: deadline_abs,
            reply: tx,
        });
        if !accepted {
            core.stats.queue_sheds.fetch_add(1, Ordering::Relaxed);
            return serve_shed(core, submitted_ms);
        }
        match rx.recv_timeout(Duration::from_millis(deadline_ms + REPLY_GRACE_MS)) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                core.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
                Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: deadline_abs,
                    now_ms: core.now_ms(),
                })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RuntimeError::Shutdown),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> RuntimeStats {
        collect_stats(&self.core)
    }

    /// Per-channel breaker states, `(site name, state)` in channel
    /// order.
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        let state = self.core.state.lock().expect("state poisoned");
        state
            .array
            .sites()
            .iter()
            .zip(&state.breakers)
            .map(|(s, b)| (s.name.clone(), b.state().clone()))
            .collect()
    }

    /// Injects a behavioral fault into a live channel (chaos hook).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] for an out-of-range channel.
    pub fn inject_fault(&self, channel: usize, fault: RingFault) -> Result<()> {
        self.with_unit(channel, |unit| unit.inject_fault(fault))
    }

    /// Clears any injected fault on a channel.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] for an out-of-range channel.
    pub fn clear_fault(&self, channel: usize) -> Result<()> {
        self.with_unit(channel, SmartSensorUnit::clear_fault)
    }

    /// Runs `f` on `channel`'s sensor unit under the state lock.
    fn with_unit(&self, channel: usize, f: impl FnOnce(&mut SmartSensorUnit)) -> Result<()> {
        let mut state = self.core.state.lock().expect("state poisoned");
        let available = state.array.channel_count();
        let site = state
            .array
            .sites_mut()
            .get_mut(channel)
            .ok_or(RuntimeError::BadChannel { channel, available })?;
        f(&mut site.unit);
        Ok(())
    }

    /// Forces a checkpoint now; returns its sequence number.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Snapshot`] when checkpointing is disabled or
    /// the write fails.
    pub fn checkpoint_now(&self) -> Result<u64> {
        let mut state = self.core.state.lock().expect("state poisoned");
        let now = self.core.now_ms();
        checkpoint_locked(&self.core, &mut state, now)
    }

    /// Orderly shutdown: stop accepting work, take a final checkpoint,
    /// join every thread, return the final counters.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Snapshot`] when the final checkpoint fails (the
    /// threads are still joined first).
    pub fn shutdown(self) -> Result<RuntimeStats> {
        self.core.request_stop();
        self.core.queue.not_empty.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        let stats = collect_stats(&self.core);
        let mut state = self.core.state.lock().expect("state poisoned");
        if state.store.is_some() {
            let now = self.core.now_ms();
            checkpoint_locked(&self.core, &mut state, now)?;
        }
        Ok(stats)
    }
}

pub(crate) fn collect_stats(core: &Core) -> RuntimeStats {
    let c = &core.stats;
    let state = core.state.lock().expect("state poisoned");
    RuntimeStats {
        served_fresh: c.served_fresh.load(Ordering::Relaxed),
        served_degraded: c.served_degraded.load(Ordering::Relaxed),
        served_shed: c.served_shed.load(Ordering::Relaxed),
        queue_sheds: c.queue_sheds.load(Ordering::Relaxed),
        deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
        breaker_rejections: c.breaker_rejections.load(Ordering::Relaxed),
        quarantine_fallbacks: c.quarantine_fallbacks.load(Ordering::Relaxed),
        retries: c.retries.load(Ordering::Relaxed),
        stale_rejections: c.stale_rejections.load(Ordering::Relaxed),
        scans: c.scans.load(Ordering::Relaxed),
        checkpoints: c.checkpoints.load(Ordering::Relaxed),
        breaker_trips: state.breakers.iter().map(CircuitBreaker::trips).sum(),
        quarantined_now: state.array.quarantined().len(),
    }
}

fn worker_loop(core: &Core) {
    while !core.stop.load(Ordering::SeqCst) {
        let Some(req) = core.queue.pop_timeout(Duration::from_millis(20)) else {
            continue;
        };
        let now = core.now_ms();
        if now >= req.deadline_ms {
            core.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
            let _ = req.reply.send(Err(RuntimeError::DeadlineExceeded {
                deadline_ms: req.deadline_ms,
                now_ms: now,
            }));
            continue;
        }
        let result = supervised_read(core, req.channel, req.submitted_ms, req.deadline_ms);
        let result = enforce_deadline(core, req.deadline_ms, result);
        let _ = req.reply.send(result);
    }
}

/// The late-reply rule, in one place for worker and simulation alike:
/// an `Ok` finished past its deadline becomes a typed miss — never
/// quietly late data.
pub(crate) fn enforce_deadline(
    core: &Core,
    deadline_ms: u64,
    result: Result<ServedReading>,
) -> Result<ServedReading> {
    let done = core.now_ms();
    if done > deadline_ms && result.is_ok() {
        core.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        Err(RuntimeError::DeadlineExceeded {
            deadline_ms,
            now_ms: done,
        })
    } else {
        result
    }
}

/// Maps a finished read to its on-the-wire outcome — one translation
/// shared by the simulated shards and the TCP server tier, so a given
/// [`RuntimeError`] always shows the same `kind` string to clients.
pub(crate) fn wire_outcome(
    core: &Core,
    deadline_abs: u64,
    result: Result<ServedReading>,
) -> wire::WireOutcome {
    match enforce_deadline(core, deadline_abs, result) {
        Ok(r) => wire::WireOutcome::Reading {
            value_c: r.value_c,
            fresh: matches!(r.provenance, Provenance::Fresh { .. }),
            age_ms: r.age_ms,
        },
        Err(e) => wire::WireOutcome::Failed {
            kind: wire_error_kind(&e),
        },
    }
}

/// The `kind` string a [`RuntimeError`] shows on the wire. The
/// hyphenated errors get explicit arms — the derived fallback would
/// render e.g. `StaleEpoch` as `"staleepoch"`, which clients match on.
pub(crate) fn wire_error_kind(e: &RuntimeError) -> String {
    match e {
        RuntimeError::DeadlineExceeded { .. } => "deadline".into(),
        RuntimeError::StaleCache { .. } => "stale-cache".into(),
        RuntimeError::StaleEpoch { .. } => "stale-epoch".into(),
        other => format!("{other:?}")
            .split(['{', ' '])
            .next()
            .unwrap_or("error")
            .to_ascii_lowercase(),
    }
}

/// What one [`ReadJob::step`] asks of its driver.
pub(crate) enum JobStep {
    /// The request is answered.
    Done(Result<ServedReading>),
    /// The attempt failed; sleep `delay_ms` before the next attempt.
    Backoff {
        /// Jittered backoff delay, milliseconds.
        delay_ms: u64,
    },
}

/// One supervised read as a resumable state machine: retry ladder with
/// jittered backoff, gated by the channel's circuit breaker, falling
/// back to the survivors' median when the channel is benched or keeps
/// failing.
///
/// The worker thread drives it with [`Clock::sleep_ms`] between steps;
/// the deterministic simulation drives the *same* machine as discrete
/// executor tasks, interleaving other work where the sleeps would be.
pub(crate) struct ReadJob {
    channel: usize,
    submitted_ms: u64,
    /// Absolute deadline, runtime-relative milliseconds.
    deadline_ms: u64,
    attempt: u32,
    backoff: Backoff,
    last_err: Option<RuntimeError>,
}

impl ReadJob {
    pub(crate) fn new(core: &Core, channel: usize, submitted_ms: u64, deadline_ms: u64) -> Self {
        let nonce = core.request_nonce.fetch_add(1, Ordering::Relaxed);
        let seed = core
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(nonce)
            .wrapping_add((channel as u64) << 32);
        ReadJob {
            channel,
            submitted_ms,
            deadline_ms,
            attempt: 0,
            backoff: core.config.retry.backoff(seed),
            last_err: None,
        }
    }

    /// Runs one attempt. Must not be called again after returning
    /// [`JobStep::Done`].
    pub(crate) fn step(&mut self, core: &Core) -> JobStep {
        if self.attempt >= core.config.retry.max_attempts {
            return JobStep::Done(self.exhausted(core));
        }
        if self.attempt > 0 {
            core.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        self.attempt += 1;
        let channel = self.channel;
        {
            let mut state = core.state.lock().expect("state poisoned");
            let now = core.now_ms();
            if now >= self.deadline_ms {
                return JobStep::Done(Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: self.deadline_ms,
                    now_ms: now,
                }));
            }
            let available = state.array.channel_count();
            if channel >= available {
                return JobStep::Done(Err(RuntimeError::BadChannel { channel, available }));
            }
            // Quarantine outranks the breaker: a benched site is not
            // probed by the request path at all (the health monitor's
            // parole probes own that), so the breaker is untouched.
            if state.array.quarantined().iter().any(|(c, _)| *c == channel) {
                core.stats
                    .quarantine_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                return JobStep::Done(serve_degraded_locked(
                    core,
                    &mut state,
                    self.submitted_ms,
                    now,
                ));
            }
            if !state.breakers[channel].allow(now) {
                core.stats
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return JobStep::Done(serve_degraded_locked(
                    core,
                    &mut state,
                    self.submitted_ms,
                    now,
                ));
            }
            let field = Arc::clone(&state.field);
            let site = &mut state.array.sites_mut()[channel];
            let true_c = field(site.x_m, site.y_m);
            match site.unit.measure(Celsius::new(true_c)) {
                Ok(m) if core.config.policy.period_plausible(m.ring_period.get()) => {
                    state.breakers[channel].on_success(now);
                    core.stats.served_fresh.fetch_add(1, Ordering::Relaxed);
                    let done = core.now_ms();
                    return JobStep::Done(Ok(ServedReading {
                        value_c: m.temperature.get(),
                        provenance: Provenance::Fresh { channel },
                        age_ms: 0,
                        latency_ms: done - self.submitted_ms,
                    }));
                }
                Ok(m) => {
                    state.breakers[channel].on_failure(now);
                    self.last_err = Some(RuntimeError::ImplausibleReading {
                        channel,
                        period_s: m.ring_period.get(),
                    });
                }
                Err(e) => {
                    state.breakers[channel].on_failure(now);
                    self.last_err = Some(e.into());
                }
            }
        }
        if self.attempt >= core.config.retry.max_attempts {
            return JobStep::Done(self.exhausted(core));
        }
        // Backoff outside the lock, but never past the deadline.
        match self.backoff.next() {
            Some(delay) => {
                let now = core.now_ms();
                if now + delay >= self.deadline_ms {
                    JobStep::Done(self.exhausted(core))
                } else {
                    JobStep::Backoff { delay_ms: delay }
                }
            }
            None => JobStep::Done(self.exhausted(core)),
        }
    }

    /// Retries exhausted: the channel is sick. Serve the survivors'
    /// median instead of failing the request outright; only when that
    /// too is impossible does the caller see the last typed error.
    fn exhausted(&mut self, core: &Core) -> Result<ServedReading> {
        let mut state = core.state.lock().expect("state poisoned");
        let now = core.now_ms();
        serve_degraded_locked(core, &mut state, self.submitted_ms, now)
            .map_err(|fallback_err| self.last_err.take().unwrap_or(fallback_err))
    }
}

/// One supervised read, stepped to completion on this thread: the
/// worker pool's and the TCP tier's conversion.
pub(crate) fn supervised_read(
    core: &Core,
    channel: usize,
    submitted_ms: u64,
    deadline_ms: u64,
) -> Result<ServedReading> {
    let mut job = ReadJob::new(core, channel, submitted_ms, deadline_ms);
    loop {
        match job.step(core) {
            JobStep::Done(result) => return result,
            JobStep::Backoff { delay_ms } => core.clock.sleep_ms(delay_ms),
        }
    }
}

/// Serves from the cached median if fresh enough, otherwise runs a
/// degraded scan inline (we hold the lock) to refresh it.
pub(crate) fn serve_degraded_locked(
    core: &Core,
    state: &mut ArrayState,
    submitted_ms: u64,
    now: u64,
) -> Result<ServedReading> {
    let fresh_enough = state
        .cache
        .as_ref()
        .is_some_and(|c| now.saturating_sub(c.taken_at_ms) <= core.config.staleness_bound_ms);
    if !fresh_enough {
        refresh_cache_locked(core, state, now)?;
    }
    let c = state.cache.as_ref().expect("cache refreshed above");
    core.stats.served_degraded.fetch_add(1, Ordering::Relaxed);
    let done = core.now_ms();
    Ok(ServedReading {
        value_c: c.value_c,
        provenance: Provenance::DegradedMedian {
            confidence: c.confidence,
            quarantined: c.quarantined,
        },
        age_ms: now.saturating_sub(c.taken_at_ms),
        latency_ms: done - submitted_ms,
    })
}

/// Shed path: serve the cache *without* touching the array (that is
/// the whole point of shedding) — stale cache is a typed error.
pub(crate) fn serve_shed(core: &Core, submitted_ms: u64) -> Result<ServedReading> {
    let state = core.state.lock().expect("state poisoned");
    let now = core.now_ms();
    match &state.cache {
        Some(c) => {
            let age_ms = now.saturating_sub(c.taken_at_ms);
            if age_ms > core.config.staleness_bound_ms {
                core.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(RuntimeError::StaleCache {
                    age_ms,
                    bound_ms: core.config.staleness_bound_ms,
                });
            }
            core.stats.served_shed.fetch_add(1, Ordering::Relaxed);
            Ok(ServedReading {
                value_c: c.value_c,
                provenance: Provenance::Shed {
                    confidence: c.confidence,
                },
                age_ms,
                latency_ms: core.now_ms() - submitted_ms,
            })
        }
        None => {
            core.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
            Err(RuntimeError::StaleCache {
                age_ms: u64::MAX,
                bound_ms: core.config.staleness_bound_ms,
            })
        }
    }
}

/// Runs one degraded scan and installs its median as the cache entry.
pub(crate) fn refresh_cache_locked(core: &Core, state: &mut ArrayState, now: u64) -> Result<()> {
    let field = Arc::clone(&state.field);
    let reading = state
        .array
        .scan_degraded(&*field, &core.config.policy)
        .map_err(|e| match e {
            SensorError::NoHealthyRings { total, quarantined } => {
                RuntimeError::NoHealthy { total, quarantined }
            }
            other => RuntimeError::Sensor(other),
        })?;
    core.stats.scans.fetch_add(1, Ordering::Relaxed);
    state
        .history
        .push_back((now, reading.value, reading.confidence));
    while state.history.len() > READING_RING_CAPACITY {
        state.history.pop_front();
    }
    state.cache = Some(CachedMedian {
        value_c: reading.value,
        confidence: reading.confidence,
        quarantined: reading.quarantined.len(),
        taken_at_ms: now,
    });
    Ok(())
}

pub(crate) fn checkpoint_locked(core: &Core, state: &mut ArrayState, now: u64) -> Result<u64> {
    let Some(store) = &state.store else {
        return Err(RuntimeError::Snapshot(SnapshotError::NoValidSnapshot {
            dir: PathBuf::from("<checkpointing disabled>"),
            examined: 0,
        }));
    };
    state.seq += 1;
    let quarantine = state.array.quarantined();
    let snap = RuntimeSnapshot {
        seq: state.seq,
        taken_at_ms: now,
        epoch: core.group_epoch(),
        sites: state
            .array
            .sites()
            .iter()
            .enumerate()
            .map(|(i, s)| SiteSnapshot {
                name: s.name.clone(),
                calibration: s.unit.calibration(),
                quarantined: quarantine
                    .iter()
                    .find(|(c, _)| *c == i)
                    .map(|(_, st)| st.clone()),
                breaker: state.breakers[i].state().clone(),
            })
            .collect(),
        readings: state.history.iter().copied().collect(),
    };
    store.save(&snap)?;
    core.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    Ok(state.seq)
}

/// A live core's background thread: a degraded scan every
/// `scan_interval_ms` and, when enabled, a checkpoint every
/// `checkpoint_interval_ms`. It waits until the earlier of the two is
/// due, on real time like the [`SystemClock`] every caller runs it
/// with, and exits at once on [`Core::request_stop`].
pub(crate) fn maintenance_loop(core: &Core) {
    let scan_every = core.config.scan_interval_ms.max(1);
    let ckpt_every = core.config.checkpoint_interval_ms;
    let mut last_scan = 0u64;
    let mut last_ckpt = core.now_ms();
    loop {
        let scan_due = last_scan + scan_every;
        let due = match ckpt_every {
            0 => scan_due,
            every => scan_due.min(last_ckpt + every),
        };
        if !core.wait_until(due) {
            return;
        }
        let now = core.now_ms();
        if now.saturating_sub(last_scan) >= core.config.scan_interval_ms {
            let mut state = core.state.lock().expect("state poisoned");
            // A failed background scan (e.g. everything quarantined
            // mid-storm) is not fatal: the cache simply ages out and
            // requests get typed errors until sites recover.
            let _ = refresh_cache_locked(core, &mut state, now);
            last_scan = now;
        }
        if ckpt_every > 0 && now.saturating_sub(last_ckpt) >= ckpt_every {
            let mut state = core.state.lock().expect("state poisoned");
            if state.store.is_some() {
                let _ = checkpoint_locked(core, &mut state, now);
            }
            last_ckpt = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor::unit::{SensorConfig, SmartSensorUnit};
    use tsense_core::gate::{Gate, GateKind};
    use tsense_core::ring::RingOscillator;
    use tsense_core::tech::Technology;

    fn unit() -> SmartSensorUnit {
        let tech = Technology::um350();
        let ring = RingOscillator::uniform(Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).unwrap(), 5)
            .unwrap();
        let mut u = SmartSensorUnit::new(SensorConfig::new(ring, tech)).unwrap();
        u.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
            .unwrap();
        u
    }

    fn array(sites: usize) -> SensorArray {
        let mut a = SensorArray::new();
        for i in 0..sites {
            a = a.with_site(format!("s{i:02}"), 1e-3 * i as f64, 0.0, unit());
        }
        a
    }

    fn uniform_field(t: f64) -> Field {
        Arc::new(move |_, _| t)
    }

    fn quick_config() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            scan_interval_ms: 20,
            checkpoint_interval_ms: 0, // periodic checkpoints off
            staleness_bound_ms: 300,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn fresh_reads_are_served_within_deadline() {
        let h = MonitorRuntime::start(array(3), uniform_field(85.0), quick_config()).unwrap();
        for ch in 0..3 {
            let r = h.read(ch).unwrap();
            assert!(matches!(r.provenance, Provenance::Fresh { channel } if channel == ch));
            assert_eq!(r.age_ms, 0);
            assert!((r.value_c - 85.0).abs() < 3.0, "value {}", r.value_c);
            assert!(r.latency_ms <= 250);
        }
        let stats = h.shutdown();
        // Checkpointing disabled: shutdown's final checkpoint is a
        // no-op, stats still come back.
        assert_eq!(stats.unwrap().served_fresh, 3);
    }

    #[test]
    fn dead_ring_degrades_then_breaker_opens() {
        let mut cfg = quick_config();
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.cooldown_ms = 10_000; // stays open for the test
        let h = MonitorRuntime::start(array(5), uniform_field(90.0), cfg).unwrap();
        h.inject_fault(1, RingFault::Dead).unwrap();
        // First supervised read burns the retry ladder (3 attempts =
        // 3 consecutive failures = trip) and falls back to the median.
        let r = h.read_with_deadline(1, 2_000).unwrap();
        assert!(
            matches!(r.provenance, Provenance::DegradedMedian { .. }),
            "dead ring must be served from survivors, got {:?}",
            r.provenance
        );
        assert!((r.value_c - 90.0).abs() < 3.0);
        let states = h.breaker_states();
        assert!(
            matches!(states[1].1, BreakerState::Open { .. }),
            "breaker should have tripped, got {:?}",
            states[1].1
        );
        // Subsequent reads are breaker-rejected straight to fallback.
        let r2 = h.read_with_deadline(1, 2_000).unwrap();
        assert!(matches!(r2.provenance, Provenance::DegradedMedian { .. }));
        let stats = h.stats();
        // The fallback scan quarantines the dead ring, so the second
        // read short-circuits on quarantine (which outranks the
        // breaker); either counter proves the request path never
        // touched the sick unit again.
        assert!(
            stats.breaker_rejections + stats.quarantine_fallbacks >= 1,
            "{stats:?}"
        );
        assert!(stats.retries >= 2, "{stats:?}");
        assert_eq!(stats.breaker_trips, 1, "{stats:?}");
        h.shutdown().unwrap();
    }

    #[test]
    fn breaker_recloses_after_fault_clears() {
        let mut cfg = quick_config();
        cfg.breaker.cooldown_ms = 30;
        cfg.breaker.halfopen_successes = 2;
        cfg.policy = HealthPolicy::default().with_parole_after(1);
        let h = MonitorRuntime::start(array(5), uniform_field(85.0), cfg).unwrap();
        h.inject_fault(2, RingFault::Dead).unwrap();
        let _ = h.read_with_deadline(2, 2_000).unwrap();
        assert!(!matches!(
            h.breaker_states()[2].1,
            BreakerState::Closed { failures: 0 }
        ));
        h.clear_fault(2).unwrap();
        // Give the health monitor time to parole the site if it was
        // benched, then let probes close the breaker.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut closed = false;
        while std::time::Instant::now() < deadline {
            let _ = h.read_with_deadline(2, 2_000);
            if matches!(h.breaker_states()[2].1, BreakerState::Closed { .. }) {
                closed = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(closed, "breaker never re-closed: {:?}", h.breaker_states());
        let r = h.read_with_deadline(2, 2_000).unwrap();
        assert!(
            matches!(r.provenance, Provenance::Fresh { channel: 2 }),
            "recovered channel serves fresh again, got {:?}",
            r.provenance
        );
        h.shutdown().unwrap();
    }

    #[test]
    fn zero_capacity_queue_sheds_with_provenance_and_staleness_is_typed() {
        let mut cfg = quick_config();
        cfg.queue_capacity = 0;
        cfg.workers = 0;
        cfg.scan_interval_ms = 10;
        cfg.staleness_bound_ms = 200;
        let h = MonitorRuntime::start(array(3), uniform_field(70.0), cfg).unwrap();
        // Before any background scan the cache is empty: typed error.
        let first = h.read(0);
        if let Err(e) = first {
            assert!(matches!(e, RuntimeError::StaleCache { .. }), "{e}");
        }
        // After a scan lands, sheds serve the cached median.
        thread::sleep(Duration::from_millis(60));
        let r = h.read(0).unwrap();
        assert!(matches!(r.provenance, Provenance::Shed { .. }));
        assert!(r.age_ms <= 200, "shed reading within staleness bound");
        assert!((r.value_c - 70.0).abs() < 3.0);
        let stats = h.stats();
        assert!(stats.queue_sheds >= 2, "{stats:?}");
        h.shutdown().unwrap();
    }

    #[test]
    fn bad_channel_and_shutdown_are_typed() {
        let h = MonitorRuntime::start(array(2), uniform_field(25.0), quick_config()).unwrap();
        let e = h.read_with_deadline(7, 1_000).unwrap_err();
        assert!(
            matches!(
                e,
                RuntimeError::BadChannel {
                    channel: 7,
                    available: 2
                }
            ),
            "{e}"
        );
        assert!(h.inject_fault(9, RingFault::Dead).is_err());
        h.shutdown().unwrap();
    }

    #[test]
    fn unservable_deadline_budget_is_rejected_at_start() {
        let mut cfg = quick_config();
        cfg.default_deadline_ms = 0;
        match MonitorRuntime::start(array(1), uniform_field(25.0), cfg) {
            Err(err) => {
                assert!(
                    matches!(err, RuntimeError::UnservableConfig { .. }),
                    "{err}"
                );
            }
            Ok(_) => panic!("zero deadline budget must be rejected"),
        }
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsense-rt-{}", dst::unique_nonce()));
        let mut cfg = quick_config();
        cfg.snapshot_dir = Some(dir.clone());
        cfg.breaker.cooldown_ms = 60_000;

        let h = MonitorRuntime::start(array(4), uniform_field(95.0), cfg.clone()).unwrap();
        h.inject_fault(3, RingFault::Dead).unwrap();
        let _ = h.read_with_deadline(3, 2_000).unwrap(); // trips breaker 3
        thread::sleep(Duration::from_millis(50)); // let a scan quarantine it
        let seq = h.checkpoint_now().unwrap();
        assert!(seq >= 1);
        h.shutdown().unwrap();

        // Recover into a *fresh* array: calibration, quarantine, and
        // breaker state must come back from the snapshot.
        let (h2, report) = MonitorRuntime::recover(array(4), uniform_field(95.0), cfg).unwrap();
        assert!(report.recovered_seq.is_some());
        assert!(report.restored_calibrations >= 4, "{report:?}");
        assert!(
            report.restored_quarantine >= 1 || report.restored_open_breakers >= 1,
            "the sick channel must come back sick: {report:?}"
        );
        let r = h2.read_with_deadline(0, 2_000).unwrap();
        assert!(matches!(r.provenance, Provenance::Fresh { .. }));
        h2.shutdown().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_with_empty_dir_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("tsense-rt-empty-{}", dst::unique_nonce()));
        let mut cfg = quick_config();
        cfg.snapshot_dir = Some(dir.clone());
        let (h, report) = MonitorRuntime::recover(array(2), uniform_field(25.0), cfg).unwrap();
        assert_eq!(report.recovered_seq, None);
        assert!(report.skipped.is_empty());
        let r = h.read(0).unwrap();
        assert!(matches!(r.provenance, Provenance::Fresh { .. }));
        h.shutdown().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_reports_the_orphaned_checkpoint_it_collects() {
        let dir = std::env::temp_dir().join(format!("tsense-rt-orphan-{}", dst::unique_nonce()));
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("snap-0000000099.tmp");
        std::fs::write(&orphan, "TSNAP\tv1\nseq\t99").unwrap();
        let mut cfg = quick_config();
        cfg.snapshot_dir = Some(dir.clone());
        let (h, report) = MonitorRuntime::recover(array(2), uniform_field(25.0), cfg).unwrap();
        assert_eq!(report.gc_orphaned_tmp, 1, "{report:?}");
        assert!(!orphan.exists());
        h.shutdown().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }
}

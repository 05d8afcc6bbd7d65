//! The supervised monitoring service: the core one replica runs over
//! a [`SensorArray`], and the one read path that serves a temperature
//! from it. The TCP tier ([`crate::serve`]) converts each request on
//! its group primary's core, and both simulators drive the same core
//! on a virtual clock.
//!
//! Architecture (one supervision tree, all state behind one lock):
//!
//! ```text
//!   request ──▶ supervised_read ──▶ per-unit supervisor ──▶ ArrayState
//!                (ReadJob steps)     quarantine check,       (array,
//!                                    circuit breaker,        breakers,
//!   typed reply ◀── deadline check   retry ladder            cache,
//!                   (wire_outcome)                           snapshot seq)
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
//!   from ([`Provenance::Fresh`] conversion, or quarantine/breaker
//!   fallback to the survivors' [`Provenance::DegradedMedian`]) and
//!   how old it is.
//! * **Bounded staleness** — a degraded median is served from a scan
//!   no older than the staleness bound; an older cache is rescanned
//!   before it is served, never served as it stands.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dst::{Clock, SimFs};
use sensor::{HealthPolicy, SensorArray, SensorError};
use tsense_core::units::{Celsius, TempRange};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::error::{Result, RuntimeError};
use crate::retry::{Backoff, RetryPolicy};
use crate::snapshot::{RuntimeSnapshot, SiteSnapshot, SnapshotError, SnapshotStore};

/// Thermal field type: die position → junction temperature, °C.
pub type Field = Arc<dyn Fn(f64, f64) -> f64 + Send + Sync>;

/// How many served medians the checkpointed ring buffer retains.
const READING_RING_CAPACITY: usize = 64;

/// Tuning for one service core.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
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
    /// Snapshots retained on disk.
    pub snapshot_keep: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            default_deadline_ms: 250,
            scan_interval_ms: 50,
            checkpoint_interval_ms: 500,
            // Must cover at least one checkpoint interval, or a crash
            // can leave a window in which nothing recoverable is fresh
            // enough to serve (`validate_deadline_budget` refuses it).
            staleness_bound_ms: 600,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            policy: HealthPolicy::default().with_parole_after(3),
            snapshot_keep: 4,
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
    /// Set by [`Core::request_stop`]. The maintenance loop checks it
    /// and waits on `wake` under this lock, so a stop that lands
    /// between its check and its wait is never lost.
    stopped: Mutex<bool>,
    /// Wakes the maintenance loop out of its wait when a stop is
    /// requested.
    wake: Condvar,
    clock: Arc<dyn Clock>,
    /// `clock.now_ms()` at this incarnation's start; `now_ms` is
    /// relative to it, so a recovered process starts at t = 0 like a
    /// real restart does.
    epoch_ms: u64,
    request_nonce: AtomicU64,
    /// The replica-group epoch this node currently holds or has
    /// adopted. 0 means unreplicated. Stamped into every checkpoint so
    /// a recovered ex-primary knows the epoch it last served at.
    group_epoch: AtomicU64,
    /// Seeds the retry jitter, the only randomness in the service.
    seed: u64,
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

    /// Asks this core's maintenance loop to exit; it wakes at once.
    /// This is how the wire tier retires a crashed or killed
    /// incarnation's maintenance thread.
    pub(crate) fn request_stop(&self) {
        *self.stopped.lock().expect("wake poisoned") = true;
        self.wake.notify_all();
    }

    /// Waits until `now_ms` reaches `due_ms`. Returns `false`, at once,
    /// when a stop is requested before then.
    fn wait_until(&self, due_ms: u64) -> bool {
        let mut stop = self.stopped.lock().expect("wake poisoned");
        loop {
            if *stop {
                return false;
            }
            let now = self.now_ms();
            if now >= due_ms {
                return true;
            }
            let wait = Duration::from_millis(due_ms - now);
            stop = self.wake.wait_timeout(stop, wait).expect("wake poisoned").0;
        }
    }
}

/// Builds the reference array a service core monitors: `sites` of
/// faultsim's [`faultsim::reference_unit`] (a calibrated 5-stage
/// inverter ring), three to a row 1 mm apart.
pub fn reference_array(sites: usize) -> SensorArray {
    let mut array = SensorArray::new();
    for i in 0..sites {
        array = array.with_site(
            format!("s{i:02}"),
            1e-3 * (i % 3) as f64,
            1e-3 * (i / 3) as f64,
            faultsim::reference_unit(),
        );
    }
    array
}

/// How [`build_core`] starts a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Boot {
    /// From nothing: no checkpoint is read.
    Cold,
    /// From the newest valid checkpoint, re-serving each `Open`
    /// breaker's cooldown against this incarnation's clock.
    Recover,
    /// As [`Boot::Recover`], but trusting checkpointed `Open` deadlines
    /// verbatim: the known-bad mutation the DST sweep exists to catch.
    RecoverRaw,
}

/// Builds the service core — state, breakers, recovery — without
/// spawning any threads, against explicit clock and filesystem
/// capabilities. The TCP tier calls this with a [`dst::SystemClock`]
/// and the real filesystem and runs [`maintenance_loop`] on a thread of
/// its own; the deterministic simulation calls it with a
/// [`dst::VirtualClock`] and a [`dst::SimDisk`] and drives the
/// identical logic single-threaded.
///
/// The caller derives `seed`, which jitters the core's retries, and
/// `snapshots`, the filesystem and directory its checkpoints go to
/// (`None` disables checkpointing), from the replica it builds. When
/// `boot` recovers, the core restores calibration, quarantine, breaker
/// states and the reading ring from the newest valid checkpoint there,
/// skipping torn or corrupt ones. Either way the store opens once, and
/// that open garbage-collects orphaned temp files.
pub(crate) fn build_core(
    mut array: SensorArray,
    field: Field,
    config: RuntimeConfig,
    seed: u64,
    clock: Arc<dyn Clock>,
    snapshots: Option<(Arc<dyn SimFs>, &Path)>,
    boot: Boot,
) -> Result<(Arc<Core>, RecoveryReport)> {
    validate_deadline_budget(&array, &config)?;
    let store = match snapshots {
        Some((fs, dir)) => Some(SnapshotStore::open_on(fs, dir, config.snapshot_keep)?),
        None => None,
    };
    let mut breakers: Vec<CircuitBreaker> = (0..array.channel_count())
        .map(|_| CircuitBreaker::new(config.breaker.clone()))
        .collect();

    let mut report = RecoveryReport::default();
    let mut snap = None;
    if let Some(store) = &store {
        report.gc_orphaned_tmp = store.orphaned_tmp_collected();
        if boot != Boot::Cold {
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
            if boot == Boot::RecoverRaw {
                breakers[ch].restore_raw(site.breaker.clone());
            } else {
                breakers[ch].restore(site.breaker.clone(), 0);
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
        stopped: Mutex::new(false),
        wake: Condvar::new(),
        clock,
        epoch_ms,
        request_nonce: AtomicU64::new(0),
        group_epoch: AtomicU64::new(group_epoch),
        seed,
        config,
    });
    Ok((core, report))
}

/// Startup preflight over the deadline and freshness budgets. Each
/// site's worst-case conversion, its ring period at the paper's hot
/// corner times its settle and window cycles, must fit the default
/// deadline; a ring the model cannot evaluate there is skipped. With
/// checkpointing on, the staleness bound must cover one checkpoint
/// interval, or a crash-recovered core could hold nothing fresh enough
/// to serve. These compare point estimates; `netcheck certify` proves
/// the same budgets over a bundle's whole envelope (`NC1001`–`NC1003`).
pub(crate) fn validate_deadline_budget(array: &SensorArray, config: &RuntimeConfig) -> Result<()> {
    let deadline_s = config.default_deadline_ms as f64 * 1e-3;
    for site in array.sites() {
        let cfg = site.unit.config();
        let Ok(period) = cfg.ring.period(&cfg.tech, TempRange::paper().high()) else {
            continue;
        };
        let conversion_s = period.get() * (cfg.window_cycles + cfg.settle_cycles) as f64;
        if conversion_s > deadline_s {
            return Err(RuntimeError::UnservableConfig {
                site: site.name.clone(),
                conversion_ms: conversion_s * 1e3,
                deadline_ms: config.default_deadline_ms,
            });
        }
    }
    // An interval of 0 turns checkpointing off, and no bound is below it.
    if config.staleness_bound_ms < config.checkpoint_interval_ms {
        return Err(RuntimeError::UnrecoverableFreshness {
            staleness_bound_ms: config.staleness_bound_ms,
            checkpoint_interval_ms: config.checkpoint_interval_ms,
        });
    }
    Ok(())
}

/// The late-reply rule, in one place for the TCP tier and the
/// simulation alike:
/// an `Ok` finished past its deadline becomes a typed miss — never
/// quietly late data.
pub(crate) fn enforce_deadline(
    core: &Core,
    deadline_ms: u64,
    result: Result<ServedReading>,
) -> Result<ServedReading> {
    let done = core.now_ms();
    if done > deadline_ms && result.is_ok() {
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
/// [`supervised_read`] drives it with [`Clock::sleep_ms`] between steps;
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
                return JobStep::Done(serve_degraded_locked(
                    core,
                    &mut state,
                    self.submitted_ms,
                    now,
                ));
            }
            if !state.breakers[channel].allow(now) {
                return JobStep::Done(serve_degraded_locked(
                    core,
                    &mut state,
                    self.submitted_ms,
                    now,
                ));
            }
            // The field is borrowed beside the array, not cloned: every
            // core shares the one `Arc`, and a clone per read would bounce
            // its count between the cores' threads.
            let ArrayState { array, field, .. } = &mut *state;
            let site = &mut array.sites_mut()[channel];
            let true_c = field(site.x_m, site.y_m);
            match site.unit.measure(Celsius::new(true_c)) {
                Ok(m) if core.config.policy.period_plausible(m.ring_period.get()) => {
                    state.breakers[channel].on_success(now);
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

/// One supervised read, stepped to completion on this thread: the TCP
/// tier's conversion.
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

/// Runs one degraded scan and installs its median as the cache entry.
pub(crate) fn refresh_cache_locked(core: &Core, state: &mut ArrayState, now: u64) -> Result<()> {
    let ArrayState { array, field, .. } = &mut *state;
    let reading = array
        .scan_degraded(&**field, &core.config.policy)
        .map_err(|e| match e {
            SensorError::NoHealthyRings { total, quarantined } => {
                RuntimeError::NoHealthy { total, quarantined }
            }
            other => RuntimeError::Sensor(other),
        })?;
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
    Ok(state.seq)
}

/// A live core's background thread: a degraded scan every
/// `scan_interval_ms` and, when enabled, a checkpoint every
/// `checkpoint_interval_ms`. It waits until the earlier of the two is
/// due, on real time like the [`dst::SystemClock`] every caller runs it
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
    use dst::{SimDisk, SimDiskProfile, VirtualClock};
    use sensor::RingFault;

    use crate::breaker::BreakerState;

    /// A core on a virtual clock over an in-memory disk, as the
    /// simulators build one: nothing here sleeps or touches the host's
    /// filesystem.
    struct Rig {
        core: Arc<Core>,
        clock: Arc<VirtualClock>,
        disk: Arc<SimDisk>,
        cfg: RuntimeConfig,
        sites: usize,
        ambient_c: f64,
    }

    impl Rig {
        fn start(sites: usize, ambient_c: f64, cfg: RuntimeConfig) -> Rig {
            let disk = Arc::new(SimDisk::new(0, SimDiskProfile::pristine()));
            let (rig, _) = Rig::boot(sites, ambient_c, cfg, disk, Boot::Cold).expect("core builds");
            rig
        }

        /// A fresh core (and clock) checkpointing to `/rig/snaps` on
        /// `disk`, recovering from it unless `boot` is cold: a process
        /// restart.
        fn boot(
            sites: usize,
            ambient_c: f64,
            cfg: RuntimeConfig,
            disk: Arc<SimDisk>,
            boot: Boot,
        ) -> Result<(Rig, RecoveryReport)> {
            let clock = Arc::new(VirtualClock::new());
            let field: Field = Arc::new(move |_, _| ambient_c);
            let (core, report) = build_core(
                reference_array(sites),
                field,
                cfg.clone(),
                0,
                Arc::clone(&clock) as Arc<dyn Clock>,
                Some((Arc::clone(&disk) as Arc<dyn SimFs>, Path::new("/rig/snaps"))),
                boot,
            )?;
            let rig = Rig {
                core,
                clock,
                disk,
                cfg,
                sites,
                ambient_c,
            };
            Ok((rig, report))
        }

        fn restart(&self) -> (Rig, RecoveryReport) {
            let disk = Arc::clone(&self.disk);
            Rig::boot(
                self.sites,
                self.ambient_c,
                self.cfg.clone(),
                disk,
                Boot::Recover,
            )
            .expect("core recovers")
        }

        /// One supervised read of `channel`, due `deadline_ms` from now.
        fn read(&self, channel: usize, deadline_ms: u64) -> Result<ServedReading> {
            let now = self.core.now_ms();
            supervised_read(&self.core, channel, now, now + deadline_ms)
        }

        fn set_fault(&self, channel: usize, fault: Option<RingFault>) {
            let mut state = self.core.state.lock().expect("state poisoned");
            let unit = &mut state.array.sites_mut()[channel].unit;
            match fault {
                Some(f) => unit.inject_fault(f),
                None => unit.clear_fault(),
            }
        }

        /// One background scan, as the maintenance loop runs it.
        fn scan(&self) {
            let mut state = self.core.state.lock().expect("state poisoned");
            let _ = refresh_cache_locked(&self.core, &mut state, self.core.now_ms());
        }

        fn breaker(&self, channel: usize) -> CircuitBreaker {
            self.core.state.lock().expect("state poisoned").breakers[channel].clone()
        }

        fn quarantined(&self, channel: usize) -> bool {
            let state = self.core.state.lock().expect("state poisoned");
            state.array.quarantined().iter().any(|(c, _)| *c == channel)
        }
    }

    fn quick_config() -> RuntimeConfig {
        RuntimeConfig {
            scan_interval_ms: 20,
            checkpoint_interval_ms: 0, // periodic checkpoints off
            staleness_bound_ms: 300,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn fresh_reads_are_served_within_deadline() {
        let rig = Rig::start(3, 85.0, quick_config());
        for ch in 0..3 {
            let r = rig.read(ch, 250).unwrap();
            assert!(matches!(r.provenance, Provenance::Fresh { channel } if channel == ch));
            assert_eq!(r.age_ms, 0);
            assert!((r.value_c - 85.0).abs() < 3.0, "value {}", r.value_c);
            assert!(r.latency_ms <= 250);
        }
    }

    #[test]
    fn dead_ring_degrades_then_breaker_opens() {
        let mut cfg = quick_config();
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.cooldown_ms = 10_000; // stays open for the test
        let rig = Rig::start(5, 90.0, cfg);
        rig.set_fault(1, Some(RingFault::Dead));
        // The first supervised read burns the retry ladder (3 attempts
        // = 3 consecutive failures = trip), backing off between them,
        // and falls back to the median.
        let r = rig.read(1, 2_000).unwrap();
        assert!(
            matches!(r.provenance, Provenance::DegradedMedian { .. }),
            "dead ring must be served from survivors, got {:?}",
            r.provenance
        );
        assert!((r.value_c - 90.0).abs() < 3.0);
        assert!(rig.clock.now_ms() > 0, "the retries backed off");
        let breaker = rig.breaker(1);
        assert!(
            matches!(breaker.state(), BreakerState::Open { .. }),
            "breaker should have tripped, got {:?}",
            breaker.state()
        );
        // The fallback scan quarantined the dead ring, and quarantine
        // outranks the breaker: the second read never touches the sick
        // unit, so the breaker neither trips again nor probes.
        assert!(rig.quarantined(1));
        let r2 = rig.read(1, 2_000).unwrap();
        assert!(matches!(r2.provenance, Provenance::DegradedMedian { .. }));
        assert_eq!(rig.breaker(1), breaker);
        assert_eq!(breaker.trips(), 1);
    }

    #[test]
    fn breaker_recloses_after_fault_clears() {
        let mut cfg = quick_config();
        cfg.breaker.cooldown_ms = 30;
        cfg.breaker.halfopen_successes = 2;
        cfg.policy = HealthPolicy::default().with_parole_after(1);
        let rig = Rig::start(5, 85.0, cfg);
        rig.set_fault(2, Some(RingFault::Dead));
        let _ = rig.read(2, 2_000).unwrap();
        assert!(!rig.breaker(2).is_closed());
        rig.set_fault(2, None);
        // Each round: 10 ms pass, the health monitor scans (paroling the
        // site once it probes healthy), and one read probes the breaker.
        let mut rounds = 0;
        while !rig.breaker(2).is_closed() {
            rounds += 1;
            assert!(
                rounds <= 20,
                "breaker never re-closed: {:?}",
                rig.breaker(2)
            );
            rig.clock.advance_by(10);
            rig.scan();
            let _ = rig.read(2, 2_000);
        }
        assert!(!rig.quarantined(2));
        let r = rig.read(2, 2_000).unwrap();
        assert!(
            matches!(r.provenance, Provenance::Fresh { channel: 2 }),
            "recovered channel serves fresh again, got {:?}",
            r.provenance
        );
    }

    #[test]
    fn bad_channel_is_typed() {
        let rig = Rig::start(2, 25.0, quick_config());
        let e = rig.read(7, 1_000).unwrap_err();
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
    }

    #[test]
    fn wire_outcome_turns_a_late_ok_into_a_typed_deadline_miss() {
        let rig = Rig::start(1, 60.0, quick_config());
        let reading = || {
            Ok(ServedReading {
                value_c: 60.0,
                provenance: Provenance::Fresh { channel: 0 },
                age_ms: 0,
                latency_ms: 0,
            })
        };
        let due = rig.core.now_ms() + 100;
        assert!(matches!(
            wire_outcome(&rig.core, due, reading()),
            wire::WireOutcome::Reading { fresh: true, .. }
        ));
        // Finished exactly at its deadline is on time; a millisecond
        // later the same reading is never forwarded as data.
        rig.clock.advance_by(100);
        assert!(matches!(
            wire_outcome(&rig.core, due, reading()),
            wire::WireOutcome::Reading { .. }
        ));
        rig.clock.advance_by(1);
        assert_eq!(
            wire_outcome(&rig.core, due, reading()),
            wire::WireOutcome::Failed {
                kind: "deadline".into()
            }
        );
    }

    #[test]
    fn unservable_deadline_budget_is_rejected_at_start() {
        let boot = |cfg: RuntimeConfig| {
            let disk = Arc::new(SimDisk::new(0, SimDiskProfile::pristine()));
            Rig::boot(1, 25.0, cfg, disk, Boot::Cold).map(|_| ())
        };
        // The payload quotes the site's hot-corner conversion: its ring
        // period at 150 °C times its settle and window cycles.
        let array = reference_array(1);
        let site = &array.sites()[0];
        let unit = site.unit.config();
        let period = unit.ring.period(&unit.tech, Celsius::new(150.0)).unwrap();
        let cycles = unit.settle_cycles + unit.window_cycles;
        let expected_ms = period.get() * cycles as f64 * 1e3;
        assert!(expected_ms > 0.0 && expected_ms < 1.0, "{expected_ms} ms");
        let mut cfg = quick_config();
        cfg.default_deadline_ms = 0;
        match boot(cfg.clone()) {
            Err(RuntimeError::UnservableConfig {
                site: name,
                conversion_ms,
                deadline_ms,
            }) => {
                assert_eq!(name, site.name);
                assert_eq!(conversion_ms, expected_ms);
                assert_eq!(deadline_ms, 0);
            }
            Err(other) => panic!("expected UnservableConfig, got {other}"),
            Ok(()) => panic!("zero deadline budget must be rejected"),
        }
        cfg.default_deadline_ms = 1;
        boot(cfg).expect("a conversion under 1 ms fits a 1 ms deadline");

        // A recovered core restores readings up to one checkpoint
        // interval old: the staleness bound must cover it, unless
        // checkpointing is off.
        for (staleness_bound_ms, checkpoint_interval_ms, accepted) in
            [(500, 500, true), (499, 500, false), (10, 0, true)]
        {
            let cfg = RuntimeConfig {
                staleness_bound_ms,
                checkpoint_interval_ms,
                ..quick_config()
            };
            match boot(cfg) {
                Ok(()) => assert!(accepted, "{staleness_bound_ms}/{checkpoint_interval_ms}"),
                Err(RuntimeError::UnrecoverableFreshness {
                    staleness_bound_ms: s,
                    checkpoint_interval_ms: c,
                }) => {
                    assert!(!accepted, "{staleness_bound_ms}/{checkpoint_interval_ms}");
                    assert_eq!((s, c), (staleness_bound_ms, checkpoint_interval_ms));
                }
                Err(other) => panic!("expected UnrecoverableFreshness, got {other}"),
            }
        }
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let mut cfg = quick_config();
        cfg.breaker.cooldown_ms = 60_000;
        let rig = Rig::start(4, 95.0, cfg);
        rig.set_fault(3, Some(RingFault::Dead));
        let _ = rig.read(3, 2_000).unwrap(); // trips breaker 3
        rig.clock.advance_by(20);
        rig.scan(); // quarantines it
        let seq = {
            let mut state = rig.core.state.lock().expect("state poisoned");
            checkpoint_locked(&rig.core, &mut state, rig.core.now_ms()).unwrap()
        };
        assert!(seq >= 1);

        // Recover into a *fresh* array: calibration, quarantine, and
        // breaker state must come back from the snapshot.
        let (rig2, report) = rig.restart();
        assert_eq!(report.recovered_seq, Some(seq));
        assert!(report.restored_calibrations >= 4, "{report:?}");
        assert!(
            report.restored_quarantine >= 1 || report.restored_open_breakers >= 1,
            "the sick channel must come back sick: {report:?}"
        );
        let r = rig2.read(0, 2_000).unwrap();
        assert!(matches!(r.provenance, Provenance::Fresh { .. }));
    }

    #[test]
    fn recovery_with_empty_dir_starts_fresh() {
        let rig = Rig::start(2, 25.0, quick_config());
        let (rig2, report) = rig.restart();
        assert_eq!(report.recovered_seq, None);
        assert!(report.skipped.is_empty());
        let r = rig2.read(0, 250).unwrap();
        assert!(matches!(r.provenance, Provenance::Fresh { .. }));
    }

    #[test]
    fn recovery_reports_the_orphaned_checkpoint_it_collects() {
        let rig = Rig::start(2, 25.0, quick_config());
        let orphan = PathBuf::from("/rig/snaps/snap-0000000099.tmp");
        rig.disk.plant(&orphan, "TSNAP\tv1\nseq\t99");
        let (_, report) = rig.restart();
        assert_eq!(report.gc_orphaned_tmp, 1, "{report:?}");
        assert!(rig.disk.read(&orphan).is_err());
    }
}

//! The real wire-protocol fleet tier: a threaded TCP server fronting
//! **replicated shard groups** that run the *same* `build_core`
//! service the deterministic simulation drives, behind the *same*
//! [`RouterPolicy`] placement.
//!
//! ```text
//!   TCP clients ──▶ accept loop ──▶ per-connection thread
//!                                      │  incremental Decoder
//!                                      │  (typed WireError, never
//!                                      │   a panic on bad bytes)
//!                                      ▼
//!                     in-flight gate ──▶ RouterPolicy ──▶ shard group
//!                     (over budget?       (HashRing +      primary ──▶
//!                      typed Shed)         RetryPolicy      backups
//!                                          failover)        (quorum ack)
//! ```
//!
//! Robustness contract, mirroring the fleet-simulation invariants:
//!
//! * **Typed decode errors** — arbitrary bytes on the socket produce a
//!   counted [`wire::WireError`] and a closed connection, never a
//!   panic or a hang.
//! * **Deadlines everywhere** — socket reads are timeout-bounded, and
//!   every response write is driven through a *polled* deadline: a
//!   peer that stops reading (half-open socket, see
//!   [`wire::ChaosProfile::half_open_prob`]) costs at most
//!   `write_timeout_ms`, never a blocked connection thread.
//! * **Typed backpressure** — past `max_in_flight` concurrent
//!   requests, the server answers [`WireOutcome::Shed`] with a retry
//!   hint instead of queueing unboundedly.
//! * **Replicated at-most-once effects** — each group's primary
//!   deduplicates by `(incarnation, req_id)` and ships every recorded
//!   effect to its live backups **before** the answer is forwarded, so
//!   a promoted backup replays retried requests instead of
//!   re-executing them.
//! * **Epoch fencing** — promotion bumps the group's epoch; a fenced
//!   ex-primary that tries to record an effect under a stale epoch is
//!   refused with a typed [`RuntimeError::StaleEpoch`] (on the wire:
//!   `Failed { kind: "stale-epoch" }`), never allowed to split the
//!   brain.
//! * **Honest decommission and recovery** — a decommissioned group's
//!   in-flight answers are discarded (the router fails over), and a
//!   crash-recovered replica restarts with no resurrected cache, then
//!   repairs its effect log from the live sibling the fleet's one
//!   election rule ranks highest before serving.
//! * **Graceful drain** — [`WireServer::drain`] stops accepting,
//!   lets every accepted in-flight request finish, flushes a final
//!   snapshot per group, and only then stops the cores.
//!
//! The replication tuning is preflighted at [`WireServer::start`] with
//! the same `NC1601`/`NC1602` rules the `netcheck` lint applies
//! statically, refused with a typed [`RuntimeError::BadReplication`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dst::{Clock, RealFs, SystemClock};
use netcheck::ReplicationTuning;
use wire::{Decoder, FleetMsg, HashRing, MapEntry, WireOutcome};

use crate::error::{Result, RuntimeError};
use crate::repl::{self, Epoched};
use crate::retry::RetryPolicy;
use crate::route::RouterPolicy;
use crate::service::{
    build_core, checkpoint_locked, maintenance_loop, wire_error_kind, wire_outcome, Core, Field,
    JobStep, ReadJob, RuntimeConfig,
};
use crate::snapshot::SnapshotError;
use crate::soak::reference_array;

/// Poll tick for non-blocking accept, socket reads, and the polled
/// write deadline, milliseconds.
const POLL_MS: u64 = 25;

/// Ring virtual nodes per shard group — matches the simulated fleet.
const VNODES: usize = 8;

/// Tuning for one wire fleet server.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Shard groups (hash-ring slots) fronted by this server.
    pub shards: usize,
    /// Replicas per shard group, primary included. `1` disables
    /// replication (no backups, no failover inside the group).
    pub replication: usize,
    /// Backup acks required before a recorded effect is forwarded.
    /// Statically this must equal `replication - 1` (netcheck
    /// `NC1602`); at runtime, killed replicas shrink the requirement
    /// to the live backup count so a degraded group stays writable.
    pub ack_quorum: usize,
    /// How long a primary may be silent before operators promote a
    /// backup, milliseconds. Must be strictly under the staleness
    /// bound (netcheck `NC1601`) so post-failover reads can succeed.
    pub failover_timeout_ms: u64,
    /// Sensor sites per shard group.
    pub sites_per_shard: usize,
    /// Ambient die temperature of the served thermal field, °C.
    pub ambient_c: f64,
    /// Whole-frame byte budget for the wire protocol. Must cover the
    /// largest encodable response for this array size
    /// ([`wire::max_response_frame_len`], netcheck `NC1501`).
    pub frame_budget: usize,
    /// Concurrent requests admitted before the server sheds with a
    /// typed [`WireOutcome::Shed`].
    pub max_in_flight: usize,
    /// A connection mid-frame with no forward progress for this long
    /// is closed (slowloris defense), milliseconds.
    pub read_timeout_ms: u64,
    /// Whole-response write budget, milliseconds: a peer that stops
    /// reading is cut off after this long, however many partial
    /// writes dribbled through.
    pub write_timeout_ms: u64,
    /// A connection with no traffic at all for this long is closed,
    /// milliseconds.
    pub idle_timeout_ms: u64,
    /// Router pacing: placement failover shares the supervisors'
    /// [`RetryPolicy`] ladder (see [`RouterPolicy`]).
    pub router_retry: RetryPolicy,
    /// Per-replica runtime tuning (`snapshot_dir` is overridden with a
    /// per-replica directory under `snapshot_root`).
    pub runtime: RuntimeConfig,
    /// Where replica checkpoints go; `None` disables checkpointing
    /// (and crash recovery starts cold).
    pub snapshot_root: Option<PathBuf>,
    /// Seed for the router's backoff jitter.
    pub seed: u64,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            shards: 3,
            replication: 2,
            ack_quorum: 1,
            failover_timeout_ms: 400,
            sites_per_shard: 6,
            ambient_c: 60.0,
            frame_budget: wire::DEFAULT_FRAME_BUDGET,
            max_in_flight: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            idle_timeout_ms: 5_000,
            router_retry: RetryPolicy::default(),
            runtime: RuntimeConfig::default(),
            snapshot_root: None,
            seed: 0,
        }
    }
}

/// Monotonic counters over a server's lifetime.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    responses: AtomicU64,
    bad_frames: AtomicU64,
    shed: AtomicU64,
    deduped: AtomicU64,
    failovers: AtomicU64,
    idle_closed: AtomicU64,
    stalled_closed: AtomicU64,
    write_timeout_closed: AtomicU64,
    crashes: AtomicU64,
    resurrected: AtomicU64,
    duplicate_effects: AtomicU64,
    protocol_errors: AtomicU64,
    replicated: AtomicU64,
    fenced_writes: AtomicU64,
    promotions: AtomicU64,
    rejoin_repairs: AtomicU64,
}

/// A point-in-time snapshot of server counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded successfully.
    pub frames_in: u64,
    /// Responses written.
    pub responses: u64,
    /// Connections closed on a typed decode error.
    pub bad_frames: u64,
    /// Requests answered with [`WireOutcome::Shed`].
    pub shed: u64,
    /// Requests replayed from a group's at-most-once dedup map.
    pub deduped: u64,
    /// Router failovers to another group.
    pub failovers: u64,
    /// Connections closed for total silence past the idle timeout.
    pub idle_closed: u64,
    /// Connections closed for stalling mid-frame (slowloris).
    pub stalled_closed: u64,
    /// Connections closed because a response write blew its polled
    /// deadline (the peer stopped reading — half-open socket).
    pub write_timeout_closed: u64,
    /// Replica crash-and-recover cycles.
    pub crashes: u64,
    /// Recoveries that came back with a cached median — must stay 0
    /// (the `ResurrectedCache` fleet invariant).
    pub resurrected: u64,
    /// Requests whose effects ran twice for one
    /// `(incarnation, req_id)` — must stay 0 (the `DuplicateEffect`
    /// fleet invariant).
    pub duplicate_effects: u64,
    /// Well-formed frames of a type the server does not serve.
    pub protocol_errors: u64,
    /// Effect records shipped to backups (one per backup ack).
    pub replicated: u64,
    /// Writes refused under a stale epoch — fenced ex-primaries and
    /// backups that already moved to a higher epoch.
    pub fenced_writes: u64,
    /// Backup promotions ([`WireServer::kill_primary`] /
    /// [`WireServer::step_down`]).
    pub promotions: u64,
    /// Divergent or crash-recovered replicas whose effect log was
    /// repaired from a live sibling.
    pub rejoin_repairs: u64,
}

/// One replicated effect record, as shipped primary → backups. The
/// recorded outcome rides along so a promoted backup can *replay*
/// retried requests instead of re-executing them.
#[derive(Debug, Clone)]
struct ReplRecord {
    /// Primary epoch the effect was accepted under.
    epoch: u64,
    /// Dense zero-based log position, minted by the primary.
    pos: u64,
    /// The client request id (the dedup key).
    req_id: u64,
    /// The recorded outcome, replayed on retry.
    outcome: WireOutcome,
}

impl Epoched for ReplRecord {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One replica behind the server: a real service core plus the wire
/// tier's bookkeeping (dedup, incarnation, epoch fence, effect log).
struct WireShard {
    core: Arc<Core>,
    maintenance: Option<JoinHandle<()>>,
    incarnation: u64,
    /// The epoch this replica last held (or acknowledged) the primary
    /// role at. A record arriving under a lower epoch is fenced.
    held_epoch: u64,
    /// Permanently killed — never serves or acks again.
    killed: bool,
    /// At-most-once dedup: `req_id` → position in `log`, replayed on
    /// retry instead of converting again. Backups receive entries via
    /// replication, so the map survives primary failover.
    seen: HashMap<u64, u64>,
    /// The replicated effect log, position-dense within the group.
    log: Vec<ReplRecord>,
    /// Requests whose effects actually executed on this replica.
    effects: u64,
    /// Server time of decommission, if any (group-wide: the stamp is
    /// written to every replica under its own lock).
    decommissioned_at_ms: Option<u64>,
}

/// One hash-ring slot: an epoch-fenced group of replicas.
struct ShardGroup {
    /// Monotone fencing epoch; bumped by every promotion.
    epoch: AtomicU64,
    /// Index of the current primary in `replicas`.
    primary: AtomicUsize,
    replicas: Vec<Mutex<WireShard>>,
}

impl ShardGroup {
    /// Locks every replica in index order — the single lock order the
    /// whole module uses, so record-time fan-out, promotion, and
    /// decommission can never deadlock against each other.
    fn lock_all(&self) -> Vec<MutexGuard<'_, WireShard>> {
        self.replicas
            .iter()
            .map(|r| r.lock().expect("replica poisoned"))
            .collect()
    }
}

struct Inner {
    cfg: WireServerConfig,
    policy: RouterPolicy,
    /// Server-wide clock: `forwarded_at_ms` and decommission stamps
    /// share this timeline, so the soak's "no decommissioned shard
    /// served" check needs no cross-clock slack.
    clock: Arc<SystemClock>,
    epoch_ms: u64,
    groups: Vec<ShardGroup>,
    in_flight: AtomicUsize,
    accepting: AtomicBool,
    draining: AtomicBool,
    stats: Counters,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.clock.now_ms().saturating_sub(self.epoch_ms)
    }

    fn snapshot_stats(&self) -> WireServerStats {
        let c = &self.stats;
        let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
        WireServerStats {
            connections: get(&c.connections),
            frames_in: get(&c.frames_in),
            responses: get(&c.responses),
            bad_frames: get(&c.bad_frames),
            shed: get(&c.shed),
            deduped: get(&c.deduped),
            failovers: get(&c.failovers),
            idle_closed: get(&c.idle_closed),
            stalled_closed: get(&c.stalled_closed),
            write_timeout_closed: get(&c.write_timeout_closed),
            crashes: get(&c.crashes),
            resurrected: get(&c.resurrected),
            duplicate_effects: get(&c.duplicate_effects),
            protocol_errors: get(&c.protocol_errors),
            replicated: get(&c.replicated),
            fenced_writes: get(&c.fenced_writes),
            promotions: get(&c.promotions),
            rejoin_repairs: get(&c.rejoin_repairs),
        }
    }
}

/// What a graceful [`WireServer::drain`] accomplished.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Final snapshot sequence flushed per group primary (`None` when
    /// the replica has no snapshot store or the flush failed).
    pub flushed_seqs: Vec<Option<u64>>,
    /// Requests still executing when the drain began — all were
    /// allowed to finish.
    pub in_flight_at_drain: usize,
    /// Final counters.
    pub stats: WireServerStats,
}

/// A running wire fleet server. Dropping it without [`drain`] leaks
/// its threads until process exit; tests and the CLI should drain.
///
/// [`drain`]: WireServer::drain
pub struct WireServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl WireServer {
    /// Binds `127.0.0.1:0` (or `bind`), starts one core per replica
    /// with real clocks and the real filesystem, and begins accepting.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::FrameBudget`] when the frame budget cannot
    /// carry the largest encodable response for this array size (the
    /// `netcheck` rule `NC1501` flags the same condition);
    /// [`RuntimeError::BadReplication`] when the replication tuning
    /// violates `NC1601`/`NC1602`;
    /// [`RuntimeError::UnservableConfig`] / snapshot errors from the
    /// per-replica preflight, as [`crate::MonitorRuntime::start`].
    pub fn start(cfg: WireServerConfig, bind: Option<SocketAddr>) -> Result<WireServer> {
        // Same pairing the `netcheck` lint flags statically (NC1501),
        // rejected here with a typed error.
        let total_sites = cfg.shards * cfg.sites_per_shard;
        let report = netcheck::check_wire_frame_budget(cfg.frame_budget, total_sites);
        if report.has_errors() {
            return Err(RuntimeError::FrameBudget {
                budget_bytes: cfg.frame_budget,
                required_bytes: wire::max_response_frame_len(total_sites),
                total_sites,
            });
        }
        // And the replication knobs (NC1601/NC1602), same story.
        if cfg.replication == 0 {
            return Err(RuntimeError::BadReplication {
                detail: "replication factor must be at least 1".into(),
            });
        }
        let repl_report = netcheck::check_replication(ReplicationTuning {
            replication: cfg.replication,
            ack_quorum: cfg.ack_quorum,
            staleness_bound_ms: cfg.runtime.staleness_bound_ms,
            failover_timeout_ms: cfg.failover_timeout_ms,
        });
        if repl_report.has_errors() {
            return Err(RuntimeError::BadReplication {
                detail: repl_report.render_text().trim_end().to_string(),
            });
        }

        let clock = Arc::new(SystemClock::new());
        let ambient = cfg.ambient_c;
        let field: Field = Arc::new(move |x, y| ambient + 2.0e3 * x + 1.0e3 * y);
        let stats = Counters::default();
        let mut groups = Vec::with_capacity(cfg.shards);
        for group in 0..cfg.shards {
            let mut replicas = Vec::with_capacity(cfg.replication);
            for replica in 0..cfg.replication {
                let mut shard = start_replica(&cfg, group, replica, &field, &stats, false)?;
                // Replica 0 starts as primary under epoch 1; backups
                // hold epoch 0 until replication or promotion raises
                // them.
                shard.held_epoch = u64::from(replica == 0);
                replicas.push(Mutex::new(shard));
            }
            groups.push(ShardGroup {
                epoch: AtomicU64::new(1),
                primary: AtomicUsize::new(0),
                replicas,
            });
        }

        let policy = RouterPolicy::new(HashRing::new(cfg.shards, VNODES), cfg.router_retry.clone());
        let epoch_ms = clock.now_ms();
        let inner = Arc::new(Inner {
            cfg,
            policy,
            clock,
            epoch_ms,
            groups,
            in_flight: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            stats,
        });

        let listener =
            TcpListener::bind(bind.unwrap_or_else(|| "127.0.0.1:0".parse().expect("literal addr")))
                .map_err(io_snapshot_err)?;
        let addr = listener.local_addr().map_err(io_snapshot_err)?;
        listener.set_nonblocking(true).map_err(io_snapshot_err)?;

        let accept_inner = Arc::clone(&inner);
        let accept_thread = thread::Builder::new()
            .name("wire-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))
            .expect("spawn accept loop");

        Ok(WireServer {
            inner,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-relative time, milliseconds — the timeline of
    /// `forwarded_at_ms` in responses and of decommission stamps.
    pub fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> WireServerStats {
        self.inner.snapshot_stats()
    }

    /// Per-group `(primary incarnation, primary effects,
    /// decommissioned)` view, for harnesses asserting at-most-once
    /// accounting.
    pub fn shard_ledger(&self) -> Vec<(u64, u64, bool)> {
        self.inner
            .groups
            .iter()
            .map(|g| {
                let sh = g.replicas[g.primary.load(Ordering::SeqCst)]
                    .lock()
                    .expect("replica poisoned");
                (
                    sh.incarnation,
                    sh.effects,
                    sh.decommissioned_at_ms.is_some(),
                )
            })
            .collect()
    }

    /// `(epoch, primary index, per-replica effect-log lengths)` for
    /// one group — the replication state tests assert on.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range.
    pub fn group_view(&self, group: usize) -> Result<(u64, usize, Vec<u64>)> {
        let g = self.group(group)?;
        let lens = g
            .replicas
            .iter()
            .map(|r| r.lock().expect("replica poisoned").log.len() as u64)
            .collect();
        Ok((
            g.epoch.load(Ordering::SeqCst),
            g.primary.load(Ordering::SeqCst),
            lens,
        ))
    }

    fn group(&self, group: usize) -> Result<&ShardGroup> {
        self.inner
            .groups
            .get(group)
            .ok_or(RuntimeError::BadChannel {
                channel: group,
                available: self.inner.cfg.shards,
            })
    }

    /// Crash-and-recover `group`'s current primary in place: stop its
    /// core, reload the newest valid snapshot from disk, start a fresh
    /// incarnation, and repair its effect log and dedup map from the
    /// live sibling `repl::elect` picks (counted in
    /// [`WireServerStats::rejoin_repairs`]). A recovery that comes
    /// back holding a cached median is counted in
    /// [`WireServerStats::resurrected`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range;
    /// otherwise as [`crate::MonitorRuntime::recover`].
    pub fn crash_shard(&self, group: usize) -> Result<()> {
        let g = self.group(group)?;
        let ambient = self.inner.cfg.ambient_c;
        let field: Field = Arc::new(move |x, y| ambient + 2.0e3 * x + 1.0e3 * y);
        let pidx = g.primary.load(Ordering::SeqCst);
        let mut guards = g.lock_all();
        guards[pidx].core.request_stop();
        // The old thread must finish before the replacement starts: it
        // may still be writing a checkpoint into the snapshot directory
        // the replacement recovers from.
        if let Some(h) = guards[pidx].maintenance.take() {
            drop(h.join());
        }
        let old_incarnation = guards[pidx].incarnation;
        let old_held_epoch = guards[pidx].held_epoch;
        let decommissioned = guards[pidx].decommissioned_at_ms;
        let mut replacement = start_replica(
            &self.inner.cfg,
            group,
            pidx,
            &field,
            &self.inner.stats,
            true,
        )?;
        replacement.incarnation = old_incarnation + 1;
        // Crash-recover in place keeps the primary role, so the fence
        // epoch carries over — a recovered primary is not an imposter.
        replacement.held_epoch = old_held_epoch;
        replacement.decommissioned_at_ms = decommissioned;
        *guards[pidx] = replacement;
        // Rejoin repair: adopt the elected live sibling's log (every
        // acked effect is on every live backup, so it is complete). An
        // empty log ranks lowest, so when the winner would be empty
        // there is nothing to adopt.
        let donor = repl::elect(guards.iter().enumerate().map(|(r, s)| {
            let adoptable = r != pidx && !s.killed && !s.log.is_empty();
            adoptable.then_some(&s.log[..])
        }));
        if let Some(d) = donor {
            let log = guards[d].log.clone();
            let seen = guards[d].seen.clone();
            guards[pidx].log = log;
            guards[pidx].seen = seen;
            self.inner
                .stats
                .rejoin_repairs
                .fetch_add(1, Ordering::SeqCst);
        }
        self.inner.stats.crashes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Permanently kills `group`'s current primary and promotes the
    /// live backup `repl::elect` picks (every acked effect is on every
    /// live backup, so no acked work is lost). Bumps the
    /// group epoch — the killed ex-primary stays fenced forever.
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range;
    /// [`RuntimeError::NoHealthy`] when no live replica remains to
    /// promote.
    pub fn kill_primary(&self, group: usize) -> Result<u64> {
        let g = self.group(group)?;
        let pidx = g.primary.load(Ordering::SeqCst);
        let mut guards = g.lock_all();
        guards[pidx].killed = true;
        // The stopped maintenance thread exits on its next tick. Its
        // handle stays on the replica for `drain` (or a later
        // `crash_shard`) to join: joining here would hold every lock of
        // the group, and with it every request routed to the group, for
        // up to a tick plus any checkpoint in progress.
        guards[pidx].core.request_stop();
        self.promote_locked(g, &mut guards)
    }

    /// Gracefully demotes `group`'s current primary (it stays alive
    /// but fenced: any effect it still tries to record is refused with
    /// a typed stale epoch) and promotes the best backup. Returns the
    /// new epoch. This is the planned-handover path; for a hard
    /// failure use [`WireServer::kill_primary`].
    ///
    /// # Errors
    ///
    /// As [`WireServer::kill_primary`].
    pub fn step_down(&self, group: usize) -> Result<u64> {
        let g = self.group(group)?;
        let pidx = g.primary.load(Ordering::SeqCst);
        let mut guards = g.lock_all();
        // Exclude the demoted primary from the election without
        // killing it.
        let was_killed = guards[pidx].killed;
        guards[pidx].killed = true;
        let out = self.promote_locked(g, &mut guards);
        guards[pidx].killed = was_killed;
        out
    }

    /// Election under the group's locks: `repl::elect` picks the live
    /// winner, the epoch bumps, and the winner's fence epoch raises.
    fn promote_locked(
        &self,
        g: &ShardGroup,
        guards: &mut [MutexGuard<'_, WireShard>],
    ) -> Result<u64> {
        let Some(winner) = repl::elect(guards.iter().map(|s| (!s.killed).then_some(&s.log[..])))
        else {
            return Err(RuntimeError::NoHealthy {
                total: self.inner.cfg.replication,
                quarantined: guards.iter().filter(|s| s.killed).count(),
            });
        };
        let epoch = g.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        guards[winner].held_epoch = epoch;
        g.primary.store(winner, Ordering::SeqCst);
        self.inner.stats.promotions.fetch_add(1, Ordering::SeqCst);
        Ok(epoch)
    }

    /// Marks `group` decommissioned at the current server time and
    /// returns that stamp. The router stops placing requests on it and
    /// discards any answer it was still computing; responses already
    /// forwarded are unaffected.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range.
    pub fn decommission(&self, group: usize) -> Result<u64> {
        let g = self.group(group)?;
        let mut guards = g.lock_all();
        let at = self.inner.now_ms();
        for sh in guards.iter_mut() {
            sh.decommissioned_at_ms.get_or_insert(at);
        }
        Ok(guards[0].decommissioned_at_ms.expect("just set"))
    }

    /// Graceful drain: stop accepting, let every accepted in-flight
    /// request finish and flush, write a final checkpoint per group
    /// primary, then stop every replica core. Consumes the server.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves room for reporting a
    /// poisoned replica.
    pub fn drain(mut self) -> Result<DrainReport> {
        let in_flight_at_drain = self.inner.in_flight.load(Ordering::SeqCst);
        self.inner.accepting.store(false, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        let conn_threads = match self.accept_thread.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => Vec::new(),
        };
        for h in conn_threads {
            drop(h.join());
        }
        let mut flushed_seqs = Vec::with_capacity(self.inner.cfg.shards);
        for g in &self.inner.groups {
            let pidx = g.primary.load(Ordering::SeqCst);
            let mut seq = None;
            for (r, replica) in g.replicas.iter().enumerate() {
                let mut sh = replica.lock().expect("replica poisoned");
                if r == pidx && !sh.killed {
                    let core = Arc::clone(&sh.core);
                    let mut state = core.state.lock().expect("state poisoned");
                    let now = core.now_ms();
                    seq = checkpoint_locked(&core, &mut state, now).ok();
                }
                sh.core.request_stop();
                if let Some(h) = sh.maintenance.take() {
                    drop(h.join());
                }
            }
            flushed_seqs.push(seq);
        }
        Ok(DrainReport {
            flushed_seqs,
            in_flight_at_drain,
            stats: self.inner.snapshot_stats(),
        })
    }
}

/// An I/O failure binding the listener, reported through the snapshot
/// error vocabulary (the only `io`-carrying variant the runtime has).
fn io_snapshot_err(e: std::io::Error) -> RuntimeError {
    RuntimeError::Snapshot(SnapshotError::Io {
        path: PathBuf::from("<tcp listener>"),
        detail: e.to_string(),
    })
}

/// Builds one replica's core (recovering from its snapshot directory
/// when `recover` is set) and spawns its maintenance thread.
fn start_replica(
    cfg: &WireServerConfig,
    group: usize,
    replica: usize,
    field: &Field,
    stats: &Counters,
    recover: bool,
) -> Result<WireShard> {
    let mut rc = cfg.runtime.clone();
    rc.seed = cfg.seed
        ^ (group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    rc.snapshot_dir = cfg
        .snapshot_root
        .as_ref()
        .map(|root| root.join(format!("shard-{group}-{replica}")));
    let clock = Arc::new(SystemClock::new());
    let (core, _report) = build_core(
        reference_array(cfg.sites_per_shard),
        Arc::clone(field),
        rc,
        recover,
        clock as Arc<dyn Clock>,
        Arc::new(RealFs),
        true,
    )?;
    // A core must scan before serving cached data; a restored cache
    // would be silent staleness (`ResurrectedCache`).
    if core.state.lock().expect("state poisoned").cache.is_some() {
        stats.resurrected.fetch_add(1, Ordering::SeqCst);
    }
    let maint_core = Arc::clone(&core);
    let maintenance = thread::Builder::new()
        .name(format!("wire-shard-{group}-{replica}-maint"))
        .spawn(move || maintenance_loop(&maint_core))
        .expect("spawn shard maintenance");
    Ok(WireShard {
        core,
        maintenance: Some(maintenance),
        incarnation: 0,
        held_epoch: 0,
        killed: false,
        seen: HashMap::new(),
        log: Vec::new(),
        effects: 0,
        decommissioned_at_ms: None,
    })
}

/// Accepts until drain, spawning one thread per connection; returns
/// the connection handles so [`WireServer::drain`] can join them.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns = Vec::new();
    let mut conn_idx: u64 = 0;
    while inner.accepting.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.stats.connections.fetch_add(1, Ordering::SeqCst);
                let conn_inner = Arc::clone(inner);
                let idx = conn_idx;
                conn_idx += 1;
                // Spawn failure (out of threads) drops the connection.
                if let Ok(h) = thread::Builder::new()
                    .name(format!("wire-conn-{idx}"))
                    .spawn(move || connection_loop(&conn_inner, stream))
                {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    conns
}

/// Writes `bytes` completely within `budget`, polling between partial
/// writes. A blocking `write_all` under a per-syscall timeout can be
/// dribbled past any deadline by a peer that drains one byte at a
/// time; this enforces a *whole-response* budget, so a half-open peer
/// (alive socket, nobody reading) costs at most `budget`.
fn write_with_deadline(
    stream: &mut TcpStream,
    bytes: &[u8],
    budget: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + budget;
    let mut off = 0;
    while off < bytes.len() {
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "response write blew its deadline",
            ));
        }
        match stream.write(&bytes[off..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection: poll-read into an incremental [`Decoder`], answer
/// each decoded frame, close on typed error, idle, stall, write
/// deadline, or drain.
fn connection_loop(inner: &Arc<Inner>, stream: TcpStream) {
    let mut stream = stream;
    // Short per-syscall timeouts; the *whole-operation* budgets
    // (read_timeout_ms for a stalled frame, write_timeout_ms for a
    // response) are enforced by polling above them.
    if stream
        .set_read_timeout(Some(Duration::from_millis(POLL_MS)))
        .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_millis(POLL_MS)))
            .is_err()
    {
        return;
    }
    let write_budget = Duration::from_millis(inner.cfg.write_timeout_ms.max(1));
    let mut dec = Decoder::new(inner.cfg.frame_budget);
    let mut buf = [0u8; 4096];
    let mut last_activity = inner.now_ms();
    loop {
        // Drain: answer what is already buffered, then close. Nothing
        // accepted (= decoded) is abandoned.
        let draining = inner.draining.load(Ordering::SeqCst);
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                last_activity = inner.now_ms();
                dec.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let idle = inner.now_ms().saturating_sub(last_activity);
                if dec.buffered() > 0 && idle > inner.cfg.read_timeout_ms {
                    inner.stats.stalled_closed.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                if idle > inner.cfg.idle_timeout_ms {
                    inner.stats.idle_closed.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
            Err(_) => return,
        }
        loop {
            match dec.next_frame() {
                Ok(Some(msg)) => {
                    inner.stats.frames_in.fetch_add(1, Ordering::SeqCst);
                    let resp = handle_request(inner, msg);
                    match wire::encode_frame(&resp, inner.cfg.frame_budget) {
                        Ok(bytes) => match write_with_deadline(&mut stream, &bytes, write_budget) {
                            Ok(()) => {
                                inner.stats.responses.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => {
                                if e.kind() == std::io::ErrorKind::TimedOut {
                                    inner
                                        .stats
                                        .write_timeout_closed
                                        .fetch_add(1, Ordering::SeqCst);
                                }
                                return;
                            }
                        },
                        Err(_) => return, // response over budget: preflight prevents this
                    }
                }
                Ok(None) => break,
                Err(_e) => {
                    // Typed decode failure: count it and hang up. The
                    // decoder is poisoned — resynchronizing inside a
                    // corrupted byte stream would be guesswork.
                    inner.stats.bad_frames.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
        }
        if draining && dec.buffered() == 0 {
            return;
        }
    }
}

/// Answers one decoded frame. Every path returns a well-typed
/// response; "wrong message type at the server" is a typed `Failed`,
/// not a dropped connection.
fn handle_request(inner: &Arc<Inner>, msg: FleetMsg) -> FleetMsg {
    match msg {
        FleetMsg::ClientReq { req_id, key } => {
            let Some(_slot) = InFlightSlot::acquire(inner) else {
                inner.stats.shed.fetch_add(1, Ordering::SeqCst);
                return FleetMsg::ClientResp {
                    req_id,
                    outcome: WireOutcome::Shed {
                        retry_after_ms: inner.cfg.router_retry.base_delay_ms.max(1),
                    },
                    origin_shard: usize::MAX,
                    forwarded_at_ms: inner.now_ms(),
                    total_age_ms: 0,
                };
            };
            serve_client_req(inner, req_id, key)
        }
        FleetMsg::MapReq { req_id } => {
            let Some(_slot) = InFlightSlot::acquire(inner) else {
                inner.stats.shed.fetch_add(1, Ordering::SeqCst);
                return FleetMsg::ClientResp {
                    req_id,
                    outcome: WireOutcome::Shed {
                        retry_after_ms: inner.cfg.router_retry.base_delay_ms.max(1),
                    },
                    origin_shard: usize::MAX,
                    forwarded_at_ms: inner.now_ms(),
                    total_age_ms: 0,
                };
            };
            serve_map_req(inner, req_id)
        }
        // Router-internal and response messages are not served here.
        other => {
            inner.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
            FleetMsg::ClientResp {
                req_id: other.req_id(),
                outcome: WireOutcome::Failed {
                    kind: "protocol".into(),
                },
                origin_shard: usize::MAX,
                forwarded_at_ms: inner.now_ms(),
                total_age_ms: 0,
            }
        }
    }
}

/// RAII in-flight token: admission at construction, release on drop —
/// the whole backpressure mechanism.
struct InFlightSlot<'a> {
    inner: &'a Inner,
}

impl<'a> InFlightSlot<'a> {
    fn acquire(inner: &'a Inner) -> Option<Self> {
        let prev = inner.in_flight.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.cfg.max_in_flight {
            inner.in_flight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InFlightSlot { inner })
    }
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What one attempt against one group produced.
enum GroupAttempt {
    /// The answer and its forward stamp.
    Served(WireOutcome, u64),
    /// The admitted replica was fenced before the effect could be
    /// recorded — a typed stale-epoch refusal the client retries.
    Fenced,
    /// The group cannot serve (decommissioned, killed, incarnation
    /// raced) — the router fails over.
    Unavailable,
}

/// Routes one read through the ring with backoff-paced failover.
fn serve_client_req(inner: &Arc<Inner>, req_id: u64, key: u64) -> FleetMsg {
    let mut plan = inner.policy.plan(key, inner.cfg.seed ^ req_id);
    let eligible = |g: usize| {
        let group = &inner.groups[g];
        group.replicas[group.primary.load(Ordering::SeqCst)]
            .lock()
            .map(|sh| sh.decommissioned_at_ms.is_none() && !sh.killed)
            .unwrap_or(false)
    };
    loop {
        let Some(route) = inner.policy.advance(&mut plan, eligible) else {
            return FleetMsg::ClientResp {
                req_id,
                outcome: WireOutcome::Failed {
                    kind: "unservable".into(),
                },
                origin_shard: usize::MAX,
                forwarded_at_ms: inner.now_ms(),
                total_age_ms: 0,
            };
        };
        if route.attempt > 1 {
            inner.stats.failovers.fetch_add(1, Ordering::SeqCst);
        }
        if route.backoff_ms > 0 {
            thread::sleep(Duration::from_millis(route.backoff_ms));
        }
        match try_group(inner, route.shard, req_id, key) {
            GroupAttempt::Served(outcome, forwarded_at_ms) => {
                let total_age_ms = match &outcome {
                    WireOutcome::Reading { age_ms, .. } => *age_ms,
                    WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => 0,
                };
                return FleetMsg::ClientResp {
                    req_id,
                    outcome,
                    origin_shard: route.shard,
                    forwarded_at_ms,
                    total_age_ms,
                };
            }
            // The admitted primary was fenced mid-flight: answer with
            // the typed stale epoch so the client retries — the retry
            // lands on the newly promoted primary.
            GroupAttempt::Fenced => {
                let g = &inner.groups[route.shard];
                let current = g.epoch.load(Ordering::SeqCst);
                let err = RuntimeError::StaleEpoch {
                    held_epoch: current.saturating_sub(1),
                    current_epoch: current,
                    group: route.shard,
                };
                return FleetMsg::ClientResp {
                    req_id,
                    outcome: WireOutcome::Failed {
                        kind: wire_error_kind(&err),
                    },
                    origin_shard: route.shard,
                    forwarded_at_ms: inner.now_ms(),
                    total_age_ms: 0,
                };
            }
            // Decommissioned or crashed mid-read: the answer is
            // discarded (never forwarded) and the plan fails over.
            GroupAttempt::Unavailable => continue,
        }
    }
}

/// What admission against a group's primary found.
enum Admission {
    /// Replay of a recorded outcome (at-most-once dedup).
    Deduped(WireOutcome, u64),
    /// Admitted for execution under `(epoch, primary, incarnation)`.
    Admitted {
        core: Arc<Core>,
        epoch: u64,
        pidx: usize,
        incarnation: u64,
    },
    /// The group cannot admit (decommissioned / killed).
    Unavailable,
}

/// Admission: dedup against the primary's replicated `seen` map, or
/// capture the execution token `(epoch, primary, incarnation)` the
/// record step will re-validate.
fn admit_group(inner: &Arc<Inner>, g: usize, req_id: u64) -> Admission {
    let group = &inner.groups[g];
    let epoch = group.epoch.load(Ordering::SeqCst);
    let pidx = group.primary.load(Ordering::SeqCst);
    let sh = group.replicas[pidx].lock().expect("replica poisoned");
    if sh.decommissioned_at_ms.is_some() || sh.killed {
        return Admission::Unavailable;
    }
    if let Some(&pos) = sh.seen.get(&req_id) {
        let rec = &sh.log[pos as usize];
        debug_assert_eq!(rec.req_id, req_id, "dedup map points at a foreign record");
        inner.stats.deduped.fetch_add(1, Ordering::SeqCst);
        return Admission::Deduped(rec.outcome.clone(), inner.now_ms());
    }
    Admission::Admitted {
        core: Arc::clone(&sh.core),
        epoch,
        pidx,
        incarnation: sh.incarnation,
    }
}

/// Record: under the group's full lock set, re-validate the fence and
/// incarnation, ship the effect to every live backup, and only then
/// record it on the primary and forward the answer. The
/// backups-before-ack ordering is the durability argument: once the
/// client sees an answer, every live replica can replay it.
fn record_group(
    inner: &Arc<Inner>,
    g: usize,
    epoch: u64,
    pidx: usize,
    incarnation: u64,
    req_id: u64,
    outcome: WireOutcome,
) -> GroupAttempt {
    let group = &inner.groups[g];
    let mut guards = group.lock_all();
    if guards[pidx].incarnation != incarnation || guards[pidx].decommissioned_at_ms.is_some() {
        return GroupAttempt::Unavailable;
    }
    // Epoch fence: the group moved on (promotion) while this request
    // executed — the ex-primary must refuse, typed, or a request
    // admitted before the promotion could ack an effect the new
    // primary never sees (split-brain).
    if guards[pidx].killed
        || group.epoch.load(Ordering::SeqCst) != epoch
        || group.primary.load(Ordering::SeqCst) != pidx
        || guards[pidx].held_epoch != epoch
    {
        inner.stats.fenced_writes.fetch_add(1, Ordering::SeqCst);
        return GroupAttempt::Fenced;
    }
    let rec = ReplRecord {
        epoch,
        pos: guards[pidx].log.len() as u64,
        req_id,
        outcome: outcome.clone(),
    };
    // Ship to every live backup BEFORE acknowledging.
    let mut fenced_backup = false;
    let mut acks: usize = 0;
    for r in 0..guards.len() {
        if r == pidx || guards[r].killed {
            continue;
        }
        if guards[r].held_epoch > epoch {
            // This backup has already seen a higher epoch: the write
            // is from the past; refuse the ack.
            inner.stats.fenced_writes.fetch_add(1, Ordering::SeqCst);
            fenced_backup = true;
            continue;
        }
        if guards[r].log.len() as u64 != rec.pos {
            // Divergent backup (e.g. it joined cold): converge it to
            // the primary's canonical log before appending.
            guards[r].log = guards[pidx].log.clone();
            guards[r].seen = guards[pidx].seen.clone();
            inner.stats.rejoin_repairs.fetch_add(1, Ordering::SeqCst);
        }
        guards[r].held_epoch = epoch;
        guards[r].seen.insert(req_id, rec.pos);
        guards[r].log.push(rec.clone());
        acks += 1;
        inner.stats.replicated.fetch_add(1, Ordering::SeqCst);
    }
    let live_backups = (0..guards.len())
        .filter(|&r| r != pidx && !guards[r].killed)
        .count();
    let needed = inner.cfg.ack_quorum.min(live_backups);
    if acks < needed || fenced_backup {
        // Under-replicated because a backup is fenced: the group is
        // mid-promotion; refuse typed so the client retries.
        return GroupAttempt::Fenced;
    }
    if guards[pidx].seen.insert(req_id, rec.pos).is_some() {
        inner.stats.duplicate_effects.fetch_add(1, Ordering::SeqCst);
    }
    guards[pidx].log.push(rec);
    guards[pidx].effects += 1;
    // Stamp under the group locks: a decommission stamp is strictly
    // ordered against every forwarded answer from this group.
    GroupAttempt::Served(outcome, inner.now_ms())
}

/// Runs one request on one group: admit at the primary, execute, then
/// replicate-and-record with the epoch fence re-checked.
fn try_group(inner: &Arc<Inner>, g: usize, req_id: u64, key: u64) -> GroupAttempt {
    let (core, epoch, pidx, incarnation) = match admit_group(inner, g, req_id) {
        Admission::Deduped(outcome, at) => return GroupAttempt::Served(outcome, at),
        Admission::Unavailable => return GroupAttempt::Unavailable,
        Admission::Admitted {
            core,
            epoch,
            pidx,
            incarnation,
        } => (core, epoch, pidx, incarnation),
    };
    let channel = (key % inner.cfg.sites_per_shard.max(1) as u64) as usize;
    let submitted = core.now_ms();
    let deadline = submitted + core.config.default_deadline_ms;
    let mut job = ReadJob::new(&core, channel, submitted, deadline);
    let result = loop {
        match job.step(&core) {
            JobStep::Done(result) => break result,
            JobStep::Backoff { delay_ms } => thread::sleep(Duration::from_millis(delay_ms)),
        }
    };
    let outcome = wire_outcome(&core, deadline, result);
    record_group(inner, g, epoch, pidx, incarnation, req_id, outcome)
}

/// Assembles the whole-fleet thermal map — the protocol's largest
/// response, and why the frame budget must be sized to the array.
fn serve_map_req(inner: &Arc<Inner>, req_id: u64) -> FleetMsg {
    let mut entries = Vec::new();
    for (group_idx, group) in inner.groups.iter().enumerate() {
        let pidx = group.primary.load(Ordering::SeqCst);
        let sh = group.replicas[pidx].lock().expect("replica poisoned");
        if sh.decommissioned_at_ms.is_some() || sh.killed {
            continue;
        }
        let core = Arc::clone(&sh.core);
        drop(sh);
        let state = core.state.lock().expect("state poisoned");
        let now = core.now_ms();
        let Some(cache) = state.cache.as_ref() else {
            continue;
        };
        let age_ms = now.saturating_sub(cache.taken_at_ms);
        if age_ms > core.config.staleness_bound_ms {
            continue; // honest staleness: too old for any response
        }
        let quarantined: Vec<usize> = state.array.quarantined().iter().map(|(c, _)| *c).collect();
        for site in 0..inner.cfg.sites_per_shard {
            entries.push(MapEntry {
                shard: group_idx as u32,
                site: site as u32,
                value_c: cache.value_c,
                age_ms,
                quarantined: quarantined.contains(&site),
            });
        }
    }
    FleetMsg::MapResp {
        req_id,
        forwarded_at_ms: inner.now_ms(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_budget_preflight_is_typed() {
        let cfg = WireServerConfig {
            shards: 4,
            sites_per_shard: 16,
            frame_budget: 64,
            ..WireServerConfig::default()
        };
        match WireServer::start(cfg, None) {
            Err(RuntimeError::FrameBudget {
                budget_bytes,
                required_bytes,
                total_sites,
            }) => {
                assert_eq!(budget_bytes, 64);
                assert_eq!(total_sites, 64);
                assert_eq!(required_bytes, wire::max_response_frame_len(64));
            }
            Err(other) => panic!("expected FrameBudget, got {other:?}"),
            Ok(_) => panic!("expected FrameBudget, got a running server"),
        }
    }

    #[test]
    fn replication_preflight_is_typed() {
        // Under-quorum: NC1602's acked-loss window.
        let cfg = WireServerConfig {
            replication: 3,
            ack_quorum: 1,
            ..WireServerConfig::default()
        };
        match WireServer::start(cfg, None) {
            Err(RuntimeError::BadReplication { detail }) => {
                assert!(detail.contains("NC1602"), "{detail}");
            }
            Err(other) => panic!("expected BadReplication, got {other:?}"),
            Ok(_) => panic!("expected BadReplication, got a running server"),
        }
        // Staleness bound inside the failover window: NC1601.
        let cfg = WireServerConfig {
            failover_timeout_ms: 10_000,
            ..WireServerConfig::default()
        };
        match WireServer::start(cfg, None) {
            Err(RuntimeError::BadReplication { detail }) => {
                assert!(detail.contains("NC1601"), "{detail}");
            }
            Err(other) => panic!("expected BadReplication, got {other:?}"),
            Ok(_) => panic!("expected BadReplication, got a running server"),
        }
    }

    #[test]
    fn decommission_and_crash_guard_bad_indices() {
        let server = WireServer::start(
            WireServerConfig {
                shards: 2,
                sites_per_shard: 3,
                ..WireServerConfig::default()
            },
            None,
        )
        .expect("server starts");
        assert!(matches!(
            server.decommission(9),
            Err(RuntimeError::BadChannel { .. })
        ));
        assert!(matches!(
            server.crash_shard(9),
            Err(RuntimeError::BadChannel { .. })
        ));
        assert!(matches!(
            server.kill_primary(9),
            Err(RuntimeError::BadChannel { .. })
        ));
        let report = server.drain().expect("drain");
        assert_eq!(report.in_flight_at_drain, 0);
    }

    #[test]
    fn fenced_ex_primary_refuses_the_record_with_a_typed_stale_epoch() {
        let server = WireServer::start(
            WireServerConfig {
                shards: 1,
                sites_per_shard: 3,
                ..WireServerConfig::default()
            },
            None,
        )
        .expect("server starts");
        // Admit a request on the current primary, then promote a
        // backup *before* the record step runs — exactly the race a
        // slow ex-primary loses.
        let Admission::Admitted {
            epoch,
            pidx,
            incarnation,
            ..
        } = admit_group(&server.inner, 0, 42)
        else {
            panic!("fresh group must admit");
        };
        assert_eq!((epoch, pidx), (1, 0));
        let new_epoch = server.step_down(0).expect("promotion");
        assert_eq!(new_epoch, 2);
        let attempt = record_group(
            &server.inner,
            0,
            epoch,
            pidx,
            incarnation,
            42,
            WireOutcome::Reading {
                value_c: 61.0,
                fresh: true,
                age_ms: 0,
            },
        );
        assert!(matches!(attempt, GroupAttempt::Fenced));
        let stats = server.stats();
        assert!(stats.fenced_writes >= 1, "fence must be counted");
        assert_eq!(stats.promotions, 1);
        // The fenced effect was never recorded anywhere.
        let (_, _, lens) = server.group_view(0).expect("view");
        assert_eq!(lens, vec![0, 0]);
        server.drain().expect("drain");
    }

    #[test]
    fn kill_primary_promotes_the_longest_log_and_bumps_the_epoch() {
        let server = WireServer::start(
            WireServerConfig {
                shards: 1,
                replication: 3,
                ack_quorum: 2,
                sites_per_shard: 3,
                ..WireServerConfig::default()
            },
            None,
        )
        .expect("server starts");
        // Record one effect so the logs are non-empty and replicated.
        let out = try_group(&server.inner, 0, 7, 1);
        assert!(matches!(out, GroupAttempt::Served(..)));
        let (epoch, pidx, lens) = server.group_view(0).expect("view");
        assert_eq!((epoch, pidx), (1, 0));
        assert_eq!(lens, vec![1, 1, 1], "acked effect on every replica");

        let new_epoch = server.kill_primary(0).expect("promotion");
        assert_eq!(new_epoch, 2);
        let (_, new_pidx, _) = server.group_view(0).expect("view");
        assert_ne!(new_pidx, 0, "killed primary cannot win its own election");
        // The retried request replays from the promoted backup's
        // replicated dedup map — never re-executes.
        let replay = try_group(&server.inner, 0, 7, 1);
        assert!(matches!(replay, GroupAttempt::Served(..)));
        let stats = server.stats();
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.duplicate_effects, 0);
        server.drain().expect("drain");
    }
}

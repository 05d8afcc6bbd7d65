//! The real wire-protocol fleet tier: a threaded TCP server fronting
//! **replicated shard groups** that run the *same* `build_core`
//! service and the *same* replication protocol the deterministic
//! simulation drives, behind the *same* [`RouterPolicy`] placement.
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
//! Each replica holds the fleet's one replication protocol, the
//! sans-IO `repl::Replica` the simulator runs over `dst::SimNet`. This
//! tier drives it synchronously, in process: a request's `ShardReq` is
//! fed to the group's primary under the group's lock, the conversion
//! runs outside it, and the finished conversion is fed back, after
//! which every frame the cores emit is delivered to its sibling at once
//! until none is left.
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
//!   `write_timeout_ms` past the first write that leaves bytes unsent,
//!   never a blocked connection thread.
//! * **Typed backpressure** — past `max_in_flight` concurrent
//!   requests, the server answers [`WireOutcome::Shed`] with a retry
//!   hint instead of queueing unboundedly.
//! * **Replicated at-most-once effects** — a reading is an effect: the
//!   primary appends it to its effect log and ships it to every live
//!   backup **before** the answer is forwarded. Within one
//!   incarnation the primary dedups by `req_id`: a retry that arrives
//!   while the first attempt converts is shed with a retry hint, and
//!   one that arrives after it replays the cached answer. A promoted or
//!   restarted replica whose log already holds the effect re-serves
//!   the request as a read-only conversion that adds none.
//! * **Epoch fencing** — promotion elects a replica, bumps the group's
//!   epoch and tells every live replica; an ex-primary that finishes a
//!   conversion after losing the role is refused with a typed
//!   [`RuntimeError::StaleEpoch`] (on the wire:
//!   `Failed { kind: "stale-epoch" }`), never allowed to split the
//!   brain.
//! * **Honest decommission and recovery** — a decommissioned group's
//!   in-flight answers are discarded (the router fails over), and a
//!   crash-recovered replica restarts with no resurrected cache over
//!   its reopened effect log, is repaired from the replica the fleet's
//!   one election rule ranks highest, and the group re-elects its
//!   primary. A server started over an existing snapshot root rejoins
//!   each group the same way before it serves.
//! * **Logs reach disk with checkpoints** — under a snapshot root a
//!   replica's core and effect log share one write-behind disk: an
//!   append costs no I/O, and each checkpoint, and the drain, writes
//!   and fsyncs the log's tail before the snapshot. A crash loses only
//!   the tail since the replica's last checkpoint, which the rejoin
//!   repair restores from a live sibling.
//! * **Graceful drain** — [`WireServer::drain`] stops accepting,
//!   lets every accepted in-flight request finish, flushes a final
//!   snapshot per live replica, and only then stops the cores.
//!
//! [`WireServer::start`] refuses a fleet whose thermal map the one
//! frame budget cannot carry, with a typed [`RuntimeError::FrameBudget`],
//! and an ack quorum other than the group's backup count, with a typed
//! [`RuntimeError::BadReplication`]. This tier promotes only on
//! [`WireServer::kill_primary`],
//! [`WireServer::step_down`] and a rejoin, never on a timeout, so it
//! has no failover detection window to check.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dst::{Clock, NoDisk, RealFs, SimFs, SystemClock, WriteBehind};
use sensor::{RingFault, SensorArray};
use wire::{Decoder, FleetMsg, MapEntry, WireOutcome, DEFAULT_FRAME_BUDGET};

use crate::breaker::CircuitBreaker;
use crate::effect_log::EffectLog;
use crate::error::{Result, RuntimeError};
use crate::repl::{self, Output, Replica};
use crate::route::RouterPolicy;
use crate::service::{
    build_core, checkpoint_locked, maintenance_loop, reference_array, supervised_read,
    wire_error_kind, wire_outcome, Core, Field, RecoveryReport, RuntimeConfig,
};
use crate::sim::json_object;
use crate::snapshot::SnapshotError;

/// Per-syscall timeout of a connection's socket reads and writes,
/// milliseconds: the tick its idle, stall, drain and write-deadline
/// checks run on. The accept thread does not poll: it blocks in
/// `accept`, and [`WireServer::drain`] wakes it.
const POLL_MS: u64 = 25;

/// The node id the router feeds a replica's core as; the replicas of a
/// group are its nodes `0..replication`.
const ROUTER: usize = usize::MAX;

/// Tuning for one wire fleet server.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Shard groups (hash-ring slots) fronted by this server.
    pub shards: usize,
    /// Replicas per shard group, primary included. `1` disables
    /// replication (no backups, no failover inside the group).
    pub replication: usize,
    /// Backup acks required before a recorded effect is forwarded.
    /// With `replication >= 2`, [`WireServer::start`] refuses any value
    /// but `replication - 1`, and that check is this field's only
    /// reader: a primary always waits for every live backup, so killed
    /// replicas shrink the requirement and a degraded group stays
    /// writable.
    pub ack_quorum: usize,
    /// Sensor sites per shard group.
    pub sites_per_shard: usize,
    /// Ambient die temperature of the served thermal field, °C.
    pub ambient_c: f64,
    /// Concurrent requests admitted before the server sheds with a
    /// typed [`WireOutcome::Shed`].
    pub max_in_flight: usize,
    /// A connection mid-frame with no forward progress for this long
    /// is closed (slowloris defense), milliseconds.
    pub read_timeout_ms: u64,
    /// Whole-response write budget, milliseconds: a peer that stops
    /// reading is cut off this long after the first write that leaves
    /// bytes unsent, however many partial writes dribbled through.
    pub write_timeout_ms: u64,
    /// A connection with no traffic at all for this long is closed,
    /// milliseconds.
    pub idle_timeout_ms: u64,
    /// Per-replica runtime tuning (`snapshot_dir` is overridden with a
    /// per-replica directory under `snapshot_root`).
    pub runtime: RuntimeConfig,
    /// Where each replica's checkpoints and effect log go
    /// (`shard-G-R/`, the log as `shard-G-R/effects.log`, written with
    /// each checkpoint); `None` disables checkpointing and keeps the
    /// effect logs in memory only, so crash recovery starts cold with
    /// an empty log.
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
            sites_per_shard: 6,
            ambient_c: 60.0,
            max_in_flight: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            idle_timeout_ms: 5_000,
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
    /// Requests a group's at-most-once dedup absorbed: replayed from
    /// the primary's dedup window, shed while their first attempt
    /// converts, or re-served read-only because the effect log already
    /// holds their effect.
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
    /// Effectful conversions that finished for a request whose effect
    /// the replica's log already held — must stay 0 (the
    /// `DuplicateEffect` fleet invariant).
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

impl WireServerStats {
    /// Every counter as one JSON object — what `runtime serve --json`
    /// prints and the wire soak's report nests as `"server"`.
    pub fn render_json(&self) -> String {
        json_object(&[
            ("connections", self.connections.to_string()),
            ("frames_in", self.frames_in.to_string()),
            ("responses", self.responses.to_string()),
            ("bad_frames", self.bad_frames.to_string()),
            ("shed", self.shed.to_string()),
            ("deduped", self.deduped.to_string()),
            ("failovers", self.failovers.to_string()),
            ("idle_closed", self.idle_closed.to_string()),
            ("stalled_closed", self.stalled_closed.to_string()),
            (
                "write_timeout_closed",
                self.write_timeout_closed.to_string(),
            ),
            ("crashes", self.crashes.to_string()),
            ("resurrected", self.resurrected.to_string()),
            ("duplicate_effects", self.duplicate_effects.to_string()),
            ("protocol_errors", self.protocol_errors.to_string()),
            ("replicated", self.replicated.to_string()),
            ("fenced_writes", self.fenced_writes.to_string()),
            ("promotions", self.promotions.to_string()),
            ("rejoin_repairs", self.rejoin_repairs.to_string()),
        ])
    }
}

/// One replica behind the server: a real service core and its side of
/// the replication protocol.
struct WireShard {
    core: Arc<Core>,
    maintenance: Option<JoinHandle<()>>,
    /// Held epoch, leadership, dedup window, in-flight writes and the
    /// durable effect log.
    repl: Replica,
    /// Permanently killed — never serves or acks again.
    killed: bool,
    /// Writes this replica completed as primary.
    effects: u64,
}

/// One hash-ring slot: its replicas, and the router's view of them —
/// the epoch it last promoted at and the primary it sends to.
struct ShardGroup {
    epoch: u64,
    primary: usize,
    /// Server time of decommission, if any.
    decommissioned_at_ms: Option<u64>,
    replicas: Vec<WireShard>,
    /// Output buffers reused under this group's lock, by nesting level:
    /// `dispatch` and `settle` fill level 0, and `deliver` fills level
    /// `d + 1` with what a frame delivered from level `d` makes its
    /// addressee do.
    outs: Vec<Vec<Output>>,
}

impl ShardGroup {
    /// Whether the router may place a request here.
    fn serves(&self) -> bool {
        self.decommissioned_at_ms.is_none() && !self.replicas[self.primary].killed
    }

    /// Lends out nesting level `depth`'s output buffer, empty; hand it
    /// back with [`ShardGroup::restore`].
    fn lend(&mut self, depth: usize) -> Vec<Output> {
        if self.outs.len() <= depth {
            self.outs.resize_with(depth + 1, Vec::new);
        }
        std::mem::take(&mut self.outs[depth])
    }

    /// Takes back the buffer [`ShardGroup::lend`] lent for `depth`.
    fn restore(&mut self, depth: usize, mut out: Vec<Output>) {
        out.clear();
        self.outs[depth] = out;
    }

    /// Replica `r`'s protocol core, and the indices of its live
    /// siblings in order, walked without collecting them.
    fn with_siblings(
        &mut self,
        r: usize,
    ) -> (&mut Replica, impl Iterator<Item = usize> + Clone + '_) {
        let (head, tail) = self.replicas.split_at_mut(r);
        let (me, tail) = tail.split_first_mut().expect("replica in range");
        let live = (0..)
            .zip(&*head)
            .chain((r + 1..).zip(&*tail))
            .filter(|(_, sh)| !sh.killed)
            .map(|(i, _)| i);
        (&mut me.repl, live)
    }

    /// `repl::elect` over the live replicas, `barred` excepted.
    fn elect(&self, barred: Option<usize>) -> Option<usize> {
        repl::elect(
            self.replicas
                .iter()
                .enumerate()
                .map(|(r, sh)| (!sh.killed && Some(r) != barred).then(|| sh.repl.log().records())),
        )
    }

    /// Promotion: the election winner gets a fresh epoch, sent as a
    /// `Promote` to every live replica. Returns the new epoch.
    fn promote(&mut self, group: usize, barred: Option<usize>) -> Result<u64> {
        let Some(winner) = self.elect(barred) else {
            return Err(RuntimeError::NoHealthy {
                total: self.replicas.len(),
                quarantined: self.replicas.len(),
            });
        };
        self.epoch += 1;
        self.primary = winner;
        let promote = FleetMsg::Promote {
            req_id: 0,
            group: group as u32,
            epoch: self.epoch,
            primary: winner as u32,
        };
        for sh in self.replicas.iter_mut().filter(|sh| !sh.killed) {
            // A `Promote` answers nothing.
            sh.repl.on_frame(ROUTER, promote.clone(), &mut Vec::new());
            sh.core.adopt_group_epoch(self.epoch);
        }
        Ok(self.epoch)
    }

    /// Rejoin after a restart: every live replica whose log differs
    /// from the one [`ShardGroup::elect`] picks is rewritten to it
    /// (counted in `repairs`), then the winner is promoted.
    fn rejoin(&mut self, group: usize, repairs: &AtomicU64) -> Result<u64> {
        if let Some(donor) = self.elect(None) {
            let canonical = self.replicas[donor].repl.log().records().to_vec();
            for sh in self.replicas.iter_mut().filter(|sh| !sh.killed) {
                if sh.repl.repair(&canonical) {
                    repairs.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        self.promote(group, None)
    }
}

struct Inner {
    cfg: WireServerConfig,
    policy: RouterPolicy,
    /// The served thermal field, shared by every replica's core.
    field: Field,
    /// Server-wide clock: `forwarded_at_ms` and decommission stamps
    /// share this timeline, so the soak's "no decommissioned shard
    /// served" check needs no cross-clock slack.
    clock: Arc<SystemClock>,
    epoch_ms: u64,
    groups: Vec<Mutex<ShardGroup>>,
    in_flight: AtomicUsize,
    /// Set by [`WireServer::drain`]: the accept loop stops, and each
    /// connection closes once its buffered frames are answered.
    draining: AtomicBool,
    stats: Counters,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.clock.now_ms().saturating_sub(self.epoch_ms)
    }

    fn group(&self, g: usize) -> MutexGuard<'_, ShardGroup> {
        self.groups[g].lock().expect("group poisoned")
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
    /// [`RuntimeError::FrameBudget`] when [`DEFAULT_FRAME_BUDGET`]
    /// cannot carry the largest encodable response for the fleet's
    /// `shards × sites_per_shard` sites (a product too large to count
    /// saturates, and is refused);
    /// [`RuntimeError::BadReplication`] when `replication` is 0, or is
    /// at least 2 and `ack_quorum` is not `replication - 1`;
    /// [`RuntimeError::UnservableConfig`],
    /// [`RuntimeError::UnrecoverableFreshness`] and snapshot errors from
    /// each replica's preflight and store.
    pub fn start(cfg: WireServerConfig, bind: Option<SocketAddr>) -> Result<WireServer> {
        let total_sites = cfg.shards.saturating_mul(cfg.sites_per_shard);
        let required_bytes = wire::max_response_frame_len(total_sites);
        if required_bytes > DEFAULT_FRAME_BUDGET {
            return Err(RuntimeError::FrameBudget {
                budget_bytes: DEFAULT_FRAME_BUDGET,
                required_bytes,
                total_sites,
            });
        }
        // A group of one has no backups and accepts any quorum. Above
        // one, a quorum over the backup count can never be met, and one
        // under it lets a promotion elect a replica missing acked work.
        let Some(backups) = cfg.replication.checked_sub(1) else {
            let detail = "replication factor must be at least 1".to_string();
            return Err(RuntimeError::BadReplication { detail });
        };
        if backups > 0 && cfg.ack_quorum != backups {
            let detail = format!(
                "ack quorum {} is not the {backups} backup(s) of replication {}: a write \
                 waits for every live backup",
                cfg.ack_quorum, cfg.replication
            );
            return Err(RuntimeError::BadReplication { detail });
        }

        let clock = Arc::new(SystemClock::new());
        let ambient = cfg.ambient_c;
        let field: Field = Arc::new(move |x, y| ambient + 2.0e3 * x + 1.0e3 * y);
        let stats = Counters::default();
        let mut groups = Vec::with_capacity(cfg.shards);
        for group in 0..cfg.shards {
            let mut replicas = Vec::with_capacity(cfg.replication);
            for replica in 0..cfg.replication {
                let array = reference_array(cfg.sites_per_shard);
                let (core, maintenance, log, _) =
                    start_replica(&cfg, group, replica, array, &field, &stats, false)?;
                replicas.push(WireShard {
                    core,
                    maintenance: Some(maintenance),
                    repl: Replica::new(group, replica, log, true),
                    killed: false,
                    effects: 0,
                });
            }
            // Epochs continue past any a rooted server's logs hold (the
            // election ranks logs by their last record's epoch), so a
            // fresh group's replica 0 leads at epoch 1. Logs a previous
            // run left unequal are repaired before anything is served.
            let epoch = replicas.iter().map(|sh| sh.repl.log().last_epoch()).max();
            let mut g = ShardGroup {
                epoch: epoch.unwrap_or(0),
                primary: 0,
                decommissioned_at_ms: None,
                replicas,
                outs: Vec::new(),
            };
            g.rejoin(group, &stats.rejoin_repairs)?;
            groups.push(Mutex::new(g));
        }

        let policy = RouterPolicy::fleet(cfg.shards);
        let epoch_ms = clock.now_ms();
        let inner = Arc::new(Inner {
            cfg,
            policy,
            field,
            clock,
            epoch_ms,
            groups,
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stats,
        });

        let listener =
            TcpListener::bind(bind.unwrap_or_else(|| "127.0.0.1:0".parse().expect("literal addr")))
                .map_err(io_snapshot_err)?;
        let addr = listener.local_addr().map_err(io_snapshot_err)?;

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
        (0..self.inner.groups.len())
            .map(|g| {
                let g = self.inner.group(g);
                let sh = &g.replicas[g.primary];
                let decommissioned = g.decommissioned_at_ms.is_some();
                (sh.repl.incarnation(), sh.effects, decommissioned)
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
        let lens = g.replicas.iter().map(|sh| sh.repl.log().len()).collect();
        Ok((g.epoch, g.primary, lens))
    }

    fn group(&self, group: usize) -> Result<MutexGuard<'_, ShardGroup>> {
        if group >= self.inner.groups.len() {
            return Err(RuntimeError::BadChannel {
                channel: group,
                available: self.inner.cfg.shards,
            });
        }
        Ok(self.inner.group(group))
    }

    /// Crash-and-recover `group`'s current primary in place: stop its
    /// core, reload the newest valid snapshot from disk, and restart
    /// its replication protocol as a backup of a fresh incarnation over
    /// its reopened effect log — everything up to its last checkpoint
    /// under a snapshot root, nothing without one. Faults live in the
    /// silicon, not the process: every site keeps the fault
    /// [`WireServer::set_fault`] left on it. Every live replica whose
    /// log differs from the one `repl::elect` picks is repaired to it
    /// (counted in [`WireServerStats::rejoin_repairs`]), and the group
    /// re-elects its primary under a fresh epoch (a restart, not counted
    /// in [`WireServerStats::promotions`]). A recovery that comes back
    /// holding a cached median is counted in
    /// [`WireServerStats::resurrected`]. Returns what recovery restored
    /// and skipped; a killed primary stays dead, and its report is
    /// empty.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range;
    /// otherwise the replica's preflight and snapshot errors, as
    /// [`WireServer::start`].
    pub fn crash_shard(&self, group: usize) -> Result<RecoveryReport> {
        let mut g = self.group(group)?;
        let pidx = g.primary;
        let sh = &mut g.replicas[pidx];
        if sh.killed {
            return Ok(RecoveryReport::default());
        }
        // The stop wakes the old thread at once, and it must finish
        // before the replacement starts: it may still be writing a
        // checkpoint into the snapshot directory the replacement
        // recovers from.
        sh.core.request_stop();
        if let Some(h) = sh.maintenance.take() {
            drop(h.join());
        }
        let inner = &self.inner;
        let mut array = reference_array(inner.cfg.sites_per_shard);
        {
            let old = sh.core.state.lock().expect("state poisoned");
            for (site, struck) in array.sites_mut().iter_mut().zip(old.array.sites()) {
                if let Some(fault) = struck.unit.active_fault() {
                    site.unit.inject_fault(fault);
                }
            }
        }
        let (core, maintenance, log, rec) = start_replica(
            &inner.cfg,
            group,
            pidx,
            array,
            &inner.field,
            &inner.stats,
            true,
        )?;
        sh.core = core;
        sh.maintenance = Some(maintenance);
        sh.repl.recover(log, rec.recovered_epoch);
        g.rejoin(group, &inner.stats.rejoin_repairs)?;
        inner.stats.crashes.fetch_add(1, Ordering::SeqCst);
        Ok(rec)
    }

    /// Strikes `site` of replica `replica` in `group` with `fault`
    /// (replacing any fault already there), or clears it with `None`:
    /// the chaos hook a silicon fault storm drives. It names the
    /// replica, not the role, so a clear after a promotion still reaches
    /// the array that was struck.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group`, `replica` or `site` is
    /// out of range.
    pub fn set_fault(
        &self,
        group: usize,
        replica: usize,
        site: usize,
        fault: Option<RingFault>,
    ) -> Result<()> {
        let g = self.group(group)?;
        let sh = g.replicas.get(replica).ok_or(RuntimeError::BadChannel {
            channel: replica,
            available: g.replicas.len(),
        })?;
        let mut state = sh.core.state.lock().expect("state poisoned");
        let available = state.array.channel_count();
        let unit = &mut state
            .array
            .sites_mut()
            .get_mut(site)
            .ok_or(RuntimeError::BadChannel {
                channel: site,
                available,
            })?
            .unit;
        match fault {
            Some(f) => unit.inject_fault(f),
            None => unit.clear_fault(),
        }
        Ok(())
    }

    /// `group`'s primary's circuit breakers, in channel order, and how
    /// many of its sites are quarantined: what a storm must leave
    /// healed.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadChannel`] when `group` is out of range.
    pub fn primary_breakers(&self, group: usize) -> Result<(Vec<CircuitBreaker>, usize)> {
        let core = {
            let g = self.group(group)?;
            Arc::clone(&g.replicas[g.primary].core)
        };
        let state = core.state.lock().expect("state poisoned");
        Ok((state.breakers.clone(), state.array.quarantined().len()))
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
        let mut g = self.group(group)?;
        let pidx = g.primary;
        g.replicas[pidx].killed = true;
        // The stop wakes the maintenance thread, which exits once any
        // scan or checkpoint in progress is done. Its handle stays on
        // the replica for `drain` to join: joining here would hold the
        // group's lock, and with it every request routed to the group,
        // through that scan or checkpoint.
        g.replicas[pidx].core.request_stop();
        let epoch = g.promote(group, None)?;
        self.inner.stats.promotions.fetch_add(1, Ordering::SeqCst);
        Ok(epoch)
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
        let mut g = self.group(group)?;
        let pidx = g.primary;
        let epoch = g.promote(group, Some(pidx))?;
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
        let mut g = self.group(group)?;
        let at = self.inner.now_ms();
        Ok(*g.decommissioned_at_ms.get_or_insert(at))
    }

    /// Graceful drain: stop accepting, let every accepted in-flight
    /// request finish and flush, write a final checkpoint per live
    /// replica (which carries its effect log to disk first), then stop
    /// every replica core. Consumes the server.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves room for reporting a
    /// poisoned replica.
    pub fn drain(mut self) -> Result<DrainReport> {
        let in_flight_at_drain = self.inner.in_flight.load(Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        let conn_threads = match self.accept_thread.take() {
            Some(h) => {
                // The accept thread blocks in `accept` and reads the flag
                // after every connection it takes: one connection wakes it.
                let wake = loopback_of(self.addr);
                while !h.is_finished() && TcpStream::connect(wake).is_err() {
                    thread::sleep(Duration::from_millis(2));
                }
                h.join().unwrap_or_default()
            }
            None => Vec::new(),
        };
        for h in conn_threads {
            drop(h.join());
        }
        let mut flushed_seqs = Vec::with_capacity(self.inner.cfg.shards);
        for g in 0..self.inner.groups.len() {
            let mut g = self.inner.group(g);
            let pidx = g.primary;
            let mut seq = None;
            for (r, sh) in g.replicas.iter_mut().enumerate() {
                if !sh.killed {
                    let core = Arc::clone(&sh.core);
                    let mut state = core.state.lock().expect("state poisoned");
                    let now = core.now_ms();
                    let flushed = checkpoint_locked(&core, &mut state, now).ok();
                    if r == pidx {
                        seq = flushed;
                    }
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

/// Builds one replica's core over `array` (recovering from its snapshot
/// directory when `recover` is set), spawns its maintenance thread, and
/// opens its effect log at `shard-G-R/effects.log`. Core and log share
/// one disk, as in the fleet simulation: under a snapshot root a fresh
/// [`WriteBehind`] over [`RealFs`], so the log's appends reach the disk
/// with the core's checkpoints and an unflushed tail dies with the
/// process; without one [`NoDisk`], which keeps the log in memory only.
fn start_replica(
    cfg: &WireServerConfig,
    group: usize,
    replica: usize,
    array: SensorArray,
    field: &Field,
    stats: &Counters,
    recover: bool,
) -> Result<(Arc<Core>, JoinHandle<()>, EffectLog, RecoveryReport)> {
    let mut rc = cfg.runtime.clone();
    rc.seed = cfg.seed
        ^ (group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let shard = PathBuf::from(format!("shard-{group}-{replica}"));
    rc.snapshot_dir = cfg.snapshot_root.as_ref().map(|root| root.join(&shard));
    let (fs, log_path): (Arc<dyn SimFs>, PathBuf) = match &rc.snapshot_dir {
        Some(dir) => (Arc::new(WriteBehind::new(RealFs)), dir.join("effects.log")),
        None => (Arc::new(NoDisk), shard.join("effects.log")),
    };
    let clock = Arc::new(SystemClock::new());
    let (core, report) = build_core(
        array,
        Arc::clone(field),
        rc,
        recover,
        clock as Arc<dyn Clock>,
        Arc::clone(&fs),
        true,
    )?;
    // A core must scan before serving cached data; a restored cache
    // would be silent staleness (`ResurrectedCache`).
    if core.state.lock().expect("state poisoned").cache.is_some() {
        stats.resurrected.fetch_add(1, Ordering::SeqCst);
    }
    let (log, _recovery) = EffectLog::open(fs, &log_path)?;
    let maint_core = Arc::clone(&core);
    let maintenance = thread::Builder::new()
        .name(format!("wire-shard-{group}-{replica}-maint"))
        .spawn(move || maintenance_loop(&maint_core))
        .expect("spawn shard maintenance");
    Ok((core, maintenance, log, report))
}

/// Where [`WireServer::drain`] connects to wake the accept thread: the
/// bound address, an unspecified IP mapped to its family's loopback.
fn loopback_of(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts until drain, spawning one thread per connection; returns
/// the live connections' handles so [`WireServer::drain`] can join
/// them. Blocks in `accept` and reads the drain flag after each return,
/// so a connection taken once the flag is set is dropped unserved.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_idx: u64 = 0;
    loop {
        let accepted = listener.accept();
        if inner.draining.load(Ordering::SeqCst) {
            return conns;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Join finished connections, so an exited thread's stack
                // is unmapped now rather than at drain.
                for done in conns.extract_if(.., |h| h.is_finished()) {
                    drop(done.join());
                }
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
            // Out of descriptors, say: back off before the next accept.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Writes `bytes` completely within `budget`, polling between partial
/// writes. A blocking `write_all` under a per-syscall timeout can be
/// dribbled past any deadline by a peer that drains one byte at a
/// time; this enforces a *whole-response* budget, so a half-open peer
/// (alive socket, nobody reading) costs at most `budget` past the
/// first write that leaves bytes unsent, itself bounded by the
/// socket's [`POLL_MS`] write timeout. The deadline is armed only
/// then: a response the socket takes whole reads no clock.
fn write_with_deadline(
    stream: &mut TcpStream,
    bytes: &[u8],
    budget: Duration,
) -> std::io::Result<()> {
    let mut deadline = None;
    let mut off = 0;
    while off < bytes.len() {
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
        if off < bytes.len() {
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + budget) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "response write blew its deadline",
                ));
            }
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
    let mut dec = Decoder::new(DEFAULT_FRAME_BUDGET);
    let mut buf = [0u8; 4096];
    // Every response of this connection is encoded into this one buffer.
    let mut frame = Vec::new();
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
                    if wire::encode_frame_into(&resp, DEFAULT_FRAME_BUDGET, &mut frame).is_err() {
                        return; // response over budget: preflight prevents this
                    }
                    match write_with_deadline(&mut stream, &frame, write_budget) {
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
fn handle_request(inner: &Inner, msg: FleetMsg) -> FleetMsg {
    match msg {
        FleetMsg::ClientReq { req_id, key } => match InFlightSlot::acquire(inner) {
            Some(_slot) => serve_client_req(inner, req_id, key),
            None => shed(inner, req_id),
        },
        FleetMsg::MapReq { req_id } => match InFlightSlot::acquire(inner) {
            Some(_slot) => serve_map_req(inner, req_id),
            None => shed(inner, req_id),
        },
        // Router-internal and response messages are not served here.
        other => {
            inner.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
            let protocol = WireOutcome::Failed {
                kind: "protocol".into(),
            };
            refusal(inner, other.req_id(), protocol)
        }
    }
}

/// An answer no group produced: no origin shard, no age.
fn refusal(inner: &Inner, req_id: u64, outcome: WireOutcome) -> FleetMsg {
    FleetMsg::ClientResp {
        req_id,
        outcome,
        origin_shard: usize::MAX,
        forwarded_at_ms: inner.now_ms(),
        total_age_ms: 0,
    }
}

/// The typed backpressure answer: retry after the router's base
/// backoff.
fn shed(inner: &Inner, req_id: u64) -> FleetMsg {
    inner.stats.shed.fetch_add(1, Ordering::SeqCst);
    let retry_after_ms = inner.policy.retry.base_delay_ms.max(1);
    refusal(inner, req_id, WireOutcome::Shed { retry_after_ms })
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
    /// The request's first attempt is still converting or replicating
    /// — shed, so the retry finds the answer cached.
    InFlight,
    /// The replica was fenced before the effect could be recorded — a
    /// typed stale-epoch refusal the client retries.
    Fenced,
    /// The group cannot serve (decommissioned, killed, crashed
    /// mid-conversion) — the router fails over.
    Unavailable,
}

/// Routes one read through the ring with backoff-paced failover.
fn serve_client_req(inner: &Inner, req_id: u64, key: u64) -> FleetMsg {
    let mut plan = inner.policy.plan(key, inner.cfg.seed ^ req_id);
    loop {
        let Some(route) = inner.policy.advance(&mut plan, |g| inner.group(g).serves()) else {
            let unservable = WireOutcome::Failed {
                kind: "unservable".into(),
            };
            return refusal(inner, req_id, unservable);
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
            GroupAttempt::InFlight => return shed(inner, req_id),
            // The primary was fenced mid-flight: answer with the typed
            // stale epoch so the client retries — the retry lands on
            // the newly promoted primary.
            GroupAttempt::Fenced => {
                let current = inner.group(route.shard).epoch;
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

/// A conversion a group's primary started for one request.
struct Dispatched {
    core: Arc<Core>,
    /// The replica that started it, and its incarnation then.
    replica: usize,
    incarnation: u64,
    req_id: u64,
    key: u64,
    /// The replica's log already holds the effect: add none.
    read_only: bool,
}

impl Dispatched {
    /// Runs the conversion, outside every group lock.
    fn convert(&self, sites: usize) -> WireOutcome {
        let core = &self.core;
        let channel = (self.key % sites.max(1) as u64) as usize;
        let submitted = core.now_ms();
        let deadline = submitted + core.config.default_deadline_ms;
        let result = supervised_read(core, channel, submitted, deadline);
        wire_outcome(core, deadline, result)
    }
}

/// Runs one request on one group: dispatch to the primary, convert,
/// then settle.
fn try_group(inner: &Inner, g: usize, req_id: u64, key: u64) -> GroupAttempt {
    match dispatch(inner, g, req_id, key) {
        Ok(d) => {
            let outcome = d.convert(inner.cfg.sites_per_shard);
            settle(inner, g, &d, outcome)
        }
        Err(attempt) => attempt,
    }
}

/// Feeds the request to the group's primary under the group's lock. A
/// cached answer is served at once; a conversion to run is handed back.
fn dispatch(
    inner: &Inner,
    g: usize,
    req_id: u64,
    key: u64,
) -> std::result::Result<Dispatched, GroupAttempt> {
    let mut group = inner.group(g);
    if !group.serves() {
        return Err(GroupAttempt::Unavailable);
    }
    let replica = group.primary;
    let mut out = group.lend(0);
    let req = FleetMsg::ShardReq { req_id, key };
    group.replicas[replica].repl.on_frame(ROUTER, req, &mut out);
    let (mut read_only, mut cached) = (None, None);
    for o in out.drain(..) {
        match o {
            Output::Absorbed => {
                inner.stats.deduped.fetch_add(1, Ordering::SeqCst);
            }
            Output::Reply(_, outcome) => cached = Some(outcome),
            Output::Convert { read_only: r, .. } => read_only = Some(r),
            _ => {}
        }
    }
    group.restore(0, out);
    if let Some(outcome) = cached {
        return Err(GroupAttempt::Served(outcome, inner.now_ms()));
    }
    let sh = &group.replicas[replica];
    Ok(Dispatched {
        core: Arc::clone(&sh.core),
        replica,
        incarnation: sh.repl.incarnation(),
        req_id,
        key,
        read_only: read_only.ok_or(GroupAttempt::InFlight)?,
    })
}

/// Feeds a finished conversion back under the group's lock, then drives
/// the primary and delivers every frame until none is left: a write is
/// answered only once every live sibling holds it.
fn settle(inner: &Inner, g: usize, d: &Dispatched, outcome: WireOutcome) -> GroupAttempt {
    let mut group = inner.group(g);
    let retired = group.decommissioned_at_ms.is_some();
    let sh = &mut group.replicas[d.replica];
    if sh.repl.incarnation() != d.incarnation || retired {
        // The conversion died in a crash, or its group was retired:
        // nothing is recorded and the router fails over.
        return GroupAttempt::Unavailable;
    }
    if sh.killed || !sh.repl.is_primary() {
        if !sh.killed {
            // Demoted mid-conversion: the core drops the result, frees
            // the request's dedup slot and answers nothing.
            sh.repl
                .on_converted(d.req_id, d.key, d.read_only, outcome, &mut Vec::new());
        }
        inner.stats.fenced_writes.fetch_add(1, Ordering::SeqCst);
        return GroupAttempt::Fenced;
    }
    let effectful = !d.read_only && matches!(outcome, WireOutcome::Reading { .. });
    if effectful && sh.repl.log().contains_req(d.req_id) {
        inner.stats.duplicate_effects.fetch_add(1, Ordering::SeqCst);
    }
    let mut out = group.lend(0);
    let sh = &mut group.replicas[d.replica];
    sh.repl
        .on_converted(d.req_id, d.key, d.read_only, outcome, &mut out);
    // Stamped under the group's lock: a decommission stamp is strictly
    // ordered against every answer forwarded from this group.
    let now = inner.now_ms();
    let mut answer = None;
    loop {
        let (primary, live) = group.with_siblings(d.replica);
        primary.drive(now, live, &mut out);
        let sent = out.iter().any(|o| matches!(o, Output::Send(..)));
        deliver(
            inner,
            &mut group,
            d.replica,
            &mut out,
            0,
            d.req_id,
            &mut answer,
        );
        if !sent {
            break;
        }
    }
    group.restore(0, out);
    match answer {
        Some(outcome) => GroupAttempt::Served(outcome, now),
        // A live sibling has not acked the write: it stays in flight,
        // and a retry replays it once a later drive completes it.
        None => GroupAttempt::InFlight,
    }
}

/// Drains replica `from`'s outputs, lent at nesting level `depth`,
/// inside its group: each frame goes straight to its addressee's core,
/// whose outputs are delivered in turn one level deeper. The reply to
/// `req_id` lands in `answer`; the graded facts land in the counters.
fn deliver(
    inner: &Inner,
    group: &mut ShardGroup,
    from: usize,
    out: &mut Vec<Output>,
    depth: usize,
    req_id: u64,
    answer: &mut Option<WireOutcome>,
) {
    let c = &inner.stats;
    for o in out.drain(..) {
        match o {
            Output::Send(to, msg) => {
                if matches!(msg, FleetMsg::ReplAck { ok: true, .. }) {
                    c.replicated.fetch_add(1, Ordering::SeqCst);
                }
                if !group.replicas[to].killed {
                    let mut next = group.lend(depth + 1);
                    group.replicas[to].repl.on_frame(from, msg, &mut next);
                    deliver(inner, group, to, &mut next, depth + 1, req_id, answer);
                    group.restore(depth + 1, next);
                }
            }
            Output::Reply(id, outcome) if id == req_id => *answer = Some(outcome),
            Output::Completed { .. } => group.replicas[from].effects += 1,
            Output::Absorbed => {
                c.deduped.fetch_add(1, Ordering::SeqCst);
            }
            Output::Fenced(writes) => {
                c.fenced_writes.fetch_add(writes, Ordering::SeqCst);
            }
            // Nobody waits for another request's reply; conversions
            // start only from a `ShardReq`; and only the unfenced
            // mutant, which this tier never runs, acks a deposed epoch.
            Output::Reply(..) | Output::Convert { .. } | Output::AckedDeposed { .. } => {}
        }
    }
}

/// Assembles the whole-fleet thermal map — the protocol's largest
/// response, and why the frame budget must be sized to the array.
fn serve_map_req(inner: &Inner, req_id: u64) -> FleetMsg {
    let mut entries = Vec::new();
    for group_idx in 0..inner.groups.len() {
        let core = {
            let g = inner.group(group_idx);
            if !g.serves() {
                continue;
            }
            Arc::clone(&g.replicas[g.primary].core)
        };
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
    use crate::snapshot::SnapshotStore;

    #[test]
    fn frame_budget_preflight_is_typed() {
        // The one frame budget carries a map of at most 162 sites.
        assert_eq!(wire::max_response_frame_len(162), 4_084);
        assert_eq!(wire::max_response_frame_len(163), 4_109);
        let fits = WireServerConfig {
            shards: 1,
            replication: 1,
            sites_per_shard: 162,
            ..WireServerConfig::default()
        };
        let server = WireServer::start(fits, None).expect("162 sites fit the budget");
        server.drain().expect("drain");
        // A product too large to count saturates; it must not wrap to
        // a fleet that fits.
        let half = 1 << (usize::BITS / 2);
        for (shards, sites_per_shard, sites) in [
            (1, 163, 163),
            (8, 32, 256),
            (half, half, usize::MAX),
            (usize::MAX, 2, usize::MAX),
        ] {
            let cfg = WireServerConfig {
                shards,
                replication: 1,
                sites_per_shard,
                ..WireServerConfig::default()
            };
            match WireServer::start(cfg, None) {
                Err(RuntimeError::FrameBudget {
                    budget_bytes,
                    required_bytes,
                    total_sites,
                }) => {
                    assert_eq!(budget_bytes, DEFAULT_FRAME_BUDGET);
                    assert_eq!(total_sites, sites);
                    assert_eq!(required_bytes, wire::max_response_frame_len(sites));
                    assert!(required_bytes > budget_bytes);
                }
                Err(other) => {
                    panic!("{shards} x {sites_per_shard}: expected FrameBudget, got {other:?}")
                }
                Ok(_) => panic!("{shards} x {sites_per_shard}: expected FrameBudget, got a server"),
            }
        }
    }

    #[test]
    fn replication_preflight_is_typed() {
        // A group of one accepts any quorum; above one, only the
        // backup count.
        for (replication, ack_quorum, refusal) in [
            (1, 0, None),
            (1, 3, None),
            (2, 1, None),
            (3, 2, None),
            (0, 0, Some("replication factor must be at least 1")),
            (
                3,
                1,
                Some("ack quorum 1 is not the 2 backup(s) of replication 3: a write waits"),
            ),
            (
                3,
                3,
                Some("ack quorum 3 is not the 2 backup(s) of replication 3"),
            ),
            (
                2,
                0,
                Some("ack quorum 0 is not the 1 backup(s) of replication 2"),
            ),
        ] {
            let cfg = WireServerConfig {
                replication,
                ack_quorum,
                ..one_group_cfg(1)
            };
            match (WireServer::start(cfg, None), refusal) {
                (Ok(server), None) => {
                    server.drain().expect("drain");
                }
                (Err(RuntimeError::BadReplication { detail }), Some(says)) => {
                    assert!(detail.starts_with(says), "{detail}");
                }
                (started, _) => panic!("{replication}/{ack_quorum}: {:?}", started.err()),
            }
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
        assert!(matches!(
            server.primary_breakers(9),
            Err(RuntimeError::BadChannel { .. })
        ));
        // Group, replica and site are each checked: 2 groups of 2
        // replicas of 3 sites.
        for (group, replica, site, bad, available) in
            [(9, 0, 0, 9, 2), (0, 5, 0, 5, 2), (0, 1, 7, 7, 3)]
        {
            let struck = server.set_fault(group, replica, site, Some(RingFault::Dead));
            assert!(
                matches!(struck, Err(RuntimeError::BadChannel { channel, available: a })
                    if (channel, a) == (bad, available)),
                "({group}, {replica}, {site}): {struck:?}"
            );
        }
        server.set_fault(1, 1, 2, None).expect("in range");
        let report = server.drain().expect("drain");
        assert_eq!(report.in_flight_at_drain, 0);
    }

    /// The fault each site of `group`'s replica `replica` carries.
    fn faults_of(server: &WireServer, group: usize, replica: usize) -> Vec<Option<RingFault>> {
        let g = server.inner.group(group);
        let state = g.replicas[replica]
            .core
            .state
            .lock()
            .expect("state poisoned");
        state
            .array
            .sites()
            .iter()
            .map(|s| s.unit.active_fault())
            .collect()
    }

    #[test]
    fn a_crash_keeps_the_faults_struck_on_the_silicon() {
        let server = one_group(2);
        let (_, primary, _) = server.group_view(0).expect("view");
        let slow = RingFault::DelayScale { factor: 1.5 };
        server.set_fault(0, primary, 1, Some(slow)).expect("strike");
        server
            .set_fault(0, primary, 2, Some(RingFault::Dead))
            .expect("strike");
        server.set_fault(0, primary, 2, None).expect("clear");
        server.crash_shard(0).expect("crash and recover");
        assert_eq!(server.stats().crashes, 1);
        assert_eq!(faults_of(&server, 0, primary), [None, Some(slow), None]);
        assert_eq!(faults_of(&server, 0, 1 - primary), [None; 3]);
        // A clear names the replica, so it reaches the struck array
        // whatever role the crash's re-election left it in.
        server.set_fault(0, primary, 1, None).expect("clear");
        assert_eq!(faults_of(&server, 0, primary), [None; 3]);
        server.drain().expect("drain");
    }

    fn one_group_cfg(replication: usize) -> WireServerConfig {
        WireServerConfig {
            shards: 1,
            replication,
            ack_quorum: replication - 1,
            sites_per_shard: 3,
            ..WireServerConfig::default()
        }
    }

    fn one_group(replication: usize) -> WireServer {
        WireServer::start(one_group_cfg(replication), None).expect("server starts")
    }

    #[test]
    fn a_restart_over_unequal_logs_repairs_them_before_serving() {
        let root = std::env::temp_dir().join(format!("serve-rejoin-{}", dst::unique_nonce()));
        // A previous run left replica 1's log a record behind replica
        // 0's, as a killed replica's or a torn tail's would be.
        for (replica, req_ids) in [(0, &[7, 8][..]), (1, &[7][..])] {
            let path = root.join(format!("shard-0-{replica}/effects.log"));
            let (mut log, _) = EffectLog::open(Arc::new(RealFs), &path).expect("log opens");
            for &req_id in req_ids {
                log.append(1, req_id, 1).expect("append");
            }
        }
        let cfg = WireServerConfig {
            snapshot_root: Some(root.clone()),
            ..one_group_cfg(2)
        };
        let server = WireServer::start(cfg, None).expect("server starts");
        assert_eq!(server.stats().rejoin_repairs, 1);
        assert_eq!(server.group_view(0).expect("view"), (2, 0, vec![2, 2]));
        // A fresh request reaches both logs; one they hold already is
        // re-served read-only.
        let fresh = try_group(&server.inner, 0, 9, 1);
        assert!(
            matches!(fresh, GroupAttempt::Served(WireOutcome::Reading { .. }, _)),
            "a fresh request is served"
        );
        assert!(matches!(
            try_group(&server.inner, 0, 8, 1),
            GroupAttempt::Served(..)
        ));
        assert_eq!(server.group_view(0).expect("view").2, vec![3, 3]);
        let stats = server.drain().expect("drain").stats;
        assert_eq!((stats.deduped, stats.fenced_writes), (1, 0));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fenced_ex_primary_refuses_the_record_with_a_typed_stale_epoch() {
        let server = one_group(2);
        // Start a conversion on the current primary, then promote a
        // backup *before* the finished conversion is fed back —
        // exactly the race a slow ex-primary loses.
        let Ok(d) = dispatch(&server.inner, 0, 42, 1) else {
            panic!("fresh group must start a conversion");
        };
        let (epoch, _, _) = server.group_view(0).expect("view");
        assert_eq!((epoch, d.replica), (1, 0));
        let new_epoch = server.step_down(0).expect("promotion");
        assert_eq!(new_epoch, 2);
        let reading = WireOutcome::Reading {
            value_c: 61.0,
            fresh: true,
            age_ms: 0,
        };
        let attempt = settle(&server.inner, 0, &d, reading);
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
    fn a_conversion_that_loses_its_group_or_its_role_records_nothing() {
        let reading = || WireOutcome::Reading {
            value_c: 61.0,
            fresh: true,
            age_ms: 0,
        };
        // Decommissioned mid-conversion: the router fails over, and the
        // retired group's logs stay empty.
        let server = one_group(2);
        let Ok(d) = dispatch(&server.inner, 0, 3, 1) else {
            panic!("fresh group must start a conversion");
        };
        server.decommission(0).expect("decommission");
        let attempt = settle(&server.inner, 0, &d, reading());
        assert!(matches!(attempt, GroupAttempt::Unavailable));
        assert_eq!(server.group_view(0).expect("view").2, vec![0, 0]);
        server.drain().expect("drain");

        // Demoted mid-conversion after the new primary served the same
        // request: one effect, fenced, and no duplicate counted.
        let server = one_group(2);
        let Ok(d) = dispatch(&server.inner, 0, 4, 1) else {
            panic!("fresh group must start a conversion");
        };
        server.step_down(0).expect("promotion");
        let served = try_group(&server.inner, 0, 4, 1);
        assert!(matches!(served, GroupAttempt::Served(..)));
        let attempt = settle(&server.inner, 0, &d, reading());
        assert!(matches!(attempt, GroupAttempt::Fenced));
        assert_eq!(server.group_view(0).expect("view").2, vec![1, 1]);
        let stats = server.drain().expect("drain").stats;
        assert_eq!((stats.duplicate_effects, stats.fenced_writes), (0, 1));
    }

    #[test]
    fn kill_primary_promotes_the_longest_log_and_bumps_the_epoch() {
        let server = one_group(3);
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
        // The promoted backup's log already holds the retried
        // request's effect, so it re-serves the request read-only —
        // never a second effect.
        let replay = try_group(&server.inner, 0, 7, 1);
        assert!(matches!(replay, GroupAttempt::Served(..)));
        let stats = server.stats();
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.duplicate_effects, 0);
        server.drain().expect("drain");
    }

    #[test]
    fn checkpoints_stamp_the_epoch_a_promotion_adopts() {
        let root = std::env::temp_dir().join(format!("serve-epoch-{}", dst::unique_nonce()));
        let cfg = WireServerConfig {
            snapshot_root: Some(root.clone()),
            ..one_group_cfg(2)
        };
        let server = WireServer::start(cfg, None).expect("server starts");
        assert_eq!(server.kill_primary(0).expect("promotion"), 2);
        // Drain checkpoints every live replica.
        server.drain().expect("drain");
        let store = SnapshotStore::open(root.join("shard-0-1"), 4).expect("store opens");
        let (snapshot, _) = store.load_latest().expect("drain checkpointed");
        assert_eq!(snapshot.epoch, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_twelve_replica_group_writes_every_log_and_fails_over() {
        // No config bounds the group width: the write waits for all
        // eleven siblings, and the promoted backup's for the ten left.
        let server = one_group(12);
        let fresh = try_group(&server.inner, 0, 1, 1);
        assert!(matches!(
            fresh,
            GroupAttempt::Served(WireOutcome::Reading { .. }, _)
        ));
        assert_eq!(server.group_view(0).expect("view"), (1, 0, vec![1; 12]));
        assert_eq!(server.kill_primary(0).expect("promotion"), 2);
        let again = try_group(&server.inner, 0, 2, 1);
        assert!(matches!(
            again,
            GroupAttempt::Served(WireOutcome::Reading { .. }, _)
        ));
        let mut lens = vec![2; 12];
        lens[0] = 1;
        assert_eq!(server.group_view(0).expect("view"), (2, 1, lens));
        let stats = server.drain().expect("drain").stats;
        assert_eq!((stats.replicated, stats.promotions), (11 + 10, 1));
    }

    #[test]
    fn a_retry_while_the_first_attempt_converts_is_shed_then_replays() {
        let server = one_group(2);
        // The first attempt is mid-conversion when the second arrives.
        let Ok(first) = dispatch(&server.inner, 0, 5, 2) else {
            panic!("fresh group must start a conversion");
        };
        let second = serve_client_req(&server.inner, 5, 2);
        assert!(
            matches!(
                second,
                FleetMsg::ClientResp {
                    outcome: WireOutcome::Shed { .. },
                    ..
                }
            ),
            "{second:?}"
        );
        let outcome = first.convert(3);
        let GroupAttempt::Served(answer, _) = settle(&server.inner, 0, &first, outcome) else {
            panic!("the first attempt is answered");
        };
        assert!(matches!(answer, WireOutcome::Reading { .. }), "{answer:?}");
        // The retry replays the cached answer.
        let FleetMsg::ClientResp {
            outcome: replay, ..
        } = serve_client_req(&server.inner, 5, 2)
        else {
            panic!("a read is answered with a ClientResp");
        };
        assert_eq!(replay, answer);
        let (_, _, lens) = server.group_view(0).expect("view");
        assert_eq!(lens, vec![1, 1], "one log record per replica");
        let stats = server.stats();
        assert_eq!(stats.duplicate_effects, 0);
        assert_eq!((stats.shed, stats.deduped), (1, 2));
        server.drain().expect("drain");
    }

    #[test]
    fn a_server_on_an_unspecified_address_drains_with_no_connection_made() {
        for bind in ["0.0.0.0:0", "[::]:0"] {
            let bind: SocketAddr = bind.parse().expect("literal addr");
            // Skip `[::]` only where the host cannot bind it.
            if bind.is_ipv6() && TcpListener::bind(bind).is_err() {
                continue;
            }
            let server = WireServer::start(one_group_cfg(1), Some(bind)).expect("server starts");
            assert!(server.addr().ip().is_unspecified(), "{}", server.addr());
            let stats = server.drain().expect("drain").stats;
            assert_eq!(stats.connections, 0, "the wake-up is never served");
        }
    }

    #[test]
    fn a_stop_wakes_a_maintenance_thread_a_minute_from_its_next_scan() {
        // With scans a minute apart and no periodic checkpoint, only the
        // stop's notify ends a maintenance thread's wait in time.
        let mut cfg = one_group_cfg(2);
        cfg.runtime.scan_interval_ms = 60_000;
        cfg.runtime.checkpoint_interval_ms = 0;
        let server = WireServer::start(cfg, None).expect("server starts");
        let mut client = crate::client::WireClient::new(crate::client::WireClientConfig {
            addrs: vec![server.addr()],
            ..crate::client::WireClientConfig::default()
        });
        let answer = client.request(1, 1).expect("request answered");
        assert!(
            matches!(answer.outcome, WireOutcome::Reading { .. }),
            "{answer:?}"
        );
        drop(client);
        let bound = Duration::from_secs(5);
        let t = Instant::now();
        server.crash_shard(0).expect("crash and recover");
        assert!(t.elapsed() < bound, "crash_shard took {:?}", t.elapsed());
        let t = Instant::now();
        server.drain().expect("drain");
        assert!(t.elapsed() < bound, "drain took {:?}", t.elapsed());
    }
}

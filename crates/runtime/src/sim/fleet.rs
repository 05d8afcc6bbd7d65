//! Deterministic simulation of a *replicated* fleet: every hash-ring
//! slot is a **shard group** of `replication` replicas — one epoch-
//! fenced primary plus backups — each running the real service core
//! over its own array and disk, with a router node doing consistent-
//! hash routing, failover, and deterministic promotion, and client
//! nodes driving it. Everything exchanges messages over a seeded
//! [`dst::SimNet`] fabric (delay, drop, duplicate, reorder, partition)
//! under per-node clock skew, scheduled by the single-threaded
//! [`dst::Executor`] so every run replays byte-for-byte.
//!
//! The replication machinery is the real one, not a model: each
//! replica appends acknowledged effects to a CRC-checked
//! [`crate::EffectLog`] on its own [`dst::SimDisk`] (append + fsync,
//! torn-tail truncation on recovery), primaries ship
//! [`FleetMsg::Replicate`] frames to every backup and acknowledge a
//! write only once **all live backups** have durably acked
//! ([`FleetMsg::ReplAck`]), and the router promotes by
//! [`FleetMsg::Promote`] with a monotonically increasing epoch —
//! highest replicated log position (epoch-major) wins. A fenced
//! ex-primary learns the new epoch from the first refused ack and
//! abandons its uncommitted tail; a seeded anti-entropy sweep repairs
//! divergent replicas after partitions heal.
//!
//! Fleet-level invariants, checked as responses reach clients, as
//! replicas crash, die, and recover, and at the end-of-run
//! anti-entropy convergence pass:
//!
//! 1. **No silent staleness across shards**
//!    ([`FleetInvariant::StaleServed`]) — the age a client sees is the
//!    shard-reported age *plus* fabric transit, and that honest total
//!    never exceeds the staleness bound (within the documented skew
//!    slack); `Fresh` provenance always means shard-side age 0.
//! 2. **Routing never serves a decommissioned group**
//!    ([`FleetInvariant::RoutedDecommissioned`]) — once an
//!    administrator removes a group from the fleet, no response
//!    originating from it after that instant may reach a client.
//!    The [`FleetMutation::NoDecommissionCheck`] mutation disables the
//!    router's filter and must be caught here.
//! 3. **Recovery never resurrects cache**
//!    ([`FleetInvariant::ResurrectedCache`]) — a crash-recovered
//!    replica must come up with an empty cached median.
//! 4. **At-most-once effect of duplicated requests**
//!    ([`FleetInvariant::DuplicateEffect`]) — the fabric may duplicate
//!    any datagram; a replica absorbs replays within its incarnation
//!    via the dedup window and across restarts/promotions via the
//!    durable effect log.
//! 5. **No acked-effect loss under permanent kill**
//!    ([`FleetInvariant::EffectLost`]) — after a replica is
//!    permanently killed, every effect that was acknowledged to a
//!    client must still exist in at least one live replica's durable
//!    log. This is what "replicate before ack" buys.
//! 6. **No split brain** ([`FleetInvariant::SplitBrain`]) — no write
//!    completes under an epoch older than the group's highest adopted
//!    epoch, and no two replicas complete writes for the same group.
//!    The [`FleetMutation::NoEpochFence`] mutation removes the
//!    backups' epoch check and must be caught here: a partitioned
//!    ex-primary that heals can then drive its stale write to quorum.
//! 7. **Replica convergence after heal**
//!    ([`FleetInvariant::Diverged`]) — after the final anti-entropy
//!    pass, every live replica of a group holds the authoritative log
//!    exactly.
//!
//! A failing seed shrinks with [`super::shrink_failure`]: the whole
//! scenario — link faults, sensor faults, crashes, kills,
//! decommissions — is one [`FleetEvent`] list, so
//! [`dst::shrink_events`] cuts it to a 1-minimal reproducer.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::{cell::RefCell, fmt};

use dst::{
    shrink_events, Clock, Executor, LinkProfile, NetStats, NonceNamespace, SimDisk, SimDiskProfile,
    SimNet, SkewedClock, StepRecord, TaskState, VirtualClock,
};
use faultsim::{Fault, FaultEvent, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensor::RingFault;

use crate::effect_log::{EffectLog, EffectRecord};
use crate::retry::RetryPolicy;
use crate::route::RouterPolicy;
use crate::service::{
    build_core, checkpoint_locked, refresh_cache_locked, wire_outcome, Core, Field, JobStep,
    ReadJob, RuntimeConfig,
};
use crate::snapshot::{SnapshotError, SnapshotStore};
use crate::soak::reference_array;
use wire::{FleetMsg, HashRing, WireOutcome};

use super::{RunReport, SimConfig, Simulation, Violation};

/// A deliberate, known-bad change to the fleet, applied under
/// simulation to prove the fleet invariant sweep catches real
/// distributed-systems bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetMutation {
    /// The fleet as shipped.
    #[default]
    None,
    /// The router ignores decommissioning entirely: it keeps routing
    /// new requests to decommissioned groups and keeps forwarding
    /// their responses. Caught by
    /// [`FleetInvariant::RoutedDecommissioned`].
    NoDecommissionCheck,
    /// Backups skip the epoch comparison when acknowledging
    /// replication frames — the fence that stops a partitioned
    /// ex-primary from driving stale writes to quorum after the
    /// partition heals. Caught by [`FleetInvariant::SplitBrain`].
    NoEpochFence,
}

impl fmt::Display for FleetMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetMutation::None => write!(f, "none"),
            FleetMutation::NoDecommissionCheck => write!(f, "no-decommission-check"),
            FleetMutation::NoEpochFence => write!(f, "no-epoch-fence"),
        }
    }
}

impl FleetMutation {
    /// Parses the CLI spelling (`none`, `no-decommission-check`,
    /// `no-epoch-fence`).
    pub fn parse(s: &str) -> Option<FleetMutation> {
        match s {
            "none" => Some(FleetMutation::None),
            "no-decommission-check" => Some(FleetMutation::NoDecommissionCheck),
            "no-epoch-fence" => Some(FleetMutation::NoEpochFence),
            _ => None,
        }
    }
}

/// Which fleet promise a simulation step broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetInvariant {
    /// A client received a reading whose honest total age (shard age +
    /// fabric transit) exceeded the staleness bound plus skew slack,
    /// or a `Fresh` reading with nonzero shard-side age.
    StaleServed,
    /// A client received a response that the router forwarded from a
    /// group already decommissioned at forward time.
    RoutedDecommissioned,
    /// A crash-recovered replica came up with a non-empty cached
    /// median.
    ResurrectedCache,
    /// One `(replica, incarnation, req_id)` converted more than once —
    /// a duplicated datagram caused a second effect.
    DuplicateEffect,
    /// Replica recovery failed outright (could not rebuild a core or
    /// reopen the effect log).
    RecoveryFailed,
    /// An effect acknowledged to a client is in no live replica's
    /// durable log after a permanent kill.
    EffectLost,
    /// A write completed under an epoch older than the group's highest
    /// adopted epoch, or two distinct replicas completed writes for
    /// the same group request — the epoch fence failed.
    SplitBrain,
    /// After the final anti-entropy pass, a live replica's log still
    /// differs from the group's authoritative log.
    Diverged,
}

impl fmt::Display for FleetInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FleetInvariant::StaleServed => "fleet-stale-served",
            FleetInvariant::RoutedDecommissioned => "routed-decommissioned",
            FleetInvariant::ResurrectedCache => "resurrected-cache",
            FleetInvariant::DuplicateEffect => "duplicate-effect",
            FleetInvariant::RecoveryFailed => "recovery-failed",
            FleetInvariant::EffectLost => "acked-effect-lost",
            FleetInvariant::SplitBrain => "split-brain",
            FleetInvariant::Diverged => "replica-diverged",
        };
        write!(f, "{s}")
    }
}

/// One event of a fleet scenario. The whole scenario — network
/// weather, silicon faults, node death, administration — is a single
/// time-sorted list of these, so the shrinker minimizes everything at
/// once.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A network fault on one group's serving link (`event.channel`
    /// names the group; the fault strikes the group's *current
    /// primary* at fire time — a partition isolates that replica from
    /// the router and from its sibling replicas both).
    Link(FaultEvent),
    /// A behavioral sensor fault inside one group (`event.channel`
    /// names the site; it strikes the current primary's array).
    Sensor {
        /// The group whose serving array is struck.
        shard: usize,
        /// The timed unit fault.
        event: FaultEvent,
    },
    /// Power loss and immediate recovery of one replica: its disk
    /// tears, its inbox dies with it, the core is rebuilt from the
    /// newest valid checkpoint, and the effect log recovers via
    /// torn-tail truncation. The replica restarts as a backup; the
    /// router re-promotes it if it still leads.
    Crash {
        /// Fabric time of the crash, milliseconds.
        at_ms: u64,
        /// The group struck.
        shard: usize,
        /// The replica within the group that dies.
        replica: usize,
    },
    /// Administrative removal of a whole group from the fleet: from
    /// this instant the router must never serve it again.
    Decommission {
        /// Fabric time of the decommission, milliseconds.
        at_ms: u64,
        /// The group removed.
        shard: usize,
    },
    /// Permanent death of one replica: it never recovers, its inbox is
    /// dropped, and its disk is never read again. The group must
    /// survive with no acknowledged effect lost.
    Kill {
        /// Fabric time of the kill, milliseconds.
        at_ms: u64,
        /// The group struck.
        shard: usize,
        /// The replica within the group that dies for good.
        replica: usize,
    },
}

impl FleetEvent {
    /// The fabric time this event fires.
    pub fn at_ms(&self) -> u64 {
        match self {
            FleetEvent::Link(e) => e.at_ms,
            FleetEvent::Sensor { event, .. } => event.at_ms,
            FleetEvent::Crash { at_ms, .. }
            | FleetEvent::Decommission { at_ms, .. }
            | FleetEvent::Kill { at_ms, .. } => *at_ms,
        }
    }
}

impl fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetEvent::Link(e) => write!(
                f,
                "t={} group {} link: {} for {} ms",
                e.at_ms, e.channel, e.fault, e.duration_ms
            ),
            FleetEvent::Sensor { shard, event } => write!(
                f,
                "t={} group {} site {}: {} for {} ms",
                event.at_ms, shard, event.channel, event.fault, event.duration_ms
            ),
            FleetEvent::Crash {
                at_ms,
                shard,
                replica,
            } => {
                write!(
                    f,
                    "t={at_ms} group {shard} replica {replica}: crash + recover"
                )
            }
            FleetEvent::Decommission { at_ms, shard } => {
                write!(f, "t={at_ms} group {shard}: decommission")
            }
            FleetEvent::Kill {
                at_ms,
                shard,
                replica,
            } => {
                write!(
                    f,
                    "t={at_ms} group {shard} replica {replica}: permanent kill"
                )
            }
        }
    }
}

/// Tuning for one simulated fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed: scheduler interleaving, fabric faults, skew draws,
    /// disk tear boundaries, retry jitter.
    pub seed: u64,
    /// Shard groups (hash-ring slots).
    pub shards: usize,
    /// Replicas per group, primary included. 1 disables replication;
    /// the acked-write quorum is every live backup (`replication - 1`
    /// while all are up), matching the `NC1602` rule.
    pub replication: usize,
    /// Sensor sites per replica.
    pub sites_per_shard: usize,
    /// Client nodes issuing requests through the router.
    pub clients: usize,
    /// Upper bound on requests per client (clients also stop at the
    /// horizon).
    pub requests_per_client: usize,
    /// Fabric pause between one client's consecutive requests, ms.
    pub request_interval_ms: u64,
    /// Fabric time at which clients stop issuing, milliseconds.
    pub horizon_ms: u64,
    /// Seeded network fault events drawn over the horizon (ignored
    /// when `events` pins an explicit scenario).
    pub net_faults: usize,
    /// Seeded behavioral sensor fault events across all groups.
    pub sensor_faults: usize,
    /// Seeded replica crash-and-recover events.
    pub crashes: usize,
    /// Seeded group decommission events (capped at `shards - 1` so the
    /// fleet always retains a servable group).
    pub decommissions: usize,
    /// Seeded permanent replica kills (capped so every group keeps at
    /// least one live replica).
    pub kills: usize,
    /// Explicit scenario, overriding every seeded draw above — how a
    /// shrunk reproducer pins its minimal event set.
    pub events: Option<Vec<FleetEvent>>,
    /// Fabric pause between anti-entropy sweeps, ms.
    pub anti_entropy_interval_ms: u64,
    /// Maximum per-replica clock offset from fabric time, ms.
    pub max_skew_ms: u64,
    /// Maximum per-replica drift magnitude, parts per million.
    pub max_drift_ppm: i64,
    /// The uniform junction temperature every replica monitors, °C.
    pub ambient_c: f64,
    /// The known-bad change under test, if any.
    pub mutation: FleetMutation,
    /// Per-replica runtime tuning (threads and queue unused: the
    /// simulation drives the read path directly).
    pub runtime: RuntimeConfig,
    /// Router failover pacing — the *same* [`RetryPolicy`] machinery
    /// the per-unit supervisors and the TCP client tier use, so
    /// simulated and real failover share one backoff policy.
    pub router_retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            shards: 3,
            replication: 2,
            sites_per_shard: 3,
            clients: 2,
            requests_per_client: 12,
            request_interval_ms: 45,
            horizon_ms: 1_600,
            net_faults: 3,
            sensor_faults: 2,
            crashes: 1,
            decommissions: 1,
            kills: 1,
            events: None,
            anti_entropy_interval_ms: 300,
            max_skew_ms: 40,
            max_drift_ppm: 200,
            ambient_c: 85.0,
            mutation: FleetMutation::None,
            runtime: SimConfig::default().runtime,
            router_retry: RetryPolicy::default(),
        }
    }
}

impl FleetConfig {
    /// Tolerance added to the staleness bound when judging ages that
    /// mix replica-local milliseconds with fabric transit: 1 ms of
    /// integer rounding plus the worst drift accumulation over the
    /// run.
    pub fn skew_slack_ms(&self) -> u64 {
        1 + (self.horizon_ms * self.max_drift_ppm.unsigned_abs()) / 1_000_000
    }

    /// How long the router waits for a primary before promoting a
    /// backup — the failover detection window the `NC1601` rule
    /// measures the staleness bound against.
    pub fn failover_timeout_ms(&self) -> u64 {
        self.runtime.default_deadline_ms + 150
    }

    /// How long a client waits for the router before giving up: worst
    /// case, an in-group promotion round plus every allowed
    /// cross-group failover attempt times out and every backoff rung
    /// is fully jittered.
    fn client_timeout_ms(&self) -> u64 {
        let attempts =
            u64::from(self.router_retry.max_attempts.max(1)).min(self.shards.max(1) as u64);
        self.failover_timeout_ms() * (attempts + 1)
            + self.router_retry.worst_case_backoff_ms()
            + 300
    }

    /// Fabric time at which the run stops stepping (clients may still
    /// be draining timeouts after the horizon, and the final
    /// anti-entropy convergence pass runs at the very end).
    fn end_ms(&self) -> u64 {
        self.horizon_ms + self.client_timeout_ms() + 500
    }
}

/// What one simulated fleet run did and found.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// The mutation that was active.
    pub mutation: FleetMutation,
    /// The first invariant violation, if any (the run stops there).
    pub violation: Option<Violation<FleetInvariant>>,
    /// The full replayable schedule.
    pub trace: Vec<StepRecord>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Client requests issued.
    pub requests: u64,
    /// Readings delivered to clients with `Fresh` provenance.
    pub served_fresh: u64,
    /// Readings delivered to clients with degraded provenance.
    pub served_degraded: u64,
    /// Typed error responses delivered to clients.
    pub client_errors: u64,
    /// Requests clients gave up on (no response inside the timeout).
    pub client_timeouts: u64,
    /// Router retries onto another group (timeout or rejected
    /// response).
    pub failovers: u64,
    /// In-group promotions the router performed (epoch bumps).
    pub promotions: u64,
    /// Writes a fenced ex-primary abandoned after a refused
    /// replication ack taught it a newer epoch.
    pub fenced_writes: u64,
    /// Effects acknowledged to clients after full backup replication.
    pub acked_effects: u64,
    /// Divergent replica logs the anti-entropy sweeps repaired.
    pub anti_entropy_repairs: u64,
    /// Shard responses the router discarded as too old to serve
    /// honestly (the healed-partition hazard, handled).
    pub stale_discarded: u64,
    /// Responses the router refused to forward because the origin
    /// group was decommissioned (race between request and removal).
    pub decommissioned_discarded: u64,
    /// Duplicated datagrams replicas absorbed via the dedup window or
    /// the durable effect log.
    pub duplicates_absorbed: u64,
    /// Replica crash-and-recover cycles.
    pub crashes: u64,
    /// Recoveries that restored a checkpoint (vs fresh starts).
    pub recovered_with_snapshot: u64,
    /// Decommission events applied.
    pub decommissions: u64,
    /// Permanent replica kills applied.
    pub kills: u64,
    /// Fabric counters at the end of the run.
    pub net: NetStats,
}

// ---------------------------------------------------------------------
// Scenario resolution
// ---------------------------------------------------------------------

/// The scenario a config resolves to: explicit events if pinned,
/// otherwise the seeded draws, merged into one time-sorted list.
pub fn resolve_fleet_events(cfg: &FleetConfig) -> Vec<FleetEvent> {
    if let Some(evs) = &cfg.events {
        let mut evs = evs.clone();
        evs.sort_by_key(FleetEvent::at_ms);
        return evs;
    }
    let replication = cfg.replication.max(1);
    let mut events = Vec::new();
    if cfg.net_faults > 0 && cfg.shards > 0 {
        for e in FaultSchedule::seeded_net_faults(
            cfg.seed ^ 0x004E_4554,
            cfg.net_faults,
            cfg.horizon_ms,
            cfg.shards,
        )
        .events()
        {
            events.push(FleetEvent::Link(e.clone()));
        }
    }
    if cfg.sensor_faults > 0 && cfg.shards * cfg.sites_per_shard > 0 {
        for e in FaultSchedule::seeded_unit_faults(
            cfg.seed ^ 0x5345_4E53,
            cfg.sensor_faults,
            cfg.horizon_ms,
            cfg.shards * cfg.sites_per_shard,
        )
        .events()
        {
            let shard = e.channel / cfg.sites_per_shard;
            let mut event = e.clone();
            event.channel %= cfg.sites_per_shard;
            events.push(FleetEvent::Sensor { shard, event });
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0046_4C45_4554);
    let horizon = cfg.horizon_ms.max(4);
    for _ in 0..cfg.crashes {
        events.push(FleetEvent::Crash {
            at_ms: horizon / 4 + rng.random_range(0..horizon / 2),
            shard: rng.random_range(0..cfg.shards.max(1) as u64) as usize,
            replica: rng.random_range(0..replication as u64) as usize,
        });
    }
    let decommissions = cfg.decommissions.min(cfg.shards.saturating_sub(1));
    let mut removed = Vec::new();
    for _ in 0..decommissions {
        let mut shard = rng.random_range(0..cfg.shards.max(1) as u64) as usize;
        // Never remove the whole fleet: re-draw onto a survivor.
        while removed.contains(&shard) {
            shard = (shard + 1) % cfg.shards.max(1);
        }
        removed.push(shard);
        events.push(FleetEvent::Decommission {
            at_ms: horizon / 5 + rng.random_range(0..horizon / 2),
            shard,
        });
    }
    // Permanent kills: seeded, but never enough to extinguish a group
    // — every group keeps at least one live replica, so the
    // EffectLost obligation is always dischargeable.
    let mut killed_per_group: BTreeMap<usize, usize> = BTreeMap::new();
    let mut kill_rng = StdRng::seed_from_u64(cfg.seed ^ 0x4B49_4C4C);
    for _ in 0..cfg.kills {
        let shard = kill_rng.random_range(0..cfg.shards.max(1) as u64) as usize;
        let replica = kill_rng.random_range(0..replication as u64) as usize;
        let in_group = killed_per_group.entry(shard).or_insert(0);
        if *in_group + 1 >= replication {
            continue; // would extinguish the group: skip this draw
        }
        *in_group += 1;
        events.push(FleetEvent::Kill {
            at_ms: horizon / 3 + kill_rng.random_range(0..horizon / 2),
            shard,
            replica,
        });
    }
    events.sort_by_key(FleetEvent::at_ms);
    events
}

// ---------------------------------------------------------------------
// The simulation
// ---------------------------------------------------------------------

struct ReplicaNode {
    core: Arc<Core>,
    disk: Arc<SimDisk>,
    clock: Arc<SkewedClock>,
    namespace: Arc<NonceNamespace>,
    /// This replica's durable effect log (its own disk, its own file).
    log: EffectLog,
    /// The group epoch this replica has adopted. Only ever raised
    /// (fetch-max), so a stale `Promote` can never roll the fence
    /// back; restored from snapshot + log on crash recovery.
    held_epoch: u64,
    /// Whether this replica currently believes it leads the group.
    /// Only a `Promote` naming it grants this; a crash clears it.
    is_primary: bool,
    incarnation: u64,
    /// Dedup window for this incarnation: `req_id` → `None` while in
    /// flight, `Some(outcome)` once answered (replays re-send it).
    seen: BTreeMap<u64, Option<WireOutcome>>,
    /// Active sensor faults `(clears_at_ms, site, fault)` — they live
    /// in the silicon and survive crashes.
    active_faults: Vec<(u64, usize, RingFault)>,
    /// Currently isolated from the router and its siblings.
    partitioned: bool,
    /// Permanently dead: never recovers, never polls again.
    killed: bool,
}

struct GroupState {
    /// The replica index the router currently treats as primary.
    primary: usize,
    /// Highest epoch the router ever assigned this group — the
    /// router is the sole epoch authority, so this is also the
    /// group-wide maximum the split-brain invariant compares against.
    epoch: u64,
    decommissioned_at: Option<u64>,
}

struct FleetWorld {
    net: SimNet<FleetMsg>,
    /// All replicas, indexed by node id `group * replication + r`.
    replicas: Vec<ReplicaNode>,
    groups: Vec<GroupState>,
    replication: usize,
    /// Effect ledger: `(node, incarnation, req_id)` → conversions
    /// started. More than one is a `DuplicateEffect` violation.
    effects: BTreeMap<(usize, u64, u64), u32>,
    /// Effects acknowledged to clients: `(group, req_id)` → log
    /// position — the obligation `EffectLost` discharges against
    /// live replica logs.
    acked: BTreeMap<(usize, u64), u64>,
    /// Which replica completed `(group, req_id)` — a second completion
    /// by a different replica is split brain.
    completed: BTreeMap<(usize, u64), usize>,
    violation: Option<Violation<FleetInvariant>>,
    requests: u64,
    served_fresh: u64,
    served_degraded: u64,
    client_errors: u64,
    client_timeouts: u64,
    failovers: u64,
    promotions: u64,
    fenced_writes: u64,
    anti_entropy_repairs: u64,
    stale_discarded: u64,
    decommissioned_discarded: u64,
    duplicates_absorbed: u64,
    crashes: u64,
    recovered_with_snapshot: u64,
    decommissions: u64,
    kills: u64,
}

impl FleetWorld {
    fn flag(&mut self, invariant: FleetInvariant, at_ms: u64, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                invariant,
                at_ms,
                step: 0,             // pinned by the per-step check
                task: String::new(), // pinned by the per-step check
                detail,
            });
        }
    }

    fn node(&self, group: usize, replica: usize) -> usize {
        group * self.replication + replica
    }

    fn group_of(&self, node: usize) -> usize {
        node / self.replication
    }

    fn primary_node(&self, group: usize) -> usize {
        self.node(group, self.groups[group].primary)
    }

    fn decommissioned(&self, group: usize) -> bool {
        self.groups
            .get(group)
            .is_some_and(|g| g.decommissioned_at.is_some())
    }

    fn group_has_live(&self, group: usize) -> bool {
        (0..self.replication).any(|r| !self.replicas[self.node(group, r)].killed)
    }

    /// Deterministic promotion: among live, reachable replicas of
    /// `group`, the highest `(last record epoch, log length)` wins,
    /// lowest replica index breaking ties — so a healed ex-primary's
    /// uncommitted tail can never outrank a backup that holds
    /// later-epoch acked effects.
    fn elect(&self, group: usize) -> Option<usize> {
        let mut winner: Option<(u64, u64, usize)> = None;
        for r in 0..self.replication {
            let node = &self.replicas[self.node(group, r)];
            if node.killed || node.partitioned {
                continue;
            }
            let key = (node.log.last_epoch(), node.log.len());
            if winner.is_none_or(|(e, l, _)| key > (e, l)) {
                winner = Some((key.0, key.1, r));
            }
        }
        winner.map(|(_, _, r)| r)
    }
}

fn shard_runtime_config(cfg: &FleetConfig, group: usize, replica: usize) -> RuntimeConfig {
    let mut rc = cfg.runtime.clone();
    let node = (group * cfg.replication.max(1) + replica) as u64;
    rc.seed = cfg.seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rc.snapshot_dir = Some(PathBuf::from(format!(
        "/fleet/shard-{group}-{replica}/snaps"
    )));
    rc
}

fn effect_log_path(group: usize, replica: usize) -> PathBuf {
    PathBuf::from(format!("/fleet/shard-{group}-{replica}/effects.log"))
}

fn build_replica(
    cfg: &FleetConfig,
    group: usize,
    replica: usize,
    base: &Arc<VirtualClock>,
    field: &Field,
    skew_rng: &mut StdRng,
) -> ReplicaNode {
    let offset = if cfg.max_skew_ms > 0 {
        skew_rng.random_range(0..cfg.max_skew_ms + 1)
    } else {
        0
    };
    let drift = if cfg.max_drift_ppm > 0 {
        skew_rng.random_range(0..(2 * cfg.max_drift_ppm + 1) as u64) as i64 - cfg.max_drift_ppm
    } else {
        0
    };
    let node = group * cfg.replication.max(1) + replica;
    let clock = Arc::new(SkewedClock::new(Arc::clone(base), offset, drift));
    let disk = Arc::new(SimDisk::new(
        cfg.seed ^ (0xD15C_0000 + node as u64),
        SimDiskProfile::default(),
    ));
    let namespace = Arc::new(NonceNamespace::new(node as u64));
    let (core, _report) = build_core(
        reference_array(cfg.sites_per_shard),
        Arc::clone(field),
        shard_runtime_config(cfg, group, replica),
        None,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&disk) as Arc<dyn dst::SimFs>,
        true,
    )
    .expect("simulated replica must start");
    {
        let mut state = core.state.lock().expect("state poisoned");
        if let Some(store) = state.store.as_mut() {
            store.set_namespace(Arc::clone(&namespace));
        }
    }
    let (log, _recovery) = EffectLog::open(
        Arc::clone(&disk) as Arc<dyn dst::SimFs>,
        &effect_log_path(group, replica),
    )
    .expect("fresh effect log must open");
    ReplicaNode {
        core,
        disk,
        clock,
        namespace,
        log,
        held_epoch: 0,
        is_primary: replica == 0,
        incarnation: 0,
        seen: BTreeMap::new(),
        active_faults: Vec::new(),
        partitioned: false,
        killed: false,
    }
}

/// Crash-and-recover one replica in place: disk tears, inbox dies,
/// the core is rebuilt from the newest valid checkpoint, and the
/// effect log reopens through torn-tail truncation. The replica
/// restarts as a *backup* holding the highest epoch its durable state
/// proves (snapshot epoch vs last log record epoch) — the router
/// re-promotes it if it still leads. Flags
/// [`FleetInvariant::ResurrectedCache`] / `RecoveryFailed` exactly as
/// the single-node simulation does.
fn crash_replica(
    w: &mut FleetWorld,
    cfg: &FleetConfig,
    group: usize,
    replica: usize,
    field: &Field,
    now: u64,
) {
    let node_idx = w.node(group, replica);
    if w.replicas[node_idx].killed {
        return;
    }
    w.net.drop_pending_for(node_idx);
    w.crashes += 1;
    w.replicas[node_idx].disk.crash();
    let disk = Arc::clone(&w.replicas[node_idx].disk);
    let clock = Arc::clone(&w.replicas[node_idx].clock);
    let namespace = Arc::clone(&w.replicas[node_idx].namespace);
    let active_faults = w.replicas[node_idx].active_faults.clone();
    let runtime_cfg = shard_runtime_config(cfg, group, replica);
    let snap = runtime_cfg.snapshot_dir.as_ref().and_then(|dir| {
        let store = SnapshotStore::open_on(
            Arc::clone(&disk) as Arc<dyn dst::SimFs>,
            dir,
            runtime_cfg.snapshot_keep,
        )
        .ok()?;
        match store.load_latest() {
            Ok((snap, log)) => Some((snap, log.skipped)),
            Err(SnapshotError::NoValidSnapshot { .. }) => None,
            Err(_) => None,
        }
    });
    let had_snapshot = snap.is_some();
    let log = match EffectLog::open(
        Arc::clone(&disk) as Arc<dyn dst::SimFs>,
        &effect_log_path(group, replica),
    ) {
        Ok((log, _recovery)) => log,
        Err(e) => {
            w.flag(
                FleetInvariant::RecoveryFailed,
                now,
                format!("group {group} replica {replica} effect log: {e}"),
            );
            return;
        }
    };
    match build_core(
        reference_array(cfg.sites_per_shard),
        Arc::clone(field),
        runtime_cfg,
        snap,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&disk) as Arc<dyn dst::SimFs>,
        true,
    ) {
        Ok((core, rec)) => {
            let resurrected = {
                let mut state = core.state.lock().expect("state poisoned");
                if state.cache.is_some() {
                    true
                } else {
                    // Faults live in the silicon, not the process.
                    for (_, site, rf) in &active_faults {
                        if let Some(s) = state.array.sites_mut().get_mut(*site) {
                            s.unit.inject_fault(*rf);
                        }
                    }
                    if let Some(store) = state.store.as_mut() {
                        store.set_namespace(namespace);
                    }
                    false
                }
            };
            if resurrected {
                w.flag(
                    FleetInvariant::ResurrectedCache,
                    now,
                    format!("group {group} replica {replica} recovered with a cached median"),
                );
            }
            let held_epoch = rec.recovered_epoch.max(log.last_epoch());
            let node = &mut w.replicas[node_idx];
            node.core = core;
            node.log = log;
            node.held_epoch = node.held_epoch.max(held_epoch);
            node.is_primary = false;
            node.incarnation += 1;
            node.seen.clear();
            if had_snapshot {
                w.recovered_with_snapshot += 1;
            }
        }
        Err(e) => {
            w.flag(
                FleetInvariant::RecoveryFailed,
                now,
                format!("group {group} replica {replica}: {e}"),
            );
        }
    }
}

struct Pending {
    client_node: usize,
    key: u64,
    /// The group currently serving this request.
    group: usize,
    /// The replica node the live dispatch went to.
    sent_to_node: usize,
    sent_at_ms: u64,
    /// `Some(t)`: a failover dispatch is waiting out its backoff rung
    /// and goes on the wire at fabric time `t`.
    dispatch_at: Option<u64>,
    /// Whether this request already drove an in-group promotion (one
    /// per group visit; the next timeout fails over across groups).
    promoted: bool,
    plan: crate::route::RoutePlan,
}

/// A primary's in-flight replication of one acknowledged-to-be effect:
/// the outcome is held back until every live backup has durably acked.
struct Replicating {
    outcome: WireOutcome,
    rec: EffectRecord,
    acks: BTreeSet<usize>,
    next_retx: u64,
    incarnation: u64,
}

/// Runs one seeded fleet simulation to completion (or to its first
/// invariant violation) and reports what happened. Pure: the same
/// config always returns the same report, trace included.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let groups = cfg.shards.max(1);
    let replication = cfg.replication.max(1);
    let router_node = groups * replication;
    let client_node = |k: usize| groups * replication + 1 + k;
    let nodes = groups * replication + 1 + cfg.clients;

    let base = Arc::new(VirtualClock::new());
    let ambient = cfg.ambient_c;
    let field: Field = Arc::new(move |_, _| ambient);
    let mut skew_rng = StdRng::seed_from_u64(cfg.seed ^ 0x534B_4557);

    let mut replicas = Vec::with_capacity(groups * replication);
    for g in 0..groups {
        for r in 0..replication {
            replicas.push(build_replica(cfg, g, r, &base, &field, &mut skew_rng));
        }
    }
    let group_states = (0..groups)
        .map(|_| GroupState {
            primary: 0,
            epoch: 0,
            decommissioned_at: None,
        })
        .collect();

    let world = Rc::new(RefCell::new(FleetWorld {
        net: SimNet::new(cfg.seed, nodes, LinkProfile::flaky()),
        replicas,
        groups: group_states,
        replication,
        effects: BTreeMap::new(),
        acked: BTreeMap::new(),
        completed: BTreeMap::new(),
        violation: None,
        requests: 0,
        served_fresh: 0,
        served_degraded: 0,
        client_errors: 0,
        client_timeouts: 0,
        failovers: 0,
        promotions: 0,
        fenced_writes: 0,
        anti_entropy_repairs: 0,
        stale_discarded: 0,
        decommissioned_discarded: 0,
        duplicates_absorbed: 0,
        crashes: 0,
        recovered_with_snapshot: 0,
        decommissions: 0,
        kills: 0,
    }));

    let mut ex = Executor::new(cfg.seed, Arc::clone(&base));
    let horizon = cfg.horizon_ms;
    let end = cfg.end_ms();
    let slack = cfg.skew_slack_ms();
    let bound = cfg.runtime.staleness_bound_ms;
    let mutation = cfg.mutation;
    let shard_timeout = cfg.failover_timeout_ms();
    let client_timeout = cfg.client_timeout_ms();

    // ----- Router: routing, failover, and epoch-fenced promotion -----
    {
        let world = Rc::clone(&world);
        let policy = RouterPolicy::new(HashRing::new(groups, 8), cfg.router_retry.clone());
        let seed = cfg.seed;
        let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
        ex.spawn("router", 0, move |now| {
            let mut w = world.borrow_mut();
            // Drain every deliverable message.
            while let Some(env) = w.net.poll(router_node, now) {
                match env.payload {
                    FleetMsg::ClientReq { req_id, key } => {
                        let eligible = |g: usize| {
                            (mutation == FleetMutation::NoDecommissionCheck || !w.decommissioned(g))
                                && w.group_has_live(g)
                        };
                        let mut plan = policy.plan(key, seed ^ req_id);
                        match policy.advance(&mut plan, eligible) {
                            Some(route) => {
                                let group = route.shard;
                                let target = w.primary_node(group);
                                w.net.send(
                                    now,
                                    router_node,
                                    target,
                                    FleetMsg::ShardReq { req_id, key },
                                );
                                pending.insert(
                                    req_id,
                                    Pending {
                                        client_node: env.src,
                                        key,
                                        group,
                                        sent_to_node: target,
                                        sent_at_ms: now,
                                        dispatch_at: None,
                                        promoted: false,
                                        plan,
                                    },
                                );
                            }
                            None => {
                                w.net.send(
                                    now,
                                    router_node,
                                    env.src,
                                    FleetMsg::ClientResp {
                                        req_id,
                                        outcome: WireOutcome::Failed {
                                            kind: "no-shard".into(),
                                        },
                                        origin_shard: usize::MAX,
                                        forwarded_at_ms: now,
                                        total_age_ms: 0,
                                    },
                                );
                            }
                        }
                    }
                    FleetMsg::ShardResp { req_id, outcome } => {
                        let Some(p) = pending.get(&req_id) else {
                            continue; // answered or abandoned: a late or duplicated reply
                        };
                        if env.src != p.sent_to_node || p.dispatch_at.is_some() {
                            continue; // reply from a replica we already moved on from
                        }
                        let origin_group = w.group_of(env.src);
                        // The dispatched replica does not believe it
                        // leads — it crashed and recovered, or never
                        // heard its promotion. Run a real election
                        // rather than rubber-stamping the old view: a
                        // recovered primary may have lost log suffix to
                        // bit rot, and re-instating it blindly would
                        // anoint a replica that is behind its backups.
                        if matches!(&outcome, WireOutcome::Failed { kind } if kind == "not-primary")
                        {
                            let g = p.group;
                            if let Some(winner) = w.elect(g) {
                                let epoch = w.groups[g].epoch + 1;
                                w.groups[g].epoch = epoch;
                                w.groups[g].primary = winner;
                                w.promotions += 1;
                                for r in 0..w.replication {
                                    let n = w.node(g, r);
                                    if !w.replicas[n].killed {
                                        w.net.send(
                                            now,
                                            router_node,
                                            n,
                                            FleetMsg::Promote {
                                                req_id,
                                                group: g as u32,
                                                epoch,
                                                primary: winner as u32,
                                            },
                                        );
                                    }
                                }
                            }
                            let p = pending.get_mut(&req_id).expect("present above");
                            p.dispatch_at = Some(now + 5);
                            continue;
                        }
                        // A fenced ex-primary's typed refusal: it is no
                        // longer this request's target (the guard above
                        // filters stale sources), so reaching here means
                        // the view moved underneath us — re-dispatch.
                        if matches!(&outcome, WireOutcome::Failed { kind } if kind == "stale-epoch")
                        {
                            let p = pending.get_mut(&req_id).expect("present above");
                            p.dispatch_at = Some(now + 5);
                            continue;
                        }
                        let transit = now.saturating_sub(env.sent_at_ms);
                        let total_age = match &outcome {
                            WireOutcome::Reading { age_ms, .. } => age_ms + transit,
                            WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => 0,
                        };
                        let from_decommissioned = mutation != FleetMutation::NoDecommissionCheck
                            && w.decommissioned(origin_group);
                        let too_old = matches!(outcome, WireOutcome::Reading { .. })
                            && total_age > bound + slack;
                        if from_decommissioned || too_old {
                            // Unservable: discard and fail over.
                            if too_old {
                                w.stale_discarded += 1;
                            } else {
                                w.decommissioned_discarded += 1;
                            }
                            let eligible = |g: usize| {
                                (mutation == FleetMutation::NoDecommissionCheck
                                    || !w.decommissioned(g))
                                    && w.group_has_live(g)
                            };
                            let p = pending.get_mut(&req_id).expect("present above");
                            let client = p.client_node;
                            match policy.advance(&mut p.plan, eligible) {
                                Some(route) => {
                                    w.failovers += 1;
                                    p.group = route.shard;
                                    p.promoted = false;
                                    p.dispatch_at = Some(now + route.backoff_ms);
                                }
                                None => {
                                    pending.remove(&req_id);
                                    w.net.send(
                                        now,
                                        router_node,
                                        client,
                                        FleetMsg::ClientResp {
                                            req_id,
                                            outcome: WireOutcome::Failed {
                                                kind: "unservable".into(),
                                            },
                                            origin_shard: origin_group,
                                            forwarded_at_ms: now,
                                            total_age_ms: total_age,
                                        },
                                    );
                                }
                            }
                            continue;
                        }
                        let p = pending.remove(&req_id).expect("present above");
                        w.net.send(
                            now,
                            router_node,
                            p.client_node,
                            FleetMsg::ClientResp {
                                req_id,
                                outcome,
                                origin_shard: origin_group,
                                forwarded_at_ms: now,
                                total_age_ms: total_age,
                            },
                        );
                    }
                    _ => {}
                }
            }
            // Handle timed-out dispatches: first try an in-group
            // promotion (deterministic: highest replicated log
            // position, epoch-major, wins), then cross-group failover.
            let timed_out: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| {
                    p.dispatch_at.is_none() && now.saturating_sub(p.sent_at_ms) >= shard_timeout
                })
                .map(|(id, _)| *id)
                .collect();
            for req_id in timed_out {
                let (group, sent_to, already_promoted) = {
                    let p = pending.get(&req_id).expect("still pending");
                    (p.group, p.sent_to_node, p.promoted)
                };
                let current_primary = w.primary_node(group);
                if current_primary != sent_to {
                    // Another request already promoted past this
                    // target: just re-dispatch to the new primary.
                    let p = pending.get_mut(&req_id).expect("still pending");
                    p.dispatch_at = Some(now + 5);
                    continue;
                }
                if !already_promoted {
                    if let Some(winner) = w.elect(group) {
                        let epoch = w.groups[group].epoch + 1;
                        w.groups[group].epoch = epoch;
                        w.groups[group].primary = winner;
                        w.promotions += 1;
                        for r in 0..w.replication {
                            let n = w.node(group, r);
                            if !w.replicas[n].killed {
                                w.net.send(
                                    now,
                                    router_node,
                                    n,
                                    FleetMsg::Promote {
                                        req_id,
                                        group: group as u32,
                                        epoch,
                                        primary: winner as u32,
                                    },
                                );
                            }
                        }
                        let p = pending.get_mut(&req_id).expect("still pending");
                        p.promoted = true;
                        p.dispatch_at = Some(now + 5);
                        continue;
                    }
                }
                // No candidate (all killed or partitioned) or the
                // promotion already burned: fail over across groups.
                let eligible = |g: usize| {
                    (mutation == FleetMutation::NoDecommissionCheck || !w.decommissioned(g))
                        && w.group_has_live(g)
                };
                let p = pending.get_mut(&req_id).expect("still pending");
                let client = p.client_node;
                match policy.advance(&mut p.plan, eligible) {
                    Some(route) => {
                        w.failovers += 1;
                        p.group = route.shard;
                        p.promoted = false;
                        p.dispatch_at = Some(now + route.backoff_ms);
                    }
                    None => {
                        pending.remove(&req_id);
                        w.net.send(
                            now,
                            router_node,
                            client,
                            FleetMsg::ClientResp {
                                req_id,
                                outcome: WireOutcome::Failed {
                                    kind: "timeout".into(),
                                },
                                origin_shard: usize::MAX,
                                forwarded_at_ms: now,
                                total_age_ms: 0,
                            },
                        );
                    }
                }
            }
            // Put due failover dispatches on the wire — always at the
            // group's *current* primary, which may have moved while
            // the backoff rung elapsed.
            for (req_id, p) in pending.iter_mut() {
                if p.dispatch_at.is_some_and(|t| t <= now) {
                    p.dispatch_at = None;
                    p.sent_at_ms = now;
                    p.sent_to_node = w.primary_node(p.group);
                    let target = p.sent_to_node;
                    w.net.send(
                        now,
                        router_node,
                        target,
                        FleetMsg::ShardReq {
                            req_id: *req_id,
                            key: p.key,
                        },
                    );
                }
            }
            if now >= end {
                return TaskState::Done;
            }
            let next_deadline = pending
                .values()
                .map(|p| match p.dispatch_at {
                    Some(t) => t,
                    None => p.sent_at_ms + shard_timeout,
                })
                .min()
                .unwrap_or(u64::MAX);
            let next_msg = w.net.next_wake(router_node).unwrap_or(u64::MAX);
            let wake = next_deadline.min(next_msg).min(now + 25).max(now + 1);
            TaskState::SleepUntil(wake)
        });
    }

    // ----- Replicas: request service, replication, fencing, plus
    // per-replica maintenance -----
    for g in 0..groups {
        for r in 0..replication {
            let me = g * replication + r;
            let world_s = Rc::clone(&world);
            // In-flight conversions:
            // (req_id, key, job, deadline_abs, incarnation, read_only).
            let mut jobs: Vec<(u64, u64, ReadJob, u64, u64, bool)> = Vec::new();
            // In-flight replications, while this replica is primary.
            let mut repl: BTreeMap<u64, Replicating> = BTreeMap::new();
            let sites = cfg.sites_per_shard.max(1);
            ex.spawn(format!("shard-{g}-{r}"), 2 + me as u64, move |now| {
                let mut w = world_s.borrow_mut();
                if w.replicas[me].killed {
                    return TaskState::Done;
                }
                let incarnation = w.replicas[me].incarnation;
                // State from a previous incarnation died with the process.
                jobs.retain(|(_, _, _, _, inc, _)| *inc == incarnation);
                repl.retain(|_, e| e.incarnation == incarnation);
                while let Some(env) = w.net.poll(me, now) {
                    match env.payload {
                        FleetMsg::ShardReq { req_id, key } => {
                            if !w.replicas[me].is_primary {
                                // Not (or no longer) the leader; the
                                // router re-promotes on this refusal.
                                w.net.send(
                                    now,
                                    me,
                                    router_node,
                                    FleetMsg::ShardResp {
                                        req_id,
                                        outcome: WireOutcome::Failed {
                                            kind: "not-primary".into(),
                                        },
                                    },
                                );
                                continue;
                            }
                            match w.replicas[me].seen.get(&req_id) {
                                Some(Some(cached)) => {
                                    // A replayed datagram for an answered
                                    // request: absorb it by re-sending the
                                    // cached reply — no second effect.
                                    let cached = cached.clone();
                                    w.duplicates_absorbed += 1;
                                    w.net.send(
                                        now,
                                        me,
                                        router_node,
                                        FleetMsg::ShardResp {
                                            req_id,
                                            outcome: cached,
                                        },
                                    );
                                }
                                Some(None) => {
                                    // Already converting or replicating:
                                    // drop the duplicate.
                                    w.duplicates_absorbed += 1;
                                }
                                None => {
                                    // The durable log dedups across
                                    // restarts and promotions: an effect
                                    // already replicated to this log must
                                    // not happen twice, so the re-serve
                                    // is read-only.
                                    let read_only = w.replicas[me].log.contains_req(req_id);
                                    if read_only {
                                        w.duplicates_absorbed += 1;
                                    } else {
                                        let effects =
                                            w.effects.entry((me, incarnation, req_id)).or_insert(0);
                                        *effects += 1;
                                        if *effects > 1 {
                                            let count = *effects;
                                            w.flag(
                                                FleetInvariant::DuplicateEffect,
                                                now,
                                                format!("group {g} replica {r} converted req {req_id} {count} times in incarnation {incarnation}"),
                                            );
                                        }
                                    }
                                    w.replicas[me].seen.insert(req_id, None);
                                    let core = Arc::clone(&w.replicas[me].core);
                                    let channel = (key as usize) % sites;
                                    let submitted = core.now_ms();
                                    let deadline_abs = submitted + core.config.default_deadline_ms;
                                    jobs.push((
                                        req_id,
                                        key,
                                        ReadJob::new(&core, channel, submitted, deadline_abs),
                                        deadline_abs,
                                        incarnation,
                                        read_only,
                                    ));
                                }
                            }
                        }
                        FleetMsg::Replicate {
                            req_id,
                            group,
                            epoch,
                            pos,
                            key,
                        } => {
                            let held = w.replicas[me].held_epoch;
                            // THE epoch fence: a backup refuses writes
                            // from any epoch older than the one it has
                            // adopted, answering with the newer epoch so
                            // the stale primary learns it is fenced. The
                            // NoEpochFence mutation deletes exactly this.
                            if epoch < held && mutation != FleetMutation::NoEpochFence {
                                w.net.send(
                                    now,
                                    me,
                                    env.src,
                                    FleetMsg::ReplAck {
                                        req_id,
                                        group,
                                        epoch: held,
                                        pos,
                                        ok: false,
                                    },
                                );
                                continue;
                            }
                            if epoch > held {
                                // A newer primary exists: adopt its epoch
                                // and stand down whatever this replica
                                // thought it was doing as leader.
                                w.replicas[me].held_epoch = epoch;
                                w.replicas[me].is_primary = false;
                                let abandoned: Vec<u64> = repl.keys().copied().collect();
                                w.fenced_writes += abandoned.len() as u64;
                                for rid in abandoned {
                                    w.replicas[me].seen.remove(&rid);
                                }
                                repl.clear();
                            }
                            let rec = EffectRecord {
                                epoch,
                                pos,
                                req_id,
                                key,
                            };
                            let loglen = w.replicas[me].log.len();
                            let ok = if pos < loglen {
                                // Idempotent re-ack: retransmissions and
                                // anti-entropy-repaired prefixes ack
                                // cleanly; a *conflicting* record refuses.
                                let have = w.replicas[me].log.records()[pos as usize];
                                if mutation == FleetMutation::NoEpochFence {
                                    // The mutant is epoch-blind here too.
                                    have.pos == rec.pos
                                        && have.req_id == rec.req_id
                                        && have.key == rec.key
                                } else {
                                    have == rec
                                }
                            } else if pos == loglen {
                                w.replicas[me].log.append_replicated(rec).is_ok()
                            } else {
                                false // gap: anti-entropy must repair first
                            };
                            // Invariant 6 (split-brain), judged at the
                            // earliest observable point: a backup that
                            // grants an ack to a deposed epoch is
                            // serving two leadership regimes at once —
                            // precisely what the fence exists to stop.
                            // (An ack granted *before* adopting the
                            // newer epoch is fine: that write reached
                            // this log and survives any promotion.)
                            if ok && epoch < w.replicas[me].held_epoch {
                                let held = w.replicas[me].held_epoch;
                                w.flag(
                                    FleetInvariant::SplitBrain,
                                    now,
                                    format!(
                                        "group {g} replica {r} (epoch {held}) acked req {req_id} from fenced epoch {epoch}"
                                    ),
                                );
                            }
                            let ack_epoch = if ok { epoch } else { w.replicas[me].held_epoch };
                            w.net.send(
                                now,
                                me,
                                env.src,
                                FleetMsg::ReplAck {
                                    req_id,
                                    group,
                                    epoch: ack_epoch,
                                    pos,
                                    ok,
                                },
                            );
                        }
                        FleetMsg::ReplAck {
                            req_id, epoch, ok, ..
                        } => {
                            if !repl.contains_key(&req_id) {
                                continue; // completed or abandoned
                            }
                            if ok {
                                if let Some(entry) = repl.get_mut(&req_id) {
                                    entry.acks.insert(env.src);
                                }
                            } else if epoch > w.replicas[me].held_epoch {
                                // Fenced: a backup taught us a newer
                                // epoch. Adopt it, stand down, abandon
                                // every uncommitted write, and answer
                                // the router with a typed refusal.
                                w.replicas[me].held_epoch = epoch;
                                w.replicas[me].is_primary = false;
                                let abandoned: Vec<u64> = repl.keys().copied().collect();
                                w.fenced_writes += abandoned.len() as u64;
                                for rid in &abandoned {
                                    w.replicas[me].seen.remove(rid);
                                    w.net.send(
                                        now,
                                        me,
                                        router_node,
                                        FleetMsg::ShardResp {
                                            req_id: *rid,
                                            outcome: WireOutcome::Failed {
                                                kind: "stale-epoch".into(),
                                            },
                                        },
                                    );
                                }
                                repl.clear();
                            }
                        }
                        FleetMsg::Promote { epoch, primary, .. }
                            if epoch >= w.replicas[me].held_epoch =>
                        {
                            w.replicas[me].held_epoch = epoch;
                            w.replicas[me].is_primary = primary as usize == r;
                            // Writes minted under an older epoch may
                            // no longer complete (their acks would
                            // race the new fence): abandon them; the
                            // router re-dispatches under the new
                            // epoch and the log dedup keeps the
                            // effect at-most-once.
                            let stale: Vec<u64> = repl
                                .iter()
                                .filter(|(_, e)| e.rec.epoch < epoch)
                                .map(|(rid, _)| *rid)
                                .collect();
                            for rid in stale {
                                w.replicas[me].seen.remove(&rid);
                                repl.remove(&rid);
                            }
                        }
                        _ => {}
                    }
                }
                // Step every runnable conversion.
                let mut next_backoff = u64::MAX;
                let mut i = 0;
                while i < jobs.len() {
                    let core = Arc::clone(&w.replicas[me].core);
                    let (req_id, key, job, deadline_abs, _, read_only) = &mut jobs[i];
                    match job.step(&core) {
                        JobStep::Backoff { delay_ms } => {
                            next_backoff = next_backoff.min(now + delay_ms);
                            i += 1;
                        }
                        JobStep::Done(result) => {
                            let outcome = wire_outcome(&core, *deadline_abs, result);
                            let req_id = *req_id;
                            let key = *key;
                            let read_only = *read_only;
                            jobs.swap_remove(i);
                            if !w.replicas[me].is_primary {
                                // Demoted mid-conversion: the result must
                                // not be acknowledged under a dead claim
                                // to leadership.
                                w.replicas[me].seen.remove(&req_id);
                                continue;
                            }
                            let effectful =
                                !read_only && matches!(outcome, WireOutcome::Reading { .. });
                            if !effectful {
                                // Errors, sheds, and log-deduped
                                // re-serves carry no new effect: answer
                                // without replication.
                                w.replicas[me].seen.insert(req_id, Some(outcome.clone()));
                                w.net.send(
                                    now,
                                    me,
                                    router_node,
                                    FleetMsg::ShardResp { req_id, outcome },
                                );
                                continue;
                            }
                            // Durable local append first, then ship to
                            // every backup; the ack to the router waits
                            // for the full live-backup quorum.
                            let epoch = w.replicas[me].held_epoch;
                            let rec = match w.replicas[me].log.append(epoch, req_id, key) {
                                Ok(rec) => rec,
                                Err(_) => {
                                    let outcome = WireOutcome::Failed {
                                        kind: "log-append".into(),
                                    };
                                    w.replicas[me].seen.insert(req_id, Some(outcome.clone()));
                                    w.net.send(
                                        now,
                                        me,
                                        router_node,
                                        FleetMsg::ShardResp { req_id, outcome },
                                    );
                                    continue;
                                }
                            };
                            repl.insert(
                                req_id,
                                Replicating {
                                    outcome,
                                    rec,
                                    acks: BTreeSet::new(),
                                    next_retx: 0, // transmit immediately below
                                    incarnation,
                                },
                            );
                        }
                    }
                }
                // Replication drive: (re)transmit to unacked live
                // siblings, and complete entries whose live-backup
                // quorum is satisfied (a sibling killed mid-flight
                // shrinks the quorum — the router's membership view).
                let mut completed_ids: Vec<u64> = Vec::new();
                let mut next_retx = u64::MAX;
                for (rid, entry) in repl.iter_mut() {
                    let mut all_acked = true;
                    for sib in 0..w.replication {
                        let n = g * w.replication + sib;
                        if n == me || w.replicas[n].killed {
                            continue;
                        }
                        if !entry.acks.contains(&n) {
                            all_acked = false;
                        }
                    }
                    if all_acked {
                        completed_ids.push(*rid);
                        continue;
                    }
                    if entry.next_retx <= now {
                        for sib in 0..w.replication {
                            let n = g * w.replication + sib;
                            if n == me || w.replicas[n].killed || entry.acks.contains(&n) {
                                continue;
                            }
                            w.net.send(
                                now,
                                me,
                                n,
                                FleetMsg::Replicate {
                                    req_id: *rid,
                                    group: g as u32,
                                    epoch: entry.rec.epoch,
                                    pos: entry.rec.pos,
                                    key: entry.rec.key,
                                },
                            );
                        }
                        entry.next_retx = now + 40;
                    }
                    next_retx = next_retx.min(entry.next_retx);
                }
                for rid in completed_ids {
                    let entry = repl.remove(&rid).expect("collected above");
                    // Invariant 6, external form: a request must not be
                    // completed (acked toward the router) by two
                    // different replicas of one group. A write that
                    // merely *completes* after the router bumped the
                    // epoch is fine — its full-quorum acks put it in
                    // every live log, so promotion preserves it.
                    if let Some(prev) = w.completed.get(&(g, rid)) {
                        if *prev != me {
                            let prev = *prev;
                            w.flag(
                                FleetInvariant::SplitBrain,
                                now,
                                format!(
                                    "group {g}: nodes {prev} and {me} both completed req {rid}"
                                ),
                            );
                        }
                    }
                    w.completed.insert((g, rid), me);
                    w.acked.insert((g, rid), entry.rec.pos);
                    w.replicas[me]
                        .seen
                        .insert(rid, Some(entry.outcome.clone()));
                    w.net.send(
                        now,
                        me,
                        router_node,
                        FleetMsg::ShardResp {
                            req_id: rid,
                            outcome: entry.outcome,
                        },
                    );
                }
                if now >= end {
                    return TaskState::Done;
                }
                let next_msg = w.net.next_wake(me).unwrap_or(u64::MAX);
                let wake = next_backoff
                    .min(next_retx)
                    .min(next_msg)
                    .min(now + 25)
                    .max(now + 1);
                TaskState::SleepUntil(wake)
            });

            // Background scan and checkpoint, per replica, exactly as
            // the single-node simulation runs them.
            {
                let world = Rc::clone(&world);
                let interval = cfg.runtime.scan_interval_ms.max(1);
                ex.spawn(format!("scan-{g}-{r}"), 3 + me as u64, move |now| {
                    if now >= horizon {
                        return TaskState::Done;
                    }
                    let w = world.borrow();
                    if w.replicas[me].killed {
                        return TaskState::Done;
                    }
                    let core = Arc::clone(&w.replicas[me].core);
                    drop(w);
                    let mut state = core.state.lock().expect("state poisoned");
                    let t = core.now_ms();
                    let _ = refresh_cache_locked(&core, &mut state, t);
                    TaskState::SleepUntil(now + interval)
                });
            }
            if cfg.runtime.checkpoint_interval_ms > 0 {
                let world = Rc::clone(&world);
                let interval = cfg.runtime.checkpoint_interval_ms;
                ex.spawn(format!("ckpt-{g}-{r}"), interval + me as u64, move |now| {
                    if now >= horizon {
                        return TaskState::Done;
                    }
                    let w = world.borrow();
                    if w.replicas[me].killed {
                        return TaskState::Done;
                    }
                    let core = Arc::clone(&w.replicas[me].core);
                    // Checkpoints stamp the adopted group epoch so a
                    // recovered ex-primary knows where it was fenced.
                    core.adopt_group_epoch(w.replicas[me].held_epoch);
                    drop(w);
                    let mut state = core.state.lock().expect("state poisoned");
                    let t = core.now_ms();
                    let _ = checkpoint_locked(&core, &mut state, t);
                    TaskState::SleepUntil(now + interval)
                });
            }
        }
    }

    // ----- Clients: closed-loop request traffic and the two
    // client-visible invariants -----
    for k in 0..cfg.clients {
        let world = Rc::clone(&world);
        let me = client_node(k);
        let mut remaining = cfg.requests_per_client;
        let mut seq = 0u64;
        let mut key = (k as u64).wrapping_mul(7);
        // The one request in flight: (req_id, sent_at_ms).
        let mut waiting: Option<(u64, u64)> = None;
        let interval = cfg.request_interval_ms.max(1);
        ex.spawn(format!("client-{k}"), 5 + k as u64, move |now| {
            let mut w = world.borrow_mut();
            while let Some(env) = w.net.poll(me, now) {
                let FleetMsg::ClientResp {
                    req_id,
                    outcome,
                    origin_shard,
                    forwarded_at_ms,
                    total_age_ms,
                } = env.payload
                else {
                    continue;
                };
                if waiting.map(|(id, _)| id) != Some(req_id) {
                    continue; // duplicate or abandoned response
                }
                waiting = None;
                match outcome {
                    WireOutcome::Reading { fresh, age_ms, .. } => {
                        // Invariant 1: honest staleness across groups.
                        if total_age_ms > bound + slack {
                            w.flag(
                                FleetInvariant::StaleServed,
                                now,
                                format!(
                                    "client {k} got age {total_age_ms} ms past bound {bound} (+{slack} slack) from group {origin_shard}"
                                ),
                            );
                        }
                        if fresh && age_ms != 0 {
                            w.flag(
                                FleetInvariant::StaleServed,
                                now,
                                format!("Fresh reading from group {origin_shard} with shard-side age {age_ms} ms"),
                            );
                        }
                        // Invariant 2: no decommissioned group served.
                        if let Some(at) = w
                            .groups
                            .get(origin_shard)
                            .and_then(|gr| gr.decommissioned_at)
                        {
                            // Strict: at millisecond granularity a
                            // forward in the *same* tick as the
                            // decommission is an undefined ordering,
                            // not a routing bug.
                            if at < forwarded_at_ms {
                                w.flag(
                                    FleetInvariant::RoutedDecommissioned,
                                    now,
                                    format!(
                                        "served from group {origin_shard}, decommissioned at t={at}, forwarded at t={forwarded_at_ms}"
                                    ),
                                );
                            }
                        }
                        if fresh {
                            w.served_fresh += 1;
                        } else {
                            w.served_degraded += 1;
                        }
                    }
                    WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => {
                        w.client_errors += 1
                    }
                }
            }
            if let Some((_, sent_at)) = waiting {
                if now.saturating_sub(sent_at) >= client_timeout {
                    waiting = None;
                    w.client_timeouts += 1;
                } else {
                    // Probe at the request cadence while waiting: the
                    // replicated write path adds hops, so the reply is
                    // often not yet in flight (and thus invisible to
                    // `next_wake`) when this task last slept.
                    let next_msg = w.net.next_wake(me).unwrap_or(u64::MAX);
                    let wake = (sent_at + client_timeout)
                        .min(next_msg)
                        .min(now + interval)
                        .max(now + 1);
                    return TaskState::SleepUntil(wake);
                }
            }
            if remaining == 0 || now >= horizon {
                return TaskState::Done;
            }
            remaining -= 1;
            seq += 1;
            key = key.wrapping_add(0x9E37_79B9).wrapping_mul(3) | 1;
            let req_id = (me as u64) << 32 | seq;
            w.requests += 1;
            w.net.send(now, me, router_node, FleetMsg::ClientReq { req_id, key });
            waiting = Some((req_id, now));
            TaskState::SleepUntil(now + interval)
        });
    }

    // ----- Admin: the scenario (network weather, silicon faults,
    // crashes, decommissions, permanent kills) plus fault clearing -----
    let events = resolve_fleet_events(cfg);
    {
        let world = Rc::clone(&world);
        let cfg = cfg.clone();
        let field = Arc::clone(&field);
        let first = events.first().map_or(u64::MAX, FleetEvent::at_ms).min(1);
        let mut idx = 0usize;
        // Active link faults: (clears_at_ms, struck node, fault).
        let mut live_links: Vec<(u64, usize, Fault)> = Vec::new();
        ex.spawn("admin", first, move |now| {
            let mut w = world.borrow_mut();
            // Clear expired faults first, so a back-to-back schedule
            // on the same link applies cleanly.
            let replication = w.replication;
            live_links.retain(|(clears_at, node, fault)| {
                if *clears_at <= now {
                    match fault {
                        Fault::LinkPartition => {
                            w.net.heal_pair(*node, router_node);
                            let g = node / replication;
                            for sib in 0..replication {
                                let n = g * replication + sib;
                                if n != *node {
                                    w.net.heal_pair(*node, n);
                                }
                            }
                            w.replicas[*node].partitioned = false;
                        }
                        _ => w.net.reset_link(*node, router_node),
                    }
                    false
                } else {
                    true
                }
            });
            for i in 0..w.replicas.len() {
                let expired: Vec<(u64, usize, RingFault)> = {
                    let node = &mut w.replicas[i];
                    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut node.active_faults)
                        .into_iter()
                        .partition(|(c, _, _)| *c <= now);
                    node.active_faults = live;
                    done
                };
                if !expired.is_empty() {
                    let core = Arc::clone(&w.replicas[i].core);
                    let mut state = core.state.lock().expect("state poisoned");
                    for (_, site, _) in expired {
                        if let Some(sm) = state.array.sites_mut().get_mut(site) {
                            sm.unit.clear_fault();
                        }
                    }
                }
            }
            // Fire due events.
            while idx < events.len() && events[idx].at_ms() <= now {
                let ev = events[idx].clone();
                idx += 1;
                match ev {
                    FleetEvent::Link(e) => {
                        // Network weather strikes the group's current
                        // primary — the interesting victim: a
                        // partitioned primary forces a promotion and,
                        // on heal, a fencing test.
                        let g = e.channel.min(w.groups.len().saturating_sub(1));
                        let node = w.primary_node(g);
                        match e.fault {
                            Fault::LinkPartition => {
                                w.net.partition_pair(node, router_node);
                                for sib in 0..replication {
                                    let n = g * replication + sib;
                                    if n != node {
                                        w.net.partition_pair(node, n);
                                    }
                                }
                                w.replicas[node].partitioned = true;
                            }
                            Fault::LinkLoss { drop } => {
                                let mut p = LinkProfile::flaky();
                                p.drop = drop;
                                w.net.set_link(node, router_node, p);
                            }
                            Fault::LinkDelay { add_ms } => {
                                let mut p = LinkProfile::flaky();
                                p.delay_min_ms += add_ms;
                                p.delay_max_ms += add_ms;
                                w.net.set_link(node, router_node, p);
                            }
                            _ => continue,
                        }
                        live_links.push((e.clears_at_ms(), node, e.fault));
                    }
                    FleetEvent::Sensor { shard, event } => {
                        if shard >= w.groups.len() {
                            continue;
                        }
                        let node = w.primary_node(shard);
                        if let Some(rf) = event.fault.as_ring_fault() {
                            let core = Arc::clone(&w.replicas[node].core);
                            let mut state = core.state.lock().expect("state poisoned");
                            if let Some(sm) = state.array.sites_mut().get_mut(event.channel) {
                                sm.unit.inject_fault(rf);
                                drop(state);
                                w.replicas[node].active_faults.push((
                                    event.clears_at_ms(),
                                    event.channel,
                                    rf,
                                ));
                            }
                        }
                    }
                    FleetEvent::Crash { shard, replica, .. } => {
                        if shard < w.groups.len() && replica < replication {
                            crash_replica(&mut w, &cfg, shard, replica, &field, now);
                        }
                    }
                    FleetEvent::Decommission { shard, .. } => {
                        if shard < w.groups.len() && w.groups[shard].decommissioned_at.is_none() {
                            w.groups[shard].decommissioned_at = Some(now);
                            w.decommissions += 1;
                        }
                    }
                    FleetEvent::Kill { shard, replica, .. } => {
                        if shard >= w.groups.len() || replica >= replication {
                            continue;
                        }
                        let node = w.node(shard, replica);
                        if w.replicas[node].killed {
                            continue;
                        }
                        w.replicas[node].killed = true;
                        w.net.drop_pending_for(node);
                        w.kills += 1;
                        // Invariant 5, checked at the kill itself:
                        // every previously acked effect of this group
                        // must still live on some surviving replica.
                        if w.group_has_live(shard) {
                            let lost: Vec<u64> = w
                                .acked
                                .keys()
                                .filter(|(ag, _)| *ag == shard)
                                .map(|(_, rid)| *rid)
                                .filter(|rid| {
                                    !(0..replication).any(|sib| {
                                        let n = shard * replication + sib;
                                        !w.replicas[n].killed
                                            && w.replicas[n].log.contains_req(*rid)
                                    })
                                })
                                .collect();
                            for rid in lost {
                                w.flag(
                                    FleetInvariant::EffectLost,
                                    now,
                                    format!(
                                        "group {shard}: acked req {rid} survives on no live replica after killing replica {replica}"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            let next_event = events.get(idx).map(|e| e.at_ms()).unwrap_or(u64::MAX);
            let next_link_clear = live_links
                .iter()
                .map(|(c, _, _)| *c)
                .min()
                .unwrap_or(u64::MAX);
            let next_fault_clear = w
                .replicas
                .iter()
                .flat_map(|n| n.active_faults.iter().map(|(c, _, _)| *c))
                .min()
                .unwrap_or(u64::MAX);
            let wake = next_event.min(next_link_clear).min(next_fault_clear);
            if wake == u64::MAX {
                TaskState::Done
            } else {
                TaskState::SleepUntil(wake.max(now + 1))
            }
        });
    }

    // ----- Anti-entropy: periodic divergence repair, and the final
    // convergence + durability audit -----
    {
        let world = Rc::clone(&world);
        let interval = cfg.anti_entropy_interval_ms.max(1);
        ex.spawn("anti-entropy", interval, move |now| {
            let mut w = world.borrow_mut();
            let replication = w.replication;
            if now >= end {
                // Final audit. First repair from the authoritative
                // replica (highest (epoch, log length), lowest index on
                // ties — the same key promotion uses), then assert
                // convergence and durability over what remains.
                for g in 0..w.groups.len() {
                    let Some((_, _, auth)) = (0..replication)
                        .filter_map(|sib| {
                            let n = g * replication + sib;
                            if w.replicas[n].killed {
                                return None;
                            }
                            Some((w.replicas[n].log.last_epoch(), w.replicas[n].log.len(), n))
                        })
                        .fold(None, |best: Option<(u64, u64, usize)>, cand| match best {
                            Some(b) if (cand.0, cand.1) <= (b.0, b.1) => Some(b),
                            _ => Some(cand),
                        })
                    else {
                        continue; // group fully killed: audited at the kill
                    };
                    let canonical: Vec<EffectRecord> = w.replicas[auth].log.records().to_vec();
                    for sib in 0..replication {
                        let n = g * replication + sib;
                        if n == auth || w.replicas[n].killed {
                            continue;
                        }
                        if w.replicas[n].log.records() != canonical.as_slice()
                            && w.replicas[n].log.reset_to(&canonical).is_ok()
                        {
                            w.anti_entropy_repairs += 1;
                        }
                        if w.replicas[n].log.records() != canonical.as_slice() {
                            let len_a = canonical.len();
                            let len_b = w.replicas[n].log.len();
                            w.flag(
                                FleetInvariant::Diverged,
                                now,
                                format!(
                                    "group {g}: replica logs still differ after repair (authoritative {len_a} records, node {n} holds {len_b})"
                                ),
                            );
                        }
                    }
                    // Invariant 5, final form: every acked effect of
                    // this group lives on at least one live replica.
                    let lost: Vec<u64> = w
                        .acked
                        .keys()
                        .filter(|(ag, _)| *ag == g)
                        .map(|(_, rid)| *rid)
                        .filter(|rid| {
                            !(0..replication).any(|sib| {
                                let n = g * replication + sib;
                                !w.replicas[n].killed && w.replicas[n].log.contains_req(*rid)
                            })
                        })
                        .collect();
                    for rid in lost {
                        w.flag(
                            FleetInvariant::EffectLost,
                            now,
                            format!("group {g}: acked req {rid} lost from every live replica"),
                        );
                    }
                }
                return TaskState::Done;
            }
            // Periodic sweep: push the router-view primary's log to any
            // differing live, reachable backup. The primary holds every
            // acked record of its group (the full-backup quorum ensures
            // it), so a reset can only repair — never lose — acked work.
            for g in 0..w.groups.len() {
                let p = w.primary_node(g);
                // Only an *acknowledged* leader is an authority; a
                // recovered ex-primary that has not won re-election
                // (is_primary false) must not push its — possibly
                // rotted-and-truncated — log anywhere.
                if w.replicas[p].killed
                    || w.replicas[p].partitioned
                    || !w.replicas[p].is_primary
                {
                    continue;
                }
                let p_key = (w.replicas[p].log.last_epoch(), w.replicas[p].log.len());
                let canonical: Vec<EffectRecord> = w.replicas[p].log.records().to_vec();
                for sib in 0..replication {
                    let n = g * replication + sib;
                    if n == p || w.replicas[n].killed || w.replicas[n].partitioned {
                        continue;
                    }
                    // Never overwrite a backup that is *ahead* of this
                    // primary (same ordering the election uses): that
                    // backup may be the only holder of acked effects.
                    let n_key = (w.replicas[n].log.last_epoch(), w.replicas[n].log.len());
                    if n_key > p_key {
                        continue;
                    }
                    if w.replicas[n].log.records() != canonical.as_slice()
                        && w.replicas[n].log.reset_to(&canonical).is_ok()
                    {
                        w.anti_entropy_repairs += 1;
                    }
                }
            }
            TaskState::SleepUntil(now + interval)
        });
    }

    // Run, surfacing task-flagged violations after every step.
    let check_world = Rc::clone(&world);
    let violation = ex.run(end + 2_000, 1_000_000, move |record: &StepRecord| {
        let mut w = check_world.borrow_mut();
        if let Some(mut v) = w.violation.take() {
            v.step = record.step;
            v.task = record.task.clone();
            return Some(v);
        }
        None
    });

    let w = world.borrow();
    FleetReport {
        seed: cfg.seed,
        mutation: cfg.mutation,
        violation,
        trace: ex.trace().to_vec(),
        steps: ex.steps(),
        requests: w.requests,
        served_fresh: w.served_fresh,
        served_degraded: w.served_degraded,
        client_errors: w.client_errors,
        client_timeouts: w.client_timeouts,
        failovers: w.failovers,
        promotions: w.promotions,
        fenced_writes: w.fenced_writes,
        acked_effects: w.acked.len() as u64,
        anti_entropy_repairs: w.anti_entropy_repairs,
        stale_discarded: w.stale_discarded,
        decommissioned_discarded: w.decommissioned_discarded,
        duplicates_absorbed: w.duplicates_absorbed,
        crashes: w.crashes,
        recovered_with_snapshot: w.recovered_with_snapshot,
        decommissions: w.decommissions,
        kills: w.kills,
        net: w.net.stats(),
    }
}

// ---------------------------------------------------------------------
// The shared seed pipeline's view of the fleet
// ---------------------------------------------------------------------

impl Simulation for FleetConfig {
    type Report = FleetReport;

    fn with_seed(&self, seed: u64) -> Self {
        FleetConfig {
            seed,
            ..self.clone()
        }
    }

    fn run(&self) -> FleetReport {
        run_fleet(self)
    }

    /// Shrinks the whole scenario — link faults, sensor faults,
    /// crashes, kills, and decommissions together — as one event list.
    fn minimize(&self, reproduces: impl Fn(&Self) -> bool) -> Self {
        let pinned = |events: Vec<FleetEvent>| FleetConfig {
            events: Some(events),
            ..self.clone()
        };
        pinned(shrink_events(resolve_fleet_events(self), |evs| {
            reproduces(&pinned(evs.to_vec()))
        }))
    }

    fn scenario(&self) -> (String, Vec<String>) {
        let events = self.events.as_deref().unwrap_or_default();
        (
            format!("{} fleet event(s)", events.len()),
            events.iter().map(FleetEvent::to_string).collect(),
        )
    }
}

impl RunReport for FleetReport {
    type Invariant = FleetInvariant;
    const KIND: &'static str = "fleet dst";

    fn seed(&self) -> u64 {
        self.seed
    }

    fn mutation(&self) -> &dyn fmt::Display {
        &self.mutation
    }

    fn violation(&self) -> Option<&Violation<FleetInvariant>> {
        self.violation.as_ref()
    }

    fn trace(&self) -> &[StepRecord] {
        &self.trace
    }

    fn totals(&self) -> [u64; 3] {
        [self.steps, self.requests, self.crashes]
    }
}

/// The fleet node a task label belongs to: per-replica maintenance
/// tasks (`scan-G-R`, `ckpt-G-R`) collapse onto their replica, so
/// `--replay-node shard-G-R` shows everything that node did.
pub fn task_node(task: &str) -> String {
    for prefix in ["scan-", "ckpt-"] {
        if let Some(idx) = task.strip_prefix(prefix) {
            return format!("shard-{idx}");
        }
    }
    task.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{render_trace, shrink_failure, sweep_jobs};

    fn quick() -> FleetConfig {
        FleetConfig::default()
    }

    #[test]
    fn clean_fleet_run_replays_byte_for_byte() {
        let cfg = FleetConfig { seed: 5, ..quick() };
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a, b, "identical config must replay identically");
        assert!(
            a.violation.is_none(),
            "shipped fleet must be clean: {:?}",
            a.violation
        );
        assert!(a.requests > 0 && a.steps > 0);
        assert!(a.served_fresh + a.served_degraded + a.client_errors + a.client_timeouts > 0);
        assert!(
            a.acked_effects > 0,
            "a replicated run must ack at least one effect"
        );
    }

    #[test]
    fn shipped_fleet_survives_a_seed_sweep() {
        let out = sweep_jobs(&quick(), 0, 10, false, 1);
        assert_eq!(out.seeds, 10);
        assert!(
            out.violations.is_empty(),
            "seed {} violated: {:?}",
            out.violations[0].seed,
            out.violations[0].violation
        );
    }

    #[test]
    fn no_decommission_check_mutation_is_caught_and_shrunk() {
        let base = FleetConfig {
            mutation: FleetMutation::NoDecommissionCheck,
            ..quick()
        };
        let out = sweep_jobs(&base, 0, 100, true, 1);
        let caught = out
            .violations
            .first()
            .unwrap_or_else(|| panic!("mutation survived {} seeds", out.seeds));
        let v = caught.violation.as_ref().expect("violating report");
        assert_eq!(v.invariant, FleetInvariant::RoutedDecommissioned, "{v:?}");

        // The failing seed replays byte-for-byte.
        let failing = FleetConfig {
            seed: caught.seed,
            ..base.clone()
        };
        let r1 = run_fleet(&failing);
        let r2 = run_fleet(&failing);
        assert_eq!(r1, r2, "failing seed must replay byte-for-byte");
        assert_eq!(r1.violation.as_ref(), Some(v));

        // And shrinks to a smaller scenario reproducing the same
        // invariant — for this bug, the decommission event alone.
        let shrunk = shrink_failure(&failing).expect("baseline fails");
        let kept = shrunk.config.events.as_ref().expect("events pinned");
        assert!(kept.len() <= resolve_fleet_events(&failing).len());
        assert!(
            kept.iter()
                .any(|e| matches!(e, FleetEvent::Decommission { .. })),
            "this bug needs a decommission: {kept:?}"
        );
        assert_eq!(
            shrunk.report.violation.as_ref().map(|w| w.invariant),
            Some(FleetInvariant::RoutedDecommissioned)
        );
    }

    #[test]
    fn no_epoch_fence_mutation_is_caught() {
        let base = FleetConfig {
            mutation: FleetMutation::NoEpochFence,
            ..quick()
        };
        let out = sweep_jobs(&base, 0, 200, true, 1);
        let caught = out
            .violations
            .first()
            .unwrap_or_else(|| panic!("no-epoch-fence survived {} seeds", out.seeds));
        let v = caught.violation.as_ref().expect("violating report");
        assert_eq!(v.invariant, FleetInvariant::SplitBrain, "{v:?}");

        // The failing seed replays byte-for-byte and shrinks to a
        // smaller scenario still splitting the brain; some network
        // disturbance (the event that delays acks or strands an
        // ex-primary long enough for a competing promotion) must
        // survive the shrink.
        let failing = FleetConfig {
            seed: caught.seed,
            ..base.clone()
        };
        assert_eq!(run_fleet(&failing), run_fleet(&failing));
        let shrunk = shrink_failure(&failing).expect("baseline fails");
        let kept = shrunk.config.events.as_ref().expect("events pinned");
        assert!(kept.len() <= resolve_fleet_events(&failing).len());
        assert!(
            kept.iter().any(|e| matches!(e, FleetEvent::Link(_))),
            "split-brain needs a network disturbance: {kept:?}"
        );
        assert_eq!(
            shrunk.report.violation.as_ref().map(|w| w.invariant),
            Some(FleetInvariant::SplitBrain)
        );
    }

    #[test]
    fn permanent_kill_loses_no_acked_effects() {
        // Dedicated durability pressure: more kills than the default
        // scenario, across a longer horizon.
        let cfg = FleetConfig {
            seed: 11,
            kills: 2,
            shards: 3,
            ..quick()
        };
        let report = run_fleet(&cfg);
        assert!(
            report.violation.is_none(),
            "kills must not lose acked work: {:?}",
            report.violation
        );
        assert!(report.kills > 0, "scenario must actually kill replicas");
    }

    #[test]
    fn parallel_fleet_sweep_is_byte_identical_to_serial() {
        let base = quick();
        let serial = sweep_jobs(&base, 0, 6, false, 1);
        for jobs in [2, 4] {
            assert_eq!(sweep_jobs(&base, 0, 6, false, jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn trace_filters_to_one_node() {
        let report = run_fleet(&FleetConfig { seed: 1, ..quick() });
        let full = render_trace(&report, None);
        let replica00 = render_trace(&report, Some("shard-0-0"));
        assert!(full.lines().count() > replica00.lines().count());
        for line in replica00.lines().skip(1) {
            if line.starts_with('#') || line.starts_with("VIOLATION") || line == "clean" {
                continue;
            }
            assert!(
                line.contains("shard-0-0")
                    || line.contains("scan-0-0")
                    || line.contains("ckpt-0-0"),
                "foreign node line in filtered trace: {line}"
            );
        }
    }

    #[test]
    fn resolved_scenarios_are_seeded_and_sorted() {
        let a = resolve_fleet_events(&quick());
        let b = resolve_fleet_events(&quick());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(
            a.iter().any(|e| matches!(e, FleetEvent::Kill { .. })),
            "default scenario must kill a replica: {a:?}"
        );
        for w in a.windows(2) {
            assert!(w[0].at_ms() <= w[1].at_ms());
        }
        let c = resolve_fleet_events(&FleetConfig { seed: 9, ..quick() });
        assert_ne!(a, c, "different seeds draw different scenarios");
    }
}

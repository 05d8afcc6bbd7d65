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
//! The replication machinery is the real one, not a model: the
//! replica side is the sans-IO `runtime::repl` core, driven here over
//! the fabric. Each replica appends acknowledged effects to a
//! CRC-checked [`crate::EffectLog`] on its own [`dst::SimDisk`]
//! (append + fsync, torn-tail truncation on recovery), primaries ship
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

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::{cell::RefCell, fmt};

use dst::{
    shrink_events, Executor, LinkProfile, NetStats, NonceNamespace, SimDisk, SimDiskProfile,
    SimNet, SkewedClock, StepRecord, TaskState, VirtualClock,
};
use faultsim::{Fault, FaultEvent, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::effect_log::{EffectLog, EffectRecord};
use crate::repl::{self, Output, Replica};
use crate::retry::RetryPolicy;
use crate::route::RouterPolicy;
use crate::service::{wire_outcome, Field, JobStep, ReadJob, RuntimeConfig};
use wire::{FleetMsg, WireOutcome};

use super::node::Node;
use super::{json_object, violation_json, Latch, RunReport, SimConfig, Simulation, Violation};

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

/// One reading as a fleet client received it — what [`check_reading`]
/// grades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClientReading {
    /// The client that received it.
    pub(crate) client: usize,
    /// The group that served it.
    pub(crate) group: usize,
    /// Whether the shard served it `Fresh`.
    pub(crate) fresh: bool,
    /// The age the shard reported, in its local milliseconds.
    pub(crate) age_ms: u64,
    /// The honest age the client sees: shard age plus fabric transit.
    pub(crate) total_age_ms: u64,
    /// When the router forwarded it, on the router's timeline.
    pub(crate) forwarded_at_ms: u64,
}

/// Grades one reading against the client-visible fleet invariants —
/// the check both fleet tiers share: [`run_fleet`]'s clients and the
/// TCP soak ([`crate::soak_wire::run_wire_soak`]) call it on every
/// reading. Returns each broken invariant with its detail, in this
/// order:
///
/// - [`FleetInvariant::StaleServed`]: the honest age is past
///   `bound_ms` plus `slack_ms`, the clock-skew tolerance (0 for a
///   tier on one clock);
/// - [`FleetInvariant::StaleServed`]: a `Fresh` reading carries a
///   nonzero shard age;
/// - [`FleetInvariant::RoutedDecommissioned`]: the reading was
///   forwarded *after* its group's `decommissioned_at_ms`. At
///   millisecond granularity a forward in the decommission's own
///   millisecond is an undefined ordering, not a routing bug; in the
///   TCP tier it provably ran first, because the decommission stamps
///   under every replica lock of the group and the forward checks the
///   stamp under one of them before stamping its own time.
pub(crate) fn check_reading(
    r: &ClientReading,
    decommissioned_at_ms: Option<u64>,
    bound_ms: u64,
    slack_ms: u64,
) -> Vec<(FleetInvariant, String)> {
    let (client, group, fresh) = (r.client, r.group, r.fresh);
    let (age_ms, total_age_ms, forwarded_at_ms) = (r.age_ms, r.total_age_ms, r.forwarded_at_ms);
    let mut broken = Vec::new();
    if total_age_ms > bound_ms + slack_ms {
        let detail = format!(
            "client {client} got age {total_age_ms} ms past bound {bound_ms} (+{slack_ms} slack) from group {group}"
        );
        broken.push((FleetInvariant::StaleServed, detail));
    }
    if fresh && age_ms != 0 {
        let detail = format!("Fresh reading from group {group} with shard-side age {age_ms} ms");
        broken.push((FleetInvariant::StaleServed, detail));
    }
    if let Some(at) = decommissioned_at_ms.filter(|at| *at < forwarded_at_ms) {
        let detail = format!(
            "served from group {group}, decommissioned at t={at}, forwarded at t={forwarded_at_ms}"
        );
        broken.push((FleetInvariant::RoutedDecommissioned, detail));
    }
    broken
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
    /// while all are up), the `ack_quorum` `WireServer::start` requires.
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
    /// Per-replica runtime tuning (the simulation drives the read
    /// path, scans and checkpoints itself, with no maintenance thread).
    pub runtime: RuntimeConfig,
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

    /// How long the simulated router waits for a primary before
    /// promoting a backup, milliseconds.
    pub fn failover_timeout_ms(&self) -> u64 {
        self.runtime.default_deadline_ms + 150
    }

    /// How long a client waits for a router paced by `retry` before
    /// giving up: worst case, an in-group promotion round plus every
    /// allowed cross-group failover attempt times out and every
    /// backoff rung is fully jittered.
    fn client_timeout_ms(&self, retry: &RetryPolicy) -> u64 {
        let attempts = u64::from(retry.max_attempts.max(1)).min(self.shards.max(1) as u64);
        self.failover_timeout_ms() * (attempts + 1) + retry.worst_case_backoff_ms() + 300
    }

    /// Whether `id` names a node of this fleet as [`task_node`] spells
    /// it: `router`, `admin`, `anti-entropy`, `client-K` with K below
    /// `clients`, or `shard-G-R` with G below `shards` and R below
    /// `replication`.
    pub fn has_node(&self, id: &str) -> bool {
        let (groups, replication) = (self.shards.max(1), self.replication.max(1));
        let shards =
            (0..groups).flat_map(|g| (0..replication).map(move |r| format!("shard-{g}-{r}")));
        let clients = (0..self.clients).map(|k| format!("client-{k}"));
        ["router", "admin", "anti-entropy"].contains(&id) || shards.chain(clients).any(|n| n == id)
    }
}

/// What one simulated fleet run did and found.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The service node: core, disk, clock, and the sensor faults
    /// that survive its crashes.
    node: Node,
    /// The replication protocol: adopted epoch, leadership, dedup
    /// window, in-flight writes, and the durable effect log (its own
    /// disk, its own file).
    repl: Replica,
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
    /// The router's node id.
    router: usize,
    /// Sensor sites per replica: a key converts on channel
    /// `key % sites`.
    sites: usize,
    mutation: FleetMutation,
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
    violation: Latch<FleetInvariant>,
    /// The report the tasks count into; the end-of-run facts are set
    /// after the run.
    report: FleetReport,
}

impl FleetWorld {
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

    /// Whether the router refuses `group` as decommissioned — never
    /// under the `NoDecommissionCheck` mutation.
    fn retired(&self, group: usize) -> bool {
        self.mutation != FleetMutation::NoDecommissionCheck && self.decommissioned(group)
    }

    fn group_has_live(&self, group: usize) -> bool {
        (0..self.replication).any(|r| !self.replicas[self.node(group, r)].killed)
    }

    /// Whether the router may place a request on `group`.
    fn servable(&self, group: usize) -> bool {
        !self.retired(group) && self.group_has_live(group)
    }

    /// Deterministic promotion: [`repl::elect`] over `group`'s live,
    /// reachable replicas wins a fresh epoch, broadcast by `Promote` to
    /// every live replica. False when no replica can stand.
    fn promote(&mut self, group: usize, req_id: u64, now: u64) -> bool {
        let Some(winner) = repl::elect((0..self.replication).map(|r| {
            let n = &self.replicas[self.node(group, r)];
            (!n.killed && !n.partitioned).then(|| n.repl.log().records())
        })) else {
            return false;
        };
        let epoch = self.groups[group].epoch + 1;
        self.groups[group].epoch = epoch;
        self.groups[group].primary = winner;
        self.report.promotions += 1;
        for r in 0..self.replication {
            let n = self.node(group, r);
            if !self.replicas[n].killed {
                let promote = FleetMsg::Promote {
                    req_id,
                    group: group as u32,
                    epoch,
                    primary: winner as u32,
                };
                self.net.send(now, self.router, n, promote);
            }
        }
        true
    }

    /// Cuts `node` off from the router and from its sibling replicas,
    /// or heals those links.
    fn set_partitioned(&mut self, node: usize, cut: bool) {
        let g = self.group_of(node);
        let mut peers = vec![self.router];
        peers.extend(
            (0..self.replication)
                .map(|s| self.node(g, s))
                .filter(|&n| n != node),
        );
        for n in peers {
            if cut {
                self.net.partition_pair(node, n);
            } else {
                self.net.heal_pair(node, n);
            }
        }
        self.replicas[node].partitioned = cut;
    }

    /// Invariant 5: every effect acked for `group` must still live in
    /// some live replica's durable log; a lost one is flagged as
    /// "acked req R `what`".
    fn audit_acked(&mut self, group: usize, now: u64, what: &str) {
        if !self.group_has_live(group) {
            return; // no live replica is left to hold anything
        }
        let lost = self.acked.keys().find(|&&(g, rid)| {
            g == group
                && !(0..self.replication).any(|r| {
                    let n = &self.replicas[self.node(group, r)];
                    !n.killed && n.repl.log().contains_req(rid)
                })
        });
        if let Some(&(_, rid)) = lost {
            let detail = format!("group {group}: acked req {rid} {what}");
            self.violation.flag(FleetInvariant::EffectLost, now, detail);
        }
    }

    /// Anti-entropy repair: rewrites `node`'s log to `canonical` when
    /// the two differ.
    fn repair(&mut self, node: usize, canonical: &[EffectRecord]) {
        if self.replicas[node].repl.repair(canonical) {
            self.report.anti_entropy_repairs += 1;
        }
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
    let id = group * cfg.replication.max(1) + replica;
    let node = Node::start(
        cfg.sites_per_shard,
        Arc::clone(field),
        shard_runtime_config(cfg, group, replica),
        Arc::new(SkewedClock::new(Arc::clone(base), offset, drift)),
        Arc::new(SimDisk::new(
            cfg.seed ^ (0xD15C_0000 + id as u64),
            SimDiskProfile::default(),
        )),
        Some(Arc::new(NonceNamespace::new(id as u64))),
    );
    let (log, _recovery) = EffectLog::open(
        Arc::clone(node.disk()) as Arc<dyn dst::SimFs>,
        &effect_log_path(group, replica),
    )
    .expect("fresh effect log must open");
    let fence = cfg.mutation != FleetMutation::NoEpochFence;
    ReplicaNode {
        node,
        repl: Replica::new(group, replica, log, fence),
        partitioned: false,
        killed: false,
    }
}

/// Crash-and-recover one replica in place: its inbox dies, the node
/// tears its disk and rebuilds its core, and the effect log reopens
/// through torn-tail truncation before [`Replica::recover`] restarts
/// the protocol as a *backup* — the router re-promotes it if it still
/// leads. Flags [`FleetInvariant::ResurrectedCache`] /
/// `RecoveryFailed` exactly as the single-node simulation does.
fn crash_replica(w: &mut FleetWorld, group: usize, replica: usize, now: u64) {
    let i = w.node(group, replica);
    if w.replicas[i].killed {
        return;
    }
    w.net.drop_pending_for(i);
    w.report.crashes += 1;
    let replica_node = &mut w.replicas[i];
    let rebuilt = replica_node.node.crash(true);
    let disk = Arc::clone(replica_node.node.disk());
    let log = EffectLog::open(disk, &effect_log_path(group, replica));
    let who = format!("group {group} replica {replica}");
    let (invariant, detail) = match (log, rebuilt) {
        (Err(e), _) => (
            FleetInvariant::RecoveryFailed,
            format!("{who} effect log: {e}"),
        ),
        (Ok(_), Err(e)) => (FleetInvariant::RecoveryFailed, format!("{who}: {e}")),
        (Ok((log, _recovery)), Ok((rec, resurrected))) => {
            replica_node.repl.recover(log, rec.recovered_epoch);
            if rec.recovered_seq.is_some() {
                w.report.recovered_with_snapshot += 1;
            }
            if !resurrected {
                return;
            }
            let detail = format!("{who} recovered with a cached median");
            (FleetInvariant::ResurrectedCache, detail)
        }
    };
    w.violation.flag(invariant, now, detail);
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

/// The router's placement policy and the requests it has in flight.
struct Router {
    policy: RouterPolicy,
    pending: BTreeMap<u64, Pending>,
}

impl Router {
    /// Cross-group failover: moves `req_id` to the next servable group
    /// on its plan, dispatched after the plan's backoff rung. With the
    /// plan exhausted, forgets the request and answers its client with
    /// a `kind` failure.
    fn fail_over(
        &mut self,
        w: &mut FleetWorld,
        now: u64,
        req_id: u64,
        kind: &str,
        origin_shard: usize,
        total_age_ms: u64,
    ) {
        let p = self.pending.get_mut(&req_id).expect("still pending");
        match self.policy.advance(&mut p.plan, |g| w.servable(g)) {
            Some(route) => {
                w.report.failovers += 1;
                p.group = route.shard;
                p.promoted = false;
                p.dispatch_at = Some(now + route.backoff_ms);
            }
            None => {
                let client = p.client_node;
                self.pending.remove(&req_id);
                let fail = failure(req_id, kind, origin_shard, now, total_age_ms);
                w.net.send(now, w.router, client, fail);
            }
        }
    }
}

/// The router's typed failure answer to a client.
fn failure(req_id: u64, kind: &str, origin_shard: usize, now: u64, total_age_ms: u64) -> FleetMsg {
    FleetMsg::ClientResp {
        req_id,
        outcome: WireOutcome::Failed { kind: kind.into() },
        origin_shard,
        forwarded_at_ms: now,
        total_age_ms,
    }
}

/// A conversion a replica runs for its protocol core.
struct Conversion {
    req_id: u64,
    key: u64,
    job: ReadJob,
    deadline_abs: u64,
    /// The incarnation that started it: a crash aborts it.
    incarnation: u64,
    read_only: bool,
}

/// Drains what replica `me`'s protocol core pushed onto `out`, in
/// order: frames go on the wire, conversions start, and the reported
/// facts are graded against the ledgers.
fn apply(
    w: &mut FleetWorld,
    me: usize,
    now: u64,
    out: &mut Vec<Output>,
    jobs: &mut Vec<Conversion>,
) {
    let (g, r) = (w.group_of(me), me % w.replication);
    for o in out.drain(..) {
        match o {
            Output::Send(to, msg) => {
                w.net.send(now, me, to, msg);
            }
            Output::Reply(req_id, outcome) => {
                w.net.send(now, me, w.router, FleetMsg::ShardResp { req_id, outcome });
            }
            Output::Convert {
                req_id,
                key,
                read_only,
            } => {
                let incarnation = w.replicas[me].repl.incarnation();
                if !read_only {
                    let effects = w.effects.entry((me, incarnation, req_id)).or_insert(0);
                    *effects += 1;
                    if *effects > 1 {
                        let count = *effects;
                        w.violation.flag(
                            FleetInvariant::DuplicateEffect,
                            now,
                            format!("group {g} replica {r} converted req {req_id} {count} times in incarnation {incarnation}"),
                        );
                    }
                }
                let core = Arc::clone(w.replicas[me].node.core());
                let submitted = core.now_ms();
                let deadline_abs = submitted + core.config.default_deadline_ms;
                let job = ReadJob::new(&core, (key as usize) % w.sites, submitted, deadline_abs);
                jobs.push(Conversion {
                    req_id,
                    key,
                    job,
                    deadline_abs,
                    incarnation,
                    read_only,
                });
            }
            Output::Completed { req_id, pos } => {
                // Invariant 6, external form: a request must not be
                // completed (acked toward the router) by two different
                // replicas of one group. A write that merely
                // *completes* after the router bumped the epoch is
                // fine — its full-quorum acks put it in every live
                // log, so promotion preserves it.
                if let Some(&prev) = w.completed.get(&(g, req_id)) {
                    if prev != me {
                        w.violation.flag(
                            FleetInvariant::SplitBrain,
                            now,
                            format!("group {g}: nodes {prev} and {me} both completed req {req_id}"),
                        );
                    }
                }
                w.completed.insert((g, req_id), me);
                w.acked.insert((g, req_id), pos);
            }
            // Invariant 6, judged at the earliest observable point.
            Output::AckedDeposed {
                req_id,
                epoch,
                held,
            } => w.violation.flag(
                FleetInvariant::SplitBrain,
                now,
                format!(
                    "group {g} replica {r} (epoch {held}) acked req {req_id} from fenced epoch {epoch}"
                ),
            ),
            Output::Absorbed => w.report.duplicates_absorbed += 1,
            Output::Fenced(writes) => w.report.fenced_writes += writes,
        }
    }
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
        router: router_node,
        sites: cfg.sites_per_shard.max(1),
        mutation: cfg.mutation,
        effects: BTreeMap::new(),
        acked: BTreeMap::new(),
        completed: BTreeMap::new(),
        violation: Latch(None),
        report: FleetReport {
            seed: cfg.seed,
            mutation: cfg.mutation,
            ..FleetReport::default()
        },
    }));

    let mut ex = Executor::new(cfg.seed, Arc::clone(&base));
    let policy = RouterPolicy::fleet(groups);
    let horizon = cfg.horizon_ms;
    let slack = cfg.skew_slack_ms();
    let bound = cfg.runtime.staleness_bound_ms;
    let shard_timeout = cfg.failover_timeout_ms();
    let client_timeout = cfg.client_timeout_ms(&policy.retry);
    // The run stops stepping here: clients may still be draining
    // timeouts after the horizon, and the final anti-entropy
    // convergence pass runs at the very end.
    let end = horizon + client_timeout + 500;

    // ----- Router: routing, failover, and epoch-fenced promotion -----
    {
        let world = Rc::clone(&world);
        let mut router = Router {
            policy,
            pending: BTreeMap::new(),
        };
        let seed = cfg.seed;
        ex.spawn("router", 0, move |now| {
            let mut w = world.borrow_mut();
            let w = &mut *w;
            // Drain every deliverable message.
            while let Some(env) = w.net.poll(router_node, now) {
                match env.payload {
                    FleetMsg::ClientReq { req_id, key } => {
                        let mut plan = router.policy.plan(key, seed ^ req_id);
                        let Some(route) = router.policy.advance(&mut plan, |g| w.servable(g))
                        else {
                            let fail = failure(req_id, "no-shard", usize::MAX, now, 0);
                            w.net.send(now, router_node, env.src, fail);
                            continue;
                        };
                        let target = w.primary_node(route.shard);
                        let req = FleetMsg::ShardReq { req_id, key };
                        w.net.send(now, router_node, target, req);
                        router.pending.insert(
                            req_id,
                            Pending {
                                client_node: env.src,
                                key,
                                group: route.shard,
                                sent_to_node: target,
                                sent_at_ms: now,
                                dispatch_at: None,
                                promoted: false,
                                plan,
                            },
                        );
                    }
                    FleetMsg::ShardResp { req_id, outcome } => {
                        let Some(p) = router.pending.get_mut(&req_id) else {
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
                            w.promote(p.group, req_id, now);
                            p.dispatch_at = Some(now + 5);
                            continue;
                        }
                        // A fenced ex-primary's typed refusal: it is no
                        // longer this request's target (the guard above
                        // filters stale sources), so reaching here means
                        // the view moved underneath us — re-dispatch.
                        if matches!(&outcome, WireOutcome::Failed { kind } if kind == "stale-epoch")
                        {
                            p.dispatch_at = Some(now + 5);
                            continue;
                        }
                        let transit = now.saturating_sub(env.sent_at_ms);
                        let total_age = match &outcome {
                            WireOutcome::Reading { age_ms, .. } => age_ms + transit,
                            WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => 0,
                        };
                        let too_old = matches!(outcome, WireOutcome::Reading { .. })
                            && total_age > bound + slack;
                        if too_old || w.retired(origin_group) {
                            // Unservable: discard and fail over.
                            if too_old {
                                w.report.stale_discarded += 1;
                            } else {
                                w.report.decommissioned_discarded += 1;
                            }
                            router.fail_over(w, now, req_id, "unservable", origin_group, total_age);
                            continue;
                        }
                        let p = router.pending.remove(&req_id).expect("present above");
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
            // promotion, then cross-group failover.
            let timed_out: Vec<u64> = router
                .pending
                .iter()
                .filter(|(_, p)| {
                    p.dispatch_at.is_none() && now.saturating_sub(p.sent_at_ms) >= shard_timeout
                })
                .map(|(id, _)| *id)
                .collect();
            for req_id in timed_out {
                let p = router.pending.get_mut(&req_id).expect("still pending");
                if w.primary_node(p.group) != p.sent_to_node {
                    // Another request already promoted past this
                    // target: just re-dispatch to the new primary.
                    p.dispatch_at = Some(now + 5);
                } else if !p.promoted && w.promote(p.group, req_id, now) {
                    p.promoted = true;
                    p.dispatch_at = Some(now + 5);
                } else {
                    // No candidate (all killed or partitioned) or the
                    // promotion already burned: fail over across groups.
                    router.fail_over(w, now, req_id, "timeout", usize::MAX, 0);
                }
            }
            // Put due failover dispatches on the wire — always at the
            // group's *current* primary, which may have moved while
            // the backoff rung elapsed.
            for (&req_id, p) in router.pending.iter_mut() {
                if p.dispatch_at.is_some_and(|t| t <= now) {
                    p.dispatch_at = None;
                    p.sent_at_ms = now;
                    p.sent_to_node = w.primary_node(p.group);
                    let req = FleetMsg::ShardReq { req_id, key: p.key };
                    w.net.send(now, router_node, p.sent_to_node, req);
                }
            }
            if now >= end {
                return TaskState::Done;
            }
            let next_deadline = router
                .pending
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

    // ----- Replicas: the protocol core driven over the fabric, plus
    // per-replica maintenance -----
    for g in 0..groups {
        for r in 0..replication {
            let me = g * replication + r;
            let world_s = Rc::clone(&world);
            let mut jobs: Vec<Conversion> = Vec::new();
            let mut out: Vec<Output> = Vec::new();
            ex.spawn(format!("shard-{g}-{r}"), 2 + me as u64, move |now| {
                let mut w = world_s.borrow_mut();
                let w = &mut *w;
                if w.replicas[me].killed {
                    return TaskState::Done;
                }
                // Conversions from a previous incarnation died with the
                // process.
                let incarnation = w.replicas[me].repl.incarnation();
                jobs.retain(|c| c.incarnation == incarnation);
                while let Some(env) = w.net.poll(me, now) {
                    w.replicas[me].repl.on_frame(env.src, env.payload, &mut out);
                    apply(w, me, now, &mut out, &mut jobs);
                }
                // Step every runnable conversion.
                let mut next_backoff = u64::MAX;
                let mut i = 0;
                while i < jobs.len() {
                    let core = Arc::clone(w.replicas[me].node.core());
                    match jobs[i].job.step(&core) {
                        JobStep::Backoff { delay_ms } => {
                            next_backoff = next_backoff.min(now + delay_ms);
                            i += 1;
                        }
                        JobStep::Done(result) => {
                            let c = jobs.swap_remove(i);
                            let outcome = wire_outcome(&core, c.deadline_abs, result);
                            w.replicas[me].repl.on_converted(
                                c.req_id,
                                c.key,
                                c.read_only,
                                outcome,
                                &mut out,
                            );
                            apply(w, me, now, &mut out, &mut jobs);
                        }
                    }
                }
                let live: Vec<usize> = (0..replication)
                    .map(|sib| g * replication + sib)
                    .filter(|&n| n != me && !w.replicas[n].killed)
                    .collect();
                w.replicas[me]
                    .repl
                    .drive(now, live.iter().copied(), &mut out);
                apply(w, me, now, &mut out, &mut jobs);
                if now >= end {
                    return TaskState::Done;
                }
                let next_retx = w.replicas[me].repl.next_retransmit().unwrap_or(u64::MAX);
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
                    w.replicas[me].node.scan();
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
                    let replica = &w.replicas[me];
                    if replica.killed {
                        return TaskState::Done;
                    }
                    // Checkpoints stamp the adopted group epoch so a
                    // recovered ex-primary knows where it was fenced.
                    replica.node.checkpoint(replica.repl.held_epoch());
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
                        let reading = ClientReading {
                            client: k,
                            group: origin_shard,
                            fresh,
                            age_ms,
                            total_age_ms,
                            forwarded_at_ms,
                        };
                        let decommissioned_at = w
                            .groups
                            .get(origin_shard)
                            .and_then(|gr| gr.decommissioned_at);
                        for (invariant, detail) in
                            check_reading(&reading, decommissioned_at, bound, slack)
                        {
                            w.violation.flag(invariant, now, detail);
                        }
                        if fresh {
                            w.report.served_fresh += 1;
                        } else {
                            w.report.served_degraded += 1;
                        }
                    }
                    WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => {
                        w.report.client_errors += 1
                    }
                }
            }
            if let Some((_, sent_at)) = waiting {
                if now.saturating_sub(sent_at) >= client_timeout {
                    waiting = None;
                    w.report.client_timeouts += 1;
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
            w.report.requests += 1;
            w.net
                .send(now, me, router_node, FleetMsg::ClientReq { req_id, key });
            waiting = Some((req_id, now));
            TaskState::SleepUntil(now + interval)
        });
    }

    // ----- Admin: the scenario (network weather, silicon faults,
    // crashes, decommissions, permanent kills) plus fault clearing -----
    let events = resolve_fleet_events(cfg);
    {
        let world = Rc::clone(&world);
        let first = events.first().map_or(u64::MAX, FleetEvent::at_ms).min(1);
        let mut idx = 0usize;
        // Active link faults: (clears_at_ms, struck node, fault).
        let mut live_links: Vec<(u64, usize, Fault)> = Vec::new();
        ex.spawn("admin", first, move |now| {
            let mut w = world.borrow_mut();
            // Clear expired faults first, so a back-to-back schedule
            // on the same link applies cleanly.
            live_links.retain(|(clears_at, node, fault)| {
                if *clears_at <= now {
                    match fault {
                        Fault::LinkPartition => w.set_partitioned(*node, false),
                        _ => w.net.reset_link(*node, router_node),
                    }
                    false
                } else {
                    true
                }
            });
            for replica in &mut w.replicas {
                replica.node.clear_due(now);
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
                            Fault::LinkPartition => w.set_partitioned(node, true),
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
                            let clears_at = event.clears_at_ms();
                            w.replicas[node].node.strike(event.channel, rf, clears_at);
                        }
                    }
                    FleetEvent::Crash { shard, replica, .. } => {
                        if shard < w.groups.len() && replica < replication {
                            crash_replica(&mut w, shard, replica, now);
                        }
                    }
                    FleetEvent::Decommission { shard, .. } => {
                        if shard < w.groups.len() && w.groups[shard].decommissioned_at.is_none() {
                            w.groups[shard].decommissioned_at = Some(now);
                            w.report.decommissions += 1;
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
                        w.report.kills += 1;
                        // Invariant 5, checked at the kill itself.
                        let what =
                            format!("survives on no live replica after killing replica {replica}");
                        w.audit_acked(shard, now, &what);
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
                .filter_map(|n| n.node.next_clear())
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
            if now >= end {
                // Final audit. First repair from the replica the
                // election would pick among the live ones, then assert
                // convergence and durability over what remains.
                for g in 0..w.groups.len() {
                    let Some(auth) = repl::elect((0..replication).map(|sib| {
                        let n = &w.replicas[g * replication + sib];
                        (!n.killed).then(|| n.repl.log().records())
                    })) else {
                        continue; // group fully killed: audited at the kill
                    };
                    let auth = g * replication + auth;
                    let canonical: Vec<EffectRecord> = w.replicas[auth].repl.log().records().to_vec();
                    for n in (g * replication..(g + 1) * replication).filter(|&n| n != auth) {
                        if w.replicas[n].killed {
                            continue;
                        }
                        w.repair(n, &canonical);
                        if w.replicas[n].repl.log().records() != canonical.as_slice() {
                            let len_a = canonical.len();
                            let len_b = w.replicas[n].repl.log().len();
                            w.violation.flag(
                                FleetInvariant::Diverged,
                                now,
                                format!(
                                    "group {g}: replica logs still differ after repair (authoritative {len_a} records, node {n} holds {len_b})"
                                ),
                            );
                        }
                    }
                    // Invariant 5, final form.
                    w.audit_acked(g, now, "lost from every live replica");
                }
                return TaskState::Done;
            }
            // Periodic sweep: push the router-view primary's log to any
            // differing live, reachable backup. The primary holds every
            // acked record of its group (the full-backup quorum ensures
            // it), so a reset can only repair — never lose — acked work.
            for g in 0..w.groups.len() {
                let p = w.primary_node(g);
                let primary = &w.replicas[p];
                // Only an *acknowledged* leader is an authority; a
                // recovered ex-primary that has not won re-election
                // (is_primary false) must not push its — possibly
                // rotted-and-truncated — log anywhere.
                if primary.killed || primary.partitioned || !primary.repl.is_primary() {
                    continue;
                }
                let canonical: Vec<EffectRecord> = primary.repl.log().records().to_vec();
                for n in (g * replication..(g + 1) * replication).filter(|&n| n != p) {
                    let backup = &w.replicas[n];
                    // Never overwrite a backup the election ranks
                    // *ahead* of this primary: it may be the only
                    // holder of acked effects.
                    if backup.killed
                        || backup.partitioned
                        || repl::rank(backup.repl.log().records()) > repl::rank(&canonical)
                    {
                        continue;
                    }
                    w.repair(n, &canonical);
                }
            }
            TaskState::SleepUntil(now + interval)
        });
    }

    // Run, surfacing task-flagged violations after every step.
    let check_world = Rc::clone(&world);
    let violation = ex.run(end + 2_000, 1_000_000, move |record: &StepRecord| {
        check_world.borrow_mut().violation.pin(record)
    });

    let mut w = world.borrow_mut();
    FleetReport {
        violation,
        trace: ex.trace().to_vec(),
        steps: ex.steps(),
        acked_effects: w.acked.len() as u64,
        net: w.net.stats(),
        ..std::mem::take(&mut w.report)
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

    fn render_json(&self) -> String {
        json_object(&[
            ("seed", self.seed.to_string()),
            ("mutation", format!("\"{}\"", self.mutation)),
            ("steps", self.steps.to_string()),
            ("requests", self.requests.to_string()),
            ("served_fresh", self.served_fresh.to_string()),
            ("served_degraded", self.served_degraded.to_string()),
            ("client_errors", self.client_errors.to_string()),
            ("client_timeouts", self.client_timeouts.to_string()),
            ("failovers", self.failovers.to_string()),
            ("promotions", self.promotions.to_string()),
            ("fenced_writes", self.fenced_writes.to_string()),
            ("acked_effects", self.acked_effects.to_string()),
            (
                "anti_entropy_repairs",
                self.anti_entropy_repairs.to_string(),
            ),
            ("stale_discarded", self.stale_discarded.to_string()),
            ("duplicates_absorbed", self.duplicates_absorbed.to_string()),
            ("crashes", self.crashes.to_string()),
            ("decommissions", self.decommissions.to_string()),
            ("kills", self.kills.to_string()),
            ("violation", violation_json(self.violation.as_ref())),
        ])
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
        let out = sweep_jobs(&quick(), 0, 10, 1);
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
        let caught = (0..100)
            .map(|s| base.with_seed(s).run())
            .find(|r| r.violation.is_some())
            .expect("mutation survived 100 seeds");
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
        let caught = (0..200)
            .map(|s| base.with_seed(s).run())
            .find(|r| r.violation.is_some())
            .expect("no-epoch-fence survived 200 seeds");
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
        let serial = sweep_jobs(&base, 0, 6, 1);
        for jobs in [2, 4] {
            assert_eq!(sweep_jobs(&base, 0, 6, jobs), serial, "jobs={jobs}");
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

    #[test]
    fn reading_check_boundaries() {
        let ok = ClientReading {
            client: 0,
            group: 1,
            fresh: false,
            age_ms: 600,
            total_age_ms: 603,
            forwarded_at_ms: 100,
        };
        let broken = |r: ClientReading, decommissioned_at: Option<u64>| -> Vec<FleetInvariant> {
            check_reading(&r, decommissioned_at, 600, 3)
                .into_iter()
                .map(|(invariant, _)| invariant)
                .collect()
        };
        // Forwarded in the decommission's own millisecond: clean; one
        // millisecond later: routed-decommissioned.
        assert!(broken(ok, Some(100)).is_empty());
        let late = ClientReading {
            forwarded_at_ms: 101,
            ..ok
        };
        assert_eq!(
            broken(late, Some(100)),
            [FleetInvariant::RoutedDecommissioned]
        );
        // Honest age at bound + slack: clean; one more: stale.
        assert!(broken(ok, None).is_empty());
        let old = ClientReading {
            total_age_ms: 604,
            ..ok
        };
        assert_eq!(broken(old, None), [FleetInvariant::StaleServed]);
        let aged_fresh = ClientReading {
            fresh: true,
            age_ms: 1,
            total_age_ms: 1,
            ..ok
        };
        assert_eq!(broken(aged_fresh, None), [FleetInvariant::StaleServed]);
        let detail = &check_reading(&late, Some(100), 600, 3)[0].1;
        assert_eq!(
            detail,
            "served from group 1, decommissioned at t=100, forwarded at t=101"
        );
    }
}

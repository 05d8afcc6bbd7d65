//! The fleet's request/response vocabulary.
//!
//! These types moved here verbatim from `runtime::sim::fleet` (PR 8)
//! so the deterministic simulator and the real TCP tier exchange
//! literally the same messages; the simulator still carries them as
//! typed [`dst::SimNet`] envelopes, the TCP tier as [`crate::frame`]
//! bytes. Two additions since PR 8: [`WireOutcome::Shed`], the typed
//! backpressure answer a loaded server returns instead of queueing
//! unboundedly, and the thermal-map readout
//! ([`FleetMsg::MapReq`]/[`FleetMsg::MapResp`]) whose response size
//! scales with the fleet's array — the message that bounds the fleet
//! a server may start with under the frame budget.

use std::fmt;

/// A shard's answer on the wire: enough for the router and client to
/// judge honesty without trusting the shard's clock.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// A served reading.
    Reading {
        /// Temperature, °C.
        value_c: f64,
        /// `true` when the shard served `Provenance::Fresh`.
        fresh: bool,
        /// Age reported by the shard, in its local milliseconds.
        age_ms: u64,
    },
    /// A typed shard-side failure (deadline, stale cache, …).
    Failed {
        /// Short error kind, for counters and traces (at most
        /// [`crate::frame::MAX_ERROR_KIND_LEN`] bytes on the wire).
        kind: String,
    },
    /// Typed backpressure: the server is at its in-flight limit and
    /// sheds the request instead of queueing it unboundedly. Retry
    /// after the hinted delay (or fail over to another replica).
    Shed {
        /// Server's backoff hint, milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for WireOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireOutcome::Reading {
                value_c,
                fresh,
                age_ms,
            } => write!(
                f,
                "{value_c:.3} °C ({}, age {age_ms} ms)",
                if *fresh { "fresh" } else { "degraded" }
            ),
            WireOutcome::Failed { kind } => write!(f, "failed: {kind}"),
            WireOutcome::Shed { retry_after_ms } => {
                write!(f, "shed (retry after {retry_after_ms} ms)")
            }
        }
    }
}

/// One site's row in a thermal-map response.
#[derive(Debug, Clone, PartialEq)]
pub struct MapEntry {
    /// The shard that owns the site.
    pub shard: u32,
    /// Site index within the shard.
    pub site: u32,
    /// The shard's current served value for its region, °C.
    pub value_c: f64,
    /// Age of that value in the shard's local milliseconds.
    pub age_ms: u64,
    /// `true` when the site is quarantined by health monitoring.
    pub quarantined: bool,
}

/// The typed envelope payloads of the fleet protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetMsg {
    /// Client → router: serve a reading for this die-region key.
    ClientReq {
        /// Fleet-unique request id.
        req_id: u64,
        /// Die-region key, consistent-hashed onto a shard.
        key: u64,
    },
    /// Router → client: the answer.
    ClientResp {
        /// Echoed request id.
        req_id: u64,
        /// The shard's outcome.
        outcome: WireOutcome,
        /// The shard the answer came from (`usize::MAX` when no shard
        /// was involved; encoded as `u32::MAX` on the wire).
        origin_shard: usize,
        /// Fabric time the router forwarded it.
        forwarded_at_ms: u64,
        /// Honest total age: shard-reported age plus fabric transit.
        total_age_ms: u64,
    },
    /// Router → shard: convert for this key.
    ShardReq {
        /// Echoed request id (the at-most-once key).
        req_id: u64,
        /// Die-region key (the shard maps it to a channel).
        key: u64,
    },
    /// Shard → router: the conversion outcome.
    ShardResp {
        /// Echoed request id.
        req_id: u64,
        /// What the shard did.
        outcome: WireOutcome,
    },
    /// Client → server: read the whole thermal map.
    MapReq {
        /// Fleet-unique request id.
        req_id: u64,
    },
    /// Server → client: one row per site across every live shard —
    /// the largest response the protocol can carry, and the reason the
    /// server checks its array against the frame budget at start-up.
    MapResp {
        /// Echoed request id.
        req_id: u64,
        /// Server time the map was assembled.
        forwarded_at_ms: u64,
        /// One row per site.
        entries: Vec<MapEntry>,
    },
    /// Primary → backup: append this effect record before the client
    /// is acknowledged. The epoch is the fencing token — a backup that
    /// has adopted a higher epoch must nack, which tells the sender it
    /// is an ex-primary.
    Replicate {
        /// The effect's request id (doubles as the correlation id).
        req_id: u64,
        /// The replica group (hash-ring slot).
        group: u32,
        /// The primary epoch the effect was accepted under.
        epoch: u64,
        /// The record's dense log position.
        pos: u64,
        /// The affected die-region key.
        key: u64,
    },
    /// Backup → primary: the replication answer.
    ReplAck {
        /// Echoed request id.
        req_id: u64,
        /// Echoed group.
        group: u32,
        /// The epoch the backup acked (or holds, on a nack).
        epoch: u64,
        /// The backup's log length after the append (its replicated
        /// position).
        pos: u64,
        /// `true` = appended durably; `false` = refused (stale epoch
        /// or gap — the sender must stop acking writes).
        ok: bool,
    },
    /// Coordinator → replicas: a new primary holds this group at this
    /// epoch. An ex-primary receiving its own demotion must fence
    /// itself (refuse writes with `StaleEpoch`).
    Promote {
        /// Correlation id.
        req_id: u64,
        /// The replica group.
        group: u32,
        /// The new epoch (strictly above every previous one).
        epoch: u64,
        /// Replica index of the new primary within the group.
        primary: u32,
    },
}

impl FleetMsg {
    /// The request id carried by any message variant.
    pub fn req_id(&self) -> u64 {
        match self {
            FleetMsg::ClientReq { req_id, .. }
            | FleetMsg::ClientResp { req_id, .. }
            | FleetMsg::ShardReq { req_id, .. }
            | FleetMsg::ShardResp { req_id, .. }
            | FleetMsg::MapReq { req_id }
            | FleetMsg::MapResp { req_id, .. }
            | FleetMsg::Replicate { req_id, .. }
            | FleetMsg::ReplAck { req_id, .. }
            | FleetMsg::Promote { req_id, .. } => *req_id,
        }
    }
}

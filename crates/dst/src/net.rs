//! The network as a capability: a seeded, single-threaded message
//! fabric for multi-node deterministic simulation.
//!
//! [`SimNet`] carries typed envelopes between simulated nodes with the
//! failure modes a real datagram fabric exhibits, each one a pure
//! function of the seed and the call sequence:
//!
//! * **delay** — every link samples a per-message latency from its
//!   [`LinkProfile`]'s `[delay_min_ms, delay_max_ms]` window;
//! * **drop** — a message can vanish at send time with the link's
//!   drop probability;
//! * **duplicate** — a message can be delivered twice, the copy with
//!   its own independently sampled delay;
//! * **reorder** — extra jitter can push a later-sent message ahead of
//!   an earlier one;
//! * **partition** — a severed node pair exchanges nothing: sends are
//!   dropped at the cut and messages already in flight are *held*
//!   until the cut heals (the "switch buffered it" model), so healing
//!   a partition can deliver arbitrarily stale traffic — exactly the
//!   hazard a fleet-level staleness invariant must survive;
//! * **node death** — [`SimNet::drop_pending_for`] models a crashed
//!   node's NIC buffer dying with it.
//!
//! Nothing here spawns threads or reads wall clocks. The owning
//! simulation calls [`SimNet::send`] and [`SimNet::poll`] with its own
//! virtual `now`, typically from inside [`crate::Executor`] tasks, so
//! the same seed replays the same deliveries in the same order,
//! byte for byte.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simulated node's identity inside one [`SimNet`].
pub type NodeId = usize;

/// Per-link behavior: latency window and fault probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Minimum one-way latency, milliseconds.
    pub delay_min_ms: u64,
    /// Maximum one-way latency, milliseconds (inclusive).
    pub delay_max_ms: u64,
    /// Probability a message is dropped at send time, `[0, 1]`.
    pub drop: f64,
    /// Probability a message is delivered twice, `[0, 1]`.
    pub duplicate: f64,
    /// Probability a message takes the slow path (its delay gets
    /// `reorder_jitter_ms` added), letting later sends overtake it.
    pub reorder: f64,
    /// Extra delay applied on the slow path, milliseconds.
    pub reorder_jitter_ms: u64,
}

impl LinkProfile {
    /// A perfect link: zero latency, no faults. What a loopback or an
    /// un-faulted test wants.
    pub fn ideal() -> Self {
        LinkProfile {
            delay_min_ms: 0,
            delay_max_ms: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_jitter_ms: 0,
        }
    }

    /// A healthy LAN link: 1–5 ms latency, no faults.
    pub fn lan() -> Self {
        LinkProfile {
            delay_min_ms: 1,
            delay_max_ms: 5,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_jitter_ms: 0,
        }
    }

    /// A misbehaving link: 1–8 ms latency, 2 % drop, 2 % duplication,
    /// 10 % reorder with 20 ms jitter — the storm profile fleet sweeps
    /// default to.
    pub fn flaky() -> Self {
        LinkProfile {
            delay_min_ms: 1,
            delay_max_ms: 8,
            drop: 0.02,
            duplicate: 0.02,
            reorder: 0.10,
            reorder_jitter_ms: 20,
        }
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::lan()
    }
}

/// One message in flight (or delivered): who sent it, to whom, when,
/// and when the fabric will hand it over.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Fabric-unique message id (monotonic per [`SimNet`]; a duplicate
    /// delivery shares its original's id).
    pub id: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Fabric time at send, milliseconds.
    pub sent_at_ms: u64,
    /// Earliest fabric time the destination can poll it out.
    pub deliver_at_ms: u64,
    /// `true` on the second copy of a duplicated message.
    pub duplicated: bool,
    /// The typed payload.
    pub payload: M,
}

/// What [`SimNet::send`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued for delivery at the given fabric time.
    Queued {
        /// Scheduled delivery time, milliseconds.
        deliver_at_ms: u64,
    },
    /// Dropped by the link's loss process.
    Dropped,
    /// Dropped at a partition cut (the sender's packet hit a dead
    /// route).
    Severed,
}

/// Monotonic fabric counters, for reports and invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by [`SimNet::send`].
    pub sent: u64,
    /// Envelopes handed to a destination by [`SimNet::poll`].
    pub delivered: u64,
    /// Messages dropped by the loss process.
    pub dropped: u64,
    /// Messages dropped at a partition cut.
    pub severed: u64,
    /// Extra copies queued by the duplication process.
    pub duplicated: u64,
    /// Envelopes discarded because their destination died
    /// ([`SimNet::drop_pending_for`]).
    pub died_with_node: u64,
}

/// The seeded message fabric. See the module docs for semantics.
pub struct SimNet<M> {
    rng: StdRng,
    nodes: usize,
    default_link: LinkProfile,
    links: BTreeMap<(NodeId, NodeId), LinkProfile>,
    /// Symmetric severed pairs, stored with `a < b`.
    severed: BTreeSet<(NodeId, NodeId)>,
    queue: Vec<Envelope<M>>,
    next_id: u64,
    stats: NetStats,
}

impl<M> fmt::Debug for SimNet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("nodes", &self.nodes)
            .field("in_flight", &self.queue.len())
            .field("severed_pairs", &self.severed.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl<M: Clone> SimNet<M> {
    /// A fabric over `nodes` nodes whose every sample is a pure
    /// function of `seed` and the call sequence. All links start on
    /// `default_link`.
    pub fn new(seed: u64, nodes: usize, default_link: LinkProfile) -> Self {
        SimNet {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_4E75_0000_0000),
            nodes,
            default_link,
            links: BTreeMap::new(),
            severed: BTreeSet::new(),
            queue: Vec::new(),
            next_id: 0,
            stats: NetStats::default(),
        }
    }

    /// Nodes this fabric connects.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Overrides the profile of the (symmetric) link between `a` and
    /// `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.links.insert(pair(a, b), profile);
    }

    /// Restores the link between `a` and `b` to the fabric default.
    pub fn reset_link(&mut self, a: NodeId, b: NodeId) {
        self.links.remove(&pair(a, b));
    }

    fn link(&self, a: NodeId, b: NodeId) -> &LinkProfile {
        self.links.get(&pair(a, b)).unwrap_or(&self.default_link)
    }

    /// Severs the (symmetric) link between `a` and `b`: sends die at
    /// the cut, in-flight messages are held until [`SimNet::heal_pair`].
    pub fn partition_pair(&mut self, a: NodeId, b: NodeId) {
        self.severed.insert(pair(a, b));
    }

    /// Heals the cut between `a` and `b`; held messages become
    /// deliverable again at their original schedule.
    pub fn heal_pair(&mut self, a: NodeId, b: NodeId) {
        self.severed.remove(&pair(a, b));
    }

    /// `true` while `a` and `b` cannot exchange messages.
    pub fn is_severed(&self, a: NodeId, b: NodeId) -> bool {
        self.severed.contains(&pair(a, b))
    }

    /// Sends `payload` from `src` to `dst` at fabric time `now`,
    /// applying the link's drop/duplicate/reorder processes. Returns
    /// what happened (tests assert on it; simulations usually ignore
    /// it — a datagram send has no ack).
    pub fn send(&mut self, now: u64, src: NodeId, dst: NodeId, payload: M) -> SendOutcome {
        debug_assert!(src < self.nodes && dst < self.nodes, "node out of range");
        if self.is_severed(src, dst) {
            self.stats.severed += 1;
            return SendOutcome::Severed;
        }
        let profile = self.link(src, dst).clone();
        if profile.drop > 0.0 && self.rng.random::<f64>() < profile.drop {
            self.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.sent += 1;
        let deliver_at_ms = now + self.sample_delay(&profile);
        self.queue.push(Envelope {
            id,
            src,
            dst,
            sent_at_ms: now,
            deliver_at_ms,
            duplicated: false,
            payload: payload.clone(),
        });
        if profile.duplicate > 0.0 && self.rng.random::<f64>() < profile.duplicate {
            let dup_at = now + self.sample_delay(&profile);
            self.stats.duplicated += 1;
            self.queue.push(Envelope {
                id,
                src,
                dst,
                sent_at_ms: now,
                deliver_at_ms: dup_at,
                duplicated: true,
                payload,
            });
        }
        SendOutcome::Queued { deliver_at_ms }
    }

    fn sample_delay(&mut self, profile: &LinkProfile) -> u64 {
        let lo = profile.delay_min_ms;
        let hi = profile.delay_max_ms.max(lo);
        let base = if hi > lo {
            self.rng.random_range(lo..hi + 1)
        } else {
            lo
        };
        if profile.reorder > 0.0 && self.rng.random::<f64>() < profile.reorder {
            base + profile.reorder_jitter_ms
        } else {
            base
        }
    }

    /// Delivers the next due envelope for `dst` at fabric time `now`:
    /// the queued message with the earliest `(deliver_at_ms, id)`
    /// whose delivery time has arrived and whose link is not severed.
    /// Returns `None` when nothing is deliverable — a cut holds
    /// cross-partition traffic in the fabric until healed.
    pub fn poll(&mut self, dst: NodeId, now: u64) -> Option<Envelope<M>> {
        let mut best: Option<usize> = None;
        for (i, e) in self.queue.iter().enumerate() {
            if e.dst != dst || e.deliver_at_ms > now || self.is_severed(e.src, e.dst) {
                continue;
            }
            let better = match best {
                None => true,
                Some(j) => {
                    let b = &self.queue[j];
                    (e.deliver_at_ms, e.id) < (b.deliver_at_ms, b.id)
                }
            };
            if better {
                best = Some(i);
            }
        }
        let idx = best?;
        self.stats.delivered += 1;
        Some(self.queue.remove(idx))
    }

    /// Earliest delivery time of any *deliverable* (un-severed)
    /// in-flight message for `dst`, for executor wake scheduling.
    pub fn next_wake(&self, dst: NodeId) -> Option<u64> {
        self.queue
            .iter()
            .filter(|e| e.dst == dst && !self.is_severed(e.src, e.dst))
            .map(|e| e.deliver_at_ms)
            .min()
    }

    /// Discards every in-flight message addressed to `node` — its NIC
    /// buffer dies with the process. Call this when simulating a node
    /// crash.
    pub fn drop_pending_for(&mut self, node: NodeId) {
        let before = self.queue.len();
        self.queue.retain(|e| e.dst != node);
        self.stats.died_with_node += (before - self.queue.len()) as u64;
    }

    /// Messages currently in flight (held ones included).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Fabric counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_delivers_in_order_with_zero_delay() {
        let mut net: SimNet<u32> = SimNet::new(1, 2, LinkProfile::ideal());
        net.send(10, 0, 1, 7);
        net.send(10, 0, 1, 8);
        assert_eq!(net.poll(1, 10).unwrap().payload, 7);
        assert_eq!(net.poll(1, 10).unwrap().payload, 8);
        assert!(net.poll(1, 10).is_none());
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn delay_window_gates_delivery() {
        let mut net: SimNet<u32> = SimNet::new(2, 2, LinkProfile::lan());
        let out = net.send(100, 0, 1, 1);
        let at = match out {
            SendOutcome::Queued { deliver_at_ms } => deliver_at_ms,
            other => panic!("{other:?}"),
        };
        assert!((101..=105).contains(&at), "lan delay 1..=5, got {at}");
        assert!(net.poll(1, at - 1).is_none(), "not due yet");
        assert!(net.poll(1, at).is_some(), "due exactly at schedule");
    }

    #[test]
    fn same_seed_same_fabric_behavior() {
        let run = |seed: u64| {
            let mut net: SimNet<u64> = SimNet::new(seed, 3, LinkProfile::flaky());
            let mut log = Vec::new();
            for i in 0..200u64 {
                let out = net.send(i, (i % 2) as usize, 2, i);
                log.push(format!("{out:?}"));
            }
            let mut t = 0;
            while net.in_flight() > 0 && t < 10_000 {
                if let Some(e) = net.poll(2, t) {
                    log.push(format!("{}@{}dup{}", e.payload, t, e.duplicated));
                } else {
                    t += 1;
                }
            }
            (log, net.stats())
        };
        assert_eq!(run(7), run(7), "identical seed must replay identically");
        assert_ne!(
            run(7).1,
            run(8).1,
            "different seeds explore different fault draws"
        );
    }

    #[test]
    fn partition_holds_traffic_until_heal() {
        let mut net: SimNet<u32> = SimNet::new(3, 2, LinkProfile::ideal());
        net.send(0, 0, 1, 42);
        net.partition_pair(0, 1);
        assert!(net.poll(1, 100).is_none(), "cut holds in-flight traffic");
        assert_eq!(net.send(100, 0, 1, 43), SendOutcome::Severed);
        assert_eq!(net.next_wake(1), None, "held messages do not schedule");
        net.heal_pair(0, 1);
        let e = net.poll(1, 100).expect("heal releases held traffic");
        assert_eq!(e.payload, 42);
        assert_eq!(e.sent_at_ms, 0, "the held message is the stale one");
        assert_eq!(net.stats().severed, 1);
    }

    #[test]
    fn dead_node_loses_its_inbox() {
        let mut net: SimNet<u32> = SimNet::new(5, 3, LinkProfile::ideal());
        net.send(0, 0, 1, 1);
        net.send(0, 2, 1, 2);
        net.send(0, 0, 2, 3);
        net.drop_pending_for(1);
        assert!(net.poll(1, 10).is_none(), "inbox died with the node");
        assert_eq!(net.poll(2, 10).unwrap().payload, 3, "others unaffected");
        assert_eq!(net.stats().died_with_node, 2);
    }

    #[test]
    fn duplicates_share_id_and_both_arrive() {
        let mut profile = LinkProfile::ideal();
        profile.duplicate = 1.0; // always duplicate
        let mut net: SimNet<u32> = SimNet::new(6, 2, profile);
        net.send(0, 0, 1, 9);
        let a = net.poll(1, 50).expect("original");
        let b = net.poll(1, 50).expect("duplicate");
        assert_eq!(a.id, b.id, "copies share the message id");
        assert!(!a.duplicated && b.duplicated);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn always_drop_link_never_delivers() {
        let mut profile = LinkProfile::ideal();
        profile.drop = 1.0;
        let mut net: SimNet<u32> = SimNet::new(7, 2, profile);
        for i in 0..50 {
            assert_eq!(net.send(i, 0, 1, 0), SendOutcome::Dropped);
        }
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().dropped, 50);
    }
}

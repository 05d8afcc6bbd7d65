//! One routing policy for both fleet tiers: consistent-hash placement
//! with bounded, backoff-paced failover.
//!
//! PR 8's simulated router carried an ad-hoc retry loop (try the next
//! ring replica immediately, forever distinct from the supervisor's
//! [`RetryPolicy`] ladder); the wire tier would have needed a second
//! copy. [`RouterPolicy`] replaces both: a [`wire::HashRing`] for
//! placement plus the *same* [`RetryPolicy`] the per-unit supervisors
//! use for pacing. [`RouterPolicy::fleet`] is decided once, here: the
//! TCP tier and the fleet simulator both route by it, so "where does a
//! key live" and "how hard does the fleet hammer a struggling shard"
//! have one answer, simulated and real.
//!
//! Usage: make a [`RoutePlan`] per request, then call
//! [`RouterPolicy::advance`] for each attempt. The first advance
//! returns the primary replica with no delay; each later advance
//! consumes one rung of the backoff ladder and routes to the next
//! untried eligible replica. `None` means the request is unservable:
//! attempts exhausted or no eligible replica remains.

use crate::retry::{Backoff, RetryPolicy};
use crate::small_set::SmallSet;
use wire::HashRing;

/// Ring virtual nodes per shard group.
const VNODES: usize = 8;

/// Placement + pacing for a fleet router (simulated or TCP).
#[derive(Debug, Clone)]
pub struct RouterPolicy {
    /// Consistent-hash placement.
    pub ring: HashRing,
    /// Failover pacing: `max_attempts` bounds replicas tried per
    /// request, the delay ladder paces retries.
    pub retry: RetryPolicy,
}

impl RouterPolicy {
    /// The fleet's one routing policy over `groups` shard groups: a
    /// ring of 8 virtual nodes per group, paced by the default
    /// [`RetryPolicy`] ladder.
    pub fn fleet(groups: usize) -> Self {
        RouterPolicy {
            ring: HashRing::new(groups, VNODES),
            retry: RetryPolicy::default(),
        }
    }

    /// A fresh per-request plan. `seed` jitters the backoff ladder;
    /// derive it from the request id so concurrent retries
    /// de-correlate deterministically.
    pub fn plan(&self, key: u64, seed: u64) -> RoutePlan {
        RoutePlan {
            key,
            tried: SmallSet::default(),
            backoff: self.retry.backoff(seed),
            attempt: 0,
        }
    }

    /// The next attempt of `plan`: the first untried eligible replica
    /// clockwise from the key, and how long to wait before sending to
    /// it (0 for the first attempt). `None` when the attempt budget or
    /// the eligible replica set is exhausted.
    pub fn advance(&self, plan: &mut RoutePlan, eligible: impl Fn(usize) -> bool) -> Option<Route> {
        let backoff_ms = if plan.attempt == 0 {
            0
        } else {
            plan.backoff.next()?
        };
        let shard = self
            .ring
            .route(plan.key, |s| !plan.tried.contains(s) && eligible(s))?;
        plan.tried.insert(shard);
        plan.attempt += 1;
        Some(Route {
            shard,
            attempt: plan.attempt,
            backoff_ms,
        })
    }
}

/// Per-request failover state: which replicas were tried and how much
/// of the backoff ladder is spent.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    key: u64,
    /// The groups already tried: inline up to four, so a plan
    /// allocates nothing.
    tried: SmallSet,
    backoff: Backoff,
    attempt: u32,
}

impl RoutePlan {
    /// Attempts made so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The die-region key this plan routes.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// One routed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The replica to send to.
    pub shard: usize,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Delay before sending, milliseconds (0 for the first attempt).
    pub backoff_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(attempts: u32) -> RouterPolicy {
        let mut p = RouterPolicy::fleet(4);
        p.retry.max_attempts = attempts;
        p
    }

    #[test]
    fn first_advance_is_immediate_then_paced_and_distinct() {
        let p = policy(4);
        let mut plan = p.plan(42, 7);
        let mut seen = Vec::new();
        let first = p.advance(&mut plan, |_| true).unwrap();
        assert_eq!(first.backoff_ms, 0, "primary dispatch is not delayed");
        seen.push(first.shard);
        while let Some(r) = p.advance(&mut plan, |_| true) {
            assert!(!seen.contains(&r.shard), "replica {} retried", r.shard);
            seen.push(r.shard);
        }
        assert_eq!(seen.len(), 4, "tries every replica within the budget");
        assert_eq!(plan.attempts(), 4);
    }

    #[test]
    fn attempt_budget_bounds_failover() {
        let p = policy(2);
        let mut plan = p.plan(42, 7);
        assert!(p.advance(&mut plan, |_| true).is_some());
        assert!(p.advance(&mut plan, |_| true).is_some());
        assert!(p.advance(&mut plan, |_| true).is_none(), "2 attempts max");
    }

    #[test]
    fn ineligible_replicas_are_skipped_and_exhaustion_is_none() {
        let p = policy(8);
        let mut plan = p.plan(42, 7);
        let primary = p.advance(&mut plan, |_| true).unwrap().shard;
        let r = p.advance(&mut plan, |s| s != primary).unwrap();
        assert_ne!(r.shard, primary);
        assert!(
            p.advance(&mut plan, |_| false).is_none(),
            "no eligible replica left"
        );
    }

    #[test]
    fn plans_replay_deterministically() {
        let p = policy(4);
        let run = |seed: u64| {
            let mut plan = p.plan(9, seed);
            let mut out = Vec::new();
            while let Some(r) = p.advance(&mut plan, |_| true) {
                out.push((r.shard, r.backoff_ms));
            }
            out
        };
        assert_eq!(run(3), run(3), "same seed, same schedule");
    }
}

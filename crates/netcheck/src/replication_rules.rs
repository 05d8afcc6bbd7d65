//! Rules over the replication configuration (`NC16xx`).
//!
//! A replicated shard group only delivers its guarantees when three
//! tuning knobs agree with each other:
//!
//! * `NC1601` — the staleness bound must outlive failover detection.
//!   During a primary failure nothing refreshes the group's data until
//!   the router's detection timeout expires and a backup is promoted;
//!   if the staleness bound is shorter than that window, every read
//!   served right after failover is already past the bound and fails
//!   typed — the group is unavailable by construction exactly when
//!   replication was supposed to keep it available.
//! * `NC1602` — the ack quorum must equal the backup count
//!   (`replication - 1`). A quorum *above* it can never be met (the
//!   group has no more backups to ack); a quorum *below* it leaves a
//!   window where an acknowledged effect lives on fewer than all
//!   backups, so a "highest replicated log position wins" promotion
//!   can elect a backup missing acked effects — silent acked-work
//!   loss, the exact failure the fleet invariant `EffectLost` flags.
//!
//! The `runtime` wire server refuses the same pairings at startup with
//! a typed `BadReplication` error, so the static and dynamic verdicts
//! cannot drift apart.

use crate::diagnostic::{Diagnostic, Location, Report};

/// The replication knobs the `NC16xx` rules lint.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationTuning {
    /// Replicas per shard group (primary included).
    pub replication: usize,
    /// Backup acks required before a write is acknowledged.
    pub ack_quorum: usize,
    /// Staleness bound served readings must beat, milliseconds.
    pub staleness_bound_ms: u64,
    /// How long a primary must be silent before the router promotes a
    /// backup, milliseconds.
    pub failover_timeout_ms: u64,
}

/// Runs every replication rule over one tuning.
pub fn check_replication(tuning: ReplicationTuning) -> Report {
    let mut report = Report::new();
    failover_freshness(&tuning, &mut report);
    ack_quorum(&tuning, &mut report);
    report.sort();
    report
}

/// `NC1601`: staleness bound vs failover detection window.
fn failover_freshness(subject: &ReplicationTuning, report: &mut Report) {
    if subject.replication < 2 {
        return; // unreplicated: there is no failover window
    }
    if subject.staleness_bound_ms <= subject.failover_timeout_ms {
        report.push(Diagnostic::error(
            "NC1601",
            Location::object(format!(
                "staleness {} ms, failover {} ms",
                subject.staleness_bound_ms, subject.failover_timeout_ms
            )),
            format!(
                "staleness bound {} ms does not outlive the {} ms failover \
                 detection window: every read served right after a promotion is \
                 already past the bound, so the group is unavailable by \
                 construction exactly when failover fires",
                subject.staleness_bound_ms, subject.failover_timeout_ms
            ),
        ));
    }
}

/// `NC1602`: ack quorum vs group size.
fn ack_quorum(subject: &ReplicationTuning, report: &mut Report) {
    if subject.replication < 2 {
        return; // no backups, no quorum to get wrong
    }
    let backups = subject.replication - 1;
    let loc = Location::object(format!(
        "replication {}, ack quorum {}",
        subject.replication, subject.ack_quorum
    ));
    if subject.ack_quorum > backups {
        report.push(Diagnostic::error(
            "NC1602",
            loc,
            format!(
                "ack quorum {} exceeds the {} backup(s) a replication factor of {} \
                 provides: no write can ever be acknowledged",
                subject.ack_quorum, backups, subject.replication
            ),
        ));
    } else if subject.ack_quorum < backups {
        report.push(Diagnostic::error(
            "NC1602",
            loc,
            format!(
                "ack quorum {} is below the {} backup(s): an acknowledged effect can \
                 live on a strict subset of backups, so highest-log-position \
                 promotion may elect a replica missing acked work (silent \
                 acked-effect loss on failover)",
                subject.ack_quorum, backups
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> ReplicationTuning {
        ReplicationTuning {
            replication: 3,
            ack_quorum: 2,
            staleness_bound_ms: 600,
            failover_timeout_ms: 200,
        }
    }

    #[test]
    fn sound_tuning_is_clean() {
        let report = check_replication(sound());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn unreplicated_groups_have_nothing_to_lint() {
        let report = check_replication(ReplicationTuning {
            replication: 1,
            ack_quorum: 0,
            staleness_bound_ms: 1,
            failover_timeout_ms: 1_000_000,
        });
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn short_staleness_bound_errors_nc1601() {
        let report = check_replication(ReplicationTuning {
            staleness_bound_ms: 200,
            failover_timeout_ms: 200,
            ..sound()
        });
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].rule, "NC1601");
        // Strictly longer is required; equal still fails (a read at
        // the instant of promotion would be exactly at the bound).
        let ok = check_replication(ReplicationTuning {
            staleness_bound_ms: 201,
            failover_timeout_ms: 200,
            ..sound()
        });
        assert!(ok.is_clean(), "{}", ok.render_text());
    }

    #[test]
    fn over_quorum_errors_nc1602_as_unsatisfiable() {
        let report = check_replication(ReplicationTuning {
            ack_quorum: 3,
            ..sound()
        });
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].rule, "NC1602");
        assert!(report.render_text().contains("ever be acknowledged"));
    }

    #[test]
    fn under_quorum_errors_nc1602_as_acked_loss_window() {
        let report = check_replication(ReplicationTuning {
            ack_quorum: 1,
            ..sound()
        });
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].rule, "NC1602");
        assert!(report.render_text().contains("acked-effect loss"));
    }
}

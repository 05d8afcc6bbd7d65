//! The rule over the replication configuration (`NC16xx`).
//!
//! `NC1602`: a replicated shard group only delivers its guarantees
//! when its ack quorum equals its backup count (`replication - 1`). A
//! quorum *above* it can never be met (the group has no more backups
//! to ack); a quorum *below* it leaves a window where an acknowledged
//! effect lives on fewer than all backups, so a "highest replicated
//! log position wins" promotion can elect a backup missing acked
//! effects — silent acked-work loss, the exact failure the fleet
//! invariant `EffectLost` flags.
//!
//! The `runtime` wire server refuses the same pairings at startup with
//! a typed `BadReplication` error, so the static and dynamic verdicts
//! cannot drift apart.

use crate::diagnostic::{Diagnostic, Location, Report};

/// The replication knobs the `NC16xx` rule lints.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationTuning {
    /// Replicas per shard group (primary included).
    pub replication: usize,
    /// Backup acks required before a write is acknowledged.
    pub ack_quorum: usize,
}

/// `NC1602`: ack quorum vs group size.
pub fn check_replication(subject: ReplicationTuning) -> Report {
    let mut report = Report::new();
    if subject.replication < 2 {
        return report; // no backups, no quorum to get wrong
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
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> ReplicationTuning {
        ReplicationTuning {
            replication: 3,
            ack_quorum: 2,
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
        });
        assert!(report.is_clean(), "{}", report.render_text());
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

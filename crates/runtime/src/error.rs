//! Typed failures of the monitoring runtime.
//!
//! The runtime's contract is *no silent failure*: every request is
//! answered either with data carrying honest provenance
//! ([`crate::service::Provenance`]) or with one of these errors. In
//! particular a blown deadline is a [`RuntimeError::DeadlineExceeded`],
//! never quietly late data, and an array with nothing left to scan is a
//! [`RuntimeError::NoHealthy`], never a quietly old reading.

use std::error::Error;
use std::fmt;

use sensor::SensorError;

use crate::snapshot::SnapshotError;

/// Everything that can go wrong serving a monitored reading.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The request could not be answered before its absolute deadline.
    DeadlineExceeded {
        /// The absolute deadline, runtime-relative milliseconds.
        deadline_ms: u64,
        /// When the miss was detected, runtime-relative milliseconds.
        now_ms: u64,
    },
    /// Quarantine and breakers left no source of data at all.
    NoHealthy {
        /// Total channels in the array.
        total: usize,
        /// How many of them are quarantined.
        quarantined: usize,
    },
    /// A site's worst-case conversion time, its ring period at 150 °C
    /// times its settle and window cycles, cannot fit the deadline
    /// budget — the service would be unservable by construction.
    UnservableConfig {
        /// The offending site.
        site: String,
        /// Worst-case single-conversion time, milliseconds.
        conversion_ms: f64,
        /// The configured default deadline, milliseconds.
        deadline_ms: u64,
    },
    /// The staleness bound is shorter than the checkpoint interval, so
    /// a crash-recovered process could hold no data fresh enough to
    /// serve.
    UnrecoverableFreshness {
        /// The configured staleness bound, milliseconds.
        staleness_bound_ms: u64,
        /// The configured checkpoint interval, milliseconds.
        checkpoint_interval_ms: u64,
    },
    /// A conversion completed but its ring period falls outside the
    /// health policy's plausible band — the reading cannot be trusted
    /// and was not served.
    ImplausibleReading {
        /// The channel that produced it.
        channel: usize,
        /// The measured ring period, seconds.
        period_s: f64,
    },
    /// The request named a channel the array does not have.
    BadChannel {
        /// The requested channel.
        channel: usize,
        /// Channels available.
        available: usize,
    },
    /// The wire frame budget cannot carry the largest encodable
    /// response for this fleet's array size, so a full thermal-map
    /// readout would be unencodable by construction.
    FrameBudget {
        /// The wire frame budget, bytes ([`wire::DEFAULT_FRAME_BUDGET`]).
        budget_bytes: usize,
        /// The largest frame the protocol can produce for this array,
        /// bytes ([`wire::max_response_frame_len`]).
        required_bytes: usize,
        /// Total sites across the fleet, saturated at `usize::MAX`.
        total_sites: usize,
    },
    /// A write reached a fenced ex-primary: the replica group has
    /// moved to a higher epoch and this node must refuse rather than
    /// risk split-brain.
    StaleEpoch {
        /// The epoch this replica last held the primary role at.
        held_epoch: u64,
        /// The highest epoch this replica has observed for its group.
        current_epoch: u64,
        /// The replica group (hash-ring slot).
        group: usize,
    },
    /// The replication parameters cannot deliver the configured
    /// guarantees: no replica at all, or an ack quorum other than the
    /// group's backup count.
    BadReplication {
        /// Human-readable statement of the inconsistency.
        detail: String,
    },
    /// A sensing failure that survived retries and had no degraded
    /// fallback.
    Sensor(SensorError),
    /// Checkpointing or recovery failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DeadlineExceeded {
                deadline_ms,
                now_ms,
            } => write!(
                f,
                "deadline exceeded: due at t={deadline_ms} ms, detected at t={now_ms} ms"
            ),
            RuntimeError::NoHealthy { total, quarantined } => write!(
                f,
                "no healthy source: {quarantined} of {total} channels quarantined"
            ),
            RuntimeError::UnservableConfig {
                site,
                conversion_ms,
                deadline_ms,
            } => write!(
                f,
                "site '{site}': worst-case conversion {conversion_ms:.3} ms cannot fit \
                 the {deadline_ms} ms deadline budget"
            ),
            RuntimeError::UnrecoverableFreshness {
                staleness_bound_ms,
                checkpoint_interval_ms,
            } => write!(
                f,
                "staleness bound {staleness_bound_ms} ms is shorter than the \
                 {checkpoint_interval_ms} ms checkpoint interval: a recovered process \
                 could have nothing fresh enough to serve"
            ),
            RuntimeError::ImplausibleReading { channel, period_s } => write!(
                f,
                "channel {channel}: ring period {period_s:.3e} s outside the plausible band; \
                 reading withheld"
            ),
            RuntimeError::BadChannel { channel, available } => {
                write!(f, "channel {channel} out of range ({available} available)")
            }
            RuntimeError::FrameBudget {
                budget_bytes,
                required_bytes,
                total_sites,
            } => write!(
                f,
                "wire frame budget {budget_bytes} B cannot carry the largest response \
                 for {total_sites} sites ({required_bytes} B required)"
            ),
            RuntimeError::StaleEpoch {
                held_epoch,
                current_epoch,
                group,
            } => write!(
                f,
                "stale epoch: group {group} moved to epoch {current_epoch}, this replica \
                 is fenced at epoch {held_epoch} and refuses writes"
            ),
            RuntimeError::BadReplication { detail } => {
                write!(f, "bad replication config: {detail}")
            }
            RuntimeError::Sensor(e) => write!(f, "sensor failure: {e}"),
            RuntimeError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Sensor(e) => Some(e),
            RuntimeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SensorError> for RuntimeError {
    fn from(e: SensorError) -> Self {
        RuntimeError::Sensor(e)
    }
}

impl From<SnapshotError> for RuntimeError {
    fn from(e: SnapshotError) -> Self {
        RuntimeError::Snapshot(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::UnrecoverableFreshness {
            staleness_bound_ms: 400,
            checkpoint_interval_ms: 900,
        };
        let s = e.to_string();
        assert!(s.contains("900"), "{s}");
        assert!(s.contains("400"), "{s}");

        let e = RuntimeError::DeadlineExceeded {
            deadline_ms: 100,
            now_ms: 130,
        };
        assert!(e.to_string().contains("t=130"));
    }

    #[test]
    fn sensor_errors_convert_and_chain() {
        let e: RuntimeError = SensorError::ConversionTimeout.into();
        assert!(matches!(e, RuntimeError::Sensor(_)));
        assert!(Error::source(&e).is_some());
    }
}

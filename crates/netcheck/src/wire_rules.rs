//! Rules over the wire-protocol configuration (`NC15xx`).
//!
//! The fleet tier's frame codec enforces a whole-frame byte budget on
//! both ends: a frame announcing more bytes than the budget is a
//! typed [`wire::frame::WireError::FrameTooLarge`] before its payload
//! is even buffered. That makes the budget a *configuration contract*:
//! it must be at least as large as the biggest frame the protocol can
//! legitimately produce, or some responses become unencodable by
//! construction. The biggest response scales with the fleet — a
//! thermal-map readout ([`wire::FleetMsg::MapResp`]) carries one row
//! per site across every shard — so the budget/array pair is a static
//! fact worth linting before deployment:
//!
//! * `NC1501` — the frame budget cannot carry the largest encodable
//!   response for the configured array size (the `runtime` crate's
//!   wire server rejects the same pairing at startup with a typed
//!   `FrameBudget` error).

use crate::diagnostic::{Diagnostic, Location, Report};

/// `NC1501`: the frame budget vs the largest encodable response for a
/// fleet of `total_sites` sensor sites across every shard.
pub fn check_wire_frame_budget(frame_budget: usize, total_sites: usize) -> Report {
    let mut report = Report::new();
    let required = wire::max_response_frame_len(total_sites);
    if frame_budget < required {
        report.push(Diagnostic::error(
            "NC1501",
            Location::object(format!("budget {frame_budget} B, {total_sites} site(s)")),
            format!(
                "frame budget {frame_budget} B cannot carry the largest encodable response for \
                 {total_sites} site(s): a full thermal-map readout needs {required} B, so the map \
                 endpoint is unservable by construction"
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_covers_small_fleets() {
        // The wire crate's default budget must stay clean for the
        // server's default fleet (3 shards × 6 sites).
        let report = check_wire_frame_budget(wire::DEFAULT_FRAME_BUDGET, 18);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn undersized_budget_errors_nc1501() {
        let report = check_wire_frame_budget(256, 1024);
        assert!(report.has_errors(), "{}", report.render_text());
        assert_eq!(report.diagnostics()[0].rule, "NC1501");
        let text = report.render_text();
        assert!(
            text.contains(&wire::max_response_frame_len(1024).to_string()),
            "diagnostic quotes the required size: {text}"
        );
    }

    #[test]
    fn boundary_is_exact() {
        let required = wire::max_response_frame_len(100);
        assert!(check_wire_frame_budget(required, 100).is_clean());
        assert!(check_wire_frame_budget(required - 1, 100).has_errors());
    }
}

//! The rule registry: every rule ID netcheck can fire, with its
//! severity and summary.

use crate::diagnostic::Severity;

/// A registry entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule ID, e.g. `NC1401`.
    pub id: &'static str,
    /// Severity the rule fires at.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// Declares the rule registry in one place: each line becomes a named
/// `&'static str` constant in [`rules`] *and* a [`RuleInfo`] row of
/// [`RULES`], so an ID, its severity, and its summary can never drift
/// apart or be registered twice.
macro_rules! declare_rule {
    ($($id:ident => $severity:ident, $summary:expr;)+) => {
        /// Named rule-ID constants, one per registered rule — use these
        /// instead of string literals so typos fail to compile.
        pub mod rules {
            $(
                #[doc = $summary]
                pub const $id: &str = stringify!($id);
            )+
        }

        /// Every rule netcheck knows, grouped by ID bank:
        /// `NC0001` = any input that does not parse, `NC02xx` =
        /// spicelite decks, `NC03xx` = stdcell libraries, `NC04xx` =
        /// sensor configurations, `NC09xx` = abstract-interpretation
        /// range/overflow proofs, `NC10xx` = abstract-interpretation
        /// deadline/freshness proofs, `NC11xx` = clock-domain crossing,
        /// `NC12xx` = X-propagation, `NC13xx` = static hazards and
        /// `NC14xx` = dataflow structural checks. Each fires on an
        /// input the CLI reads. `NC05xx` is not here: the `sta` crate
        /// owns those timing rules and its CLI reports them.
        ///
        /// A retired ID is never reused, so a baseline that names it
        /// cannot silently match a different rule. Retired: the
        /// `NC01xx` netlist bank (the dataflow families cover it),
        /// `NC0601`–`NC0603` (array and health-policy checks nothing
        /// called), `NC0701`, `NC0702` and `NC0801` (the runtime's
        /// deadline and freshness start-up checks, which `certify`
        /// proves soundly as `NC1001`–`NC1003`), `NC1501` (the
        /// server's frame-budget check), and `NC1601` and `NC1602`
        /// (replication tuning). No input format carries an array, a
        /// fleet size or a replication factor, so the runtime compares
        /// those at start-up itself.
        pub const RULES: &[RuleInfo] = &[
            $(RuleInfo {
                id: stringify!($id),
                severity: Severity::$severity,
                summary: $summary,
            },)+
        ];
    };
}

declare_rule! {
    NC0001 => Error, "input file does not parse";
    NC0201 => Warning, "node touches only one device terminal (dangling)";
    NC0202 => Error, "node has no DC path to ground (singular MNA predicted)";
    NC0203 => Warning, "device value is zero, negative, or implausibly extreme";
    NC0301 => Warning, "delay-vs-temperature table is not monotonically increasing";
    NC0302 => Warning, "Wp/Wn ratio outside the paper's Fig. 2 sweep range (1.5–4.0)";
    NC0303 => Error, "timing library is internally inconsistent or fails a Liberty round-trip";
    NC0401 => Error, "ring stage count invalid (must be odd; paper evaluates 5, 9, 21)";
    NC0402 => Info, "5-stage cell mix is not one of the paper's Fig. 3 configurations";
    NC0403 => Warning, "calibration does not cover the paper's −50…150 °C range";
    NC0901 => Error, "counter overflow possible: reachable count interval exceeds the counter width";
    NC0902 => Error, "worst-case quantization step exceeds the declared resolution spec";
    NC0903 => Error, "calibration anchors do not bracket the reachable period interval";
    NC0904 => Error, "output word cannot represent every reachable code over the certified range";
    NC0905 => Error, "fastest-corner ring period violates the gate-level counter's toggle-loop constraint";
    NC1001 => Error, "provable worst-case conversion interval exceeds the runtime deadline";
    NC1002 => Warning, "provable worst-case conversion leaves no retry headroom inside the deadline";
    NC1003 => Error, "staleness bound cannot cover a checkpoint interval plus one provable conversion";
    NC1101 => Error, "clock-domain crossing passes through combinational logic before capture";
    NC1102 => Error, "clock-domain crossing captured by a single flop (2-FF synchronizer required)";
    NC1103 => Error, "multi-bit crossing converges uncoded (Gray code or snapshot latch required)";
    NC1104 => Warning, "clock-domain crossing captured by a transparent latch";
    NC1201 => Error, "sequential element may never reach a defined value after reset";
    NC1202 => Error, "clock or enable pin may be X after reset";
    NC1203 => Warning, "primary output may be X after reset";
    NC1301 => Error, "static hazard on a flip-flop clock pin (reconvergent parities)";
    NC1302 => Warning, "static hazard on a latch enable pin (reconvergent parities)";
    NC1303 => Warning, "non-unate gate (XOR/XNOR) in a clock or enable cone";
    NC1401 => Error, "component input is floating (no driver, no initial value)";
    NC1402 => Warning, "gate is dead (unreachable from any clock or pokable input)";
    NC1403 => Warning, "signal fan-out exceeds the stdcell drive budget for its driver";
}

/// Looks up a rule by ID.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        for pair in RULES.windows(2) {
            assert!(pair[0].id < pair[1].id, "{} !< {}", pair[0].id, pair[1].id);
        }
    }

    #[test]
    fn lookup_finds_known_rules() {
        assert!(rule_info("NC1401").is_some());
        assert!(rule_info("NC1403").is_some());
        assert!(rule_info("NC0901").is_some());
        assert!(rule_info("NC1003").is_some());
        assert!(rule_info("NC9999").is_none());
    }

    #[test]
    fn constants_match_their_ids() {
        assert_eq!(rules::NC1401, "NC1401");
        assert_eq!(rules::NC1001, "NC1001");
    }
}

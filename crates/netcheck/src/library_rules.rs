//! Rules over stdcell timing libraries and sizing (`NC03xx`).
//!
//! * `NC0301` — delay-vs-temperature monotonicity. The paper's whole
//!   premise (Fig. 1/Fig. 2) is that gate delay grows with temperature;
//!   a non-monotonic table breaks the sensor transfer function;
//! * `NC0302` — `Wp/Wn` sizing ratio inside the paper's Fig. 2 sweep
//!   range (1.5–4.0);
//! * `NC0303` — library internal consistency + Liberty round-trip.

use stdcell::characterize::TimingTable;
use stdcell::liberty::{from_liberty, to_liberty, TimingLibrary};

use crate::diagnostic::{Diagnostic, Location, Report};

/// The `Wp/Wn` sweep range of the paper's Fig. 2.
pub const FIG2_RATIO_RANGE: (f64, f64) = (1.5, 4.0);

/// `NC0301` + `NC0303` structural checks for one table.
pub fn check_table(table: &TimingTable) -> Report {
    let mut report = Report::new();
    let cell = format!("{:?}", table.kind);
    if table.temps_c.is_empty() || table.delays.is_empty() {
        report.push(Diagnostic::error(
            "NC0303",
            Location::object(&cell),
            "timing table is empty; lookups have no data to interpolate",
        ));
        return report;
    }
    if table.temps_c.len() != table.delays.len() {
        report.push(Diagnostic::error(
            "NC0303",
            Location::object(&cell),
            format!(
                "temperature axis has {} points but {} delay rows",
                table.temps_c.len(),
                table.delays.len()
            ),
        ));
        return report;
    }
    if table.temps_c.windows(2).any(|w| w[1] <= w[0]) {
        report.push(Diagnostic::error(
            "NC0303",
            Location::object(&cell),
            "temperature axis is not strictly increasing",
        ));
    }
    for (i, pair) in table.delays.iter().enumerate() {
        let bad = |d: f64| !d.is_finite() || d <= 0.0;
        if bad(pair.tphl) || bad(pair.tplh) {
            report.push(Diagnostic::error(
                "NC0303",
                Location::object(&cell),
                format!(
                    "delay row {i} is not positive (tphl {:e}, tplh {:e})",
                    pair.tphl, pair.tplh
                ),
            ));
        }
    }
    let sums: Vec<f64> = table.delays.iter().map(|p| p.pair_sum()).collect();
    if sums.windows(2).any(|w| w[1] <= w[0]) {
        report.push(Diagnostic::warning(
            "NC0301",
            Location::object(&cell),
            "pair delay does not increase monotonically with temperature; the \
             ring-oscillator thermometer premise does not hold for this cell",
        ));
    }
    report
}

/// `NC0301`/`NC0303` across a whole timing library, plus the Liberty
/// round-trip consistency check.
pub fn check_library(lib: &TimingLibrary) -> Report {
    let mut report = Report::new();
    for table in lib.iter() {
        report.extend(check_table(table));
    }
    // Round-trip: what we serialize must parse back with the same
    // cells. A failure means `to_liberty`/`from_liberty` disagree
    // and the exported view of this library is unusable.
    let text = to_liberty(lib);
    match from_liberty(&text) {
        Ok(parsed) => {
            if parsed.len() != lib.len() {
                report.push(Diagnostic::error(
                    "NC0303",
                    Location::object("library"),
                    format!(
                        "Liberty round-trip dropped cells: {} in, {} out",
                        lib.len(),
                        parsed.len()
                    ),
                ));
            }
        }
        Err(e) => {
            report.push(Diagnostic::error(
                "NC0303",
                Location::object("library"),
                format!("Liberty round-trip failed to parse: {e}"),
            ));
        }
    }
    report.sort();
    report
}

/// `NC0302`: checks one `Wp/Wn` ratio against the Fig. 2 sweep range.
pub fn check_ratio(ratio: f64, context: &str) -> Report {
    let mut report = Report::new();
    let (lo, hi) = FIG2_RATIO_RANGE;
    if !ratio.is_finite() || ratio <= 0.0 {
        report.push(Diagnostic::error(
            "NC0302",
            Location::object(context),
            format!("Wp/Wn ratio {ratio} is not a positive finite number"),
        ));
    } else if !(lo..=hi).contains(&ratio) {
        report.push(Diagnostic::warning(
            "NC0302",
            Location::object(context),
            format!(
                "Wp/Wn ratio {ratio:.2} is outside the paper's Fig. 2 sweep range \
                 ({lo}–{hi}); characterization data does not cover it"
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdcell::characterize::DelayPair;
    use tsense_core::gate::GateKind;

    fn table(temps: &[f64], sums_ps: &[f64]) -> TimingTable {
        TimingTable {
            kind: GateKind::Inv,
            temps_c: temps.to_vec(),
            delays: sums_ps
                .iter()
                .map(|&s| DelayPair {
                    tphl: s * 0.5e-12,
                    tplh: s * 0.5e-12,
                })
                .collect(),
        }
    }

    #[test]
    fn monotonic_table_is_clean() {
        let report = check_table(&table(&[-50.0, 27.0, 150.0], &[100.0, 120.0, 150.0]));
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn non_monotonic_delays_fire_nc0301() {
        let report = check_table(&table(&[-50.0, 27.0, 150.0], &[120.0, 100.0, 150.0]));
        let fired: Vec<_> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(fired.contains(&"NC0301"), "{}", report.render_text());
    }

    #[test]
    fn broken_axis_and_lengths_fire_nc0303() {
        let report = check_table(&table(&[27.0, 27.0], &[100.0, 110.0]));
        assert!(report.has_errors());
        let mut t = table(&[0.0, 50.0], &[100.0, 110.0]);
        t.delays.pop();
        assert!(check_table(&t).has_errors());
        t.delays.clear();
        t.temps_c.clear();
        assert!(check_table(&t).has_errors());
    }

    #[test]
    fn library_roundtrip_is_clean() {
        let mut lib = TimingLibrary::new("t");
        lib.insert(table(&[-50.0, 150.0], &[100.0, 140.0]));
        let report = check_library(&lib);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn ratio_range_fires_nc0302() {
        assert!(check_ratio(2.0, "lib").is_clean());
        assert!(check_ratio(1.5, "lib").is_clean());
        assert!(check_ratio(4.0, "lib").is_clean());
        assert!(!check_ratio(0.8, "lib").is_clean());
        assert!(!check_ratio(6.0, "lib").is_clean());
        assert!(check_ratio(-1.0, "lib").has_errors());
    }
}

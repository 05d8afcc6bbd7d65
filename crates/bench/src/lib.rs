//! # bench — regeneration harness for every figure and claim of the paper
//!
//! Each module reproduces one artifact of *"Smart Temperature Sensor for
//! Thermal Testing of Cell-Based ICs"* (DATE 2005) and returns a plain
//! text report; CSV series are written next to it for plotting. The
//! `figures` binary dispatches on experiment ids (see DESIGN.md §4):
//!
//! | id | artifact |
//! |----|----------|
//! | `fig1` | transient waveform of a 5-stage inverter ring |
//! | `fig2` | non-linearity vs temperature per `Wp/Wn` ratio |
//! | `fig3` | non-linearity vs temperature per cell configuration |
//! | `ta`   | "adequate ratio brings NL below 0.2 %" |
//! | `tb`   | "5, 9, 21 stages have similar linearity" |
//! | `tc`   | smart-unit features: conversion, busy, disable, mapping |
//! | `td`   | intro claims: 135 °C RISC die, 3.2× scaling of the rise |
//! | `abl1` | ablation: calibration scheme under process variation |
//! | `abl2` | ablation: digitizer window vs resolution/conversion time |
//! | `abl3` | ablation: integrator and timestep vs simulated period |
//! | `abl4` | ablation: calibration order (1/2/3-point) vs residual |
//! | `abl5` | ablation: accuracy-spec yield over a Monte-Carlo population |
//! | `ext1` | extension: AOI21/OAI21 complex cells in the mix search |
//! | `ext2` | extension: supply-droop cross-sensitivity budget |
//! | `ext3` | extension: dual-ring ratiometric droop rejection |
//! | `ext4` | extension: node portability (0.35 → 0.13 µm presets) |
//!
//! Every artifact is a pure function of the code: `figures all`
//! rewrites `results/` byte for byte, so a changed file under
//! `results/` is a changed figure. What other binaries already check
//! is not an experiment here: the `sta`, `faultsim` and `netcheck
//! certify` CLIs gate timing, fault coverage and certification, and
//! the `runtime` CLI runs the serving stack's sweeps and soaks.

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;

use stdcell::TransistorRing;
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::ring::PeriodCurve;
use tsense_core::units::{Celsius, Seconds};

pub mod abl1;
pub mod abl2;
pub mod abl3;
pub mod abl4;
pub mod abl5;
pub mod ext1;
pub mod ext2;
pub mod ext3;
pub mod ext4;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod ta;
pub mod tb;
pub mod tc;
pub mod td;

/// Worst-case non-linearity of a transistor-level `ring`, from its
/// simulated periods at `n_temps` points evenly spread over
/// −50…150 °C.
///
/// # Panics
///
/// Panics if the simulation or the fit fails.
pub(crate) fn transistor_level_nl(ring: &TransistorRing, n_temps: usize) -> f64 {
    let temps: Vec<f64> = (0..n_temps)
        .map(|i| -50.0 + 200.0 * i as f64 / (n_temps - 1) as f64)
        .collect();
    let curve = ring.period_curve(&temps).expect("simulated curve");
    let pc = PeriodCurve::new(
        curve.iter().map(|&(t, _)| Celsius::new(t)).collect(),
        curve.iter().map(|&(_, p)| Seconds::new(p)).collect(),
    );
    NonLinearity::of_curve(&pc, FitKind::LeastSquares)
        .expect("NL analysis")
        .max_abs_percent()
}

/// Writes `contents` to `<out_dir>/<name>`, creating the directory.
///
/// # Panics
///
/// Panics on I/O failure — the harness cannot proceed without its
/// output directory.
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) {
    fs::create_dir_all(out_dir).expect("create output directory");
    fs::write(out_dir.join(name), contents).expect("write artifact");
}

/// Renders a simple aligned two-dimensional table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// All experiment ids, in DESIGN.md order.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "fig1", "fig2", "fig3", "ta", "tb", "tc", "td", "abl1", "abl2", "abl3", "abl4", "abl5", "ext1",
    "ext2", "ext3", "ext4",
];

/// Runs one experiment by id, writing artifacts into `out_dir` and
/// returning the text report.
///
/// # Panics
///
/// Panics on an unknown id or if the experiment itself fails — the
/// harness is a diagnostic tool, so failures should be loud.
pub fn run_experiment(id: &str, out_dir: &Path) -> String {
    match id {
        "fig1" => fig1::run(out_dir),
        "fig2" => fig2::run(out_dir),
        "fig3" => fig3::run(out_dir),
        "ta" => ta::run(out_dir),
        "tb" => tb::run(out_dir),
        "tc" => tc::run(out_dir),
        "td" => td::run(out_dir),
        "abl1" => abl1::run(out_dir),
        "abl2" => abl2::run(out_dir),
        "abl3" => abl3::run(out_dir),
        "abl4" => abl4::run(out_dir),
        "abl5" => abl5::run(out_dir),
        "ext1" => ext1::run(out_dir),
        "ext2" => ext2::run(out_dir),
        "ext3" => ext3::run(out_dir),
        "ext4" => ext4::run(out_dir),
        other => panic!("unknown experiment id `{other}`; known: {ALL_EXPERIMENTS:?}"),
    }
}

/// A scratch directory for one test's artifacts,
/// `<temp>/tsense_<stem>_test_<pid>_<nonce>`: no two tests or test
/// runs share one, and it is removed, with everything in it, when the
/// test ends, passing or failing.
#[cfg(test)]
pub(crate) struct TestDir(std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub(crate) fn new(stem: &str) -> TestDir {
        let name = format!(
            "tsense_{stem}_test_{}_{}",
            std::process::id(),
            dst::unique_nonce()
        );
        TestDir(std::env::temp_dir().join(name))
    }
}

#[cfg(test)]
impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
        assert!(lines[2].ends_with('2') || lines[2].contains('2'));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("nope", Path::new("/tmp/unused"));
    }
}

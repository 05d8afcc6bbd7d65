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
//! | `sta`  | STA vs transient temperature sweep: same curve, wall-clock speedup |
//! | `fault` | fault-injection campaign: coverage per class, zero silent/hang |
//! | `absint` | interval certification of every shipped configuration: envelopes + proof cost |
//!
//! The serving stack's sweeps and soaks are not experiments here: the
//! `runtime` CLI runs them (`runtime dst`, `runtime dst --fleet`,
//! `runtime wire-soak`), and CI gates each with `--check`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;
use std::process::Command;

pub mod abl1;
pub mod abl2;
pub mod abl3;
pub mod abl4;
pub mod abl5;
pub mod absint;
pub mod ext1;
pub mod ext2;
pub mod ext3;
pub mod ext4;
pub mod fault_campaign;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod sta_sweep;
pub mod ta;
pub mod tb;
pub mod tc;
pub mod td;

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

/// Hardware threads this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse --short HEAD` in `dir`, with `-dirty` appended when
/// tracked files differ from `HEAD`; `unavailable` when git is missing
/// or `dir` is not a checkout.
fn git_rev(dir: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
    else {
        return "unavailable".into();
    };
    // `git diff --quiet` exits 1 when a tracked file differs from HEAD.
    let dirty =
        git(&["diff", "--quiet", "HEAD", "--"]).is_some_and(|out| out.status.code() == Some(1));
    format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
}

/// Opens a `BENCH_*.json` artifact with the machine and build that
/// measured it: `{`, then `cores`, `git_rev` (`git rev-parse --short
/// HEAD` in this crate's checkout, with `-dirty` appended when tracked
/// files differ from `HEAD`, or `unavailable`) and `profile` (`release`
/// or `debug`), one line each, every line ending in a comma for the
/// artifact's own keys.
pub fn artifact_head() -> String {
    let git_rev = git_rev(Path::new(env!("CARGO_MANIFEST_DIR")));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\n  \"cores\": {},\n  \"git_rev\": \"{git_rev}\",\n  \"profile\": \"{profile}\",\n",
        cores()
    )
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
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "fig1", "fig2", "fig3", "ta", "tb", "tc", "td", "abl1", "abl2", "abl3", "abl4", "abl5", "ext1",
    "ext2", "ext3", "ext4", "sta", "fault", "absint",
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
        "sta" => sta_sweep::run(out_dir),
        "fault" => fault_campaign::run(out_dir),
        "absint" => absint::run(out_dir),
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
    fn git_rev_marks_a_tree_with_edited_tracked_files_dirty() {
        let dir = TestDir::new("bench_git_rev");
        fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let status = Command::new("git").args(args).current_dir(&dir).status();
            assert!(status.is_ok_and(|s| s.success()), "git {args:?}");
        };
        git(&["init", "-q"]);
        fs::write(dir.join("tracked.txt"), "a").unwrap();
        git(&["add", "tracked.txt"]);
        git(&[
            "-c",
            "user.name=t",
            "-c",
            "user.email=t@example.com",
            "-c",
            "commit.gpgsign=false",
            "commit",
            "-qm",
            "init",
        ]);
        let clean = git_rev(&dir);
        assert!(
            clean.len() >= 7 && clean.chars().all(|c| c.is_ascii_hexdigit()),
            "{clean}"
        );
        fs::write(dir.join("untracked.txt"), "b").unwrap();
        assert_eq!(git_rev(&dir), clean, "untracked files leave the tree clean");
        fs::write(dir.join("tracked.txt"), "edited").unwrap();
        assert_eq!(git_rev(&dir), format!("{clean}-dirty"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("nope", Path::new("/tmp/unused"));
    }
}

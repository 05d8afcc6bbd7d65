//! The `figures` CLI checks every experiment id before it runs any, and
//! writes the combined report only for a run of the whole paper.

use std::path::{Path, PathBuf};
use std::process::Output;

use bench::ALL_EXPERIMENTS;

/// An output directory for one case, emptied of any earlier run.
fn fresh_dir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("figures_{case}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn figures(out: &Path, ids: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--out")
        .arg(out)
        .args(ids)
        .output()
        .expect("figures runs")
}

#[test]
fn one_id_repeated_writes_no_combined_report() {
    let out = fresh_dir("repeated");
    let output = figures(&out, &vec!["abl2"; ALL_EXPERIMENTS.len()]);
    assert!(output.status.success(), "{output:?}");
    assert!(out.join("abl2_window.csv").exists());
    assert!(!out.join("full_report.txt").exists());
}

#[test]
fn an_unknown_id_fails_before_any_experiment_runs() {
    let out = fresh_dir("unknown");
    let output = figures(&out, &["abl2", "bogus"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(!out.exists(), "an artifact was written before the id check");
}

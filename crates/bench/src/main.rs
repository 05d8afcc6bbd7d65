//! `figures` — regenerate the paper's figures and claims.
//!
//! ```text
//! figures [--out <dir>] <experiment>...|all
//! ```
//!
//! `figures --list` prints every experiment id (DESIGN.md §4 indexes
//! them).

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{run_experiment, ALL_EXPERIMENTS};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out requires a directory argument");
            return ExitCode::FAILURE;
        }
        out_dir = PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
    }
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: figures [--out <dir>] [--list] <experiment>...|all");
        eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
        return if args.is_empty() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Every id is checked before any experiment writes an artifact.
    if let Some(id) = ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        eprintln!(
            "unknown experiment `{id}`; known: {}",
            ALL_EXPERIMENTS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    // The combined report is the whole paper: only a run of every
    // experiment once, in `--list` order (as `all` runs them), writes it.
    let save_full = ids == ALL_EXPERIMENTS;
    let mut full = String::new();
    for id in &ids {
        let report = run_experiment(id, &out_dir);
        println!("=== {id} ===");
        println!("{report}");
        if save_full {
            full.push_str(&format!("=== {id} ===\n{report}\n"));
        }
    }
    if save_full {
        bench::write_artifact(&out_dir, "full_report.txt", &full);
        eprintln!(
            "combined report written to {}",
            out_dir.join("full_report.txt").display()
        );
    }
    ExitCode::SUCCESS
}

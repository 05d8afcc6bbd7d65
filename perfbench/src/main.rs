//! `perfbench` — runs one workload of the repository benchmark and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--tmp DIR] [--spans-out FILE] [--stamp JSON]
//! ```
//!
//! Workloads: `serve-read` and `serve-mixed` (see `serve.rs`). With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics, keeps spans around each layer call
//! in memory and writes them to `--spans-out` at the end. The traced
//! `serve-mixed` run also times the paper pipeline's layers (see
//! `paper.rs`). Human-readable notes go to
//! stdout first; the last line is one JSON object with `correct`,
//! `attempted`, `failed`, `metrics` and `violations`.
//! `perfbench/run.py` builds this binary and wraps that line into the
//! benchmark's result.

mod echo;
mod measure;
mod paper;
mod serve;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::Tracer;

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.violations.push(format!("metric {name} is not finite"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        println!("# {line}");
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}, \"violations\": [{}]}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            violations.join(", ")
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
    spans_out: Option<PathBuf>,
    stamp: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tmp: PathBuf::from(".bench_out/tmp"),
        spans_out: None,
        stamp: "{}".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--tmp" => args.tmp = PathBuf::from(value),
            "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
            "--stamp" => args.stamp = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "serve-read" => serve::run(
            serve::Mix::Read,
            args.seed,
            args.seconds,
            &mut tracer,
            args.tmp.clone(),
            &mut out,
        ),
        "serve-mixed" => serve::run(
            serve::Mix::Mixed,
            args.seed,
            args.seconds,
            &mut tracer,
            args.tmp.clone(),
            &mut out,
        )
        .and_then(|()| {
            if args.trace {
                // The traced serving phases take 80 % of the run.
                paper::run_layers(args.seconds * 0.15, &mut tracer, &mut out)
            } else {
                Ok(())
            }
        }),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        out.metric("trace.spans", tracer.len() as f64, "count");
        if let Some(path) = &args.spans_out {
            if let Err(e) = tracer.write(path, &args.stamp) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            out.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            ));
        }
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

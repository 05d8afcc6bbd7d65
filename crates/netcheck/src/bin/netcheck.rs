//! The `netcheck` command-line frontend.
//!
//! ```text
//! netcheck [--json] [--sarif FILE] [--rules] [--baseline FILE]
//!          [--deny-warnings] FILE...
//! netcheck certify [--json] [--sarif FILE] [--baseline FILE]
//!          [--deny-warnings] BUNDLE...
//! ```
//!
//! **Lint mode** (default): each input file is linted according to its
//! extension — `.lib`/`.liberty` files parse as Liberty timing
//! libraries (rule bank `NC03xx`), `.toml` files parse as
//! certification bundles (the sensor-configuration rules plus the
//! NC11xx–NC14xx dataflow lints over the bundle's gate-level unit
//! netlist), anything else parses as a SPICE deck (`NC02xx`). Files
//! that fail to parse fire `NC0001`. The files are linted one after
//! another and their findings sorted once into one report, so the
//! output does not depend on the order the files are given in.
//!
//! **Certify mode**: each input is a certification bundle (INI subset,
//! see `netcheck::absint::bundle`); the abstract interpreter derives
//! the end-to-end interval chain and prints the certificate with every
//! NC09xx/NC10xx finding.
//!
//! Exit status is unified across both modes by [`netcheck::exit_for`]:
//! `0` clean/proven, `1` if any rule fired at error severity — or at
//! warning severity under `--deny-warnings` — and `2` for usage, I/O,
//! or bundle/model evaluation problems.

use std::path::Path;
use std::process::ExitCode;

use netcheck::absint::{certify, CertifyBundle};
use netcheck::{
    check_deck, check_library, check_netlist_dataflow, check_sensor_config, exit_for, Baseline,
    Diagnostic, Location, Report, RULES,
};
use tsense_core::units::Celsius;

fn usage() {
    eprintln!("usage: netcheck [--json] [--sarif FILE] [--rules] [--baseline FILE]");
    eprintln!("                [--deny-warnings] FILE...");
    eprintln!("       netcheck certify [--json] [--sarif FILE] [--baseline FILE]");
    eprintln!("                [--deny-warnings] BUNDLE...");
    eprintln!();
    eprintln!("  --json            emit diagnostics (or the certificate) as JSON");
    eprintln!("  --sarif FILE      additionally write diagnostics as SARIF 2.1.0");
    eprintln!("  --rules           list every rule and exit");
    eprintln!("  --baseline FILE   suppress accepted findings (RULE pattern per line)");
    eprintln!("  --deny-warnings   exit nonzero on warnings, not just errors");
    eprintln!();
    eprintln!("  In lint mode, FILE ending in .lib/.liberty lints as a Liberty");
    eprintln!("  timing library, .toml as a certification bundle (configuration");
    eprintln!("  rules plus the NC11xx-NC14xx netlist dataflow lints), anything");
    eprintln!("  else as a SPICE deck.");
    eprintln!("  In certify mode, each BUNDLE is an INI-style certification");
    eprintln!("  bundle; the interval chain and verdict are printed per bundle.");
}

fn list_rules() {
    for rule in RULES {
        println!("{}  {:<7}  {}", rule.id, rule.severity, rule.summary);
    }
}

/// Lints one input file by its extension. The caller stamps `path`
/// onto the findings.
fn lint_file(path: &str, text: &str) -> Report {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("lib") | Some("liberty") => match stdcell::liberty::from_liberty(text) {
            Ok(lib) => check_library(&lib),
            Err(e) => parse_failure(format!("not a valid Liberty library: {e}")),
        },
        Some("toml") => check_bundle(path, text),
        _ => match spicelite::netlist::parse(text) {
            Ok(deck) => check_deck(&deck),
            Err(e) => parse_failure(format!("not a valid SPICE deck: {e}")),
        },
    }
}

/// Lints a certification bundle: the sensor-configuration rules, then
/// the NC11xx–NC14xx dataflow families over the gate-level unit the
/// bundle describes (built at the nominal 25 °C operating point).
fn check_bundle(path: &str, text: &str) -> Report {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    let bundle = match CertifyBundle::parse(text, stem) {
        Ok(b) => b,
        Err(e) => return parse_failure(format!("not a valid certification bundle: {e}")),
    };
    let mut report = check_sensor_config(&bundle.config);
    let cfg = &bundle.config;
    let period = match cfg.ring.period(&cfg.tech, Celsius::new(25.0)) {
        Ok(p) => p,
        Err(e) => {
            report.push(Diagnostic::error(
                "NC0001",
                Location::object("ring"),
                format!("ring period model failed at 25 C: {e}"),
            ));
            return report;
        }
    };
    // The dataflow families are structural: the period only picks the
    // clock-domain roots, never a timing margin. Lint at the nominal
    // period clamped to the divider's toggle-loop floor so fast rings
    // still get their netlist checked — whether the *real* period
    // satisfies that floor is NC0905's job under `certify`.
    let floor_ps = dsim::builders::MIN_TOGGLE_PERIOD_FS as f64 * 1e-3;
    let lint_period = tsense_core::units::Seconds::from_picos(period.as_picos().max(floor_ps));
    match sensor::gateunit::GateLevelUnit::new(
        lint_period,
        cfg.ref_clock,
        cfg.settle_cycles,
        cfg.window_cycles,
    ) {
        Ok(unit) => report.extend(check_netlist_dataflow(unit.netlist())),
        Err(e) => report.push(Diagnostic::error(
            "NC0001",
            Location::object("gate-level unit"),
            format!("cannot build the gate-level unit for dataflow linting: {e}"),
        )),
    }
    report
}

fn parse_failure(message: String) -> Report {
    let mut report = Report::new();
    report.push(Diagnostic::error(
        "NC0001",
        Location::object("input"),
        message,
    ));
    report
}

/// Parsed command line, shared by both modes.
struct Options {
    json: bool,
    sarif: Option<String>,
    baseline: Option<String>,
    deny_warnings: bool,
    files: Vec<String>,
}

/// Parses flags and file operands; `Err` carries the exit code.
fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
    let mut opts = Options {
        json: false,
        sarif: None,
        baseline: None,
        deny_warnings: false,
        files: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => match iter.next() {
                Some(path) => opts.sarif = Some(path.clone()),
                None => {
                    eprintln!("netcheck: --sarif needs a file argument");
                    return Err(ExitCode::from(2));
                }
            },
            "--baseline" => match iter.next() {
                Some(path) => opts.baseline = Some(path.clone()),
                None => {
                    eprintln!("netcheck: --baseline needs a file argument");
                    return Err(ExitCode::from(2));
                }
            },
            "--deny-warnings" => opts.deny_warnings = true,
            "--rules" => {
                list_rules();
                return Err(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                usage();
                return Err(ExitCode::SUCCESS);
            }
            _ if arg.starts_with('-') => {
                eprintln!("netcheck: unknown option `{arg}`");
                usage();
                return Err(ExitCode::from(2));
            }
            _ => opts.files.push(arg.clone()),
        }
    }
    if opts.files.is_empty() {
        usage();
        return Err(ExitCode::from(2));
    }
    Ok(opts)
}

/// Loads the baseline file when one was given; exit 2 if unreadable.
fn load_baseline(opts: &Options) -> Result<Baseline, ExitCode> {
    match &opts.baseline {
        None => Ok(Baseline::default()),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) => {
                eprintln!("netcheck: cannot read baseline {path}: {e}");
                Err(ExitCode::from(2))
            }
        },
    }
}

/// Writes the SARIF artifact when requested; exit code 2 on I/O error.
fn write_sarif(report: &Report, path: &str) -> Result<(), ExitCode> {
    std::fs::write(path, report.render_sarif()).map_err(|e| {
        eprintln!("netcheck: cannot write SARIF to {path}: {e}");
        ExitCode::from(2)
    })
}

/// Renders, writes SARIF, applies the unified exit policy. Shared by
/// lint and certify so the two modes cannot drift apart.
fn finish(mut report: Report, opts: &Options, baseline: &Baseline) -> ExitCode {
    report = baseline.apply(&report);
    if let Some(path) = &opts.sarif {
        if let Err(code) = write_sarif(&report, path) {
            return code;
        }
    }
    if opts.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::from(exit_for(&report, opts.deny_warnings) as u8)
}

fn run_lint(opts: &Options) -> ExitCode {
    let baseline = match load_baseline(opts) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut report = Report::new();
    for path in &opts.files {
        match std::fs::read_to_string(path) {
            Ok(text) => report.extend(lint_file(path, &text).with_path(path)),
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    report.sort();
    finish(report, opts, &baseline)
}

fn run_certify(opts: &Options) -> ExitCode {
    let baseline = match load_baseline(opts) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut combined = Report::new();
    let mut certificates_json: Vec<String> = Vec::new();
    for path in &opts.files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let stem = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path);
        let bundle = match CertifyBundle::parse(&text, stem) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cert = match certify(&bundle) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if opts.json {
            certificates_json.push(cert.render_json());
        } else {
            print!("{}", cert.render_text());
            println!();
        }
        combined.extend(cert.report.clone().with_path(path));
    }
    combined.sort();

    if opts.json {
        println!("[{}]", certificates_json.join(","));
    }
    // `finish` would double-print the diagnostics as JSON; certify's
    // JSON is the certificate array, so only SARIF + exit policy here.
    let combined = baseline.apply(&combined);
    if let Some(path) = &opts.sarif {
        if let Err(code) = write_sarif(&combined, path) {
            return code;
        }
    }
    ExitCode::from(exit_for(&combined, opts.deny_warnings) as u8)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let certify_mode = args.first().map(String::as_str) == Some("certify");
    if certify_mode {
        args.remove(0);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    if certify_mode {
        run_certify(&opts)
    } else {
        run_lint(&opts)
    }
}

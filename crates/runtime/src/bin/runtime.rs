//! `runtime` — serve the supervised monitoring service over TCP, soak
//! a live server under chaos, or sweep it under deterministic
//! simulation.
//!
//! Every subcommand's flags live in one table below (name, value kind
//! and check, default, help line); one loop parses them and
//! `runtime --help` prints a usage generated from the tables.
//!
//! Exit status: 0 clean; 1 when `--check` fails; 2 on usage errors.

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use runtime::{
    render_trace, run_wire_soak, shrink_failure, sweep_jobs, FleetConfig, FleetMutation, Mutation,
    RunReport, SimConfig, Simulation, SweepOutcome, WireClient, WireClientConfig, WireServer,
    WireServerConfig, WireSoakConfig,
};
use sensor::sta::report::json_escape;
use wire::WireOutcome;

/// How a flag's value is read and checked.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag is on when present.
    Switch,
    /// An unsigned integer.
    Uint,
    /// An integer of at least 1.
    Positive,
    /// A real number above 0.
    PositiveReal,
    /// A TCP port.
    Port,
    /// A `HOST:PORT` socket address; the flag may repeat.
    Addr,
    /// Free text: a path or a name.
    Text,
}

use Kind::*;

impl Kind {
    /// Checks one value; on failure returns what the flag wants.
    fn check(self, v: &str) -> Result<(), &'static str> {
        let (bad, want) = match self {
            Switch | Text => (false, ""),
            Uint => (v.parse::<u64>().is_err(), "an unsigned integer"),
            Positive => (
                v.parse::<u64>().map_or(true, |n| n == 0),
                "a positive integer",
            ),
            PositiveReal => (
                v.parse::<f64>().map_or(true, |x| x <= 0.0),
                "a positive number",
            ),
            Port => (v.parse::<u16>().is_err(), "a port number"),
            Addr => (v.parse::<SocketAddr>().is_err(), "HOST:PORT"),
        };
        if bad {
            Err(want)
        } else {
            Ok(())
        }
    }
}

/// One row of a subcommand's flag table.
struct Flag {
    name: &'static str,
    /// Value placeholder in the usage text; empty for a switch.
    meta: &'static str,
    kind: Kind,
    /// The value used when the flag is absent; empty for none.
    default: &'static str,
    help: &'static str,
}

const fn flag(
    name: &'static str,
    meta: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        meta,
        kind,
        default,
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Switch, "", help)
}

const JSON: Flag = switch("--json", "machine-readable output");

#[rustfmt::skip]
const SERVE: &[Flag] = &[
    flag("--shards", "N", Positive, "3", "service shards behind the ring router"),
    flag("--sites", "N", Positive, "6", "sensor sites per shard"),
    flag("--port", "P", Port, "0", "TCP port to bind on 127.0.0.1; 0 is ephemeral"),
    flag("--seconds", "N", Positive, "10", "serve for N seconds, then drain"),
    flag("--seed", "N", Uint, "42", "router jitter seed"),
    flag("--snapshot-dir", "P", Text, "", "per-shard checkpoint and effect-log root \
                                          (default: none; logs in memory)"),
    switch("--json", "machine-readable final stats"),
];

#[rustfmt::skip]
const CLIENT: &[Flag] = &[
    flag("--addr", "HOST:PORT", Addr, "", "server address (required; repeatable for failover)"),
    flag("--key", "K", Uint, "0", "die-region key to read"),
    flag("--count", "N", Positive, "1", "sequential requests to issue"),
    switch("--map", "request the whole-fleet thermal map instead"),
    JSON,
];

#[rustfmt::skip]
const WIRE_SOAK: &[Flag] = &[
    flag("--seconds", "N", Positive, "5", "load duration"),
    flag("--rate", "N", PositiveReal, "150", "mean Poisson arrival rate, req/s"),
    flag("--clients", "N", Positive, "4", "client worker threads"),
    flag("--seed", "N", Uint, "42", "arrivals + chaos seed"),
    switch("--chaos", "route traffic through the hostile chaos proxy"),
    flag("--crash-at", "MS", Uint, "", "crash-and-recover shard 1 at MS \
                                       (default: midway; 0 disables)"),
    flag("--decommission-at", "MS", Uint, "", "decommission shard 2 at MS \
                                               (default: 3/4 point; 0 disables)"),
    flag("--kill-primary-at", "MS", Uint, "", "hard-kill shard group 0's primary at MS, \
                                               forcing an epoch-bumping backup promotion \
                                               (default: disabled; 0 disables)"),
    flag("--snapshot-dir", "P", Text, "", "per-shard checkpoint and effect-log root \
                                          (default: a temp dir removed after the run)"),
    flag("--faults", "N", Uint, "0", "silicon faults struck on group primaries over the \
                                      first 80 % of the load; the last 20 % heals"),
    flag("--p99", "MS", Uint, "", "with --check, also fail if p99 exceeds MS"),
    flag("--hist-out", "P", Text, "", "write the latency histogram artifact to P"),
    switch("--check", "fail (exit 1) unless the graded fleet invariants hold (honest \
                       staleness, no decommissioned shard served, no resurrected cache, \
                       at-most-once, a request completed, with --kill-primary-at: \
                       failover completes, with --faults: breakers closed and nothing \
                       quarantined at the end, with a crash: recovery skipped the planted \
                       torn snapshot and, two checkpoint intervals in, restored one)"),
    JSON,
];

#[rustfmt::skip]
const DST: &[Flag] = &[
    flag("--seeds", "N", Positive, "200", "seeds to sweep"),
    flag("--seed-base", "N", Uint, "0", "first seed"),
    flag("--jobs", "N", Positive, "1", "worker threads; results merge in seed order, so the \
                                        report is byte-identical at any job count"),
    switch("--fleet", "simulate the replicated fleet (shard groups + router + clients over \
                       a faulty message fabric) instead of the single-process service"),
    flag("--mutation", "M", Text, "none", "known-bad mutation: none | no-cooldown-rebase, or \
                                           with --fleet: none | no-decommission-check | \
                                           no-epoch-fence"),
    flag("--replay", "SEED", Uint, "", "replay one seed and print its full trace"),
    flag("--replay-node", "ID", Text, "", "with --fleet --replay: show only one node's steps \
                                           (shard-G-R | router | client-N | admin | \
                                           anti-entropy)"),
    flag("--trace-out", "P", Text, "", "on violation, write the shrunk failing trace to P"),
    switch("--check", "fail (exit 1) if any seed violates an invariant"),
    JSON,
];

/// A subcommand: its flag table and the function that runs it. A
/// usage error comes back as `Err` and exits 2.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<ExitCode, String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "serve",
        about: "serve the sharded fleet over TCP, then drain",
        flags: SERVE,
        run: serve_cmd,
    },
    Command {
        name: "client",
        about: "read from a running server",
        flags: CLIENT,
        run: client_cmd,
    },
    Command {
        name: "wire-soak",
        about: "load a live TCP fleet open-loop and grade its invariants",
        flags: WIRE_SOAK,
        run: wire_soak_cmd,
    },
    Command {
        name: "dst",
        about: "sweep, replay and shrink seeds of a deterministic simulator",
        flags: DST,
        run: dst_cmd,
    },
];

/// The usage text, generated from the flag tables.
fn help() -> String {
    let mut s = String::from("usage: runtime COMMAND [OPTIONS]   (--help, -h: this text)\n");
    for cmd in COMMANDS {
        s.push_str(&format!("\nruntime {} — {}\n", cmd.name, cmd.about));
        for f in cmd.flags {
            let default = match f.default {
                "" => String::new(),
                d => format!(" (default: {d})"),
            };
            let usage = format!("{} {}", f.name, f.meta);
            s.push_str(&format!("  {:<22} {}{default}\n", usage.trim_end(), f.help));
        }
    }
    s.push_str("\nExit status: 0 clean; 1 when `--check` fails; 2 on usage errors.");
    s
}

/// A subcommand's arguments, each value checked against its table row.
struct Args {
    flags: &'static [Flag],
    values: BTreeMap<&'static str, Vec<String>>,
}

impl Args {
    /// The one parsing loop. `Ok(None)` means `--help` was printed.
    fn parse(flags: &'static [Flag], argv: &[String]) -> Result<Option<Args>, String> {
        let mut values: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", help());
                return Ok(None);
            }
            let f = flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            let value = match f.kind {
                Switch => String::new(),
                kind => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("{} needs a value ({})", f.name, f.meta))?;
                    kind.check(v)
                        .map_err(|want| format!("bad {} value `{v}` (want {want})", f.name))?;
                    v.clone()
                }
            };
            values.entry(f.name).or_default().push(value);
        }
        Ok(Some(Args { flags, values }))
    }

    fn row(&self, name: &str) -> &'static Flag {
        let row = self.flags.iter().find(|f| f.name == name);
        row.expect("flag is in the command's table")
    }

    /// Whether the flag was given.
    fn on(&self, name: &str) -> bool {
        self.values.contains_key(self.row(name).name)
    }

    /// The flag's last value, else its table default.
    fn text(&self, name: &str) -> Option<&str> {
        let default = self.row(name).default;
        match self.values.get(name).and_then(|v| v.last()) {
            Some(v) => Some(v),
            None => (!default.is_empty()).then_some(default),
        }
    }

    /// [`Args::text`], parsed.
    fn opt<T: FromStr<Err: fmt::Debug>>(&self, name: &str) -> Option<T> {
        let v = self.text(name)?;
        Some(v.parse().expect("value was checked against the flag table"))
    }

    /// [`Args::opt`] for a flag with a default.
    fn get<T: FromStr<Err: fmt::Debug>>(&self, name: &str) -> T {
        self.opt(name).expect("flag has a table default")
    }

    /// Every value a repeatable flag was given, parsed.
    fn all<T: FromStr<Err: fmt::Debug>>(&self, name: &str) -> Vec<T> {
        let values = self.values.get(name).map_or(&[][..], Vec::as_slice);
        let parse = |v: &String| v.parse().expect("value was checked against the flag table");
        values.iter().map(parse).collect()
    }
}

fn render_sweep_json<R: RunReport>(out: &SweepOutcome<R>, seed_base: u64) -> String {
    let violations: Vec<String> = out
        .violations
        .iter()
        .map(|r| {
            let v = r.violation().expect("violating report");
            format!(
                "    {{\"seed\": {}, \"invariant\": \"{}\", \"step\": {}, \"at_ms\": {}}}",
                r.seed(),
                v.invariant,
                v.step,
                v.at_ms
            )
        })
        .collect();
    format!(
        "{{\n  \"seed_base\": {},\n  \"seeds\": {},\n  \"steps\": {},\n  \"requests\": {},\n  \
         \"crashes\": {},\n  \"violations\": [\n{}\n  ]\n}}",
        seed_base,
        out.seeds,
        out.steps,
        out.requests,
        out.crashes,
        violations.join(",\n"),
    )
}

/// Writes a failing run's trace, then its shrunk reproducer's scenario
/// and trace, to `path`.
fn write_failure_artifact<S: Simulation>(path: &Path, cfg: &S, report: &S::Report) {
    let mut text = render_trace(report, None);
    if let Some(shrunk) = shrink_failure(cfg) {
        let (count, events) = shrunk.config.scenario();
        text.push_str(&format!(
            "\n# shrunk reproducer: seed {} with {count}\n",
            shrunk.report.seed()
        ));
        for ev in events {
            text.push_str(&format!("#   {ev}\n"));
        }
        text.push_str(&render_trace(&shrunk.report, None));
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("runtime: could not write trace to {}: {e}", path.display());
    } else {
        eprintln!("runtime: failing trace written to {}", path.display());
    }
}

fn dst_cmd(args: &Args) -> Result<ExitCode, String> {
    let fleet = args.on("--fleet");
    if args.on("--replay-node") && !fleet {
        return Err("--replay-node requires --fleet".into());
    }
    if args.on("--replay-node") && !args.on("--replay") {
        return Err("--replay-node requires --replay SEED".into());
    }
    let m: String = args.get("--mutation");
    if fleet {
        let mutation = FleetMutation::parse(&m).ok_or_else(|| {
            format!("bad fleet mutation `{m}` (none | no-decommission-check | no-epoch-fence)")
        })?;
        let base = FleetConfig {
            mutation,
            ..FleetConfig::default()
        };
        if let Some(node) = args.text("--replay-node").filter(|n| !base.has_node(n)) {
            return Err(format!(
                "--replay-node `{node}` is not a node of this fleet (router | admin | \
                 anti-entropy | client-K for K < {} | shard-G-R for G < {}, R < {})",
                base.clients,
                base.shards.max(1),
                base.replication.max(1)
            ));
        }
        Ok(run_dst(args, &base))
    } else {
        let mutation = Mutation::parse(&m)
            .ok_or_else(|| format!("bad mutation `{m}` (none | no-cooldown-rebase)"))?;
        let base = SimConfig {
            mutation,
            ..SimConfig::default()
        };
        Ok(run_dst(args, &base))
    }
}

/// `runtime dst` for either simulator: replay one seed or sweep a
/// range, write the shrunk failing trace, and grade `--check`.
fn run_dst<S: Simulation>(args: &Args, base: &S) -> ExitCode {
    let (check, as_json) = (args.on("--check"), args.on("--json"));
    let trace_out: Option<PathBuf> = args.opt("--trace-out");

    if let Some(seed) = args.opt("--replay") {
        let cfg = base.with_seed(seed);
        let report = cfg.run();
        if as_json {
            println!("{}", report.render_json());
        } else {
            print!("{}", render_trace(&report, args.text("--replay-node")));
        }
        let violated = report.violation().is_some();
        if let (Some(path), true) = (&trace_out, violated) {
            write_failure_artifact(path, &cfg, &report);
        }
        return if check && violated {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }

    let (seed_base, seeds): (u64, u64) = (args.get("--seed-base"), args.get("--seeds"));
    let (jobs, mutation): (usize, String) = (args.get("--jobs"), args.get("--mutation"));
    let kind = <S::Report as RunReport>::KIND;
    let out = sweep_jobs(base, seed_base, seeds, jobs);
    if as_json {
        println!("{}", render_sweep_json(&out, seed_base));
    } else {
        println!(
            "{kind} sweep: {} seed(s) from {seed_base} (mutation {mutation}, {jobs} job(s)): \
             {} step(s), {} request(s), {} crash(es), {} violation(s)",
            out.seeds,
            out.steps,
            out.requests,
            out.crashes,
            out.violations.len()
        );
        for r in &out.violations {
            let v = r.violation().expect("violating report");
            println!(
                "  seed {}: {} at step {} (t={} ms, task {}): {}",
                r.seed(),
                v.invariant,
                v.step,
                v.at_ms,
                v.task,
                v.detail
            );
        }
    }
    if let (Some(path), Some(first)) = (&trace_out, out.violations.first()) {
        write_failure_artifact(path, &base.with_seed(first.seed()), first);
    }
    if check {
        if let Some(first) = out.violations.first() {
            if !as_json {
                eprintln!(
                    "runtime: {kind} check FAILED ({} violating seed(s); replay with \
                     `runtime dst{} --replay {}{}`)",
                    out.violations.len(),
                    if args.on("--fleet") { " --fleet" } else { "" },
                    first.seed(),
                    if mutation == "none" {
                        String::new()
                    } else {
                        format!(" --mutation {mutation}")
                    }
                );
            }
            return ExitCode::from(1);
        }
        if !as_json {
            println!("check PASSED");
        }
    }
    ExitCode::SUCCESS
}

fn serve_cmd(args: &Args) -> Result<ExitCode, String> {
    let (shards, sites, seconds, json): (usize, usize, u64, _) = (
        args.get("--shards"),
        args.get("--sites"),
        args.get("--seconds"),
        args.on("--json"),
    );
    let cfg = WireServerConfig {
        shards,
        sites_per_shard: sites,
        seed: args.get("--seed"),
        snapshot_root: args.opt("--snapshot-dir"),
        ..WireServerConfig::default()
    };
    let bind = format!("127.0.0.1:{}", args.get::<u16>("--port"))
        .parse()
        .expect("literal bind address");
    let server = match WireServer::start(cfg, Some(bind)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runtime: serve failed to start: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    if !json {
        println!(
            "serving {} shard(s) x {} site(s) on {} for {} s",
            shards,
            sites,
            server.addr(),
            seconds
        );
    }
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    let report = match server.drain() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runtime: drain failed: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    let s = &report.stats;
    if json {
        println!(
            "{{\n  \"in_flight_at_drain\": {},\n  \"server\": {}\n}}",
            report.in_flight_at_drain,
            s.render_json().replace('\n', "\n  ")
        );
    } else {
        println!(
            "drained: {} connection(s), {} frame(s) in, {} response(s), {} bad frame(s), \
             {} shed, {} deduped, {} failover(s)",
            s.connections, s.frames_in, s.responses, s.bad_frames, s.shed, s.deduped, s.failovers
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn client_cmd(args: &Args) -> Result<ExitCode, String> {
    let addrs: Vec<SocketAddr> = args.all("--addr");
    if addrs.is_empty() {
        return Err("client needs at least one --addr HOST:PORT".into());
    }
    let (key, count, json): (u64, u64, _) =
        (args.get("--key"), args.get("--count"), args.on("--json"));
    let mut client = WireClient::new(WireClientConfig {
        addrs,
        ..WireClientConfig::default()
    });
    // A server answers an id it has seen with its first answer, so each
    // run draws fresh ids; the low 64 bits of the nonce hold its count
    // and wall nanoseconds, which differ between runs.
    let first_id = dst::unique_nonce() as u64;
    if args.on("--map") {
        return Ok(match client.request_map(first_id) {
            Ok(map) => {
                if json {
                    let rows: Vec<String> = map
                        .entries
                        .iter()
                        .map(|e| {
                            format!(
                                "    {{\"shard\": {}, \"site\": {}, \"value_c\": {:.3}, \
                                 \"age_ms\": {}, \"quarantined\": {}}}",
                                e.shard, e.site, e.value_c, e.age_ms, e.quarantined
                            )
                        })
                        .collect();
                    println!("{{\n  \"entries\": [\n{}\n  ]\n}}", rows.join(",\n"));
                } else {
                    for e in &map.entries {
                        println!(
                            "shard {} site {}: {:.3} °C (age {} ms{})",
                            e.shard,
                            e.site,
                            e.value_c,
                            e.age_ms,
                            if e.quarantined { ", quarantined" } else { "" }
                        );
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("runtime: map request failed: {e}");
                ExitCode::from(1)
            }
        });
    }
    let mut failed = false;
    for i in 0..count {
        let key = key.wrapping_add(i);
        match client.request(first_id.wrapping_add(i), key) {
            Ok(out) => {
                if json {
                    println!(
                        "{{\"key\": {}, \"outcome\": \"{}\", \"origin_shard\": {}, \
                         \"total_age_ms\": {}, \"attempts\": {}, \"latency_ms\": {}}}",
                        key,
                        json_escape(&out.outcome.to_string()),
                        out.origin_shard,
                        out.total_age_ms,
                        out.attempts,
                        out.latency_ms
                    );
                } else {
                    println!(
                        "key {}: {} (shard {}, {} attempt(s), {} ms)",
                        key, out.outcome, out.origin_shard, out.attempts, out.latency_ms
                    );
                }
                if !matches!(out.outcome, WireOutcome::Reading { .. }) {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("runtime: request failed: {e}");
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn wire_soak_cmd(args: &Args) -> Result<ExitCode, String> {
    let (seconds, seed, json): (u64, u64, _) =
        (args.get("--seconds"), args.get("--seed"), args.on("--json"));
    let duration_ms = seconds * 1000;
    let crash = match args.opt("--crash-at") {
        Some(0) => None,
        Some(at) => Some((1usize, at)),
        None => Some((1usize, duration_ms / 2)),
    };
    let decommission = match args.opt("--decommission-at") {
        Some(0) => None,
        Some(at) => Some((2usize, at)),
        None => Some((2usize, (duration_ms * 3) / 4)),
    };
    let kill_primary = match args.opt("--kill-primary-at") {
        Some(0) | None => None,
        Some(at) => Some((0usize, at)),
    };
    // Without `--snapshot-dir` the replicas live in a scratch root this
    // run creates and removes once the soak returns, pass or fail.
    let given: Option<PathBuf> = args.opt("--snapshot-dir");
    let scratch = given.is_none().then(|| {
        std::env::temp_dir().join(format!("tsense-wire-soak-{}-{seed}", std::process::id()))
    });
    let mut cfg = WireSoakConfig {
        seed,
        duration_ms,
        rate_hz: args.get("--rate"),
        clients: args.get("--clients"),
        chaos: args.on("--chaos").then(wire::chaos::ChaosProfile::hostile),
        crash,
        decommission,
        kill_primary,
        faults: args.get("--faults"),
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = given.or_else(|| scratch.clone());
    let outcome = run_wire_soak(&cfg);
    if let Some(dir) = &scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runtime: wire soak failed to run: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    if let Some(path) = args.opt::<PathBuf>("--hist-out") {
        if let Err(e) = std::fs::write(&path, report.latency.render()) {
            eprintln!(
                "runtime: could not write histogram to {}: {e}",
                path.display()
            );
        }
    }
    let p99_us = report.latency.quantile(0.99);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if args.on("--check") {
        let p99_bound_ms: Option<u64> = args.opt("--p99");
        let p99_ok = p99_bound_ms.is_none_or(|ms| p99_us <= ms.saturating_mul(1000));
        if !report.invariants_ok() || !p99_ok {
            if !json {
                eprintln!(
                    "runtime: wire-soak check FAILED ({} violation(s), p99 {p99_us} us{})",
                    report.violations.len(),
                    p99_bound_ms.map_or(String::new(), |ms| format!(" vs bound {ms} ms")),
                );
            }
            return Ok(ExitCode::from(1));
        }
        if !json {
            println!("check PASSED");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = "`serve`, `client`, `wire-soak`, or `dst`";
    let result = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{}", help());
            return ExitCode::SUCCESS;
        }
        None => Err(format!("missing command (try {names})")),
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            None => Err(format!("unknown command `{name}` (try {names})")),
            Some(cmd) => Args::parse(cmd.flags, &args[1..])
                .and_then(|parsed| parsed.map_or(Ok(ExitCode::SUCCESS), |a| (cmd.run)(&a))),
        },
    };
    result.unwrap_or_else(|msg| {
        eprintln!("runtime: {msg}");
        eprintln!("usage: runtime COMMAND [OPTIONS]; `runtime --help` lists every flag");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_default_passes_its_own_check() {
        for cmd in COMMANDS {
            for f in cmd.flags.iter().filter(|f| !f.default.is_empty()) {
                assert!(
                    f.kind.check(f.default).is_ok(),
                    "{} {}: default `{}` fails its check",
                    cmd.name,
                    f.name,
                    f.default
                );
            }
        }
    }
}

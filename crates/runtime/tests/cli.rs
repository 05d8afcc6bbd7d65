//! The `runtime` binary's command line: sweep JSON from both
//! simulators, the node-filtered fleet replay and its node check, the
//! wire soak's `--p99` gate and its scratch snapshot root, fresh
//! request ids on each `client` run, `serve`'s refusal of a fleet the
//! frame budget cannot carry (exit 1), usage errors (exit 2), and a
//! `--help` that names every flag of every subcommand.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn runtime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_runtime"))
        .args(args)
        .output()
        .expect("runtime binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn dst_sweeps_print_a_json_sweep_object() {
    for (args, base, seeds) in [
        (&["dst", "--seeds", "3", "--json"][..], 0, 3),
        (&["dst", "--fleet", "--seeds", "2", "--json"][..], 0, 2),
        (
            &["dst", "--seed-base", "5", "--seeds", "3", "--json"][..],
            5,
            3,
        ),
    ] {
        let out = runtime(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let text = stdout(&out);
        assert!(
            text.starts_with('{') && text.trim_end().ends_with('}'),
            "{text}"
        );
        let base = format!("\"seed_base\": {base},");
        assert!(text.contains(&base), "{args:?}: {text}");
        let seeds = format!("\"seeds\": {seeds},");
        assert!(text.contains(&seeds), "{args:?}: {text}");
        assert!(text.contains("\"violations\": ["), "{text}");
    }
}

#[test]
fn fleet_replay_node_prints_only_that_nodes_steps() {
    let out = runtime(&[
        "dst",
        "--fleet",
        "--replay",
        "3",
        "--mutation",
        "no-epoch-fence",
        "--replay-node",
        "shard-0-1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = lines.next().expect("trace header");
    assert!(header.contains("node shard-0-1"), "{header}");
    let mut steps = 0;
    for line in lines {
        if line.starts_with("VIOLATION") || line == "clean" {
            continue;
        }
        let task = line
            .split_whitespace()
            .last()
            .expect("step line names a task");
        assert_eq!(
            runtime::task_node(task),
            "shard-0-1",
            "foreign step: {line}"
        );
        steps += 1;
    }
    assert!(steps > 0, "shard-0-1 never ran:\n{text}");
}

#[test]
fn replay_node_outside_the_fleet_is_a_usage_error() {
    // The default fleet: 3 groups of 2 replicas and 2 clients.
    // Maintenance tasks (`scan-G-R`) replay under their shard's name.
    for node in [
        "shard-9-9",
        "shard-0-2",
        "shard-3-0",
        "client-2",
        "scan-0-0",
    ] {
        let out = runtime(&[
            "dst",
            "--fleet",
            "--replay",
            "3",
            "--mutation",
            "no-epoch-fence",
            "--replay-node",
            node,
        ]);
        assert_eq!(out.status.code(), Some(2), "{node}: {out:?}");
        assert!(out.stdout.is_empty(), "{node} printed a trace: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("runtime: "), "{node}: {err}");
        for form in [node, "router", "anti-entropy", "client-K", "shard-G-R"] {
            assert!(err.contains(form), "{node}: usage lacks {form}: {err}");
        }
    }
}

#[test]
fn wire_soak_p99_gate_fails_a_zero_bound_and_passes_a_minute() {
    let root = std::env::temp_dir().join(format!("tsense-cli-p99-{}", std::process::id()));
    for (bound_ms, code) in [("0", 1), ("60000", 0)] {
        let dir = root.join(bound_ms);
        let dir = dir.to_str().expect("utf-8 temp dir");
        let out = runtime(&[
            "wire-soak",
            "--seconds",
            "1",
            "--check",
            "--p99",
            bound_ms,
            "--snapshot-dir",
            dir,
        ]);
        assert_eq!(out.status.code(), Some(code), "--p99 {bound_ms}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.contains("check FAILED"),
            code == 1,
            "--p99 {bound_ms}: {err}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn wire_soak_removes_only_the_snapshot_root_it_created() {
    let root = std::env::temp_dir().join(format!("tsense-cli-tmpdir-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let tmpdir = root.join("tmp");
    let given = root.join("given");
    std::fs::create_dir_all(&tmpdir).expect("fresh TMPDIR");
    let given_arg = given.to_str().expect("utf-8 temp dir");
    for extra in [&[][..], &["--snapshot-dir", given_arg][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_runtime"))
            .args(["wire-soak", "--seconds", "1"])
            .args(extra)
            .env("TMPDIR", &tmpdir)
            .output()
            .expect("runtime binary runs");
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {out:?}");
    }
    let left: Vec<_> = std::fs::read_dir(&tmpdir)
        .expect("TMPDIR still exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    assert!(left.is_empty(), "wire-soak left {left:?} in TMPDIR");
    let kept = std::fs::read_dir(&given).map_or(0, Iterator::count);
    assert!(kept > 0, "the given --snapshot-dir must survive the run");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn client_runs_draw_fresh_request_ids() {
    let mut server = Command::new(env!("CARGO_BIN_EXE_runtime"))
        .args(["serve", "--port", "0", "--seconds", "3"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("runtime serve starts");
    let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
    // "serving 3 shard(s) x 6 site(s) on 127.0.0.1:PORT for 3 s"
    let banner = lines.next().expect("a banner").expect("utf-8 banner");
    let addr = banner
        .split_whitespace()
        .skip_while(|word| *word != "on")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    for _ in 0..2 {
        let out = runtime(&["client", "--addr", addr, "--key", "42"]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    let drained = lines
        .map(|line| line.expect("utf-8 stdout"))
        .find(|line| line.starts_with("drained:"))
        .expect("a drain line");
    assert!(server.wait().expect("server exits").success());
    // A second run that reused the first run's id would be replayed
    // the first run's answer: `1 deduped`.
    assert!(drained.contains(" 0 deduped,"), "{drained}");
}

#[test]
fn serve_refuses_a_fleet_the_frame_budget_cannot_carry() {
    // 3 x 60 = 180 sites need a 4534 B map frame. Each side of the
    // second fleet is 2^(bits/2), so the product wraps to 0 unless it
    // saturates.
    let half = (1u128 << (usize::BITS / 2)).to_string();
    for (shards, sites, total) in [
        ("3", "60", "180".to_string()),
        (half.as_str(), half.as_str(), usize::MAX.to_string()),
    ] {
        let out = runtime(&[
            "serve",
            "--shards",
            shards,
            "--sites",
            sites,
            "--seconds",
            "1",
        ]);
        assert_eq!(out.status.code(), Some(1), "{shards} x {sites}: {out:?}");
        assert!(out.stdout.is_empty(), "{shards} x {sites} served: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("runtime: serve failed to start: "), "{err}");
        assert!(err.contains("wire frame budget 4096 B"), "{err}");
        assert!(err.contains(&format!("for {total} sites")), "{err}");
    }
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["dst", "--no-such-flag"][..],
        &["dst", "--seed-range", "0..20"][..],
        &["dst", "--seeds"][..],
        &["dst", "--seeds", "0"][..],
        &["dst", "--replay", "3", "--replay-node", "shard-0-1"][..],
        &["client"][..],
        &["dst", "--mutation", "no-such-mutation"][..],
        &["dst", "--fleet", "--mutation", "no-cooldown-rebase"][..],
        &["soak"][..],
    ] {
        let out = runtime(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("runtime: "), "{args:?}: {err}");
    }
}

#[test]
fn help_names_every_flag_of_every_subcommand() {
    let out = runtime(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let commands = [
        (
            "serve",
            "--shards --sites --port --seconds --seed --snapshot-dir --json",
        ),
        ("client", "--addr --key --count --map --json"),
        (
            "wire-soak",
            "--seconds --rate --clients --seed --chaos --crash-at --decommission-at \
             --kill-primary-at --snapshot-dir --faults --p99 --hist-out --check --json",
        ),
        (
            "dst",
            "--seeds --seed-base --jobs --fleet --mutation --replay \
             --replay-node --trace-out --check --json",
        ),
    ];
    for (name, flags) in commands {
        // Each subcommand's section runs from its heading to the next
        // blank line.
        let heading = format!("runtime {name} ");
        let section = text
            .split("\n\n")
            .find(|s| s.starts_with(&heading))
            .unwrap_or_else(|| panic!("no `{name}` section in:\n{text}"));
        for flag in flags.split_whitespace() {
            let named = section
                .lines()
                .any(|l| l.split_whitespace().next() == Some(flag));
            assert!(named, "`{name}` help lacks {flag}:\n{section}");
        }
    }
    // `--help` is honoured after a subcommand too.
    let sub = runtime(&["dst", "--help"]);
    assert_eq!(sub.status.code(), Some(0), "{sub:?}");
    assert_eq!(stdout(&sub), text);
}

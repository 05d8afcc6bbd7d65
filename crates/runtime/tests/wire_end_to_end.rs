//! End-to-end tests of the wire fleet tier: real sockets, real
//! threads, hostile inputs — every robustness promise of
//! `runtime::serve` exercised against actual TCP bytes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use runtime::{
    run_wire_soak, ClientError, RetryPolicy, RouterPolicy, RuntimeError, WireClient,
    WireClientConfig, WireServer, WireServerConfig, WireSoakConfig,
};
use wire::{ChaosProfile, FleetMsg, WireOutcome};

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wire-e2e-{tag}-{}", dst::unique_nonce()))
}

fn quick_server_cfg() -> WireServerConfig {
    WireServerConfig {
        shards: 3,
        sites_per_shard: 4,
        read_timeout_ms: 300,
        idle_timeout_ms: 800,
        ..WireServerConfig::default()
    }
}

fn quick_client_cfg(server: &WireServer) -> WireClientConfig {
    WireClientConfig {
        addrs: vec![server.addr()],
        connect_timeout_ms: 500,
        request_timeout_ms: 2_000,
        ..WireClientConfig::default()
    }
}

#[test]
fn clean_request_and_map_round_trip() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));

    let out = client.request(1, 42).expect("request answered");
    match out.outcome {
        WireOutcome::Reading { value_c, .. } => {
            assert!(
                (0.0..200.0).contains(&value_c),
                "implausible temperature {value_c}"
            );
        }
        other => panic!("expected a reading, got {other}"),
    }
    assert!(out.origin_shard < 3, "origin {}", out.origin_shard);

    // The thermal map needs the caches warm; scans run every
    // scan_interval_ms (50 ms default).
    thread::sleep(Duration::from_millis(200));
    let map = client.request_map(2).expect("map answered");
    assert_eq!(
        map.entries.len(),
        3 * 4,
        "one row per site across live shards"
    );

    let report = server.drain().expect("drain");
    assert_eq!(report.stats.bad_frames, 0);
    assert!(report.stats.responses >= 2);
}

#[test]
fn retried_request_is_deduplicated_not_reexecuted() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));

    let first = client.request(77, 5).expect("first answer");
    // Same req_id again: the shard must replay its recorded outcome.
    let second = client.request(77, 5).expect("second answer");
    match (&first.outcome, &second.outcome) {
        (WireOutcome::Reading { value_c: a, .. }, WireOutcome::Reading { value_c: b, .. }) => {
            assert_eq!(a, b, "replayed outcome must be identical")
        }
        other => panic!("expected two readings, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.deduped, 1, "second send replays, never re-executes");
    assert_eq!(stats.duplicate_effects, 0);
    server.drain().expect("drain");
}

#[test]
fn malformed_bytes_are_a_typed_close_and_the_server_keeps_serving() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");

    // Garbage that can never be a frame header.
    let mut bad = TcpStream::connect(server.addr()).expect("connect");
    bad.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("send garbage");
    let mut buf = [0u8; 64];
    // The server answers garbage by closing; read returns 0 (or a
    // reset error), never a hang.
    bad.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match bad.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered garbage with {n} bytes"),
    }

    // A truncated-then-corrupted real frame: flip a payload byte.
    let frame = wire::encode_frame(
        &FleetMsg::ClientReq { req_id: 1, key: 2 },
        wire::DEFAULT_FRAME_BUDGET,
    )
    .expect("encode");
    let mut corrupt = frame.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    let mut bad2 = TcpStream::connect(server.addr()).expect("connect");
    bad2.write_all(&corrupt).expect("send corrupt");
    bad2.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match bad2.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered a corrupt frame with {n} bytes"),
    }

    // The same server still serves honest clients.
    let mut client = WireClient::new(quick_client_cfg(&server));
    client.request(9, 9).expect("healthy request still served");

    let report = server.drain().expect("drain");
    assert!(
        report.stats.bad_frames >= 2,
        "both hostile connections counted, got {}",
        report.stats.bad_frames
    );
}

#[test]
fn slowloris_mid_frame_stall_is_closed_within_budget() {
    let mut cfg = quick_server_cfg();
    cfg.read_timeout_ms = 200;
    cfg.idle_timeout_ms = 10_000; // only the stall defense may fire
    let server = WireServer::start(cfg, None).expect("server starts");

    let frame = wire::encode_frame(
        &FleetMsg::ClientReq { req_id: 1, key: 2 },
        wire::DEFAULT_FRAME_BUDGET,
    )
    .expect("encode");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    // Dribble half a frame, then stall forever.
    s.write_all(&frame[..frame.len() / 2]).expect("send half");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let started = Instant::now();
    let mut buf = [0u8; 16];
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered half a frame with {n} bytes"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stalled connection closed within budget, not hung"
    );
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.stalled_closed, 1);
}

#[test]
fn idle_connection_is_closed_after_its_timeout() {
    let mut cfg = quick_server_cfg();
    cfg.idle_timeout_ms = 200;
    let server = WireServer::start(cfg, None).expect("server starts");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("idle connection got {n} bytes"),
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.idle_closed, 1);
}

#[test]
fn overload_sheds_with_a_typed_hint_instead_of_queueing() {
    let mut cfg = quick_server_cfg();
    cfg.max_in_flight = 0; // everything sheds
    let server = WireServer::start(cfg, None).expect("server starts");
    let mut ccfg = quick_client_cfg(&server);
    ccfg.retry = RetryPolicy {
        max_attempts: 2,
        base_delay_ms: 1,
        max_delay_ms: 2,
        multiplier: 2.0,
        jitter: 0.0,
    };
    let mut client = WireClient::new(ccfg);
    match client.request(1, 1) {
        Err(ClientError::Exhausted { last, .. }) => {
            assert!(last.contains("shed"), "last failure was: {last}");
        }
        other => panic!("expected shed-exhausted, got {other:?}"),
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.shed, 2, "every attempt was shed, typed");
}

#[test]
fn graceful_drain_answers_every_accepted_request() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let addr = server.addr();
    let mut senders = Vec::new();
    for w in 0..4u64 {
        senders.push(thread::spawn(move || {
            let mut client = WireClient::new(WireClientConfig {
                addrs: vec![addr],
                connect_timeout_ms: 500,
                request_timeout_ms: 2_000,
                ..WireClientConfig::default()
            });
            let mut answered = 0u64;
            for i in 0..25u64 {
                if client.request(w * 1000 + i, i).is_ok() {
                    answered += 1;
                }
            }
            answered
        }));
    }
    thread::sleep(Duration::from_millis(30));
    let report = server.drain().expect("drain");
    for s in senders {
        // No sender hangs: once drained, further requests fail fast
        // with connect errors, but every accepted frame was answered.
        let _ = s.join().expect("sender thread completed");
    }
    assert_eq!(
        report.stats.frames_in, report.stats.responses,
        "every decoded request got a response before shutdown"
    );
}

/// Sends fresh requests until `group`'s primary holds a logged effect.
fn load_group(server: &WireServer, client: &mut WireClient, group: usize, base: u64) {
    for i in 0..64 {
        if server.group_view(group).expect("view").2[0] > 0 {
            return;
        }
        client.request(base + i, i).expect("loading request");
    }
    panic!("no request landed on group {group}");
}

#[test]
fn crash_recover_has_no_resurrected_cache_and_a_fresh_incarnation() {
    let dir = scratch_dir("crash");
    let mut cfg = quick_server_cfg();
    cfg.snapshot_root = Some(dir.clone());
    let server = WireServer::start(cfg.clone(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));

    for i in 0..5 {
        client.request(i, i).expect("warmup request");
    }
    load_group(&server, &mut client, 0, 1_000);
    // Let maintenance warm caches and write a checkpoint.
    thread::sleep(Duration::from_millis(600));
    server.crash_shard(0).expect("crash shard 0");
    // A rooted replica reopens its effect log from disk as of its last
    // checkpoint; any tail it lost since is repaired from its sibling.
    let (_, _, lens) = server.group_view(0).expect("view");
    assert!(lens[0] > 0 && lens[0] == lens[1], "logs {lens:?}");
    for i in 100..105 {
        client.request(i, i).expect("post-crash request");
    }
    let ledger = server.shard_ledger();
    assert_eq!(ledger[0].0, 1, "shard 0 is on its second incarnation");
    let effect = client.request(7_000, 7).expect("logged request");
    assert!(matches!(effect.outcome, WireOutcome::Reading { .. }));
    let logs = |server: &WireServer| -> Vec<Vec<u64>> {
        (0..3)
            .map(|g| server.group_view(g).expect("view").2)
            .collect()
    };
    let logged = logs(&server);
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.crashes, 1);
    assert_eq!(
        report.stats.resurrected, 0,
        "recovery must rescan, never resurrect a cached median"
    );

    // The drain wrote every live log to disk: a server started over the
    // same root recovers them whole, with nothing to repair, and
    // re-serves a logged request read-only.
    let server = WireServer::start(cfg, None).expect("server restarts");
    assert_eq!(logs(&server), logged, "every log survived the restart");
    let mut client = WireClient::new(quick_client_cfg(&server));
    client.request(7_000, 7).expect("re-served request");
    assert_eq!(logs(&server), logged, "the re-serve added no effect");
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.deduped, 1);
    assert_eq!(report.stats.rejoin_repairs, 0);
    std::fs::remove_dir_all(&dir).ok();

    // An unrooted server keeps its effect logs in memory only: the
    // crashed replica comes back empty and is repaired from its sibling.
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));
    load_group(&server, &mut client, 0, 2_000);
    server.crash_shard(0).expect("crash shard 0");
    let (_, _, lens) = server.group_view(0).expect("view");
    assert_eq!(lens[0], lens[1], "repaired from the sibling");
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.rejoin_repairs, 1);
}

#[test]
fn decommissioned_shard_is_never_served_and_requests_fail_over() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));
    let stamp = server.decommission(1).expect("decommission shard 1");
    for i in 0..30u64 {
        let out = client.request(i, i * 7919).expect("request answered");
        assert_ne!(out.origin_shard, 1, "decommissioned shard served");
        if out.origin_shard != usize::MAX {
            assert!(
                out.origin_shard == 0 || out.origin_shard == 2,
                "origin {}",
                out.origin_shard
            );
            assert!(
                out.forwarded_at_ms < stamp || out.origin_shard != 1,
                "answer forwarded from shard 1 at t={} after decommission t={stamp}",
                out.forwarded_at_ms
            );
        }
    }
    server.drain().expect("drain");
}

#[test]
fn client_fails_over_from_a_dead_address_to_a_live_server() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut cfg = quick_client_cfg(&server);
    // Port 9 (discard) refuses immediately on localhost.
    cfg.addrs = vec!["127.0.0.1:9".parse().expect("addr"), server.addr()];
    cfg.retry.max_attempts = 3;
    let mut client = WireClient::new(cfg);
    let out = client.request(1, 2).expect("failover succeeds");
    assert!(out.attempts >= 2, "first attempt hit the dead address");
    assert!(matches!(out.outcome, WireOutcome::Reading { .. }));
    server.drain().expect("drain");
}

#[test]
fn frame_budget_preflight_refuses_an_unencodable_fleet() {
    // 8 x 32 = 256 sites: a whole-fleet map the one frame budget
    // cannot carry.
    let cfg = WireServerConfig {
        shards: 8,
        sites_per_shard: 32,
        ..WireServerConfig::default()
    };
    match WireServer::start(cfg, None) {
        Err(RuntimeError::FrameBudget {
            budget_bytes,
            required_bytes,
            total_sites,
        }) => {
            assert_eq!(budget_bytes, wire::DEFAULT_FRAME_BUDGET);
            assert_eq!(total_sites, 256);
            assert_eq!(required_bytes, wire::max_response_frame_len(256));
        }
        Err(other) => panic!("expected FrameBudget, got {other:?}"),
        Ok(_) => panic!("under-budgeted server must not start"),
    }
}

#[test]
fn each_key_is_answered_by_the_group_the_fleet_policy_places_it_on() {
    // The simulated router places keys by the same policy.
    let ring = RouterPolicy::fleet(3).ring;
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));
    let mut groups = [0; 3];
    for key in 0..64u64 {
        let placed = ring.route(key, |_| true).expect("a group");
        let out = client.request(key, key).expect("request answered");
        assert_eq!(out.origin_shard, placed, "key {key}");
        groups[placed] += 1;
    }
    assert!(groups.iter().all(|&n| n > 0), "placement {groups:?}");
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.failovers, 0);
}

#[test]
fn killed_primary_fails_over_and_replays_the_replicated_dedup() {
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let mut client = WireClient::new(quick_client_cfg(&server));

    let first = client.request(900, 3).expect("first answer");
    assert!(first.origin_shard < 3);
    // Hard-kill the serving group's primary: the best backup is
    // promoted under a bumped epoch.
    let epoch = server
        .kill_primary(first.origin_shard)
        .expect("a backup gets promoted");
    assert_eq!(epoch, 2, "first promotion moves the group to epoch 2");

    // The retried request (same req_id) lands on the promoted backup.
    // Its *replicated* effect log already holds the request, so it
    // re-serves it read-only — a fresh conversion of the same static
    // field, counted as deduped, with no second effect: failover does
    // not forget acked work.
    let (_, promoted, lens) = server.group_view(first.origin_shard).expect("view");
    let second = client.request(900, 3).expect("re-served answer");
    assert_eq!(second.origin_shard, first.origin_shard);
    match (&first.outcome, &second.outcome) {
        (WireOutcome::Reading { value_c: a, .. }, WireOutcome::Reading { value_c: b, .. }) => {
            assert_eq!(a, b, "the read-only re-serve converts the same field")
        }
        other => panic!("expected two readings, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.promotions, 1);
    assert!(
        stats.deduped >= 1,
        "the promoted backup's replicated log absorbed the retry"
    );
    assert_eq!(stats.duplicate_effects, 0);
    let (_, _, after) = server.group_view(first.origin_shard).expect("view");
    assert_eq!(
        after[promoted], lens[promoted],
        "the re-serve added no effect to the promoted log"
    );
    server.drain().expect("drain");
}

#[test]
fn stale_epoch_refusal_is_transient_and_the_client_retries() {
    // A hand-rolled single-purpose server: the first connection
    // answers like a fenced ex-primary (`Failed { "stale-epoch" }`),
    // the second like the promoted primary. The client must treat the
    // first answer as transient and burn an attempt, not return it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mini = thread::spawn(move || {
        for turn in 0..2 {
            let (mut s, _) = listener.accept().expect("accept");
            let mut dec = wire::Decoder::new(wire::DEFAULT_FRAME_BUDGET);
            let mut buf = [0u8; 1024];
            let req_id = loop {
                let n = s.read(&mut buf).expect("read request");
                dec.feed(&buf[..n]);
                if let Some(FleetMsg::ClientReq { req_id, .. }) =
                    dec.next_frame().expect("well-formed request")
                {
                    break req_id;
                }
            };
            let outcome = if turn == 0 {
                WireOutcome::Failed {
                    kind: "stale-epoch".into(),
                }
            } else {
                WireOutcome::Reading {
                    value_c: 61.5,
                    fresh: true,
                    age_ms: 0,
                }
            };
            let resp = FleetMsg::ClientResp {
                req_id,
                outcome,
                origin_shard: 0,
                forwarded_at_ms: 1,
                total_age_ms: 0,
            };
            let bytes =
                wire::encode_frame(&resp, wire::DEFAULT_FRAME_BUDGET).expect("encode response");
            s.write_all(&bytes).expect("write response");
        }
    });

    let mut cfg = WireClientConfig {
        addrs: vec![addr],
        connect_timeout_ms: 500,
        request_timeout_ms: 2_000,
        ..WireClientConfig::default()
    };
    cfg.retry.max_attempts = 3;
    let mut client = WireClient::new(cfg);
    let out = client.request(5, 1).expect("retry reaches the new primary");
    assert_eq!(out.attempts, 2, "exactly one stale-epoch retry");
    assert!(matches!(out.outcome, WireOutcome::Reading { .. }));
    mini.join().expect("mini server");
}

#[test]
fn poisoned_connection_answers_buffered_work_then_closes_typed() {
    // Satellite of the Decoder-poisoning contract, over real TCP: a
    // connection that sends one valid frame followed by garbage gets
    // its valid request answered, then a typed close — the poisoned
    // decoder must not resynchronize inside the corrupted stream.
    let server = WireServer::start(quick_server_cfg(), None).expect("server starts");
    let frame = wire::encode_frame(
        &FleetMsg::ClientReq { req_id: 31, key: 7 },
        wire::DEFAULT_FRAME_BUDGET,
    )
    .expect("encode");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    let mut payload = frame;
    payload.extend_from_slice(b"\xff\xff\xff\xffnot a frame");
    s.write_all(&payload).expect("send valid+garbage");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // The valid request is answered first...
    let mut dec = wire::Decoder::new(wire::DEFAULT_FRAME_BUDGET);
    let mut buf = [0u8; 1024];
    let answered = loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break None,
            Ok(n) => {
                dec.feed(&buf[..n]);
                if let Ok(Some(msg)) = dec.next_frame() {
                    break Some(msg);
                }
            }
        }
    };
    match answered {
        Some(FleetMsg::ClientResp { req_id, .. }) => assert_eq!(req_id, 31),
        other => panic!("valid frame not answered before the close: {other:?}"),
    }
    // ...then the connection dies on the garbage.
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server kept talking on a poisoned stream: {n} bytes"),
    }

    // And the server itself is unharmed.
    let mut client = WireClient::new(quick_client_cfg(&server));
    client.request(32, 8).expect("healthy request still served");
    let report = server.drain().expect("drain");
    assert_eq!(report.stats.bad_frames, 1, "the garbage was counted");
    assert!(report.stats.responses >= 2);
}

#[test]
fn replicated_chaos_soak_survives_a_mid_run_primary_kill() {
    for chaos in [None, Some(ChaosProfile::hostile())] {
        let dir = scratch_dir("repl-soak");
        let mut cfg = WireSoakConfig {
            seed: 7,
            duration_ms: 2_000,
            rate_hz: 120.0,
            clients: 4,
            chaos,
            crash: Some((1, 600)),
            decommission: None,
            kill_primary: Some((0, 1_000)),
            ..WireSoakConfig::default()
        };
        cfg.server.snapshot_root = Some(dir.clone());
        let report = run_wire_soak(&cfg).expect("soak runs");
        assert!(
            report.invariants_ok(),
            "fleet invariants violated:\n{}",
            report.render()
        );
        assert!(report.requests > 0 && report.completed > 0);
        assert!(
            report.server.promotions >= 1,
            "the killed primary must have been replaced"
        );
        assert_eq!(report.server.duplicate_effects, 0);
        assert!(
            report.server.replicated > 0,
            "acked effects were shipped to backups"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn seeded_chaos_soak_holds_the_four_fleet_invariants() {
    let dir = scratch_dir("soak");
    let mut cfg = WireSoakConfig {
        seed: 11,
        duration_ms: 2_000,
        rate_hz: 120.0,
        clients: 4,
        chaos: Some(ChaosProfile::hostile()),
        crash: Some((1, 700)),
        decommission: Some((2, 1_400)),
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = Some(dir.clone());
    let report = run_wire_soak(&cfg).expect("soak runs");
    assert!(
        report.invariants_ok(),
        "fleet invariants violated:\n{}",
        report.render()
    );
    assert!(
        report.requests > 0 && report.completed > 0,
        "load actually ran"
    );
    assert!(
        report.chaos_faults.expect("chaos was on") > 0,
        "the chaos profile injected nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn silicon_storm_and_torn_snapshot_crash_heal_and_recover() {
    let dir = scratch_dir("storm");
    // 12 channels at 240 req/s: the 800 ms heal window gives each one
    // about 11 reads after the 250 ms breaker cooldown, where a tripped
    // breaker needs 2 probes to close.
    let mut cfg = WireSoakConfig {
        seed: 42,
        duration_ms: 4_000,
        rate_hz: 240.0,
        clients: 4,
        server: quick_server_cfg(),
        crash: Some((1, 1_500)),
        decommission: Some((2, 2_800)),
        faults: 8,
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = Some(dir.clone());
    let report = run_wire_soak(&cfg).expect("soak runs");
    assert!(
        report.invariants_ok(),
        "invariants violated:\n{}",
        report.render()
    );
    assert_eq!(report.injected, 8, "the storm must strike");
    assert_eq!(report.cleared, report.injected, "{}", report.render());
    assert!(
        report.snapshots_skipped >= 1,
        "the planted torn snapshot must be skipped: {}",
        report.render()
    );
    assert!(
        report.recovered_seq.is_some(),
        "a crash 3 checkpoints in recovers one: {}",
        report.render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_soak_completes_every_request() {
    let cfg = WireSoakConfig {
        seed: 7,
        duration_ms: 1_000,
        rate_hz: 120.0,
        clients: 2,
        server: quick_server_cfg(),
        crash: None,
        decommission: None,
        ..WireSoakConfig::default()
    };
    let report = run_wire_soak(&cfg).expect("soak runs");
    assert!(report.invariants_ok(), "{}", report.render());
    assert!(report.requests > 0);
    assert_eq!(report.completed, report.requests, "{}", report.render());
    assert!(report.failed_by_kind.is_empty(), "{}", report.render());
    assert_eq!((report.injected, report.cleared), (0, 0));
    assert_eq!((report.breaker_trips, report.quarantined_at_end), (0, 0));
    assert_eq!((report.recovered_seq, report.snapshots_skipped), (None, 0));
}

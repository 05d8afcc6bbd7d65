//! A long-running server must not keep the stack of every connection
//! thread it ever ran. This file is its own test binary, so no other
//! test's threads map or unmap memory while it counts mappings.

#![cfg(target_os = "linux")]

use runtime::{WireClient, WireClientConfig, WireServer, WireServerConfig};
use wire::WireOutcome;

/// Lines of `/proc/self/maps`: one per mapped region. A thread's stack
/// and its guard page are two, until the thread is joined.
fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn finished_connection_threads_are_joined_while_the_server_runs() {
    let server = WireServer::start(WireServerConfig::default(), None).expect("server starts");
    let cfg = WireClientConfig {
        addrs: vec![server.addr()],
        ..WireClientConfig::default()
    };
    // One request on its own connection, which closes when the client
    // drops.
    let one_request = |req_id: u64| {
        let answer = WireClient::new(cfg.clone())
            .request(req_id, req_id)
            .expect("request answered");
        assert!(
            matches!(answer.outcome, WireOutcome::Reading { .. }),
            "{answer:?}"
        );
    };
    // The first connection maps what every later one reuses.
    one_request(0);
    let before = mapped_regions();
    for req_id in 1..=200 {
        one_request(req_id);
    }
    let grown = mapped_regions().saturating_sub(before);
    server.drain().expect("drain");
    assert!(
        grown < 100,
        "/proc/self/maps grew by {grown} lines over 200 closed connections"
    );
}

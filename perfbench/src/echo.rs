//! The raw loopback baseline: plain TCP connections to peers that
//! answer each request with fixed bytes and do nothing else.
//!
//! A serving round trip is mostly the host's own cost — loopback TCP,
//! syscalls, thread wake-ups — and that cost drifts with the shared
//! host, by up to about 2× over minutes. The baseline pays the same
//! costs without the program. A paired block (see `serve.rs`) gives each
//! lane one baseline connection next to its server connection and
//! alternates between them in short slots, so a serving figure divided
//! by the baseline's figure of the neighbouring slot keeps the program's
//! share and loses the host's drift.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Bytes of a fresh read's request and response frames on the wire.
const REQ_BYTES: usize = 30;
const RESP_BYTES: usize = 60;

/// Opens `n` loopback connections; returns each as `(lane end, peer
/// end)`. The peer end goes to [`answer`] on its own thread.
pub fn connect(n: usize) -> Result<Vec<(TcpStream, TcpStream)>, String> {
    let io = |e: std::io::Error| format!("echo baseline: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let lane = TcpStream::connect(addr).map_err(io)?;
        let (peer, _) = listener.accept().map_err(io)?;
        for s in [&lane, &peer] {
            s.set_nodelay(true).map_err(io)?;
            s.set_read_timeout(Some(Duration::from_secs(2)))
                .map_err(io)?;
        }
        pairs.push((lane, peer));
    }
    Ok(pairs)
}

/// Answers every request until the lane closes its end (or is silent
/// for longer than the read timeout, far longer than a slot).
pub fn answer(mut peer: TcpStream) {
    let mut req = [0u8; REQ_BYTES];
    while peer.read_exact(&mut req).is_ok() && peer.write_all(&[0u8; RESP_BYTES]).is_ok() {}
}

/// One request and its answer on the lane end.
pub fn round_trip(lane: &mut TcpStream) -> std::io::Result<()> {
    let mut resp = [0u8; RESP_BYTES];
    lane.write_all(&[0u8; REQ_BYTES])?;
    lane.read_exact(&mut resp)
}

//! The wire client: bounded retry with backoff and address failover.
//!
//! A [`WireClient`] talks the [`wire`] frame protocol to one or more
//! fleet servers. Its robustness posture mirrors the server's:
//!
//! * every socket operation is timeout-bounded — a dead or dribbling
//!   server costs one attempt, never a hang;
//! * retries are paced by the *same* [`RetryPolicy`] ladder the
//!   supervisors and the router use, and bounded by its attempt
//!   budget;
//! * a failed attempt (connect error, timeout, typed [`Shed`]) fails
//!   over to the next configured address;
//! * the request id is reused across attempts, so the server's
//!   at-most-once dedup makes retried requests safe: the effect runs
//!   once and the recorded outcome is replayed.
//!
//! A typed shard-side failure ([`WireOutcome::Failed`]) is an
//! *answer*, not a transport error — the server's router has already
//! failed over; the client returns it. The one exception is
//! `Failed { kind: "stale-epoch" }`: a fenced ex-primary caught
//! mid-promotion. That refusal is transient by construction, so the
//! client burns an attempt and retries — the retry reaches the newly
//! promoted primary and replays or records normally.
//!
//! [`Shed`]: WireOutcome::Shed

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use wire::{Decoder, FleetMsg, WireError, WireOutcome, DEFAULT_FRAME_BUDGET};

use crate::retry::RetryPolicy;

/// Tuning for one wire client.
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// Server addresses, tried round-robin on failover.
    pub addrs: Vec<SocketAddr>,
    /// Attempt budget and backoff pacing — shared vocabulary with the
    /// server's router and the per-unit supervisors.
    pub retry: RetryPolicy,
    /// TCP connect budget per attempt, milliseconds.
    pub connect_timeout_ms: u64,
    /// Budget for one request's response to arrive, milliseconds.
    pub request_timeout_ms: u64,
    /// Seed for backoff jitter (combined with each request id).
    pub seed: u64,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            addrs: Vec::new(),
            retry: RetryPolicy::default(),
            connect_timeout_ms: 1_000,
            request_timeout_ms: 2_000,
            seed: 0,
        }
    }
}

/// Why a request ultimately failed after the full retry ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The config lists no server addresses.
    NoAddrs,
    /// Every attempt failed; `last` renders the final transport error
    /// or shed.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
    /// The request could not be encoded within the frame budget.
    Encode(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoAddrs => write!(f, "no server addresses configured"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempt(s): {last}")
            }
            ClientError::Encode(e) => write!(f, "request unencodable: {e}"),
        }
    }
}

impl Error for ClientError {}

/// One answered request, with the client-side accounting the soak
/// harness grades invariants on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// The shard's outcome.
    pub outcome: WireOutcome,
    /// The shard the answer came from (`usize::MAX` when none).
    pub origin_shard: usize,
    /// Server time the answer was forwarded.
    pub forwarded_at_ms: u64,
    /// Honest total age reported by the server.
    pub total_age_ms: u64,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Wall-clock latency of the whole ladder, milliseconds.
    pub latency_ms: u64,
}

/// A thermal-map readout ([`FleetMsg::MapResp`]) with attempt
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct MapOutcome {
    /// One row per live site.
    pub entries: Vec<wire::MapEntry>,
    /// Server time the map was assembled.
    pub forwarded_at_ms: u64,
    /// Attempts spent.
    pub attempts: u32,
}

/// A connected (lazily reconnecting) wire client.
pub struct WireClient {
    cfg: WireClientConfig,
    /// Round-robin cursor into `cfg.addrs`, advanced on failover.
    cursor: usize,
    /// The live connection, with its carry-over decoder (bytes of a
    /// late response may precede the one we want).
    conn: Option<(TcpStream, Decoder)>,
    /// Socket read buffer, reused by every attempt.
    buf: Vec<u8>,
    /// The frame of the request in progress, sent by each of its
    /// attempts; one buffer, reused by every request.
    frame: Vec<u8>,
}

impl WireClient {
    /// A client over `cfg.addrs`; connections are opened lazily.
    pub fn new(cfg: WireClientConfig) -> Self {
        WireClient {
            cfg,
            cursor: 0,
            conn: None,
            buf: vec![0; 4096],
            frame: Vec::new(),
        }
    }

    /// Requests a reading for `key`, retrying with backoff and
    /// failing over across addresses. The same `req_id` is sent on
    /// every attempt — the server's dedup makes the retries
    /// at-most-once.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when the attempt budget is spent on
    /// transport failures and sheds; [`ClientError::NoAddrs`] /
    /// [`ClientError::Encode`] for unusable configs.
    pub fn request(&mut self, req_id: u64, key: u64) -> Result<ClientOutcome, ClientError> {
        let msg = FleetMsg::ClientReq { req_id, key };
        self.run_ladder(req_id, &msg, |resp| match resp {
            FleetMsg::ClientResp {
                outcome,
                origin_shard,
                forwarded_at_ms,
                total_age_ms,
                ..
            } => Some((outcome, origin_shard, forwarded_at_ms, total_age_ms)),
            _ => None,
        })
        .map(
            |((outcome, origin_shard, forwarded_at_ms, total_age_ms), attempts, latency_ms)| {
                ClientOutcome {
                    outcome,
                    origin_shard,
                    forwarded_at_ms,
                    total_age_ms,
                    attempts,
                    latency_ms,
                }
            },
        )
    }

    /// Requests the whole-fleet thermal map.
    ///
    /// # Errors
    ///
    /// As [`WireClient::request`].
    pub fn request_map(&mut self, req_id: u64) -> Result<MapOutcome, ClientError> {
        let msg = FleetMsg::MapReq { req_id };
        self.run_ladder(req_id, &msg, |resp| match resp {
            FleetMsg::MapResp {
                entries,
                forwarded_at_ms,
                ..
            } => Some((entries, forwarded_at_ms)),
            // A loaded server sheds map requests like any other.
            FleetMsg::ClientResp {
                outcome: WireOutcome::Shed { .. },
                ..
            } => None,
            _ => None,
        })
        .map(
            |((entries, forwarded_at_ms), attempts, _latency)| MapOutcome {
                entries,
                forwarded_at_ms,
                attempts,
            },
        )
    }

    /// Drives the full retry ladder for one encoded request. `accept`
    /// maps a matching response to the caller's result; a `None` from
    /// it (shed or unexpected shape) burns the attempt and fails
    /// over.
    fn run_ladder<T>(
        &mut self,
        req_id: u64,
        msg: &FleetMsg,
        accept: impl Fn(FleetMsg) -> Option<T>,
    ) -> Result<(T, u32, u64), ClientError> {
        if self.cfg.addrs.is_empty() {
            return Err(ClientError::NoAddrs);
        }
        wire::encode_frame_into(msg, DEFAULT_FRAME_BUDGET, &mut self.frame)
            .map_err(ClientError::Encode)?;
        let mut backoff = self.cfg.retry.backoff(self.cfg.seed ^ req_id);
        let start = Instant::now();
        let mut attempts = 0;
        let mut last = None;
        while attempts < self.cfg.retry.max_attempts {
            if attempts > 0 {
                let delay = backoff.next().unwrap_or(0);
                thread::sleep(Duration::from_millis(delay));
            }
            attempts += 1;
            match self.attempt(req_id) {
                Ok(resp) => {
                    if let FleetMsg::ClientResp {
                        outcome: WireOutcome::Shed { retry_after_ms },
                        ..
                    } = &resp
                    {
                        last = Some(format!("shed (retry after {retry_after_ms} ms)"));
                        thread::sleep(Duration::from_millis(*retry_after_ms));
                        self.failover();
                        continue;
                    }
                    // A fenced ex-primary answers `stale-epoch` while
                    // its group finishes a promotion. Unlike other
                    // typed failures this one is transient by
                    // construction: the retry (same `req_id`, so
                    // still at-most-once) lands on the promoted
                    // primary.
                    if let FleetMsg::ClientResp {
                        outcome: WireOutcome::Failed { kind },
                        ..
                    } = &resp
                    {
                        if kind == "stale-epoch" {
                            last = Some("stale epoch (primary fenced mid-promotion)".into());
                            self.failover();
                            continue;
                        }
                    }
                    match accept(resp) {
                        Some(v) => {
                            let latency_ms = start.elapsed().as_millis() as u64;
                            return Ok((v, attempts, latency_ms));
                        }
                        None => {
                            last = Some("unexpected response shape".into());
                            self.failover();
                        }
                    }
                }
                Err(e) => {
                    last = Some(e);
                    self.failover();
                }
            }
        }
        let last = last.unwrap_or_else(|| "no attempt made".into());
        Err(ClientError::Exhausted { attempts, last })
    }

    /// Drops the current connection and advances to the next address.
    fn failover(&mut self) {
        self.conn = None;
        self.cursor = (self.cursor + 1) % self.cfg.addrs.len().max(1);
    }

    /// One attempt: connect if needed, send the encoded request, await
    /// the matching response within the request timeout.
    fn attempt(&mut self, req_id: u64) -> Result<FleetMsg, String> {
        if self.conn.is_none() {
            let addr = self.cfg.addrs[self.cursor % self.cfg.addrs.len()];
            let stream = TcpStream::connect_timeout(
                &addr,
                Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
            )
            .map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_millis(25)))
                .map_err(|e| format!("set timeouts: {e}"))?;
            stream
                .set_write_timeout(Some(Duration::from_millis(
                    self.cfg.request_timeout_ms.max(1),
                )))
                .map_err(|e| format!("set timeouts: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set nodelay: {e}"))?;
            self.conn = Some((stream, Decoder::new(DEFAULT_FRAME_BUDGET)));
        }
        let (stream, dec) = self.conn.as_mut().expect("connected above");
        stream
            .write_all(&self.frame)
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + Duration::from_millis(self.cfg.request_timeout_ms.max(1));
        loop {
            // Drain already-buffered frames first: a late response to
            // a previous timed-out attempt may precede ours.
            loop {
                match dec.next_frame() {
                    Ok(Some(resp)) if resp.req_id() == req_id => return Ok(resp),
                    Ok(Some(_stale)) => continue,
                    Ok(None) => break,
                    Err(e) => return Err(format!("decode: {e}")),
                }
            }
            if Instant::now() >= deadline {
                return Err("request timed out".into());
            }
            match stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => dec.feed(&self.buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_address_list_is_typed() {
        let mut c = WireClient::new(WireClientConfig::default());
        assert_eq!(c.request(1, 2), Err(ClientError::NoAddrs));
    }

    #[test]
    fn dead_server_exhausts_the_ladder_with_context() {
        let mut cfg = WireClientConfig {
            // Reserved port on localhost that nothing listens on.
            addrs: vec!["127.0.0.1:9".parse().expect("literal addr")],
            connect_timeout_ms: 50,
            request_timeout_ms: 50,
            ..WireClientConfig::default()
        };
        cfg.retry.max_attempts = 2;
        cfg.retry.base_delay_ms = 1;
        cfg.retry.max_delay_ms = 2;
        let mut c = WireClient::new(cfg);
        match c.request(7, 9) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 2);
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }
}

//! Length-prefixed binary frames with typed decode errors.
//!
//! Every frame is a fixed 13-byte header followed by a tagged payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TSWP"
//! 4       1     version (currently 1)
//! 5       4     payload length, u32 LE
//! 9       4     CRC-32 (IEEE) of the payload bytes, u32 LE
//! 13      n     payload: tag byte + fields, all integers LE,
//!               f64 as to_bits()
//! ```
//!
//! Design rules, enforced by construction and by the property suite in
//! `tests/frame_props.rs`:
//!
//! * **Never panic on arbitrary bytes.** Every malformed input maps to
//!   a typed [`WireError`]; the decoder has no `unwrap` on
//!   wire-derived values and no indexing past validated bounds.
//! * **Fail fast on a bad header.** Magic, version, and the frame
//!   budget are checked as soon as 13 bytes arrive — a slowloris peer
//!   dribbling a garbage header is rejected before any payload wait.
//! * **Never allocate attacker-sized buffers.** The payload length is
//!   validated against the configured frame budget before any
//!   allocation, and list counts are validated against the already
//!   bounded payload length.
//! * **Detect corruption before parsing.** The CRC-32 (shared
//!   [`dst::hash::crc32`]) is verified over the raw payload before any
//!   field is decoded, so a bit-flipped frame surfaces as
//!   [`WireError::CrcMismatch`], not as a confusing field error.

use std::fmt;

use dst::hash::crc32;

use crate::msg::{FleetMsg, MapEntry, WireOutcome};

/// Frame magic: first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TSWP";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size: magic + version + payload length + CRC.
pub const FRAME_HEADER_LEN: usize = 13;

/// Upper bound on the `kind` string of [`WireOutcome::Failed`] on the
/// wire; the encoder truncates longer kinds at a character boundary,
/// the decoder rejects them. Keeps the worst-case response frame a
/// closed-form function of the array size.
pub const MAX_ERROR_KIND_LEN: usize = 64;

/// The frame budget both ends of the socket use: it covers thermal
/// maps of up to 162 sites (see [`max_response_frame_len`]), and the
/// server refuses to start a larger fleet.
pub const DEFAULT_FRAME_BUDGET: usize = 4096;

/// Bytes of one encoded [`MapEntry`]: shard + site + value bits +
/// age + quarantined flag.
const MAP_ENTRY_LEN: usize = 4 + 4 + 8 + 8 + 1;

// Payload tags. Kept dense and stable: the wire format is versioned
// by the header byte, not by tag reshuffling.
const TAG_CLIENT_REQ: u8 = 1;
const TAG_CLIENT_RESP: u8 = 2;
const TAG_SHARD_REQ: u8 = 3;
const TAG_SHARD_RESP: u8 = 4;
const TAG_MAP_REQ: u8 = 5;
const TAG_MAP_RESP: u8 = 6;
const TAG_REPLICATE: u8 = 7;
const TAG_REPL_ACK: u8 = 8;
const TAG_PROMOTE: u8 = 9;

const TAG_OUTCOME_READING: u8 = 1;
const TAG_OUTCOME_FAILED: u8 = 2;
const TAG_OUTCOME_SHED: u8 = 3;

/// Why a frame could not be encoded or decoded. Every variant is a
/// protocol fact, not an internal state: callers can log, count, and
/// close on them without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes were not the `TSWP` magic.
    BadMagic {
        /// What arrived instead.
        found: [u8; 4],
    },
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion {
        /// The version that arrived.
        found: u8,
    },
    /// The header announces a frame larger than the configured budget
    /// (or, on encode, the message does not fit the budget).
    FrameTooLarge {
        /// Whole-frame size announced or required, bytes.
        len: usize,
        /// The configured budget, bytes.
        budget: usize,
    },
    /// The payload CRC did not match the header's checksum.
    CrcMismatch {
        /// Checksum announced by the header.
        announced: u32,
        /// Checksum of the payload that arrived.
        computed: u32,
    },
    /// The payload ended before a field it promises.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The payload is longer than the message it encodes.
    TrailingBytes {
        /// Unconsumed bytes after the message.
        extra: usize,
    },
    /// An unknown message tag.
    UnknownMessageTag {
        /// The tag that arrived.
        tag: u8,
    },
    /// An unknown outcome tag inside a response.
    UnknownOutcomeTag {
        /// The tag that arrived.
        tag: u8,
    },
    /// A boolean field held something other than 0 or 1.
    BadBool {
        /// The byte that arrived.
        found: u8,
    },
    /// An error-kind string was over-long or not UTF-8.
    BadKind {
        /// What precisely failed.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            WireError::FrameTooLarge { len, budget } => {
                write!(f, "frame of {len} bytes exceeds the {budget}-byte budget")
            }
            WireError::CrcMismatch {
                announced,
                computed,
            } => write!(f, "payload CRC {computed:08x} != announced {announced:08x}"),
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "payload truncated: next field needs {needed} bytes, {have} remain"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::UnknownMessageTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::UnknownOutcomeTag { tag } => write!(f, "unknown outcome tag {tag}"),
            WireError::BadBool { found } => write!(f, "boolean field holds {found}"),
            WireError::BadKind { detail } => write!(f, "bad error kind: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Truncates an error kind to [`MAX_ERROR_KIND_LEN`] bytes at a
/// character boundary.
fn clamp_kind(kind: &str) -> &str {
    if kind.len() <= MAX_ERROR_KIND_LEN {
        return kind;
    }
    let mut end = MAX_ERROR_KIND_LEN;
    while !kind.is_char_boundary(end) {
        end -= 1;
    }
    &kind[..end]
}

fn put_outcome(out: &mut Vec<u8>, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Reading {
            value_c,
            fresh,
            age_ms,
        } => {
            out.push(TAG_OUTCOME_READING);
            put_u64(out, value_c.to_bits());
            out.push(u8::from(*fresh));
            put_u64(out, *age_ms);
        }
        WireOutcome::Failed { kind } => {
            out.push(TAG_OUTCOME_FAILED);
            let kind = clamp_kind(kind);
            put_u32(out, kind.len() as u32);
            out.extend_from_slice(kind.as_bytes());
        }
        WireOutcome::Shed { retry_after_ms } => {
            out.push(TAG_OUTCOME_SHED);
            put_u64(out, *retry_after_ms);
        }
    }
}

/// `usize` shard indices ride as u32; the simulator's `usize::MAX`
/// "no shard" sentinel maps to `u32::MAX` and back.
fn shard_to_wire(shard: usize) -> u32 {
    u32::try_from(shard).unwrap_or(u32::MAX)
}

fn shard_from_wire(shard: u32) -> usize {
    if shard == u32::MAX {
        usize::MAX
    } else {
        shard as usize
    }
}

/// Appends `msg`'s tagged payload to `p`.
fn encode_payload(msg: &FleetMsg, p: &mut Vec<u8>) {
    match msg {
        FleetMsg::ClientReq { req_id, key } => {
            p.push(TAG_CLIENT_REQ);
            put_u64(p, *req_id);
            put_u64(p, *key);
        }
        FleetMsg::ClientResp {
            req_id,
            outcome,
            origin_shard,
            forwarded_at_ms,
            total_age_ms,
        } => {
            p.push(TAG_CLIENT_RESP);
            put_u64(p, *req_id);
            put_outcome(p, outcome);
            put_u32(p, shard_to_wire(*origin_shard));
            put_u64(p, *forwarded_at_ms);
            put_u64(p, *total_age_ms);
        }
        FleetMsg::ShardReq { req_id, key } => {
            p.push(TAG_SHARD_REQ);
            put_u64(p, *req_id);
            put_u64(p, *key);
        }
        FleetMsg::ShardResp { req_id, outcome } => {
            p.push(TAG_SHARD_RESP);
            put_u64(p, *req_id);
            put_outcome(p, outcome);
        }
        FleetMsg::MapReq { req_id } => {
            p.push(TAG_MAP_REQ);
            put_u64(p, *req_id);
        }
        FleetMsg::MapResp {
            req_id,
            forwarded_at_ms,
            entries,
        } => {
            p.push(TAG_MAP_RESP);
            put_u64(p, *req_id);
            put_u64(p, *forwarded_at_ms);
            put_u32(p, entries.len() as u32);
            for e in entries {
                put_u32(p, e.shard);
                put_u32(p, e.site);
                put_u64(p, e.value_c.to_bits());
                put_u64(p, e.age_ms);
                p.push(u8::from(e.quarantined));
            }
        }
        FleetMsg::Replicate {
            req_id,
            group,
            epoch,
            pos,
            key,
        } => {
            p.push(TAG_REPLICATE);
            put_u64(p, *req_id);
            put_u32(p, *group);
            put_u64(p, *epoch);
            put_u64(p, *pos);
            put_u64(p, *key);
        }
        FleetMsg::ReplAck {
            req_id,
            group,
            epoch,
            pos,
            ok,
        } => {
            p.push(TAG_REPL_ACK);
            put_u64(p, *req_id);
            put_u32(p, *group);
            put_u64(p, *epoch);
            put_u64(p, *pos);
            p.push(u8::from(*ok));
        }
        FleetMsg::Promote {
            req_id,
            group,
            epoch,
            primary,
        } => {
            p.push(TAG_PROMOTE);
            put_u64(p, *req_id);
            put_u32(p, *group);
            put_u64(p, *epoch);
            put_u32(p, *primary);
        }
    }
}

/// Encodes one message as a complete frame (header + payload),
/// refusing frames that exceed `budget` whole-frame bytes. A thin
/// wrapper over [`encode_frame_into`] with a fresh buffer.
pub fn encode_frame(msg: &FleetMsg, budget: usize) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::new();
    encode_frame_into(msg, budget, &mut frame)?;
    Ok(frame)
}

/// Encodes one message as a complete frame into `frame`, replacing its
/// contents, and refuses frames that exceed `budget` whole-frame bytes
/// (leaving `frame` empty).
///
/// The frame is built in the one buffer: the header's 13 bytes are
/// reserved, the payload is encoded straight after them, and the
/// length and CRC are written in place. Every message fits the budget
/// math's bound for its own row count ([`max_response_frame_len`]), so
/// reserving that bound is the one allocation, and a buffer reused for
/// every frame of a connection allocates only when a frame outgrows
/// all before it.
pub fn encode_frame_into(
    msg: &FleetMsg,
    budget: usize,
    frame: &mut Vec<u8>,
) -> Result<(), WireError> {
    let rows = match msg {
        FleetMsg::MapResp { entries, .. } => entries.len(),
        _ => 0,
    };
    frame.clear();
    frame.reserve(max_response_frame_len(rows));
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode_payload(msg, frame);
    let len = frame.len();
    if len > budget {
        frame.clear();
        return Err(WireError::FrameTooLarge { len, budget });
    }
    let payload_len = (len - FRAME_HEADER_LEN) as u32;
    let crc = crc32(&frame[FRAME_HEADER_LEN..]);
    frame[..4].copy_from_slice(&MAGIC);
    frame[4] = PROTOCOL_VERSION;
    frame[5..9].copy_from_slice(&payload_len.to_le_bytes());
    frame[9..13].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounded cursor over a payload slice; every read is checked.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(WireError::BadBool { found }),
        }
    }
}

fn decode_outcome(c: &mut Cursor<'_>) -> Result<WireOutcome, WireError> {
    match c.u8()? {
        TAG_OUTCOME_READING => Ok(WireOutcome::Reading {
            value_c: f64::from_bits(c.u64()?),
            fresh: c.bool()?,
            age_ms: c.u64()?,
        }),
        TAG_OUTCOME_FAILED => {
            let len = c.u32()? as usize;
            if len > MAX_ERROR_KIND_LEN {
                return Err(WireError::BadKind {
                    detail: format!("kind of {len} bytes exceeds {MAX_ERROR_KIND_LEN}"),
                });
            }
            let bytes = c.take(len)?;
            let kind = std::str::from_utf8(bytes)
                .map_err(|e| WireError::BadKind {
                    detail: format!("kind is not UTF-8: {e}"),
                })?
                .to_string();
            Ok(WireOutcome::Failed { kind })
        }
        TAG_OUTCOME_SHED => Ok(WireOutcome::Shed {
            retry_after_ms: c.u64()?,
        }),
        tag => Err(WireError::UnknownOutcomeTag { tag }),
    }
}

fn decode_payload(payload: &[u8]) -> Result<FleetMsg, WireError> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8()? {
        TAG_CLIENT_REQ => FleetMsg::ClientReq {
            req_id: c.u64()?,
            key: c.u64()?,
        },
        TAG_CLIENT_RESP => FleetMsg::ClientResp {
            req_id: c.u64()?,
            outcome: decode_outcome(&mut c)?,
            origin_shard: shard_from_wire(c.u32()?),
            forwarded_at_ms: c.u64()?,
            total_age_ms: c.u64()?,
        },
        TAG_SHARD_REQ => FleetMsg::ShardReq {
            req_id: c.u64()?,
            key: c.u64()?,
        },
        TAG_SHARD_RESP => FleetMsg::ShardResp {
            req_id: c.u64()?,
            outcome: decode_outcome(&mut c)?,
        },
        TAG_MAP_REQ => FleetMsg::MapReq { req_id: c.u64()? },
        TAG_MAP_RESP => {
            let req_id = c.u64()?;
            let forwarded_at_ms = c.u64()?;
            let count = c.u32()? as usize;
            // The payload length is already budget-bounded; this check
            // only rejects counts the remaining bytes cannot hold, so
            // no allocation is ever sized by the count alone.
            let needed = count.saturating_mul(MAP_ENTRY_LEN);
            if c.remaining() < needed {
                return Err(WireError::Truncated {
                    needed,
                    have: c.remaining(),
                });
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(MapEntry {
                    shard: c.u32()?,
                    site: c.u32()?,
                    value_c: f64::from_bits(c.u64()?),
                    age_ms: c.u64()?,
                    quarantined: c.bool()?,
                });
            }
            FleetMsg::MapResp {
                req_id,
                forwarded_at_ms,
                entries,
            }
        }
        TAG_REPLICATE => FleetMsg::Replicate {
            req_id: c.u64()?,
            group: c.u32()?,
            epoch: c.u64()?,
            pos: c.u64()?,
            key: c.u64()?,
        },
        TAG_REPL_ACK => FleetMsg::ReplAck {
            req_id: c.u64()?,
            group: c.u32()?,
            epoch: c.u64()?,
            pos: c.u64()?,
            ok: c.bool()?,
        },
        TAG_PROMOTE => FleetMsg::Promote {
            req_id: c.u64()?,
            group: c.u32()?,
            epoch: c.u64()?,
            primary: c.u32()?,
        },
        tag => return Err(WireError::UnknownMessageTag { tag }),
    };
    if c.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: c.remaining(),
        });
    }
    Ok(msg)
}

/// Decodes exactly one frame from the start of `bytes`, returning the
/// message and the bytes consumed. One-shot convenience over
/// [`Decoder`]; an incomplete frame is [`WireError::Truncated`].
pub fn decode_frame(bytes: &[u8], budget: usize) -> Result<(FleetMsg, usize), WireError> {
    let mut d = Decoder::new(budget);
    d.feed(bytes);
    match d.next_frame()? {
        Some(msg) => Ok((msg, d.consumed())),
        None => Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            have: bytes.len(),
        }),
    }
}

/// Incremental frame decoder: feed bytes in any fragmentation, pull
/// complete messages out. After the first error the stream is
/// poisoned — a framing failure leaves no trustworthy resync point,
/// so the caller must close the connection.
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    consumed_total: usize,
    budget: usize,
    poisoned: Option<WireError>,
}

impl Decoder {
    /// A decoder enforcing `budget` whole-frame bytes.
    pub fn new(budget: usize) -> Self {
        Decoder {
            buf: Vec::new(),
            consumed_total: 0,
            budget,
            poisoned: None,
        }
    }

    /// Appends received bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Total bytes consumed as complete frames so far.
    pub fn consumed(&self) -> usize {
        self.consumed_total
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed. Header problems (bad magic, bad version, over-budget
    /// length) surface as soon as the 13-byte header is buffered,
    /// without waiting for the announced payload.
    pub fn next_frame(&mut self) -> Result<Option<FleetMsg>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.try_next() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<FleetMsg>, WireError> {
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        if self.buf[..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&self.buf[..4]);
            return Err(WireError::BadMagic { found });
        }
        if self.buf[4] != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion { found: self.buf[4] });
        }
        let payload_len =
            u32::from_le_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]) as usize;
        let frame_len = FRAME_HEADER_LEN.saturating_add(payload_len);
        if frame_len > self.budget {
            return Err(WireError::FrameTooLarge {
                len: frame_len,
                budget: self.budget,
            });
        }
        if self.buf.len() < frame_len {
            return Ok(None);
        }
        let announced = u32::from_le_bytes([self.buf[9], self.buf[10], self.buf[11], self.buf[12]]);
        let payload = &self.buf[FRAME_HEADER_LEN..frame_len];
        let computed = crc32(payload);
        if computed != announced {
            return Err(WireError::CrcMismatch {
                announced,
                computed,
            });
        }
        let msg = decode_payload(payload)?;
        self.buf.drain(..frame_len);
        self.consumed_total += frame_len;
        Ok(Some(msg))
    }
}

// ---------------------------------------------------------------------
// Budget math (the server's start-up contract)
// ---------------------------------------------------------------------

/// Worst-case encoded size of one [`WireOutcome`]: a `Failed` with a
/// [`MAX_ERROR_KIND_LEN`]-byte kind.
const MAX_OUTCOME_LEN: usize = 1 + 4 + MAX_ERROR_KIND_LEN;

/// The largest whole-frame response the protocol can emit for a fleet
/// of `total_sites` sensor sites: the larger of the worst-case
/// [`FleetMsg::ClientResp`] and a [`FleetMsg::MapResp`] carrying one
/// row per site. A server whose frame budget is below this can
/// *construct* a legal response it cannot *send*, so the server
/// refuses to start unless `budget >= max_response_frame_len(total_sites)`.
/// The size saturates at `usize::MAX`, so a fleet too large to count
/// never wraps to a small one.
pub fn max_response_frame_len(total_sites: usize) -> usize {
    let client_resp = 1 + 8 + MAX_OUTCOME_LEN + 4 + 8 + 8;
    let map_resp = (1 + 8 + 8 + 4usize).saturating_add(total_sites.saturating_mul(MAP_ENTRY_LEN));
    // The replication answers (`ReplAck`, and `Promote` as delivered
    // to replicas) are fixed-size and strictly smaller than the
    // worst-case `ClientResp`, so the max below covers them too —
    // asserted by `budget_math_covers_every_sample_response`.
    FRAME_HEADER_LEN.saturating_add(client_resp.max(map_resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<FleetMsg> {
        vec![
            FleetMsg::ClientReq { req_id: 7, key: 99 },
            FleetMsg::ClientResp {
                req_id: 7,
                outcome: WireOutcome::Reading {
                    value_c: 85.25,
                    fresh: true,
                    age_ms: 0,
                },
                origin_shard: 2,
                forwarded_at_ms: 1234,
                total_age_ms: 17,
            },
            FleetMsg::ClientResp {
                req_id: 8,
                outcome: WireOutcome::Failed {
                    kind: "deadline".into(),
                },
                origin_shard: usize::MAX,
                forwarded_at_ms: 0,
                total_age_ms: 0,
            },
            FleetMsg::ClientResp {
                req_id: 9,
                outcome: WireOutcome::Shed { retry_after_ms: 25 },
                origin_shard: 0,
                forwarded_at_ms: 55,
                total_age_ms: 0,
            },
            FleetMsg::ShardReq { req_id: 7, key: 99 },
            FleetMsg::ShardResp {
                req_id: 7,
                outcome: WireOutcome::Reading {
                    value_c: -12.5,
                    fresh: false,
                    age_ms: 450,
                },
            },
            FleetMsg::MapReq { req_id: 11 },
            FleetMsg::MapResp {
                req_id: 11,
                forwarded_at_ms: 2000,
                entries: vec![
                    MapEntry {
                        shard: 0,
                        site: 0,
                        value_c: 85.0,
                        age_ms: 12,
                        quarantined: false,
                    },
                    MapEntry {
                        shard: 1,
                        site: 2,
                        value_c: 91.5,
                        age_ms: 80,
                        quarantined: true,
                    },
                ],
            },
            FleetMsg::Replicate {
                req_id: 12,
                group: 1,
                epoch: 3,
                pos: 40,
                key: 99,
            },
            FleetMsg::ReplAck {
                req_id: 12,
                group: 1,
                epoch: 3,
                pos: 41,
                ok: true,
            },
            FleetMsg::ReplAck {
                req_id: 13,
                group: 1,
                epoch: 2,
                pos: 7,
                ok: false,
            },
            FleetMsg::Promote {
                req_id: 14,
                group: 2,
                epoch: 4,
                primary: 1,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_msgs() {
            let frame = encode_frame(&msg, DEFAULT_FRAME_BUDGET).expect("encodes");
            let (back, consumed) = decode_frame(&frame, DEFAULT_FRAME_BUDGET).expect("decodes");
            assert_eq!(back, msg);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn incremental_decode_survives_any_split_point() {
        let msgs = sample_msgs();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m, DEFAULT_FRAME_BUDGET).unwrap());
        }
        // Feed one byte at a time — the slowloris fragmentation.
        let mut dec = Decoder::new(DEFAULT_FRAME_BUDGET);
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(m) = dec.next_frame().expect("clean stream") {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.consumed(), stream.len());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_fails_before_payload_arrives() {
        let mut dec = Decoder::new(DEFAULT_FRAME_BUDGET);
        dec.feed(b"HTTP/1.1 200 "); // 13 bytes of the wrong protocol
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic { .. })));
        // Poisoned: the error sticks.
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn poison_survives_graceful_drain_and_reuse() {
        // A server drains a connection (all buffered frames answered),
        // then the peer sends garbage followed by a perfectly valid
        // frame. Reusing the decoder must NOT re-arm it: the first
        // error is final, and the valid frame after it is never
        // surfaced — there is no trustworthy resync point.
        let good = FleetMsg::ClientReq { req_id: 1, key: 2 };
        let frame = encode_frame(&good, DEFAULT_FRAME_BUDGET).unwrap();
        let mut dec = Decoder::new(DEFAULT_FRAME_BUDGET);
        dec.feed(&frame);
        assert_eq!(dec.next_frame().unwrap(), Some(good.clone()));
        assert_eq!(dec.buffered(), 0, "gracefully drained");

        dec.feed(b"XXXXXXXXXXXXX"); // 13 bytes, wrong magic
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic { .. })));
        let consumed = dec.consumed();

        dec.feed(&frame); // a pristine frame arrives after the poison
        for _ in 0..3 {
            assert!(
                matches!(dec.next_frame(), Err(WireError::BadMagic { .. })),
                "poisoned decoder must keep failing with the original error"
            );
        }
        assert_eq!(dec.consumed(), consumed, "nothing consumed post-poison");
    }

    #[test]
    fn oversized_header_rejected_without_waiting() {
        let msg = FleetMsg::MapReq { req_id: 1 };
        let mut frame = encode_frame(&msg, DEFAULT_FRAME_BUDGET).unwrap();
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = Decoder::new(DEFAULT_FRAME_BUDGET);
        dec.feed(&frame[..FRAME_HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn bit_flip_is_a_crc_mismatch() {
        let msg = FleetMsg::ClientReq { req_id: 1, key: 2 };
        let clean = encode_frame(&msg, DEFAULT_FRAME_BUDGET).unwrap();
        for byte in FRAME_HEADER_LEN..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x40;
            assert!(
                matches!(
                    decode_frame(&dirty, DEFAULT_FRAME_BUDGET),
                    Err(WireError::CrcMismatch { .. })
                ),
                "payload flip at byte {byte} not caught"
            );
        }
    }

    #[test]
    fn truncated_frame_reports_truncation() {
        let msg = FleetMsg::ClientReq { req_id: 1, key: 2 };
        let frame = encode_frame(&msg, DEFAULT_FRAME_BUDGET).unwrap();
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], DEFAULT_FRAME_BUDGET) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn encode_respects_the_budget() {
        let entries: Vec<MapEntry> = (0..100)
            .map(|i| MapEntry {
                shard: 0,
                site: i,
                value_c: 85.0,
                age_ms: 0,
                quarantined: false,
            })
            .collect();
        let msg = FleetMsg::MapResp {
            req_id: 1,
            forwarded_at_ms: 0,
            entries,
        };
        assert!(matches!(
            encode_frame(&msg, 256),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(encode_frame(&msg, DEFAULT_FRAME_BUDGET).is_ok());
    }

    #[test]
    fn over_long_kinds_are_clamped_on_encode_and_rejected_on_decode() {
        let msg = FleetMsg::ShardResp {
            req_id: 1,
            outcome: WireOutcome::Failed {
                kind: "x".repeat(200),
            },
        };
        let frame = encode_frame(&msg, DEFAULT_FRAME_BUDGET).unwrap();
        let (back, _) = decode_frame(&frame, DEFAULT_FRAME_BUDGET).unwrap();
        match back {
            FleetMsg::ShardResp {
                outcome: WireOutcome::Failed { kind },
                ..
            } => assert_eq!(kind.len(), MAX_ERROR_KIND_LEN),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_frame_fills_the_one_buffer_it_reserves() {
        for msg in sample_msgs() {
            let rows = match &msg {
                FleetMsg::MapResp { entries, .. } => entries.len(),
                _ => 0,
            };
            let frame = encode_frame(&msg, DEFAULT_FRAME_BUDGET).expect("encodes");
            // `with_capacity` reserves exactly the bound; a regrowth
            // would have changed it.
            assert_eq!(frame.capacity(), max_response_frame_len(rows), "{msg:?}");
        }
    }

    #[test]
    fn one_reused_buffer_encodes_every_frame_as_encode_frame_does() {
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            encode_frame_into(&msg, DEFAULT_FRAME_BUDGET, &mut buf).expect("encodes");
            assert_eq!(buf, encode_frame(&msg, DEFAULT_FRAME_BUDGET).unwrap());
        }
        // A frame within the capacity already held reuses it.
        let held = buf.capacity();
        let req = FleetMsg::ClientReq { req_id: 1, key: 2 };
        encode_frame_into(&req, DEFAULT_FRAME_BUDGET, &mut buf).expect("encodes");
        assert_eq!(buf.capacity(), held);
        // An over-budget frame leaves the buffer empty, not half built.
        assert!(matches!(
            encode_frame_into(&req, FRAME_HEADER_LEN, &mut buf),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn budget_math_covers_every_sample_response() {
        for msg in sample_msgs() {
            let response = matches!(
                msg,
                FleetMsg::ClientResp { .. }
                    | FleetMsg::MapResp { .. }
                    | FleetMsg::ReplAck { .. }
                    | FleetMsg::Promote { .. }
            );
            if !response {
                continue;
            }
            let frame = encode_frame(&msg, usize::MAX).unwrap();
            assert!(
                frame.len() <= max_response_frame_len(4),
                "{msg:?} exceeds the documented bound"
            );
        }
        // The map term dominates and scales with the array.
        assert!(max_response_frame_len(1000) > max_response_frame_len(10));
        // A fleet too large to count saturates instead of wrapping to a
        // size that fits the budget.
        assert_eq!(max_response_frame_len(usize::MAX), usize::MAX);
        assert_eq!(
            max_response_frame_len(usize::MAX / MAP_ENTRY_LEN),
            usize::MAX
        );
    }
}

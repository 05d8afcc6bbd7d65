//! `wire` — the fleet's real wire protocol.
//!
//! PR 8 proved the fleet design inside a deterministic simulator; this
//! crate is the seam it promised to reuse: the *same* message
//! vocabulary ([`FleetMsg`], [`WireOutcome`]) and the *same*
//! consistent-hash router ([`HashRing`]), now with a byte-level
//! encoding suitable for a hostile network:
//!
//! * [`frame`] — length-prefixed binary frames: a 13-byte header
//!   (magic `TSWP`, version, payload length, CRC-32 of the payload)
//!   followed by a tagged payload. Decoding arbitrary bytes returns
//!   typed [`WireError`]s — never a panic, never an allocation sized
//!   by attacker-controlled lengths beyond the frame budget. The
//!   incremental [`Decoder`] accepts bytes in any fragmentation
//!   (slowloris dribble included) and fails fast on a bad header
//!   without waiting for the full payload.
//! * [`msg`] — the request/response vocabulary carried by the frames,
//!   moved here from `runtime::sim::fleet` so the simulator and the
//!   TCP tier speak literally the same types. New since PR 8:
//!   [`WireOutcome::Shed`] (typed backpressure instead of unbounded
//!   queues) and the thermal-map readout
//!   ([`FleetMsg::MapReq`]/[`FleetMsg::MapResp`]) whose frame size
//!   grows with the array — the reason the server checks its fleet's
//!   size against the frame budget at start-up.
//! * [`ring`] — the consistent-hash [`HashRing`], keyed by the shared
//!   [`dst::hash::fnv1a64`].
//! * [`chaos`] — a seeded TCP chaos proxy for soak tests: delay,
//!   drop, duplicate, byte-dribble slowloris, garbage injection, and
//!   mid-stream close, each drawn from a per-connection seeded RNG so
//!   a hostile run replays.
//!
//! The crate knows nothing about sensors or the runtime: it is pure
//! protocol, so `runtime` (server/client tiers) depends on it without a
//! cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod frame;
pub mod msg;
pub mod ring;

pub use chaos::{ChaosProfile, ChaosProxy, ChaosStats};
pub use frame::{
    decode_frame, encode_frame, encode_frame_into, max_response_frame_len, Decoder, WireError,
    DEFAULT_FRAME_BUDGET, FRAME_HEADER_LEN, MAX_ERROR_KIND_LEN, PROTOCOL_VERSION,
};
pub use msg::{FleetMsg, MapEntry, WireOutcome};
pub use ring::HashRing;

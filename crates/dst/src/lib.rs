//! `dst` — deterministic simulation testing primitives.
//!
//! The monitoring runtime ([`runtime`](https://docs.rs) crate) promises
//! typed deadlines, bounded staleness, legal breaker transitions, and
//! crash-safe recovery. A wall-clock soak samples *one* nondeterministic
//! interleaving of those mechanisms per run; this crate provides the
//! FoundationDB/TigerBeetle-style substrate that lets a test explore
//! *thousands* of interleavings per second, each one replayable
//! byte-for-byte from a seed:
//!
//! * [`clock`] — the [`Clock`] abstraction over time.
//!   [`SystemClock`] reads the host; [`VirtualClock`] advances only
//!   when the simulation says so, making every timeout, backoff,
//!   cooldown, and staleness bound a deterministic function of the
//!   schedule.
//! * [`fs`] — the [`SimFs`] abstraction over storage. [`RealFs`] is
//!   `std::fs`; [`NoDisk`] stores nothing; [`WriteBehind`] buffers
//!   appends until a flush or a checkpoint write; [`SimDisk`] is an
//!   in-memory filesystem that models sync/crash semantics: unsynced
//!   data tears at a seeded byte boundary on power loss, renames can
//!   be left unjournaled, and surviving files can suffer bit rot.
//! * [`executor`] — a seeded single-threaded [`Executor`] that runs
//!   cooperative tasks under permuted interleavings, advances the
//!   virtual clock only at quiescence, records the schedule as a
//!   replayable trace, and stops at the first invariant violation.
//! * [`net`] — the [`SimNet`] message fabric for *multi-node*
//!   simulation: typed envelopes between nodes with per-link delay
//!   windows, seeded drop/duplicate/reorder faults, and partitions
//!   that hold in-flight traffic until healed. Paired with
//!   [`SkewedClock`] (per-node offset + drift over one shared
//!   [`VirtualClock`]) and [`NonceNamespace`] (per-node nonce
//!   sequences), a whole fleet runs inside one seeded [`Executor`].
//! * [`shrink`] — [`shrink_events`], the greedy delta-debugging loop
//!   that cuts a failing input set down to a minimal reproducer.
//! * [`par`] — [`run_indexed`], a scoped-thread batch runner whose
//!   index-ordered results make parallel seed sweeps byte-identical
//!   to serial ones.
//! * [`hash`] — the workspace's shared [`fnv1a64`] content
//!   fingerprint and [`crc32`] checksum, used by the consistent-hash
//!   ring, certificate fingerprints, snapshot trailers, effect-log
//!   records and the wire protocol's frame check, plus
//!   [`IdHashState`], the keyed hasher of `u64` id sets.
//!
//! Nothing here knows about sensors: the crate is generic machinery.
//! The `runtime` crate's `sim` module wires the actual service logic,
//! fault storms, and invariants on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod executor;
pub mod fs;
pub mod hash;
pub mod net;
pub mod par;
pub mod shrink;

pub use clock::{unique_nonce, Clock, NonceNamespace, SkewedClock, SystemClock, VirtualClock};
pub use executor::{Executor, StepRecord, TaskState};
pub use fs::{FsError, NoDisk, RealFs, SimDisk, SimDiskProfile, SimDiskStats, SimFs, WriteBehind};
pub use hash::{crc32, fnv1a64, IdHashState};
pub use net::{Envelope, LinkProfile, NetStats, NodeId, SendOutcome, SimNet};
pub use par::run_indexed;
pub use shrink::shrink_events;

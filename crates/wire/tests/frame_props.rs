//! Property tests of the frame codec's total contract: every
//! encodable [`FleetMsg`] round-trips exactly, and *any* byte
//! stream — random, truncated, or bit-flipped — decodes to a typed
//! [`WireError`], never a panic, a hang, or a silent wrong message.

use proptest::prelude::*;

use wire::{decode_frame, encode_frame, Decoder, FleetMsg, MapEntry, WireOutcome};

/// Budget comfortably above the largest generated message.
const BUDGET: usize = 1 << 16;

/// NaN breaks `PartialEq` round-trip checks (the codec itself is
/// bit-exact); pin non-finite values to a sentinel.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -273.15
    }
}

/// A printable error kind within the wire's 64-byte clamp.
fn arb_kind() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(b"abcdefg-XYZ0123".to_vec()), 0..24)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_outcome() -> impl Strategy<Value = WireOutcome> {
    (
        0u8..3,
        any::<f64>(),
        any::<bool>(),
        any::<u64>(),
        arb_kind(),
    )
        .prop_map(|(tag, value, fresh, n, kind)| match tag {
            0 => WireOutcome::Reading {
                value_c: finite(value),
                fresh,
                age_ms: n,
            },
            1 => WireOutcome::Failed { kind },
            _ => WireOutcome::Shed { retry_after_ms: n },
        })
}

fn arb_entry() -> impl Strategy<Value = MapEntry> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<f64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(shard, site, value, age_ms, quarantined)| MapEntry {
            shard,
            site,
            value_c: finite(value),
            age_ms,
            quarantined,
        })
}

fn arb_msg() -> impl Strategy<Value = FleetMsg> {
    (
        0u8..9,
        any::<u64>(),
        any::<u64>(),
        arb_outcome(),
        prop::collection::vec(arb_entry(), 0..40),
        any::<bool>(),
    )
        .prop_map(|(tag, req_id, n, outcome, entries, max_origin)| match tag {
            0 => FleetMsg::ClientReq { req_id, key: n },
            1 => FleetMsg::ClientResp {
                req_id,
                outcome,
                origin_shard: if max_origin {
                    usize::MAX
                } else {
                    (n % 4096) as usize
                },
                forwarded_at_ms: n,
                total_age_ms: n / 3,
            },
            2 => FleetMsg::ShardReq { req_id, key: n },
            3 => FleetMsg::ShardResp { req_id, outcome },
            4 => FleetMsg::MapReq { req_id },
            5 => FleetMsg::MapResp {
                req_id,
                forwarded_at_ms: n,
                entries,
            },
            6 => FleetMsg::Replicate {
                req_id,
                group: (n % 4096) as u32,
                epoch: n / 7,
                pos: n / 3,
                key: n,
            },
            7 => FleetMsg::ReplAck {
                req_id,
                group: (n % 4096) as u32,
                epoch: n / 7,
                pos: n / 3,
                ok: max_origin,
            },
            _ => FleetMsg::Promote {
                req_id,
                group: (n % 4096) as u32,
                epoch: n / 7,
                primary: (n % 3) as u32,
            },
        })
}

/// Peers built from other commits read these frames: an encoder change
/// must not move a byte.
#[test]
fn client_frames_encode_to_their_golden_bytes() {
    let req = FleetMsg::ClientReq { req_id: 7, key: 99 };
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'T', b'S', b'W', b'P', 1,      // magic, version
        17, 0, 0, 0,                    // payload length
        0xd3, 0x65, 0xd4, 0xed,         // payload CRC-32
        1,                              // tag: ClientReq
        7, 0, 0, 0, 0, 0, 0, 0,         // req_id
        99, 0, 0, 0, 0, 0, 0, 0,        // key
    ];
    assert_eq!(encode_frame(&req, BUDGET).expect("within budget"), golden);

    let resp = FleetMsg::ClientResp {
        req_id: 7,
        outcome: WireOutcome::Reading {
            value_c: 85.25,
            fresh: true,
            age_ms: 3,
        },
        origin_shard: 2,
        forwarded_at_ms: 1234,
        total_age_ms: 17,
    };
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'T', b'S', b'W', b'P', 1,      // magic, version
        47, 0, 0, 0,                    // payload length
        0x0c, 0xa5, 0x33, 0x38,         // payload CRC-32
        2,                              // tag: ClientResp
        7, 0, 0, 0, 0, 0, 0, 0,         // req_id
        1,                              // outcome tag: Reading
        0, 0, 0, 0, 0, 0x50, 0x55, 0x40, // value_c, f64 bits of 85.25
        1,                              // fresh
        3, 0, 0, 0, 0, 0, 0, 0,         // age_ms
        2, 0, 0, 0,                     // origin_shard
        0xd2, 0x04, 0, 0, 0, 0, 0, 0,   // forwarded_at_ms
        17, 0, 0, 0, 0, 0, 0, 0,        // total_age_ms
    ];
    assert_eq!(encode_frame(&resp, BUDGET).expect("within budget"), golden);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips_exactly(msg in arb_msg()) {
        let bytes = encode_frame(&msg, BUDGET).expect("within budget");
        let (back, consumed) = decode_frame(&bytes, BUDGET).expect("own encoding decodes");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn round_trip_survives_arbitrary_chunking(msg in arb_msg(), cut in any::<u64>()) {
        let bytes = encode_frame(&msg, BUDGET).expect("within budget");
        let mut dec = Decoder::new(BUDGET);
        // Split the frame at an arbitrary point and feed both halves;
        // the first half must never yield a frame or an error.
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        dec.feed(&bytes[..cut]);
        if cut < bytes.len() {
            prop_assert!(matches!(dec.next_frame(), Ok(None)));
            dec.feed(&bytes[cut..]);
        }
        let got = dec.next_frame().expect("whole frame decodes");
        prop_assert_eq!(got, Some(msg));
        prop_assert_eq!(dec.consumed(), bytes.len());
    }

    #[test]
    fn arbitrary_bytes_decode_to_typed_errors_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // Whole-buffer decode: typed result either way.
        let _ = decode_frame(&bytes, BUDGET);
        // Incremental decode of the same noise, fed in small chunks.
        let mut dec = Decoder::new(BUDGET);
        for chunk in bytes.chunks(7) {
            dec.feed(chunk);
            if dec.next_frame().is_err() {
                break; // poisoned: a real server hangs up here
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error(msg in arb_msg(), cut in any::<u64>()) {
        let bytes = encode_frame(&msg, BUDGET).expect("within budget");
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            decode_frame(&bytes[..cut], BUDGET).is_err(),
            "a {}-byte prefix of a {}-byte frame must not decode",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn a_poisoned_decoder_is_never_rearmed_by_later_valid_frames(
        good in arb_msg(),
        later in prop::collection::vec(arb_msg(), 1..4),
        noise in prop::collection::vec(any::<u8>(), 13..64),
    ) {
        // Drive the decoder into a poisoned state with garbage (retry
        // until the noise actually errors — almost all 13-byte
        // prefixes fail the magic check immediately).
        let mut dec = Decoder::new(BUDGET);
        let frame = encode_frame(&good, BUDGET).expect("within budget");
        dec.feed(&frame);
        prop_assert_eq!(dec.next_frame().expect("clean frame"), Some(good));
        let drained = dec.consumed();
        dec.feed(&noise);
        let mut first_err = None;
        for _ in 0..noise.len() {
            match dec.next_frame() {
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
                Ok(Some(_)) => {} // noise happened to hold a frame
                Ok(None) => break,
            }
        }
        prop_assume!(first_err.is_some()); // noise decoded cleanly: nothing to test
        let first_err = first_err.unwrap();
        let consumed_at_poison = dec.consumed();
        // The connection-reuse hazard: a server that drained this
        // decoder and reused it for the next request would feed fresh,
        // valid frames. The poison must stick — same error forever,
        // nothing consumed, no message ever surfaced again.
        for msg in later {
            let frame = encode_frame(&msg, BUDGET).expect("within budget");
            dec.feed(&frame);
            prop_assert_eq!(dec.next_frame(), Err(first_err.clone()));
            prop_assert_eq!(dec.next_frame(), Err(first_err.clone()));
        }
        prop_assert_eq!(dec.consumed(), consumed_at_poison);
        prop_assert!(dec.consumed() >= drained);
    }

    #[test]
    fn single_bit_flips_never_pass_for_the_original(
        msg in arb_msg(),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let bytes = encode_frame(&msg, BUDGET).expect("within budget");
        let mut flipped = bytes.clone();
        let pos = (pos % bytes.len() as u64) as usize;
        flipped[pos] ^= 1 << bit;
        match decode_frame(&flipped, BUDGET) {
            // Magic, version, length, and CRC checks catch flips with
            // typed errors...
            Err(_) => {}
            // ...and anything that still decodes must not silently
            // impersonate the original message.
            Ok((back, _)) => prop_assert_ne!(back, msg),
        }
    }
}

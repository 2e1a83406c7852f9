//! Property tests for the node-protocol frame codec: every frame must
//! round-trip byte-exactly, and malformed buffers (trailing garbage,
//! unknown tags, truncation) must be rejected as errors, never panics —
//! this is the layer that parses bytes arriving off a real socket.

use proptest::prelude::*;
use ssj_core::join::bistream::Side;
use ssj_core::MatchPair;
use ssj_distrib::wire::{Frame, MAX_SACK_RANGES};
use ssj_distrib::{JoinMsg, RecordMsg};
use ssj_text::{Record, RecordId, TokenId};
use std::io;
use stormlite::Timestamp;

fn record(id: u64, ts: u64, tokens: &[u32]) -> Record {
    Record::from_sorted(
        RecordId(id),
        ts,
        tokens.iter().map(|&t| TokenId(t)).collect(),
    )
}

/// Round-trips a frame through the codec and asserts byte equality of the
/// re-encoding (the frame types don't implement `PartialEq`; byte-exact
/// re-encoding is the stronger property anyway).
fn roundtrip(frame: &Frame) -> Vec<u8> {
    let bytes = frame.encode().expect("encodable");
    let decoded = Frame::decode(&bytes).expect("decodable");
    let again = decoded.encode().expect("re-encodable");
    assert_eq!(bytes, again, "re-encoding diverged for {frame:?}");
    bytes
}

proptest! {
    #[test]
    fn data_frames_roundtrip(
        seq in 0u64..u64::MAX,
        id in 0u64..1_000_000,
        ts in 0u64..1_000_000,
        tokens in proptest::collection::btree_set(0u32..100_000, 1..40),
        ingest in 0u64..u64::MAX,
        side in 0u8..3,
        kind in 0u8..3,
    ) {
        let payload = RecordMsg {
            record: record(id, ts, &tokens.iter().copied().collect::<Vec<_>>()),
            ingest: Timestamp::from_nanos(ingest),
            side: match side {
                0 => None,
                1 => Some(Side::Left),
                _ => Some(Side::Right),
            },
        };
        let msg = match kind {
            0 => JoinMsg::Probe(payload),
            1 => JoinMsg::Index(payload),
            _ => JoinMsg::ProbeAndIndex(payload),
        };
        roundtrip(&Frame::Data { seq, msg });
    }

    #[test]
    fn control_frames_roundtrip(
        seq in 0u64..u64::MAX,
        epoch in 0u64..u64::MAX,
        injected in 0u64..u64::MAX,
        earlier in 0u64..1_000_000,
        later_off in 1u64..1_000_000,
        sim_bits in 0u64..=u64::MAX,
        window in proptest::collection::vec(0u8..=255, 0..200),
        task in 0u32..64,
    ) {
        // Similarity must survive bit-exactly — differential tests compare
        // similarities to 1e-12, so the codec may not round.
        let similarity = f64::from_bits(sim_bits);
        prop_assume!(similarity.is_finite());
        roundtrip(&Frame::Ack { seq });
        roundtrip(&Frame::Data {
            seq,
            msg: JoinMsg::Barrier {
                epoch,
                injected_at: Timestamp::from_nanos(injected),
            },
        });
        roundtrip(&Frame::Result {
            pair: MatchPair {
                earlier: RecordId(earlier),
                later: RecordId(earlier + later_off),
                similarity,
            },
            ingest: Timestamp::from_nanos(injected),
        });
        roundtrip(&Frame::Snapshot {
            epoch,
            task,
            window: window.clone(),
        });
        roundtrip(&Frame::Restore { window });
        roundtrip(&Frame::Eos);
    }

    #[test]
    fn health_frames_roundtrip(
        nonce in 0u64..=u64::MAX,
        sent_at in 0u64..=u64::MAX,
    ) {
        roundtrip(&Frame::Heartbeat { nonce, sent_at });
        roundtrip(&Frame::HealthAck { nonce, sent_at });
    }

    #[test]
    fn sack_frames_roundtrip(
        start in 0u64..u64::MAX / 2,
        steps in proptest::collection::vec((1u64..1_000, 1u64..1_000), 1..=MAX_SACK_RANGES),
    ) {
        // Ascending, disjoint, non-empty ranges built from gap/length steps.
        let mut held = Vec::new();
        let mut at = start;
        for (gap, len) in steps {
            held.push((at + gap, at + gap + len));
            at += gap + len;
        }
        roundtrip(&Frame::Sack { held });
    }

    #[test]
    fn malformed_sacks_are_rejected(
        ranges in proptest::collection::vec((0u64..64, 0u64..64), 0..=MAX_SACK_RANGES + 1),
    ) {
        // Arbitrary range lists, hand-encoded: the decoder must accept
        // exactly the well-formed ones and never panic on the rest.
        let well_formed = !ranges.is_empty()
            && ranges.len() <= MAX_SACK_RANGES
            && ranges.iter().all(|&(a, b)| a < b)
            && ranges.windows(2).all(|w| w[0].1 <= w[1].0);
        let mut bytes = vec![0x0C, ranges.len() as u8];
        for &(a, b) in &ranges {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        match Frame::decode(&bytes) {
            Ok(Frame::Sack { held }) => {
                prop_assert!(well_formed, "accepted {:?}", ranges);
                prop_assert_eq!(held, ranges);
            }
            Ok(other) => prop_assert!(false, "decoded to {:?}", other),
            Err(e) => {
                prop_assert!(!well_formed, "rejected {:?}: {}", ranges, e);
                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn truncated_health_frames_error_out(
        nonce in 0u64..=u64::MAX,
        sent_at in 0u64..=u64::MAX,
        cut in 0usize..10_000,
    ) {
        for frame in [
            Frame::Heartbeat { nonce, sent_at },
            Frame::HealthAck { nonce, sent_at },
        ] {
            let bytes = frame.encode().unwrap();
            let cut = 1 + cut % (bytes.len() - 1);
            prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        seq in 0u64..u64::MAX,
        garbage in proptest::collection::vec(0u8..=255, 1..32),
    ) {
        // A frame is one whole buffer off the length-prefixed transport;
        // bytes past the end mean the stream is corrupt.
        let mut bytes = Frame::Ack { seq }.encode().unwrap();
        bytes.extend_from_slice(&garbage);
        let err = Frame::decode(&bytes).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tags_are_rejected(
        tag in 0x40u8..=0xFF,
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        let err = Frame::decode(&bytes).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_error_out(
        seq in 0u64..u64::MAX,
        id in 0u64..1_000_000,
        tokens in proptest::collection::btree_set(0u32..100_000, 1..20),
        cut in 0usize..10_000,
    ) {
        let bytes = Frame::Data {
            seq,
            msg: JoinMsg::Probe(RecordMsg::solo(
                record(id, 3, &tokens.iter().copied().collect::<Vec<_>>()),
                Timestamp::from_nanos(7),
            )),
        }
        .encode()
        .unwrap();
        let cut = 1 + cut % (bytes.len() - 1);
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn empty_buffer_is_rejected(_x in 0u8..1) {
        prop_assert!(Frame::decode(&[]).is_err());
    }

    #[test]
    fn sealed_frames_roundtrip_and_random_flips_are_detected(
        seed in 0u64..=u64::MAX,
        bit_pick in 0usize..1_000_000,
    ) {
        for frame in every_frame_type(seed) {
            let sealed = frame.encode_sealed().unwrap();
            // Clean seal opens; the unsealed encoding still decodes with
            // checksums off (v2 interop path).
            let reopened = Frame::decode_checked(&sealed, true).unwrap();
            prop_assert_eq!(
                reopened.encode().unwrap(),
                frame.encode().unwrap(),
                "sealed roundtrip diverged for {:?}", frame
            );
            let mut flipped = sealed.clone();
            let bit = bit_pick % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = Frame::decode_checked(&flipped, true).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn sealed_truncations_are_detected(
        seed in 0u64..=u64::MAX,
        cut_pick in 0usize..1_000_000,
    ) {
        for frame in every_frame_type(seed) {
            let sealed = frame.encode_sealed().unwrap();
            let cut = cut_pick % sealed.len();
            prop_assert!(
                Frame::decode_checked(&sealed[..cut], true).is_err(),
                "truncation at {} of {} accepted for {:?}", cut, sealed.len(), frame
            );
        }
    }
}

/// One instance of every frame type in the protocol, parameterized by a
/// seed so sweeps cover varied field values. Kept exhaustive by hand: a
/// new `Frame` variant should be added here so the integrity sweeps cover
/// it.
fn every_frame_type(seed: u64) -> Vec<Frame> {
    use ssj_core::{JoinStats, SimFn, Window};
    use ssj_distrib::wire::{NodeConfig, NodeReport};
    use ssj_distrib::LocalAlgo;

    let msg = RecordMsg {
        record: record(seed % 1000, 3, &[1, 2, (seed % 97) as u32 + 3]),
        ingest: Timestamp::from_nanos(seed),
        side: Some(Side::Left),
    };
    vec![
        Frame::Hello {
            proto: (seed % 7) as u16,
            task: (seed % 5) as u32,
        },
        Frame::Config(NodeConfig {
            task: 1,
            k: 4,
            sim: SimFn::Jaccard,
            tau: 0.75,
            window: Window::Count(seed % 100 + 1),
            algo: LocalAlgo::bundle(),
            bistream: seed.is_multiple_of(2),
            dedup: seed.is_multiple_of(3),
            resume_seq: seed,
        }),
        Frame::Data {
            seq: seed,
            msg: JoinMsg::Probe(msg.clone()),
        },
        Frame::Data {
            seq: seed,
            msg: JoinMsg::Index(msg.clone()),
        },
        Frame::Data {
            seq: seed,
            msg: JoinMsg::ProbeAndIndex(msg.clone()),
        },
        Frame::Data {
            seq: seed,
            msg: JoinMsg::Barrier {
                epoch: seed % 17,
                injected_at: Timestamp::from_nanos(seed),
            },
        },
        Frame::Data {
            seq: seed,
            msg: JoinMsg::Batch(vec![JoinMsg::Probe(msg.clone()), JoinMsg::Index(msg)]),
        },
        Frame::Ack { seq: seed },
        Frame::Result {
            pair: MatchPair {
                earlier: RecordId(seed % 999),
                later: RecordId(seed % 999 + 1),
                similarity: 0.875,
            },
            ingest: Timestamp::from_nanos(seed),
        },
        Frame::Snapshot {
            epoch: seed % 13,
            task: (seed % 5) as u32,
            window: vec![(seed % 251) as u8; (seed % 40) as usize + 1],
        },
        Frame::Restore {
            window: vec![(seed % 251) as u8; (seed % 40) as usize + 1],
        },
        Frame::Done(NodeReport {
            stats: JoinStats::default(),
            stored: seed % 1_000,
            postings: seed % 10_000,
        }),
        Frame::Heartbeat {
            nonce: seed,
            sent_at: seed.wrapping_mul(3),
        },
        Frame::HealthAck {
            nonce: seed,
            sent_at: seed.wrapping_mul(3),
        },
        Frame::Sack {
            held: vec![
                (seed % 1000 + 1, seed % 1000 + 3),
                (seed % 1000 + 7, seed % 1000 + 8),
            ],
        },
        Frame::Eos,
    ]
}

/// Protocol v4 added one frame and changed no other: every pre-v4 frame
/// kind, over a spread of field values, encodes to the exact bytes the
/// v3 codec produced (pinned as an FNV-1a digest taken from that codec).
#[test]
fn pre_v4_frames_keep_their_exact_bytes() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for seed in [0u64, 1, 42, 1 << 40, u64::MAX] {
        for frame in every_frame_type(seed) {
            if matches!(frame, Frame::Sack { .. }) {
                continue;
            }
            for b in frame.encode().unwrap() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    assert_eq!(h, 0x4a69_df82_82d8_7f22);
}

/// Exhaustive single-bit sweep over one fixed instance of every frame
/// type: with checksums on, *no* bit position may survive — a flip is a
/// checksum mismatch, never a misparse into a different valid frame.
#[test]
fn every_bit_flip_of_every_frame_type_is_detected() {
    for frame in every_frame_type(42) {
        let sealed = frame.encode_sealed().unwrap();
        for bit in 0..sealed.len() * 8 {
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Frame::decode_checked(&flipped, true).is_err(),
                "bit {bit} flip of {frame:?} was not detected"
            );
        }
    }
}

//! Node-side integrity: garbage bytes arriving on a node's wire — in the
//! handshake or mid-stream — must end the serve loop with a classified
//! `InvalidData` error, never a panic. The launcher treats that error
//! close as a dead node and respawns it; the node's only job is to die
//! cleanly.

use ssj_core::{JoinConfig, SimFn, Threshold, Window};
use ssj_distrib::wire::{Frame, NodeConfig, PROTO_VERSION};
use ssj_distrib::{node_serve, node_serve_at, JoinMsg, RecordMsg};
use ssj_text::{Record, RecordId, TokenId};
use std::io;
use std::time::Duration;
use stormlite::{channel_wire_pair, Timestamp, Wire, WireEvent};

fn config_frame(task: u32) -> Frame {
    let join = JoinConfig {
        threshold: Threshold::jaccard(0.8),
        window: Window::Unbounded,
    };
    Frame::Config(NodeConfig {
        task,
        k: 1,
        sim: SimFn::Jaccard,
        tau: join.threshold.tau(),
        window: join.window,
        algo: ssj_distrib::LocalAlgo::bundle(),
        bistream: false,
        dedup: false,
        resume_seq: 0,
    })
}

fn data_frame(seq: u64, id: u64) -> Frame {
    Frame::Data {
        seq,
        msg: JoinMsg::ProbeAndIndex(RecordMsg::solo(
            Record::from_sorted(RecordId(id), id, vec![TokenId(1), TokenId(2)]),
            Timestamp::from_nanos(id),
        )),
    }
}

/// Drains the node's Hello so the test can speak launcher.
fn expect_hello(wire: &mut dyn Wire, proto: u16) {
    match wire.recv_timeout(Duration::from_secs(5)).unwrap() {
        WireEvent::Frame(b) => match Frame::decode_checked(&b, false).unwrap() {
            Frame::Hello { proto: p, task: 0 } => assert_eq!(p, proto),
            other => panic!("expected Hello, got {other:?}"),
        },
        other => panic!("expected Hello frame, got {other:?}"),
    }
}

#[test]
fn garbage_instead_of_config_is_an_error_not_a_panic() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher, PROTO_VERSION);
    launcher.send(b"\xde\xad\xbe\xef not a frame").unwrap();
    launcher.flush().unwrap();
    let err = node
        .join()
        .unwrap()
        .expect_err("garbage handshake must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn garbage_data_frame_mid_stream_is_an_error_not_a_panic() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher, PROTO_VERSION);
    launcher
        .send(&config_frame(0).encode_sealed().unwrap())
        .unwrap();
    launcher
        .send(&data_frame(0, 1).encode_sealed().unwrap())
        .unwrap();
    // Arbitrary garbage where a sealed frame should be.
    launcher.send(&[0u8; 40]).unwrap();
    launcher.flush().unwrap();
    let err = node.join().unwrap().expect_err("garbage frame must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn single_bit_flip_on_a_valid_frame_is_a_checksum_mismatch() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher, PROTO_VERSION);
    launcher
        .send(&config_frame(0).encode_sealed().unwrap())
        .unwrap();
    let mut frame = data_frame(0, 1).encode_sealed().unwrap();
    let mid = frame.len() / 2;
    frame[mid] ^= 0x10;
    launcher.send(&frame).unwrap();
    launcher.flush().unwrap();
    let err = node.join().unwrap().expect_err("flipped frame must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("checksum"),
        "a sealed-frame flip should die on the checksum, not misparse: {msg}"
    );
}

#[test]
fn v2_node_runs_unsealed_and_still_rejects_garbage() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve_at(&mut node_wire, 0, 2));
    expect_hello(&mut launcher, 2);
    // A v2 peer speaks the unsealed encoding end to end.
    launcher.send(&config_frame(0).encode().unwrap()).unwrap();
    launcher.send(&data_frame(0, 1).encode().unwrap()).unwrap();
    launcher.flush().unwrap();
    // Its ack comes back unsealed too.
    let acked = loop {
        match launcher.recv_timeout(Duration::from_secs(5)).unwrap() {
            WireEvent::Frame(b) => {
                if let Frame::Ack { seq } = Frame::decode_checked(&b, false).unwrap() {
                    break seq;
                }
            }
            WireEvent::Idle => {}
            other => panic!("wire died early: {other:?}"),
        }
    };
    assert_eq!(acked, 0);
    // Garbage is still structurally invalid without checksums: error, not
    // panic, not a silent misparse.
    launcher.send(&[0xFFu8; 64]).unwrap();
    launcher.flush().unwrap();
    let err = node
        .join()
        .unwrap()
        .expect_err("garbage must fail on v2 too");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

/// Reads node frames until one matches `stop`; returns every `Sack`
/// body seen before it.
fn sacks_until(wire: &mut dyn Wire, stop: impl Fn(&Frame) -> bool) -> Vec<Vec<(u64, u64)>> {
    let mut sacks = Vec::new();
    loop {
        match wire.recv_timeout(Duration::from_secs(5)).unwrap() {
            WireEvent::Frame(b) => {
                let frame = Frame::decode_checked(&b, true).unwrap();
                if stop(&frame) {
                    return sacks;
                }
                if let Frame::Sack { held } = frame {
                    sacks.push(held);
                }
            }
            other => panic!("the awaited frame never came: {other:?}"),
        }
    }
}

#[test]
fn a_v4_node_reports_held_ranges_and_a_v3_node_never_does() {
    for proto in [3u16, PROTO_VERSION] {
        let (mut launcher, mut node_wire) = channel_wire_pair(64);
        let node = std::thread::spawn(move || node_serve_at(&mut node_wire, 0, proto));
        expect_hello(&mut launcher, proto);
        let send = |launcher: &mut dyn Wire, f: Frame| {
            launcher.send(&f.encode_sealed().unwrap()).unwrap();
            launcher.flush().unwrap();
        };
        send(&mut launcher, config_frame(0));
        send(&mut launcher, data_frame(0, 1));
        // Seqs 1 and 4 go missing: 2, 3 and 5 wait above the gaps.
        for seq in [2, 3, 5] {
            send(&mut launcher, data_frame(seq, seq + 1));
        }
        if proto >= 4 {
            // Reported once the node's queue runs dry, possibly after
            // partial reports of the frames it had taken so far.
            let full = vec![(2, 4), (5, 6)];
            sacks_until(
                &mut launcher,
                |f| matches!(f, Frame::Sack { held } if *held == full),
            );
        } else {
            // The echo proves the node took 2, 3 and 5; it drains and
            // blocks right after, where a v4 node would report.
            send(
                &mut launcher,
                Frame::Heartbeat {
                    nonce: 1,
                    sent_at: 0,
                },
            );
            let sacks = sacks_until(&mut launcher, |f| matches!(f, Frame::HealthAck { .. }));
            assert!(sacks.is_empty(), "a v3 node sent {sacks:?}");
        }
        // Filling the holes releases everything; a gap-free buffer has
        // nothing left to report.
        send(&mut launcher, data_frame(1, 2));
        send(&mut launcher, data_frame(4, 5));
        let late = sacks_until(&mut launcher, |f| matches!(f, Frame::Ack { seq: 5 }));
        assert!(late.is_empty(), "v{proto} reported {late:?} after the fill");
        send(&mut launcher, Frame::Eos);
        sacks_until(&mut launcher, |f| matches!(f, Frame::Done(_)));
        drop(launcher);
        node.join().unwrap().expect("clean run");
    }
}

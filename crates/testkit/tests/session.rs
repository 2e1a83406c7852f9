//! Unit tests of the cluster session's selective-ack logic
//! (`ssj_distrib::session`): the node's reorder buffer and held-range
//! reports, and the launcher's loss rule. Pure functions, so every case
//! is exact; each still runs under a deadline, because the failure mode
//! of a broken reorder buffer in a live cluster is a hang.

use ssj_distrib::session::{apply_sack, is_lost, InFlight, ReorderBuffer, SACK_REORDER};
use ssj_distrib::wire::MAX_SACK_RANGES as MAX;
use std::collections::BTreeMap;
use std::time::Duration;
use testkit::with_deadline;

const DEADLINE: Duration = Duration::from_secs(30);

fn buffer_with(next: u64, seqs: &[u64]) -> ReorderBuffer<u64> {
    let mut b = ReorderBuffer::new(next);
    for &s in seqs {
        b.insert(s, s);
    }
    b
}

#[derive(Debug, Clone, Copy)]
struct F {
    tx: u64,
    sacked: bool,
}

impl InFlight for F {
    fn tx(&self) -> u64 {
        self.tx
    }
    fn sacked(&self) -> bool {
        self.sacked
    }
    fn set_sacked(&mut self) {
        self.sacked = true;
    }
}

/// `seq → tx` frames, none SACKed.
fn in_flight(frames: &[(u64, u64)]) -> BTreeMap<u64, F> {
    frames
        .iter()
        .map(|&(seq, tx)| (seq, F { tx, sacked: false }))
        .collect()
}

#[test]
fn held_ranges_merge_contiguous_runs_and_split_at_gaps() {
    with_deadline(DEADLINE, || {
        let b = buffer_with(0, &[3, 4, 5, 9, 11, 12]);
        assert_eq!(b.held_ranges(MAX), vec![(3, 6), (9, 10), (11, 13)]);
        assert_eq!(buffer_with(0, &[7]).held_ranges(MAX), vec![(7, 8)]);
        assert!(buffer_with(0, &[]).held_ranges(MAX).is_empty());
    });
}

#[test]
fn in_order_frames_pop_at_once_and_never_report() {
    with_deadline(DEADLINE, || {
        let mut b = ReorderBuffer::new(5);
        for seq in 5..10 {
            assert!(b.insert(seq, seq));
            assert_eq!(b.pop_ready(), Some((seq, seq)));
            assert_eq!(b.pop_ready(), None);
            assert_eq!(b.report(MAX), None, "a gap-free stream never reports");
        }
        assert!(b.is_empty());
    });
}

#[test]
fn gaps_hold_frames_until_they_close() {
    with_deadline(DEADLINE, || {
        let mut b = buffer_with(0, &[1, 2, 4]);
        assert_eq!(b.pop_ready(), None);
        assert_eq!(b.report(MAX), Some(vec![(1, 3), (4, 5)]));
        assert_eq!(b.report(MAX), None, "nothing new since the last report");
        b.insert(0, 0);
        let popped: Vec<u64> = std::iter::from_fn(|| b.pop_ready().map(|(s, _)| s)).collect();
        assert_eq!(popped, vec![0, 1, 2]);
        assert_eq!(b.held_ranges(MAX), vec![(4, 5)]);
        assert_eq!(b.report(MAX), None, "filling a gap is not news");
        b.insert(6, 6);
        assert_eq!(b.report(MAX), Some(vec![(4, 5), (6, 7)]));
    });
}

#[test]
fn duplicates_and_stale_frames_are_absorbed() {
    with_deadline(DEADLINE, || {
        let mut b = buffer_with(3, &[5, 6]);
        assert!(b.report(MAX).is_some());
        assert!(b.insert(5, 500), "a held duplicate is absorbed");
        assert_eq!(b.report(MAX), None, "a duplicate changes nothing");
        assert!(!b.insert(2, 2), "below next: already processed");
        b.insert(3, 3);
        b.insert(4, 4);
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| b.pop_ready()).collect();
        assert_eq!(popped, vec![(3, 3), (4, 4), (5, 5), (6, 6)]);
    });
}

#[test]
fn held_ranges_keep_the_lowest_64() {
    with_deadline(DEADLINE, || {
        // 100 isolated frames above a gap at 0: 100 one-frame ranges.
        let seqs: Vec<u64> = (0..100).map(|i| 2 * i + 1).collect();
        let mut b = buffer_with(0, &seqs);
        let ranges = b.held_ranges(MAX);
        assert_eq!(ranges.len(), MAX);
        assert_eq!(ranges[0], (1, 2));
        assert_eq!(ranges[63], (127, 128));
        assert_eq!(b.report(MAX).unwrap(), ranges);
        // A run that extends the 64th range is still reported whole.
        b.insert(128, 128);
        b.insert(129, 129);
        assert_eq!(b.held_ranges(MAX)[63], (127, 130));
    });
}

#[test]
fn loss_rule_tolerates_reordering_up_to_the_bound() {
    with_deadline(DEADLINE, || {
        assert!(
            !is_lost(false, 10, 12),
            "overtaken by two: presumed delayed"
        );
        assert!(is_lost(false, 10, 10 + SACK_REORDER));
        assert!(!is_lost(true, 10, 100), "a SACKed frame is never lost");
        assert!(!is_lost(false, 10, 5), "sent after the newest SACKed frame");

        // Frames 0..6 sent at tx 1..=6; the node holds 2 and 5.
        let mut unacked = in_flight(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        // Newest SACKed tx is 6: tx ≤ 3 unreported frames are lost.
        assert_eq!(apply_sack(&mut unacked, &[(2, 3), (5, 6)]), vec![0, 1]);
        assert!(unacked[&2].sacked && unacked[&5].sacked);
        assert!(!unacked[&3].sacked && !unacked[&4].sacked);
    });
}

#[test]
fn sacked_frames_are_never_resent() {
    with_deadline(DEADLINE, || {
        let mut unacked = in_flight(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 20)]);
        let lost = apply_sack(&mut unacked, &[(1, 5)]);
        assert_eq!(lost, vec![0]);
        // A later report that reaches further: the held frames stay
        // out of the lost set however old they are.
        let lost = apply_sack(&mut unacked, &[(1, 6)]);
        assert_eq!(lost, vec![0]);
        assert!((1..6).all(|s| unacked[&s].sacked));
    });
}

#[test]
fn resent_frames_wait_for_newer_evidence() {
    with_deadline(DEADLINE, || {
        let mut unacked = in_flight(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(apply_sack(&mut unacked, &[(4, 5)]), vec![0, 1]);
        // The launcher resends 0 and 1 at tx 6 and 7; the same report
        // again names nothing new as lost until later sends overtake.
        unacked.get_mut(&0).unwrap().tx = 6;
        unacked.get_mut(&1).unwrap().tx = 7;
        assert_eq!(apply_sack(&mut unacked, &[(4, 5)]), Vec::<u64>::new());
        unacked.insert(
            5,
            F {
                tx: 10,
                sacked: false,
            },
        );
        assert_eq!(apply_sack(&mut unacked, &[(4, 6)]), vec![0, 1, 2, 3]);
    });
}

#[test]
fn acked_and_unknown_seqs_in_a_report_are_ignored() {
    with_deadline(DEADLINE, || {
        // 0..3 were acked and are gone; 9 was never sent.
        let mut unacked = in_flight(&[(3, 4), (4, 5)]);
        assert!(apply_sack(&mut unacked, &[(0, 3), (9, 12)]).is_empty());
        assert!(!unacked[&3].sacked && !unacked[&4].sacked);
        let mut empty: BTreeMap<u64, F> = BTreeMap::new();
        assert!(apply_sack(&mut empty, &[(0, 100)]).is_empty());
    });
}

//! Selective-ack session logic of the cluster protocol, with no I/O and
//! no clocks: the node's reorder buffer and the launcher's loss rule.
//!
//! A node processes data frames strictly in `seq` order. Frames that
//! arrive above a gap wait in a [`ReorderBuffer`], and the node reports
//! them to the launcher as held `seq` ranges ([`ReorderBuffer::report`],
//! carried by [`Frame::Sack`](crate::wire::Frame::Sack)). The launcher
//! marks the reported frames SACKed with [`apply_sack`] and resends at
//! once every frame the loss rule ([`is_lost`]) names: a frame is lost
//! when the node has not reported it and a frame sent at least
//! [`SACK_REORDER`] transmissions later has already arrived. The
//! retransmission timer stays as the backstop for what no later arrival
//! can expose — a lost tail, or a lost retransmission with nothing sent
//! after it.

use std::collections::BTreeMap;

/// Transmissions an unreported frame may trail the newest SACKed frame
/// before it counts as lost. Chaos links delay frames by up to a few
/// transmissions; a frame overtaken by fewer than this many later sends
/// is presumed delayed, not dropped. A protocol constant, not a knob.
pub const SACK_REORDER: u64 = 3;

/// Node-side reorder buffer: out-of-order data frames wait here until the
/// sequence gap below them closes.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    held: BTreeMap<u64, T>,
    /// A frame was newly held since the last [`ReorderBuffer::report`].
    changed: bool,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer whose next expected sequence number is `next`.
    pub fn new(next: u64) -> Self {
        Self {
            next,
            held: BTreeMap::new(),
            changed: false,
        }
    }

    /// Whether no frame waits above a gap.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Accepts frame `seq`. Returns `false` when `seq` was already
    /// processed (a retransmission the caller re-acks); a duplicate of a
    /// frame still held is absorbed.
    pub fn insert(&mut self, seq: u64, item: T) -> bool {
        if seq < self.next {
            return false;
        }
        if !self.held.contains_key(&seq) {
            self.changed |= seq > self.next;
            self.held.insert(seq, item);
        }
        true
    }

    /// Takes the next in-order frame, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<(u64, T)> {
        let entry = self.held.first_entry()?;
        if *entry.key() != self.next {
            return None;
        }
        self.next += 1;
        Some(entry.remove_entry())
    }

    /// The held sequence numbers as ascending, disjoint, maximal
    /// half-open ranges — the lowest `max` of them.
    pub fn held_ranges(&self, max: usize) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &seq in self.held.keys() {
            if let Some((_, end)) = ranges.last_mut().filter(|(_, end)| *end == seq) {
                *end += 1;
            } else if ranges.len() < max {
                ranges.push((seq, seq + 1));
            } else {
                break;
            }
        }
        ranges
    }

    /// The ranges to report, if any frame is held and the held set grew
    /// since the last report. A buffer that never sees a gap never
    /// reports.
    pub fn report(&mut self, max: usize) -> Option<Vec<(u64, u64)>> {
        if !std::mem::take(&mut self.changed) || self.held.is_empty() {
            return None;
        }
        Some(self.held_ranges(max))
    }
}

/// What the loss rule reads and writes of one unacked frame.
pub trait InFlight {
    /// The link's transmission ordinal at this frame's last send.
    fn tx(&self) -> u64;
    /// Whether the node reported holding this frame.
    fn sacked(&self) -> bool;
    /// Records that the node holds this frame.
    fn set_sacked(&mut self);
}

/// The loss rule: an unreported frame last sent at transmission `tx` is
/// lost once the newest SACKed frame was sent at least [`SACK_REORDER`]
/// transmissions after it.
pub fn is_lost(sacked: bool, tx: u64, newest_sacked_tx: u64) -> bool {
    !sacked && tx.saturating_add(SACK_REORDER) <= newest_sacked_tx
}

/// Applies one selective ack to the unacked frames of a link: marks every
/// frame inside `held` SACKed and returns the sequence numbers the loss
/// rule names lost, ascending. Reported sequence numbers that are not in
/// `unacked` (already acked, or never sent) are ignored.
pub fn apply_sack<F: InFlight>(unacked: &mut BTreeMap<u64, F>, held: &[(u64, u64)]) -> Vec<u64> {
    let mut newest = None;
    for &(start, end) in held.iter().filter(|(start, end)| start < end) {
        for frame in unacked.range_mut(start..end).map(|(_, f)| f) {
            frame.set_sacked();
            newest = newest.max(Some(frame.tx()));
        }
    }
    let Some(newest) = newest else {
        return Vec::new();
    };
    unacked
        .iter()
        .filter(|(_, f)| is_lost(f.sacked(), f.tx(), newest))
        .map(|(&seq, _)| seq)
        .collect()
}

//! Correctness of every run: a single-threaded reference join and a
//! per-probe-record comparison against it, plus an input fingerprint so
//! two commits can be shown to have seen identical records.

use ssj_core::join::{run_stream, BundleConfig, BundleJoiner, JoinConfig, MatchPair};
use ssj_text::Record;

/// Result pairs keyed `(later, earlier)`: grouped by the probing record,
/// which is the unit `failed_frac` counts.
pub type ProbeKey = (u64, u64);

/// Sorted probe keys of a pair list (duplicates kept, so a duplicated
/// emission shows up as a difference).
pub fn probe_keys(pairs: &[MatchPair]) -> Vec<ProbeKey> {
    let mut keys: Vec<ProbeKey> = pairs.iter().map(|p| (p.later.0, p.earlier.0)).collect();
    keys.sort_unstable();
    keys
}

/// The reference result: the stream through one single-threaded bundle
/// joiner (the local algorithm every joiner runs), which the repository's
/// tests pin to the O(n²) oracle.
pub fn reference_pairs(records: &[Record], join: JoinConfig) -> Vec<MatchPair> {
    let mut joiner = BundleJoiner::new(BundleConfig::new(join));
    run_stream(&mut joiner, records)
}

/// [`reference_pairs`] as sorted probe keys.
pub fn reference(records: &[Record], join: JoinConfig) -> Vec<ProbeKey> {
    probe_keys(&reference_pairs(records, join))
}

/// Number of probe records whose emitted pairs differ from the reference
/// in any way: a missing pair, a spurious pair or a duplicated pair. Both
/// inputs must be sorted.
pub fn failed_records(got: &[ProbeKey], want: &[ProbeKey]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut failed = 0;
    while i < got.len() || j < want.len() {
        // The next probe record present on either side.
        let probe = match (got.get(i), want.get(j)) {
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => unreachable!(),
        };
        let gi = i + got[i..].iter().take_while(|k| k.0 == probe).count();
        let wj = j + want[j..].iter().take_while(|k| k.0 == probe).count();
        if got[i..gi] != want[j..wj] {
            failed += 1;
        }
        (i, j) = (gi, wj);
    }
    failed
}

/// FNV-1a over every record's id, timestamp and tokens: equal hashes on
/// two commits mean both measured the same input.
pub fn records_hash(records: &[Record]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in records {
        eat(r.id().0);
        eat(r.timestamp());
        eat(r.len() as u64);
        for &t in r.tokens() {
            eat(u64::from(t.0));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const WANT: [ProbeKey; 5] = [(2, 1), (3, 1), (3, 2), (7, 4), (9, 8)];

    #[test]
    fn identical_sets_fail_nothing() {
        assert_eq!(failed_records(&WANT, &WANT), 0);
        assert_eq!(failed_records(&[], &[]), 0);
    }

    #[test]
    fn missing_pair_fails_its_probe_record() {
        let got = [(2, 1), (3, 1), (7, 4), (9, 8)];
        assert_eq!(failed_records(&got, &WANT), 1);
        // A probe record whose pairs are all missing.
        let got = [(2, 1), (3, 1), (3, 2), (9, 8)];
        assert_eq!(failed_records(&got, &WANT), 1);
    }

    #[test]
    fn spurious_pair_fails_its_probe_record() {
        let got = [(2, 1), (3, 1), (3, 2), (5, 4), (7, 4), (9, 8)];
        assert_eq!(failed_records(&got, &WANT), 1);
        let got = [(2, 1), (3, 0), (3, 1), (3, 2), (7, 4), (9, 8), (10, 1)];
        assert_eq!(failed_records(&got, &WANT), 2);
    }

    #[test]
    fn duplicated_pair_fails_its_probe_record() {
        let got = [(2, 1), (3, 1), (3, 1), (3, 2), (7, 4), (9, 8), (9, 8)];
        assert_eq!(failed_records(&got, &WANT), 2);
    }

    #[test]
    fn everything_wrong_counts_each_probe_record_once() {
        assert_eq!(failed_records(&[], &WANT), 4);
        assert_eq!(failed_records(&WANT, &[]), 4);
    }

    #[test]
    fn hash_sees_every_token() {
        use ssj_text::{RecordId, TokenId};
        let rec = |toks: [u32; 3]| Record::from_sorted(RecordId(1), 0, toks.map(TokenId).to_vec());
        let (a, b) = (rec([1, 2, 3]), rec([1, 2, 4]));
        let hash = |r: &Record| records_hash(std::slice::from_ref(r));
        assert_ne!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&a.clone()));
    }
}

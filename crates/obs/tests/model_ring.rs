//! Interleaving model checks for the shared SPSC transport,
//! [`SeqRing`]: the one protocol the hub's beat rings and the wall's
//! span rings both instantiate.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"` (plus the
//! `trace` feature): the shim in `execmig_obs::model` then routes every
//! atomic through `execmig_model`'s bounded-DFS scheduler, so these
//! tests assert the protocol across *every* bounded interleaving and
//! every stale value the memory model permits.
//!
//! The same file is the mutation gate: built with
//! `--cfg execmig_weak_head` (the Release head bump weakened to
//! Relaxed) or `--cfg execmig_torn_slot` (record word 3 stored after
//! the head bump), [`push_drain_protocol`] must *fail* to find a clean
//! exploration. CI runs all three configurations.

#![cfg(all(execmig_model, feature = "trace"))]

use execmig_model::{try_explore, Config};
use execmig_obs::model::sync::Arc;
use execmig_obs::model::thread;
use execmig_obs::spsc::SeqRing;

/// Record `k`: every payload word derives from `k` and none is zero,
/// so a mix of stale and fresh words (or the all-zero initial cell)
/// never passes [`untorn`].
fn record(k: u64) -> [u64; 5] {
    [k, 2 * k, 3 * k, k + 1, 0]
}

/// The record's `k`, after checking that its words belong together.
fn untorn(w: &[u64; 5]) -> u64 {
    let k = w[0];
    assert_eq!(w[1..4], [2 * k, 3 * k, k + 1], "torn record {w:?}");
    k
}

/// One producer pushing three records through a capacity-2 ring while
/// the main thread drains concurrently.
///
/// Clean orderings: every drained record is whole, records come out in
/// push order exactly once, and after the join drained == accepted and
/// accepted + dropped == pushed. Mutated orderings: the exploration
/// MUST detect a violation.
#[test]
fn push_drain_protocol() {
    let result = try_explore(Config::default(), || {
        let ring = Arc::new(SeqRing::<5>::new(2));
        assert!(ring.claim(), "first claim wins");
        let producer_ring = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            (1..=3u64)
                .filter(|&k| producer_ring.push(record(k)))
                .count() as u64
        });

        let mut seen = Vec::new();
        ring.drain(|w| seen.push(untorn(w)));
        ring.drain(|w| seen.push(untorn(w)));
        let accepted = producer.join().expect("producer");
        ring.drain(|w| seen.push(untorn(w)));

        assert!(
            seen.windows(2).all(|p| p[0] < p[1]),
            "records drained out of order or twice: {seen:?}"
        );
        let totals = SeqRing::totals(std::slice::from_ref(&*ring));
        assert_eq!(totals.accepted, accepted);
        assert_eq!(seen.len() as u64, accepted, "drained == accepted");
        assert_eq!(totals.accepted + totals.dropped, 3, "push conservation");
        assert_eq!(ring.dropped(), totals.dropped);
    });

    #[cfg(not(any(execmig_weak_head, execmig_torn_slot)))]
    {
        let report = result.expect("correct orderings: no violation in any bounded interleaving");
        assert!(
            report.executions > 1,
            "the exploration must actually branch"
        );
    }
    #[cfg(any(execmig_weak_head, execmig_torn_slot))]
    {
        let v = result.expect_err(
            "mutation gate: a weakened Release head bump / reordered record store \
             must surface as a detected torn or stale read",
        );
        eprintln!("mutation detected, as required:\n{v}");
    }
}

/// Claiming is exclusive under every interleaving: two racing
/// claimants, exactly one wins, so each ring has one producer.
#[cfg(not(any(execmig_weak_head, execmig_torn_slot)))]
#[test]
fn claim_is_exclusive() {
    execmig_model::explore(|| {
        let ring = Arc::new(SeqRing::<2>::new(2));
        let rival_ring = Arc::clone(&ring);
        let rival = thread::spawn(move || rival_ring.claim());
        let mine = ring.claim();
        let theirs = rival.join().expect("rival");
        assert!(
            mine ^ theirs,
            "exactly one claimant may win (mine={mine}, theirs={theirs})"
        );
    });
}

/// Drop accounting is exact when producer and consumer are sequenced:
/// four pushes into a capacity-2 ring with no intervening drain is two
/// accepted (the oldest) and two counted drops. Single-threaded, so it
/// holds under the mutation cfgs too — coherence forces a thread to
/// see its own stores.
#[test]
fn full_ring_drops_exactly_counted() {
    execmig_model::explore(|| {
        let ring = SeqRing::<5>::new(2);
        let accepted: Vec<bool> = (1..=4).map(|k| ring.push(record(k))).collect();
        assert_eq!(accepted, [true, true, false, false]);
        let mut seen = Vec::new();
        assert_eq!(ring.drain(|w| seen.push(untorn(w))), 2);
        assert_eq!(seen, [1, 2], "the oldest records are kept");
        let totals = SeqRing::totals(std::slice::from_ref(&ring));
        assert_eq!((totals.accepted, totals.dropped), (2, 2));
        assert_eq!(
            totals.bytes,
            2 * 5 * 8,
            "bytes ride only on accepted records"
        );
    });
}

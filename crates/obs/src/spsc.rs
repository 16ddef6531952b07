//! The one lock-free transport behind live telemetry: a bounded
//! single-producer/single-consumer ring of fixed-size `u64` records.
//!
//! Hub beats ([`crate::hub`], 12 words) and wall spans
//! ([`crate::wall`], 6 words) are encode/decode schemas over
//! [`SeqRing`]; the protocol itself lives here once:
//!
//! - **Claim.** [`SeqRing::claim`] is a first-claim-wins swap, so each
//!   ring has exactly one producer handle.
//! - **Push.** The producer writes the record words with relaxed stores
//!   and publishes them with one release store of `head`. A full ring
//!   drops the record and counts the drop; the producer never waits.
//! - **Drain.** The consumer acquires `head`, reads every record in
//!   `[tail, head)`, and hands the cells back with one release store of
//!   `tail`. Owners serialise their drains (the hub and the wall both
//!   drain under their aggregation mutex).
//! - **Self-accounting.** Accepted records, dropped records and the
//!   producer's self-billed nanoseconds are monotone counters, exact
//!   once the producer is joined.
//!
//! The ring stamps each record's sequence number into its last word
//! and checks it on drain, so a torn or stale read trips a debug
//! assertion. Every atomic goes through [`crate::model`]: under
//! `--cfg execmig_model` the same source is model-checked
//! (`tests/model_ring.rs`), and two mutation cfgs break the protocol on
//! purpose so the checks can prove they notice: `execmig_weak_head`
//! (the release head store weakened to relaxed) and `execmig_torn_slot`
//! (record word 3 stored after the head bump).

use crate::model::sync::{AtomicBool, AtomicU64, Ordering};

/// A bounded SPSC ring of `W`-word records. The last word of each
/// record is the ring's sequence stamp; schemas leave it zero.
pub struct SeqRing<const W: usize> {
    /// Next sequence number the producer writes (monotonic).
    head: AtomicU64,
    /// Next sequence number the consumer reads.
    tail: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
    billed_ns: AtomicU64,
    claimed: AtomicBool,
    /// Cell `i` holds sequence numbers `≡ i (mod capacity)`.
    cells: Vec<[AtomicU64; W]>,
}

/// Accepted/dropped/billed totals over a set of rings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingTotals {
    /// Records accepted.
    pub accepted: u64,
    /// Records dropped on a full ring.
    pub dropped: u64,
    /// Payload bytes moved (`accepted × record size`).
    pub bytes: u64,
    /// Producer nanoseconds billed with [`SeqRing::bill`].
    pub billed_ns: u64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring buffering `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "ring capacity must be ≥ 2");
        SeqRing {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            billed_ns: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            cells: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Claims the producer role: true for the first caller only. The
    /// winner must keep pushes on one thread at a time.
    pub fn claim(&self) -> bool {
        // ord: AcqRel swap pairs claim attempts with each other so
        // exactly one caller wins the ring.
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    /// Producer side: appends `record` (its last word replaced by the
    /// sequence stamp) and returns true, or counts a drop and returns
    /// false when the ring is full.
    pub fn push(&self, record: [u64; W]) -> bool {
        // ord: Relaxed — head is producer-owned; we are its only
        // writer.
        let head = self.head.load(Ordering::Relaxed);
        // ord: Acquire pairs with the consumer's Release tail store in
        // drain(): once tail covers a cell, the consumer is done
        // reading it and we may overwrite.
        let tail = self.tail.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        if head.wrapping_sub(tail) >= cap {
            // ord: Relaxed — monotone drop counter, producer-owned.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut words = record;
        words[W - 1] = head;
        let cell = &self.cells[(head % cap) as usize];
        #[cfg(not(execmig_torn_slot))]
        for (c, w) in cell.iter().zip(words) {
            // ord: Relaxed — the Release head store below publishes
            // these words.
            c.store(w, Ordering::Relaxed);
        }
        #[cfg(execmig_torn_slot)]
        for (i, (c, w)) in cell.iter().zip(words).enumerate() {
            if i != 3 {
                // ord: Relaxed — deliberately torn mutation: word 3
                // lands after the head bump below.
                c.store(w, Ordering::Relaxed);
            }
        }
        #[cfg(not(execmig_weak_head))]
        // ord: Release publishes the record words written above; pairs
        // with the Acquire head load in drain().
        self.head.store(head + 1, Ordering::Release);
        #[cfg(execmig_weak_head)]
        // ord: Relaxed — deliberately broken mutation: without the
        // release pairing, drain() may read torn records.
        self.head.store(head + 1, Ordering::Relaxed);
        #[cfg(execmig_torn_slot)]
        // ord: Relaxed — deliberately broken mutation: word 3 is
        // published after the head bump.
        cell[3].store(words[3], Ordering::Relaxed);
        // ord: Relaxed — monotone self-accounting counter.
        self.accepted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Producer side: adds `ns` to the self-billed time.
    pub fn bill(&self, ns: u64) {
        // ord: Relaxed — monotone self-accounting counter.
        self.billed_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Consumer side: hands every record in `[tail, head)` to `each`,
    /// oldest first, then frees their cells. Returns how many records
    /// were drained. Callers must not drain one ring concurrently.
    pub fn drain(&self, mut each: impl FnMut(&[u64; W])) -> u64 {
        // ord: Acquire pairs with the producer's Release head store in
        // push(): everything below `head` is fully written before we
        // read it.
        let head = self.head.load(Ordering::Acquire);
        // ord: Relaxed — tail is consumer-owned and drains are
        // serialised by the caller.
        let tail = self.tail.load(Ordering::Relaxed);
        let cap = self.cells.len() as u64;
        let mut words = [0u64; W];
        for seq in tail..head {
            for (w, c) in words.iter_mut().zip(&self.cells[(seq % cap) as usize]) {
                // ord: Relaxed — covered by the Acquire head load above.
                *w = c.load(Ordering::Relaxed);
            }
            debug_assert_eq!(words[W - 1], seq, "ring sequence mismatch");
            each(&words);
        }
        if head != tail {
            // ord: Release pairs with the producer's Acquire tail load
            // in push(): the cells are no longer ours once tail
            // advances.
            self.tail.store(head, Ordering::Release);
        }
        head - tail
    }

    /// Records dropped on a full ring so far.
    pub fn dropped(&self) -> u64 {
        // ord: Relaxed — monotone counter read for display; exact once
        // the producer is joined.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Accepted/dropped/billed totals over `rings`.
    pub fn totals(rings: &[SeqRing<W>]) -> RingTotals {
        let mut t = RingTotals::default();
        for ring in rings {
            // Monotone self-accounting counters: readers tolerate
            // slight lag, exact once the producer thread is joined.
            t.accepted += ring.accepted.load(Ordering::Relaxed); // ord: monotone counter
            t.dropped += ring.dropped.load(Ordering::Relaxed); // ord: monotone counter
            t.billed_ns += ring.billed_ns.load(Ordering::Relaxed); // ord: monotone counter
        }
        t.bytes = t.accepted * W as u64 * 8;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drain_stamps_and_orders() {
        let ring = SeqRing::<3>::new(4);
        assert!(ring.claim(), "first claim wins");
        assert!(!ring.claim(), "second claim loses");
        for k in 1..=3u64 {
            assert!(ring.push([k, k * 10, 0]));
        }
        let mut seen = Vec::new();
        assert_eq!(ring.drain(|w| seen.push(*w)), 3);
        assert_eq!(seen, vec![[1, 10, 0], [2, 20, 1], [3, 30, 2]]);
        assert_eq!(ring.drain(|_| panic!("drained twice")), 0);
    }

    #[test]
    fn full_ring_drops_and_recovers() {
        let ring = SeqRing::<2>::new(2);
        let accepted = (0..5u64).filter(|&k| ring.push([k, 0])).count();
        assert_eq!(accepted, 2);
        assert_eq!(ring.dropped(), 3);
        let mut firsts = Vec::new();
        ring.drain(|w| firsts.push(w[0]));
        assert_eq!(firsts, vec![0, 1], "the oldest records are kept");
        assert!(ring.push([9, 0]), "drained cells are reusable");
        ring.bill(40);
        let t = SeqRing::totals(std::slice::from_ref(&ring));
        assert_eq!(
            t,
            RingTotals {
                accepted: 3,
                dropped: 3,
                bytes: 3 * 2 * 8,
                billed_ns: 40,
            }
        );
    }

    #[test]
    fn concurrent_push_and_drain_conserve() {
        let ring = SeqRing::<4>::new(8);
        let pushes = if cfg!(miri) { 300 } else { 20_000u64 };
        let mut drained = Vec::new();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                for k in 0..pushes {
                    ring.push([k, !k, k.wrapping_mul(3), 0]);
                }
            });
            while !producer.is_finished() {
                ring.drain(|w| drained.push(*w));
            }
        });
        ring.drain(|w| drained.push(*w));
        for w in &drained {
            assert_eq!((w[1], w[2]), (!w[0], w[0].wrapping_mul(3)), "torn record");
        }
        assert!(drained.windows(2).all(|p| p[0][0] < p[1][0]), "FIFO order");
        let t = SeqRing::totals(std::slice::from_ref(&ring));
        assert_eq!(t.accepted, drained.len() as u64);
        assert_eq!(t.accepted + t.dropped, pushes, "push conservation");
    }
}

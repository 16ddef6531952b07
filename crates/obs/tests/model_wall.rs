//! Interleaving model check for the wall flight recorder's
//! instantiation of the shared SPSC ring: span records encoded over
//! `SeqRing` and drained into per-family histograms. The ring protocol
//! itself (untorn drains, drop conservation, exclusive claim) is
//! checked in `model_ring.rs`.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"` (plus the
//! `trace` feature): the shim in `execmig_obs::model` routes the wall's
//! atomics through `execmig_model`'s bounded-DFS scheduler, so the test
//! holds across *every* bounded interleaving, not just lucky schedules.
//! Span *durations* are real `Instant` time and therefore
//! nondeterministic under the checker; only structural invariants are
//! asserted.
//!
//! The same file is a mutation gate: built with
//! `--cfg execmig_weak_head` (the ring's Release head bump weakened to
//! Relaxed), [`span_ring_publish_snapshot_protocol`] must *fail* to
//! find a clean exploration — the drain's sequence-stamp and
//! family/id debug-asserts have to catch a torn or stale record. CI
//! runs both configurations.

#![cfg(all(execmig_model, feature = "trace"))]

use execmig_model::{try_explore, Config};
use execmig_obs::model::thread;
use execmig_obs::wall::{families, Wall, WallSnapshot};

/// Every family row must be structurally sane whenever it is observed
/// mid-race: counts only for registered families, quantiles monotone,
/// totals nonzero only where counts are.
fn assert_untorn(snap: &WallSnapshot) -> u64 {
    for f in &snap.families {
        assert!(
            f.p50_ns <= f.p99_ns && f.p99_ns <= f.p999_ns,
            "torn aggregate: quantiles not monotone for {}",
            f.family
        );
        if f.count == 0 {
            assert_eq!(f.total_ns, 0, "torn aggregate: total without samples");
        }
    }
    snap.total_spans()
}

/// The tentpole gate: one producer closing three spans through a
/// capacity-2 ring while the main thread drains snapshots concurrently.
///
/// Clean orderings: every drained record passes the drain's sequence /
/// family / nonzero-id debug-asserts, epochs are monotone, and after
/// the join published + dropped conserves the exit count exactly, with
/// the histograms holding precisely the accepted records. Mutated
/// ordering (`execmig_weak_head`): the exploration MUST detect a
/// violation.
#[test]
fn span_ring_publish_snapshot_protocol() {
    let result = try_explore(Config::default(), || {
        let wall = Wall::new(1, 2);
        let t = wall.thread(0).expect("first claim wins");
        let producer = thread::spawn(move || {
            for _ in 0..3 {
                let id = t.enter(families::TASK);
                assert_ne!(id, 0, "registered family yields a span id");
                t.exit(id);
            }
        });

        // Concurrent drains racing the producer: the drain itself
        // debug-asserts each record's sequence word, family index and
        // nonzero id — a torn read under a weakened head bump panics
        // here.
        let s1 = wall.snapshot();
        let n1 = assert_untorn(&s1);
        let s2 = wall.snapshot();
        let n2 = assert_untorn(&s2);
        assert!(s2.epoch > s1.epoch, "snapshot epochs must be monotone");
        assert!(n2 >= n1, "drained span count went backwards: {n1} -> {n2}");

        producer.join().expect("producer");

        // Joined: conservation. Every exit either published into the
        // ring (and the final drain merged it) or was counted as a
        // drop — never silently lost.
        let fin = wall.snapshot();
        let o = &fin.overhead;
        assert_eq!(o.spans + o.dropped, 3, "exit conservation");
        assert_eq!(fin.total_spans(), o.spans, "merged == accepted");
        let task = fin.family(families::TASK).expect("registered family");
        assert_eq!(task.count, o.spans, "all spans are task spans");
        assert!(fin.epoch >= 3);
    });

    #[cfg(not(execmig_weak_head))]
    {
        let report = result.expect("correct orderings: no violation in any bounded interleaving");
        assert!(
            report.executions > 1,
            "the exploration must actually branch"
        );
    }
    #[cfg(execmig_weak_head)]
    {
        let v = result.expect_err(
            "mutation gate: a Relaxed head bump must surface as a torn or stale \
             record in the drain's sequence/family/id asserts",
        );
        eprintln!("mutation detected, as required:\n{v}");
    }
}

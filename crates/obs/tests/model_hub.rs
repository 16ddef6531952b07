//! Interleaving model check for the hub's instantiation of the shared
//! SPSC ring: beats encoded over `SeqRing` and merged newest-wins.
//! The ring protocol itself (untorn drains, drop conservation,
//! exclusive claim) is checked in `model_ring.rs`.
//!
//! Compiled only under `RUSTFLAGS="--cfg execmig_model"` (plus the
//! `trace` feature): the shim in `execmig_obs::model` then routes every
//! atomic through `execmig_model`'s bounded-DFS scheduler, so the test
//! holds across *every* bounded interleaving and every stale value the
//! memory model permits — not just the schedules one lucky run happens
//! to hit.
//!
//! The same file is a mutation gate: built with
//! `--cfg execmig_weak_head` (the ring's Release head bump weakened to
//! Relaxed) or `--cfg execmig_torn_slot` (one record word stored after
//! the head bump), [`spsc_publish_snapshot_protocol`] must *fail* to
//! find a clean exploration — the checker has to produce a torn or
//! stale beat. CI runs all three configurations.

#![cfg(all(execmig_model, feature = "trace"))]

use execmig_model::{try_explore, Config};
use execmig_obs::model::thread;
use execmig_obs::{Beat, Hub, HubConfig, HubSnapshot, WorkerState};

fn small_hub() -> Hub {
    Hub::new(HubConfig {
        workers: 1,
        ring_capacity: 2,
        heartbeat_us: 1_000_000,
        stall_beats: 1_000,
    })
}

fn beat(instructions: u64) -> Beat {
    Beat {
        state: WorkerState::Running,
        task: instructions / 10,
        instructions,
        ..Beat::default()
    }
}

/// A merged row must only ever show a beat that was actually published
/// whole: `instructions` is 10/20/30 once any beat merged, never a torn
/// mix of init zeros and half-landed words.
fn assert_untorn(snap: &HubSnapshot) -> u64 {
    let row = &snap.workers[0];
    if row.beats > 0 {
        assert!(
            matches!(row.instructions, 10 | 20 | 30),
            "torn beat: merged instructions {} not in {{10,20,30}} after {} beats",
            row.instructions,
            row.beats,
        );
        assert_eq!(row.state, WorkerState::Running, "torn beat: state word");
        assert_eq!(row.task, row.instructions / 10, "torn beat: task word");
    }
    row.instructions
}

/// The tentpole gate: one producer publishing three beats through a
/// capacity-2 ring while the main thread merges snapshots concurrently.
///
/// Clean orderings: no interleaving shows a torn beat, epochs are
/// monotone, and afterwards beats + drops conserve the publish count
/// exactly. Mutated orderings (`execmig_weak_head`/`execmig_torn_slot`):
/// the exploration MUST detect a violation.
#[test]
fn spsc_publish_snapshot_protocol() {
    let result = try_explore(Config::default(), || {
        let hub = small_hub();
        let producer_hub = hub.clone();
        let producer = thread::spawn(move || {
            let w = producer_hub.worker(0).expect("first claim wins");
            w.publish(beat(10));
            w.publish(beat(20));
            w.publish(beat(30));
        });

        // Concurrent merges: racing the producer, every observed row
        // must still be a whole published beat.
        let s1 = hub.snapshot();
        let i1 = assert_untorn(&s1);
        let s2 = hub.snapshot();
        let i2 = assert_untorn(&s2);
        assert!(s2.epoch > s1.epoch, "snapshot epochs must be monotone");
        assert!(i2 >= i1, "newest-wins merge went backwards: {i1} -> {i2}");

        producer.join().expect("producer");

        // Joined: the counters are exact. Every publish either landed
        // in the ring or was counted as a drop — conservation.
        let fin = hub.snapshot();
        let row = &fin.workers[0];
        let o = &fin.overhead;
        assert_eq!(o.beats + o.dropped, 3, "publish conservation");
        assert_eq!(row.beats, o.beats, "merged beats == accepted beats");
        assert_eq!(row.dropped, o.dropped);
        // Capacity 2, three publishes: at most the last beat dropped,
        // and the newest *accepted* beat is what the merge retains.
        assert!(o.dropped <= 1, "at most one drop is possible");
        let newest = if o.dropped == 1 { 20 } else { 30 };
        assert_eq!(row.instructions, newest, "newest-wins merge");
        assert_eq!(fin.epoch, 3);
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
            "mutation gate: a weakened Release head bump / reordered slot store \
             must surface as a detected torn or stale read",
        );
        eprintln!("mutation detected, as required:\n{v}");
    }
}

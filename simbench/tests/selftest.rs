//! Self-tests of the pieces that compute the benchmark's numbers.

use execmig_simbench::ops::{Mix, SEGMENT};
use execmig_simbench::relocate::{offset_for, Relocated, LINE_BYTES};
use execmig_simbench::run::{execute, execute_with, MIN_ROUNDS};
use execmig_simbench::spans::{self_times, Span};
use execmig_simbench::stats::{
    median, median_at_reference, percentile, samples_needed, sim_mips, MIN_BEYOND,
};
use execmig_simbench::yardstick::{self, Yardstick};
use execmig_trace::{suite, Workload, WorkloadEvent};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // Rank 90 of 100 leaves exactly ten samples above it.
    assert_eq!(percentile(&samples, 90), Some(90.0));
    assert_eq!(percentile(&samples[..99], 90), None);
    assert_eq!(samples_needed(90), 100);
    assert_eq!(samples_needed(50), 20);
    let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(
        percentile(&twenty, 50),
        Some(10.0),
        "input order must not matter"
    );
    assert_eq!(percentile(&twenty[..19], 50), None);
}

#[test]
fn every_picked_percentile_has_its_tail() {
    for n in 1..300 {
        let samples: Vec<f64> = (0..n).map(|i| f64::from(i as u32)).collect();
        for pct in [50, 90] {
            if let Some(v) = percentile(&samples, pct) {
                let beyond = samples.iter().filter(|&&s| s > v).count();
                assert!(beyond >= MIN_BEYOND, "n {n} p{pct}: {beyond} beyond");
                let at_or_below = n - beyond;
                assert!(at_or_below * 100 >= pct * n, "n {n} p{pct} below its rank");
            } else {
                assert!(n < samples_needed(pct));
            }
        }
    }
}

fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = [
        span(1, 0, "op", 0, 100),
        span(2, 1, "fill", 10, 30),
        span(3, 1, "block", 40, 90),
        span(4, 3, "inner", 50, 60),
        span(5, 0, "op", 200, 250),
        span(6, 5, "fill", 200, 210),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs["op"], (100 - 20 - 50) + (50 - 10));
    assert_eq!(selfs["fill"], 20 + 10);
    assert_eq!(selfs["block"], 50 - 10);
    assert_eq!(selfs["inner"], 10);
    let total: u64 = selfs.values().sum();
    assert_eq!(total, 100 + 50, "self times partition the root spans");
}

#[test]
fn self_time_clips_overlapping_and_overhanging_children() {
    let spans = [
        span(1, 0, "op", 0, 100),
        span(2, 1, "a", 10, 50),
        span(3, 1, "a", 40, 60),  // overlaps the first child
        span(4, 1, "a", 90, 120), // runs past the parent's end
    ];
    assert_eq!(self_times(&spans)["op"], 100 - 50 - 10);
}

#[test]
fn sim_mips_is_instructions_per_host_microsecond() {
    assert_eq!(sim_mips(3_000_000, 1_500_000_000), 2.0);
    assert_eq!(sim_mips(36_000_000, 1_000_000_000), 36.0);
    assert!((sim_mips(1, 3) - 1e3 / 3.0).abs() < 1e-9);
}

#[test]
fn timings_are_scaled_to_the_reference_host_speed() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    // A round on a host twice as slow as the reference takes twice as
    // long and reads the same once scaled.
    assert_eq!(
        median_at_reference(&[10.0, 20.0, 10.0], &[1.0, 2.0, 1.0]),
        Some(10.0)
    );
    // The median over rounds ignores one round's outlier.
    assert_eq!(
        median_at_reference(&[10.0, 90.0, 12.0], &[1.0, 1.0, 1.0]),
        Some(12.0)
    );
    let reference = [yardstick::REFERENCE_NS; 3];
    assert_eq!(yardstick::slowdown(&reference), Some(1.0));
    assert_eq!(yardstick::slowdown(&[]), None);
}

#[test]
fn the_yardstick_does_the_same_work_every_pass() {
    let mut y = Yardstick::default();
    // `sample` panics if a pass counts other hits than the first.
    let ns: Vec<f64> = (0..3).map(|_| y.sample()).collect();
    assert!(ns.iter().all(|&t| t > 0.0), "{ns:?}");
}

#[test]
fn the_hook_runs_before_set_up_and_every_later_segment() {
    let op = Mix::Baseline.ops().remove(0);
    let mut calls = Vec::new();
    let e = execute_with(&op, 0, |k| calls.push(k)).expect("runs");
    let n = op.instructions.div_ceil(SEGMENT);
    assert_eq!(calls, (0..n).collect::<Vec<_>>());
    assert_eq!(e.segments.len() as u64, n);
    assert_eq!(e.stats, execute(&op, 0).expect("runs").stats);
}

#[test]
fn every_workload_times_enough_segments_for_its_p90() {
    for mix in Mix::ALL {
        let per_round: u64 = mix
            .ops()
            .iter()
            .map(|op| op.instructions.div_ceil(SEGMENT))
            .sum();
        // The percentiles pool every round, and a run has at least
        // MIN_ROUNDS of them.
        let segments = per_round as usize * MIN_ROUNDS;
        assert!(
            segments >= samples_needed(90),
            "{}: {segments} segments",
            mix.name()
        );
    }
}

fn events<W: Workload + ?Sized>(w: &mut W, until: u64) -> Vec<WorkloadEvent> {
    let mut buf = Vec::new();
    while w.fill_block(&mut buf, until, 1000) > 0 {}
    buf
}

#[test]
fn seed_zero_is_the_suite_stream() {
    for member in suite::names() {
        assert_eq!(offset_for(0, member), 0);
        let mut plain = suite::by_name(member).expect("suite member");
        let mut seeded = Relocated::member(member, 0).expect("suite member");
        assert_eq!(
            events(&mut seeded, 50_000),
            events(&mut plain, 50_000),
            "{member}"
        );
        assert_eq!(seeded.next_access(), plain.next_access(), "{member}");
    }
}

#[test]
fn nonzero_seed_moves_addresses_only() {
    for seed in [1, 2, 0xdead_beef] {
        for member in suite::names() {
            let offset = offset_for(seed, member);
            assert!(
                offset > 0 && offset.is_multiple_of(LINE_BYTES),
                "{member} seed {seed}"
            );
            let plain = events(&mut *suite::by_name(member).expect("suite member"), 50_000);
            let moved = events(
                &mut Relocated::member(member, seed).expect("suite member"),
                50_000,
            );
            assert_eq!(plain.len(), moved.len(), "{member}");
            for (p, m) in plain.iter().zip(&moved) {
                assert_eq!(p.access.kind, m.access.kind);
                assert_eq!(p.access.pointer, m.access.pointer);
                assert_eq!(p.instructions, m.instructions);
                assert_eq!(
                    m.access.addr.raw(),
                    p.access.addr.raw().wrapping_add(offset)
                );
            }
        }
    }
    assert_ne!(offset_for(1, "art"), offset_for(2, "art"), "seeds differ");
    assert_ne!(offset_for(1, "art"), offset_for(1, "mcf"), "members differ");
}

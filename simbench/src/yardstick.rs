//! Host speed, measured beside the simulator.
//!
//! The benchmark runs on shared hosts whose speed drifts by a fifth or
//! more in phases that outlast a whole run (see `README.md`, "Host
//! noise"). No statistic over one run's timings can remove a phase that
//! covers all of it, so the run also times a fixed kernel, the
//! yardstick, between the simulator's segments. Dividing a timing by the
//! yardstick's slowdown against [`REFERENCE_NS`] gives the timing at the
//! reference host speed.
//!
//! The kernel is a small set-associative LRU tag array probed by a
//! pseudo-random line stream: branchy, load-heavy integer code over a
//! working set that fits a host L2, like the simulator's own cache
//! models. The line draw and the set index are taken modulo sizes the
//! compiler cannot see, so each probe also waits on two integer
//! divisions, latency-bound work that scales with the core clock. Of
//! the kernels tried against the simulator's round times on the
//! reference host, this mix tracked them best: a log-log slope of 0.96
//! with a 4 % residual, against 0.85 without the divisions. The kernel
//! lives in the benchmark and shares no code with the simulator, so a
//! change to the simulator moves the scaled timings in full.

use std::hint::black_box;
use std::time::Instant;

const WAYS: usize = 8;
/// 4096 sets × 8 ways × 8-byte tags: 256 KiB.
const SETS: usize = 4096;
/// Distinct lines the stream draws from: four times the array's
/// capacity, so hits, misses and evictions all occur.
const LINES: u64 = (SETS * WAYS * 4) as u64;
/// Probes per sample.
const PROBES: u32 = 300_000;

/// The yardstick's time per sample on the reference host, a 2-vCPU Xeon
/// at 2.1 GHz (`nproc` = 2) in its quiet phases, ns: the fastest tenth
/// of round medians there read 3.35–3.48 ms. Timings are reported at
/// this speed.
pub const REFERENCE_NS: f64 = 3.4e6;

/// The yardstick kernel and its state.
pub struct Yardstick {
    tags: Vec<u64>,
    /// [`SETS`] and [`LINES`], hidden from the optimizer.
    sets: usize,
    lines: u64,
    /// Hits of the first pass; every later pass must repeat them.
    hits: Option<u32>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick {
            tags: vec![u64::MAX; SETS * WAYS],
            sets: black_box(SETS),
            lines: black_box(LINES),
            hits: None,
        }
    }
}

impl Yardstick {
    /// One timed pass of the kernel, host ns. Every pass starts from an
    /// empty array and the same stream, so every pass does the same work.
    ///
    /// # Panics
    ///
    /// Panics if a pass counts other hits than the first did.
    pub fn sample(&mut self) -> f64 {
        self.tags.fill(u64::MAX);
        let t = Instant::now();
        let hits = black_box(probe(&mut self.tags, self.sets, self.lines));
        let ns = t.elapsed().as_nanos() as f64;
        assert_eq!(
            *self.hits.get_or_insert(hits),
            hits,
            "the yardstick must do the same work every pass"
        );
        ns
    }
}

/// Runs [`PROBES`] LRU lookups of lines below `lines` in `sets` sets of
/// [`WAYS`] ways, and returns the hits.
fn probe(tags: &mut [u64], sets: usize, lines: u64) -> u32 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut hits = 0;
    for _ in 0..PROBES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = (x >> 24) % lines;
        let set = (line as usize) % sets;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        match ways.iter().position(|&t| t == line) {
            Some(k) => {
                hits += 1;
                ways[..=k].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
    }
    hits
}

/// The host's slowdown against the reference for a set of samples: the
/// median sample over [`REFERENCE_NS`].
pub fn slowdown(samples: &[f64]) -> Option<f64> {
    crate::stats::median(samples).map(|m| m / REFERENCE_NS)
}

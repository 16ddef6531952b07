//! The untraced run: end-to-end metrics with nothing but the timers
//! around `Machine::new`, stream construction and `Machine::run`, and
//! the yardstick samples between them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use execmig_machine::{Machine, MachineStats};

use crate::check;
use crate::ops::{Op, SEGMENT};
use crate::stats;
use crate::yardstick::{self, Yardstick};

/// Rounds a run always completes, so every reported timing is a median
/// of several.
pub const MIN_ROUNDS: usize = 3;

/// Segments between two yardstick samples; the first is taken before
/// each operation's set-up.
pub const SAMPLE_EVERY: u64 = 3;

/// Set-ups timed per execution; the last one built is run, and the
/// median is the execution's set-up time.
pub const SETUP_REPEATS: usize = 5;

/// Attempted and failed operations, with the failures' messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations that panicked or produced wrong statistics.
    pub failed: u64,
    /// One message per failure.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `verdict` is an error.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// One timed execution of an operation.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Final statistics.
    pub stats: MachineStats,
    /// `Machine::new` plus stream construction, median of
    /// [`SETUP_REPEATS`].
    pub setup: Duration,
    /// Host ms of each [`SEGMENT`]-instruction call, in order.
    pub segments: Vec<f64>,
}

impl Execution {
    /// Host ms of the whole run: the sum of the segments.
    pub fn run_ms(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// Runs `op` from scratch in [`SEGMENT`]-instruction calls to
/// `Machine::run`, timing set-up and each segment. A panic comes back as
/// an error.
pub fn execute(op: &Op, seed: u64) -> Result<Execution, String> {
    execute_with(op, seed, |_| {})
}

/// [`execute`], calling `between(k)` untimed before the work of segment
/// `k`: before the set-up for `k` = 0, else just before the segment.
pub fn execute_with(op: &Op, seed: u64, mut between: impl FnMut(u64)) -> Result<Execution, String> {
    catch_unwind(AssertUnwindSafe(|| {
        between(0);
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            drop(built.take());
            let t = Instant::now();
            let machine = Machine::new(op.config.clone());
            let stream = check::stream(op, seed);
            setups.push(t.elapsed());
            built = Some((machine, stream));
        }
        let (mut machine, mut stream) = built.expect("at least one set-up");
        setups.sort();
        let setup = setups[setups.len() / 2];
        let mut segments = Vec::with_capacity(op.instructions.div_ceil(SEGMENT) as usize);
        let mut budget = 0;
        while budget < op.instructions {
            if !segments.is_empty() {
                between(segments.len() as u64);
            }
            budget = (budget + SEGMENT).min(op.instructions);
            let t = Instant::now();
            machine.run(&mut stream, budget);
            segments.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Execution {
            stats: *machine.stats(),
            setup,
            segments,
        }
    }))
    .map_err(|panic| format!("{}: panicked: {}", op.id(), panic_message(&panic)))
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Per-operation correctness state shared by every round of one run:
/// the reference-prefix verdict (taken once, untimed) and the first
/// round's statistics, which later rounds must repeat.
pub struct Checks {
    reference: Vec<Result<(), String>>,
    first: Vec<Option<MachineStats>>,
}

impl Checks {
    /// Runs the reference-prefix comparison for every operation.
    pub fn new(ops: &[Op], seed: u64) -> Checks {
        Checks {
            reference: ops
                .iter()
                .map(|op| {
                    catch_unwind(AssertUnwindSafe(|| check::reference_prefix(op, seed)))
                        .unwrap_or_else(|p| {
                            Err(format!("{}: panicked: {}", op.id(), panic_message(&p)))
                        })
                })
                .collect(),
            first: vec![None; ops.len()],
        }
    }

    /// The verdict on operation `i`'s full-length statistics.
    pub fn verdict(
        &mut self,
        i: usize,
        op: &Op,
        seed: u64,
        stats: &MachineStats,
    ) -> Result<(), String> {
        self.reference[i].clone()?;
        let first = *self.first[i].get_or_insert(*stats);
        check::same_stats(&op.id(), "repeat run", stats, &first)?;
        check::full_length(op, seed, stats)
    }
}

/// End-to-end figures of one untraced run. Every operation runs once
/// per round. Each timing is divided by its round's host slowdown (see
/// [`yardstick`]) and the median over rounds is kept (see `README.md`
/// for why).
#[derive(Debug)]
pub struct EndToEnd {
    /// Simulated instructions of one round over the summed median
    /// segment times, MIPS at the reference host speed.
    pub sim_mips: f64,
    /// Percentiles of every timed segment of every round, ms at the
    /// reference host speed.
    pub segment_ms_p50: f64,
    /// See `segment_ms_p50`.
    pub segment_ms_p90: f64,
    /// Segments timed, over all rounds.
    pub segments: usize,
    /// Summed median set-up time, s at the reference host speed.
    pub setup_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Rounds completed.
    pub rounds: usize,
    /// `sim_mips` as measured, not scaled to the reference speed.
    pub raw_sim_mips: f64,
    /// Median of the rounds' host slowdowns against the reference.
    pub slowdown: f64,
}

/// One round: each operation's execution (`None` where it failed) and
/// the yardstick samples taken between them.
struct Round {
    runs: Vec<Option<Execution>>,
    samples: Vec<f64>,
}

/// Runs whole rounds of `ops`, at least [`MIN_ROUNDS`] and then while
/// another round as long as the last still fits in `seconds`.
pub fn untraced(ops: &[Op], seed: u64, seconds: u64, tally: &mut Tally) -> EndToEnd {
    let mut checks = Checks::new(ops, seed);
    let mut yard = Yardstick::default();
    let mut rounds: Vec<Round> = Vec::new();
    let (start, wanted) = (Instant::now(), Duration::from_secs(seconds));
    let mut last = Duration::ZERO;
    while rounds.len() < MIN_ROUNDS || start.elapsed() + last <= wanted {
        let round = Instant::now();
        let mut samples = Vec::new();
        let mut runs = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let run = execute_with(op, seed, |k| {
                if k % SAMPLE_EVERY == 0 {
                    samples.push(yard.sample());
                }
            })
            .and_then(|e| checks.verdict(i, op, seed, &e.stats).map(|()| e));
            tally.record(run.as_ref().map(|_| ()).map_err(Clone::clone));
            runs.push(run.ok());
        }
        rounds.push(Round { runs, samples });
        last = round.elapsed();
    }
    // Every operation that succeeded took a sample first, so a round
    // without samples has no timings for its slowdown to scale.
    let slowdowns: Vec<f64> = rounds
        .iter()
        .map(|r| yardstick::slowdown(&r.samples).unwrap_or(1.0))
        .collect();

    let mut instructions = 0;
    let (mut setup_s, mut run_ms, mut raw_ms) = (0.0, 0.0, 0.0);
    let mut segments = Vec::new();
    let mut timed = 0;
    for i in 0..ops.len() {
        // The rounds in which operation `i` succeeded, with their slowdowns.
        let (runs, slow): (Vec<&Execution>, Vec<f64>) = rounds
            .iter()
            .zip(&slowdowns)
            .filter_map(|(r, &s)| Some((r.runs[i].as_ref()?, s)))
            .unzip();
        let Some(first) = runs.first() else { continue };
        timed += 1;
        instructions += first.stats.instructions;
        let setups: Vec<f64> = runs.iter().map(|e| e.setup.as_secs_f64()).collect();
        setup_s += stats::median_at_reference(&setups, &slow).unwrap_or(0.0);
        for k in 0..first.segments.len() {
            let ms: Vec<f64> = runs.iter().map(|e| e.segments[k]).collect();
            run_ms += stats::median_at_reference(&ms, &slow).unwrap_or(0.0);
            raw_ms += stats::median(&ms).unwrap_or(0.0);
            segments.extend(ms.iter().zip(&slow).map(|(m, s)| m / s));
        }
    }
    let (p50, p90) = (
        stats::percentile(&segments, 50),
        stats::percentile(&segments, 90),
    );
    if timed < ops.len() || p90.is_none() {
        tally.record(Err(format!(
            "{timed} of {} operations timed, {} segments",
            ops.len(),
            segments.len()
        )));
    }
    let mips = |ms: f64| {
        if ms > 0.0 {
            stats::sim_mips(instructions, (ms * 1e6) as u64)
        } else {
            0.0
        }
    };
    EndToEnd {
        sim_mips: mips(run_ms),
        segment_ms_p50: p50.unwrap_or(0.0),
        segment_ms_p90: p90.unwrap_or(0.0),
        segments: segments.len(),
        setup_s,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
        rounds: rounds.len(),
        raw_sim_mips: mips(raw_ms),
        slowdown: stats::median(&slowdowns).unwrap_or(0.0),
    }
}

//! Plain wall-clock timing: a [`Stopwatch`] and the [`Span`] record a
//! parallel runner reports per task (`execmig-experiments::runner`).
//! Causal, live-served spans are [`crate::wall`]'s job.

use std::time::Instant;

/// A started wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Microseconds elapsed.
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Seconds elapsed.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub label: String,
    /// Worker thread index that ran it.
    pub thread: usize,
    /// Start offset from the run's origin, in µs.
    pub start_us: u64,
    /// Duration in µs.
    pub duration_us: u64,
}

crate::impl_to_json!(Span {
    label,
    thread,
    start_us,
    duration_us
});

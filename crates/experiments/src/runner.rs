//! Thread-parallel experiment execution, with per-task wall-clock
//! spans, optional live-telemetry hub beats, and wall-clock flight-recorder
//! spans.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use execmig_obs::model::sync::Mutex;
use execmig_obs::model::thread;
use execmig_obs::wall::{self, families};
use execmig_obs::{Beat, Hub, HubWorker, Json, Span, Stopwatch, ToJson, Wall, WorkerState};

/// Wall-clock telemetry of one [`parallel_map_timed`] run: per-task
/// spans (which thread ran what, when, for how long) and the derived
/// per-thread utilisation.
#[derive(Debug)]
pub struct RunnerReport {
    /// One span per task, ordered by start time.
    pub spans: Vec<Span>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock µs from first task start to last task end.
    pub wall_us: u64,
}

impl RunnerReport {
    /// Busy µs per worker thread index (0..=highest index that ran a
    /// task).
    pub fn thread_busy_micros(&self) -> Vec<u64> {
        let threads = self.spans.iter().map(|s| s.thread + 1).max().unwrap_or(0);
        let mut busy = vec![0u64; threads];
        for s in &self.spans {
            busy[s.thread] += s.duration_us;
        }
        busy
    }

    /// Aggregate utilisation: total busy time / (threads × wall); 0
    /// when nothing ran.
    pub fn utilisation(&self) -> f64 {
        if self.threads == 0 || self.wall_us == 0 {
            return 0.0;
        }
        let busy: u64 = self.spans.iter().map(|s| s.duration_us).sum();
        busy as f64 / (self.threads as f64 * self.wall_us as f64)
    }

    /// One line per the report, for stderr diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "{} tasks on {} threads in {:.1} ms, {:.0}% utilisation",
            self.spans.len(),
            self.threads,
            self.wall_us as f64 / 1000.0,
            self.utilisation() * 100.0
        )
    }
}

impl ToJson for RunnerReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("threads", self.threads)
            .field("wall_us", self.wall_us)
            .field("utilisation", self.utilisation())
            .field("thread_busy_us", self.thread_busy_micros())
            .field("spans", &self.spans)
    }
}

/// Applies `f` to every item on up to `threads` worker threads,
/// preserving input order in the output.
///
/// ```
/// use execmig_experiments::runner::parallel_map;
/// let out = parallel_map(vec![1, 2, 3, 4], 2, |x| x * 10);
/// assert_eq!(out, vec![10, 20, 30, 40]);
/// ```
///
/// # Panics
///
/// Panics if `threads == 0` or if `f` panics on a worker thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_timed(items, threads, f).0
}

/// Like [`parallel_map`], additionally returning a [`RunnerReport`]
/// with per-task span timers and per-thread utilisation.
///
/// Workers pull `(index, item)` pairs off one shared queue and buffer
/// results and span timings locally, so the per-task hot path takes a
/// single short lock (the claim) and allocates nothing; span labels are
/// formatted and merged after the workers join.
///
/// # Panics
///
/// Panics if `threads == 0`. If `f` panics on a worker thread, the
/// remaining workers stop claiming tasks and the *original* panic
/// payload is re-raised on the caller's thread, after the failing task
/// index is printed to stderr.
pub fn parallel_map_timed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> (Vec<R>, RunnerReport)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_observed(items, threads, Obs::none(), |item, _| f(item))
}

/// The observability sinks one observed run publishes into: the
/// live-telemetry [`Hub`] (simulated-time progress beats) and the
/// wall-clock [`Wall`] flight recorder (span latencies). Either side
/// may be absent; [`Obs::none`] observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs<'a> {
    /// The hub workers publish claim/completion beats into.
    pub hub: Option<&'a Hub>,
    /// The wall workers record task/claim/run/complete spans into.
    pub wall: Option<&'a Wall>,
}

impl<'a> Obs<'a> {
    /// Observe nothing (plain [`parallel_map_timed`] behaviour).
    pub fn none() -> Obs<'static> {
        Obs {
            hub: None,
            wall: None,
        }
    }

    /// Both sinks, each optional.
    pub fn new(hub: Option<&'a Hub>, wall: Option<&'a Wall>) -> Obs<'a> {
        Obs { hub, wall }
    }

    /// Hub beats only (no wall-clock spans).
    pub fn hub_only(hub: &'a Hub) -> Obs<'a> {
        Obs {
            hub: Some(hub),
            wall: None,
        }
    }
}

/// What an observed task needs to publish consistent mid-task beats:
/// the worker's hub handle plus the task coordinates the runner already
/// announced in its claim beat.
#[derive(Debug)]
pub struct ObsCtx<'a> {
    /// The claiming worker's producer handle.
    pub worker: &'a HubWorker,
    /// The task index being executed.
    pub task: u64,
    /// Tasks this worker had completed before this one.
    pub tasks_done: u64,
}

/// Like [`parallel_map_timed`], additionally publishing live progress
/// beats into a telemetry [`Hub`] and wall-clock spans into a [`Wall`]
/// flight recorder (both via `obs`, either optional).
///
/// Each worker thread claims its hub slot once (`hub.worker(w)`) and
/// publishes a `Running` beat on every task claim and completion, and a
/// final `Done` beat when the queue drains — so `/progress` shows which
/// task every worker is on while the sweep runs. The closure receives
/// an [`ObsCtx`] (when telemetry is active) to publish finer-grained
/// beats mid-task, e.g. via `Machine::run_observed`.
///
/// With a wall attached, each worker additionally claims wall slot `w`
/// as its thread context ([`wall::attach`]) and records one
/// `runner/task` span per task — with `runner/claim`, `runner/run`,
/// and `runner/complete` children — parented to whatever span the
/// *calling* thread had open (e.g. the binaries' `sweep` root), so
/// `/spans` and the flamegraph see the full causal tree. Task closures
/// open further spans (e.g. `machine/block`) with no extra plumbing.
///
/// With `obs` as [`Obs::none`], or without the `trace` feature
/// (`Hub::ACTIVE`/`Wall::ACTIVE` false), behaviour and results are
/// exactly [`parallel_map_timed`]'s.
///
/// # Panics
///
/// As [`parallel_map_timed`]: `threads == 0` or a panicking task.
pub fn parallel_map_observed<T, R, F>(
    items: Vec<T>,
    threads: usize,
    obs: Obs<'_>,
    f: F,
) -> (Vec<R>, RunnerReport)
where
    T: Send,
    R: Send,
    F: Fn(T, Option<ObsCtx<'_>>) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let hub = obs.hub;
    // The caller's innermost open span (its sweep root, if any)
    // parents every task span across the worker threads.
    let sweep_root = wall::current_id();
    let n = items.len();
    let origin = Stopwatch::start();
    if n == 0 {
        return (
            Vec::new(),
            RunnerReport {
                spans: Vec::new(),
                threads,
                wall_us: 0,
            },
        );
    }
    let threads = threads.min(n);
    let queue = Mutex::new(items.into_iter().enumerate());
    // First panic wins: (task index, original payload).
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    // Per-worker (task, result) and (task, start_us, duration_us)
    // buffers, in worker order.
    type Timings = Vec<(usize, u64, u64)>;
    let mut per_worker: Vec<(Vec<(usize, R)>, Timings)> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let queue = &queue;
                let origin = &origin;
                let panicked = &panicked;
                let f = &f;
                scope.spawn(move || {
                    // Claim this thread's hub slot (first claimant wins;
                    // SPSC holds because the handle never leaves this
                    // thread). None when telemetry is off or inactive.
                    let hub_worker = if Hub::ACTIVE {
                        hub.and_then(|h| h.worker(w))
                    } else {
                        None
                    };
                    // Claim wall slot w as this thread's span context:
                    // the flight recorder samples this thread's stack
                    // and task spans nest machine-block spans with no
                    // handle threading. False when tracing is off.
                    let wall_attached = match obs.wall {
                        Some(wl) if Wall::ACTIVE => wall::attach(wl, w),
                        _ => false,
                    };
                    let mut tasks_done = 0u64;
                    let mut results = Vec::new();
                    let mut timings = Vec::new();
                    loop {
                        if panicked.lock().expect("panic slot").is_some() {
                            break;
                        }
                        let task_span = wall::span_with_parent(families::TASK, sweep_root);
                        let claim_span = wall::span(families::CLAIM);
                        let claimed = queue.lock().expect("task queue").next();
                        let Some((i, item)) = claimed else {
                            // Nothing was claimed: these spans cover no
                            // task, so discard rather than record them.
                            claim_span.cancel();
                            task_span.cancel();
                            break;
                        };
                        if Hub::ACTIVE {
                            if let Some(hw) = &hub_worker {
                                hw.publish(Beat {
                                    state: WorkerState::Running,
                                    task: i as u64,
                                    tasks_done,
                                    ..Beat::default()
                                });
                            }
                        }
                        drop(claim_span);
                        let start_us = origin.elapsed_micros();
                        let ctx = hub_worker.as_ref().map(|worker| ObsCtx {
                            worker,
                            task: i as u64,
                            tasks_done,
                        });
                        let outcome = {
                            let _run_span = wall::span(families::RUN);
                            catch_unwind(AssertUnwindSafe(|| f(item, ctx)))
                        };
                        match outcome {
                            Ok(result) => {
                                let _complete_span = wall::span(families::COMPLETE);
                                let duration_us = origin.elapsed_micros().saturating_sub(start_us);
                                results.push((i, result));
                                timings.push((i, start_us, duration_us));
                                tasks_done += 1;
                                if Hub::ACTIVE {
                                    if let Some(hw) = &hub_worker {
                                        hw.publish(Beat {
                                            state: WorkerState::Running,
                                            task: i as u64,
                                            tasks_done,
                                            ..Beat::default()
                                        });
                                    }
                                }
                            }
                            Err(payload) => {
                                let mut slot = panicked.lock().expect("panic slot");
                                if slot.is_none() {
                                    *slot = Some((i, payload));
                                }
                                break;
                            }
                        }
                    }
                    if Hub::ACTIVE {
                        if let Some(hw) = &hub_worker {
                            hw.publish(Beat {
                                state: WorkerState::Done,
                                tasks_done,
                                ..Beat::idle()
                            });
                        }
                    }
                    if wall_attached {
                        wall::detach();
                    }
                    (results, timings)
                })
            })
            .collect();
        for handle in workers {
            // Workers catch `f`'s panics themselves; join only fails on
            // a runner-internal bug, which the panic slot cannot carry.
            match handle.join() {
                Ok(buffers) => per_worker.push(buffers),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    if let Some((i, payload)) = panicked.into_inner().expect("panic slot") {
        eprintln!("parallel_map: task {i} panicked, re-raising");
        resume_unwind(payload);
    }
    let wall_us = origin.elapsed_micros();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut spans = Vec::with_capacity(n);
    for (worker, (worker_results, timings)) in per_worker.into_iter().enumerate() {
        for (i, result) in worker_results {
            results[i] = Some(result);
        }
        for (i, start_us, duration_us) in timings {
            spans.push(Span {
                label: format!("task-{i}"),
                thread: worker,
                start_us,
                duration_us,
            });
        }
    }
    spans.sort_by_key(|s| s.start_us);
    let results = results
        .into_iter()
        .map(|r| r.expect("every task produced a result"))
        .collect();
    (
        results,
        RunnerReport {
            spans,
            threads,
            wall_us,
        },
    )
}

/// A sensible worker count: the machine's parallelism, at most `cap`.
pub fn default_threads(cap: usize) -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cap)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i32);
        }
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(vec!["a", "b"], 1, |s| s.to_uppercase());
        assert_eq!(out, vec!["A", "B"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![1], 16, |x| x + 1);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn timed_map_reports_spans() {
        let (out, report) = parallel_map_timed((0..20).collect(), 4, |x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x + 1
        });
        assert_eq!(out.len(), 20);
        assert_eq!(out[7], 8);
        let spans = &report.spans;
        assert_eq!(spans.len(), 20, "one span per task");
        assert!(spans.iter().all(|s| s.thread < 4));
        assert!(report.wall_us > 0);
        let u = report.utilisation();
        assert!(u > 0.0 && u <= 1.0, "utilisation {u}");
        assert!(report.summary().contains("20 tasks"));
        // JSON export carries the spans.
        use execmig_obs::ToJson;
        assert!(report.to_json().get("spans").is_some());
    }

    #[test]
    fn report_derives_busy_time_and_utilisation() {
        let span = |thread, duration_us| Span {
            label: format!("t{thread}"),
            thread,
            start_us: 10,
            duration_us,
        };
        let report = RunnerReport {
            spans: vec![span(2, 5), span(0, 15)],
            threads: 4,
            wall_us: 10,
        };
        assert_eq!(report.thread_busy_micros(), vec![15, 0, 5]);
        assert_eq!(report.utilisation(), 20.0 / 40.0);
        let idle = RunnerReport {
            spans: Vec::new(),
            threads: 4,
            wall_us: 0,
        };
        assert!(idle.thread_busy_micros().is_empty());
        assert_eq!(idle.utilisation(), 0.0);
        let keys: Vec<String> = match report.to_json() {
            Json::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("report is not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "threads",
                "wall_us",
                "utilisation",
                "thread_busy_us",
                "spans"
            ]
        );
    }

    #[test]
    fn panicking_task_reraises_the_original_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..32).collect(), 4, |x: i32| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("a worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("original String payload");
        assert_eq!(msg, "boom at 5");
    }

    #[test]
    fn spans_carry_task_labels() {
        let (_, report) = parallel_map_timed((0..6).collect(), 2, |x: u64| x);
        let labels: Vec<String> = report.spans.iter().map(|s| s.label.clone()).collect();
        for i in 0..6 {
            assert!(labels.contains(&format!("task-{i}")), "missing task-{i}");
        }
    }

    #[test]
    fn default_threads_bounded() {
        assert!(default_threads(4) >= 1);
        assert!(default_threads(4) <= 4);
    }
}

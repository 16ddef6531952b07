//! Wall-clock flight recorder: causal span tracing and latency
//! self-profiling for the simulator's *own* execution.
//!
//! The tracer, profiler, and hub all measure *simulated* time —
//! instructions, misses, migrations. This module measures where the
//! simulator spends *wall-clock* time: which runner stage, which
//! machine block, which differ case. Three consumers hang off it:
//!
//! - **Latency histograms.** Every closed span lands in a per-family
//!   log-2 [`Histogram`] (nanoseconds), so `/spans` and `/metrics` can
//!   serve live p50/p99/p999 per span family while a sweep runs.
//! - **Flight recorder.** Each thread keeps its live span stack in a
//!   fixed block of atomics; a sampler thread periodically snapshots
//!   every stack ([`Wall::sample_stacks`]) and the accumulated counts
//!   render as collapsed-stack (flamegraph-compatible) output.
//! - **Causal trace.** Closed spans carry u64 span/parent IDs, so the
//!   retained spans export as a Chrome trace
//!   ([`crate::chrome::render_wall_trace`]) that can be merged with the
//!   simulated-time profile for a dual-clock view.
//!
//! **Same transport as the hub.** A closed span is a 6-word record on
//! its thread's `spsc::SeqRing`; a full ring drops the span and counts
//! the drop — the hot path never blocks. Only [`Wall::snapshot`] (cold
//! side, mutex-guarded) drains rings into histograms and the
//! retained-span list. Beside each ring the wall keeps only the
//! thread's live-stack words for the sampler. All atomics go through
//! [`crate::model`], so the same source model-checks under
//! `--cfg execmig_model` (see `tests/model_wall.rs`).
//!
//! **Self-accounting.** The wall measures its own cost — spans
//! recorded, nanoseconds inside enter/exit, merge and sampling time —
//! as [`WallOverhead`], and [`WallSnapshot::budget_verdict`] rates it
//! against the wall's uptime with the shared [`Budget`].
//!
//! **Zero cost when off.** One implementation serves both builds:
//! [`Wall::ACTIVE`] is `cfg!(feature = "trace")`, and without the
//! feature a [`Wall`] is built empty (no slots, no allocation), hands
//! out inert [`WallThread`]s, and [`span`]/[`current_id`] return at
//! once without touching the thread-local context.
//!
//! **Span-family registry.** Every span family string must come from
//! [`families`] (lint rule E014): the constants are the authority
//! table, [`families::ALL`] is its exhaustive index, and raw string
//! literals at span call sites are rejected by the linter.

use crate::budget::{Budget, BudgetVerdict};
use crate::json::{Json, ToJson};
use crate::metrics::Histogram;
use crate::model::sync::{Arc, AtomicU64, Ordering};
use crate::spsc::{Aggregator, Merged, SeqRing};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The registered span-family table.
///
/// Lint rule E014 enforces two invariants: every constant declared
/// here appears in [`ALL`], and every span call site names a constant
/// from this module rather than a raw string literal — so the set of
/// span families is closed, greppable, and exhaustively indexable by
/// the histogram and flamegraph layers.
pub mod families {
    /// A whole experiment sweep (driver thread, parent of every task).
    pub const SWEEP: &str = "sweep";
    /// One runner task, claim to completion.
    pub const TASK: &str = "runner/task";
    /// Pulling the next task off the shared queue.
    pub const CLAIM: &str = "runner/claim";
    /// Executing the task closure.
    pub const RUN: &str = "runner/run";
    /// Buffering the result and publishing the completion beat.
    pub const COMPLETE: &str = "runner/complete";
    /// One observed machine block (`Machine::run_observed` beat period).
    pub const MACHINE_BLOCK: &str = "machine/block";
    /// One differ suite-lockstep case.
    pub const DIFFER_CASE: &str = "differ/case";
    /// One differ fuzz round (generate + lockstep + shrink).
    pub const DIFFER_FUZZ: &str = "differ/fuzz";

    /// Every registered family, in stable index order. The ring encodes
    /// a span's family as its index into this table.
    pub const ALL: &[&str] = &[
        SWEEP,
        TASK,
        CLAIM,
        RUN,
        COMPLETE,
        MACHINE_BLOCK,
        DIFFER_CASE,
        DIFFER_FUZZ,
    ];

    /// The table index of `family`, or `None` for unregistered strings.
    pub fn index_of(family: &str) -> Option<usize> {
        ALL.iter().position(|f| *f == family)
    }
}

/// `u64` words per encoded span record in the ring:
/// `[id, parent, family index, start_ns, dur_ns, ring sequence stamp]`.
pub const SPAN_WORDS: usize = 6;

/// Default span-ring capacity (spans buffered per thread between
/// merges). Spans are coarse (tasks, machine blocks), so this covers
/// seconds of headway at the default beat period.
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 1024;

/// Deepest live span stack the flight recorder samples; deeper frames
/// still record to the ring but are invisible to the sampler.
pub const MAX_LIVE_DEPTH: usize = 16;

/// Retained closed spans kept for Chrome export; overflow is counted
/// in [`WallOverhead::retained_dropped`], never grows unbounded.
pub const DEFAULT_RETAINED_SPANS: usize = 8192;

/// Per-family latency stats at snapshot time (all durations in ns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FamilyStats {
    /// Registered family name (an entry of [`families::ALL`]).
    pub family: String,
    /// Closed spans merged so far.
    pub count: u64,
    /// Summed span duration.
    pub total_ns: u64,
    /// Median latency (log-2 bucket upper bound, exact at extremes).
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Largest observed latency (exact).
    pub max_ns: u64,
}

crate::impl_to_json!(FamilyStats {
    family,
    count,
    total_ns,
    p50_ns,
    p99_ns,
    p999_ns,
    max_ns
});

/// One closed span retained for Chrome export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetainedSpan {
    /// Span id (nonzero; the thread index lives in the high bits).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Registered family name.
    pub family: String,
    /// Thread slot the span was recorded on.
    pub thread: usize,
    /// Start, ns since the wall was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

crate::impl_to_json!(RetainedSpan {
    id,
    parent,
    family,
    thread,
    start_ns,
    dur_ns
});

/// One sampled live-stack shape and how often the sampler saw it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackCount {
    /// Semicolon-joined family names, outermost first — the collapsed
    /// stack format `flamegraph.pl` and speedscope ingest directly.
    pub stack: String,
    /// Samples that observed this stack.
    pub count: u64,
}

crate::impl_to_json!(StackCount { stack, count });

/// What the wall's own instrumentation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallOverhead {
    /// Spans accepted into rings.
    pub spans: u64,
    /// Spans dropped on full rings.
    pub dropped: u64,
    /// Closed spans past the retained cap (histograms still counted
    /// them; only the Chrome-export copy was discarded).
    pub retained_dropped: u64,
    /// Payload bytes moved through rings (`spans × record size`).
    pub bytes: u64,
    /// Nanoseconds inside span enter/exit, summed over threads.
    pub record_ns: u64,
    /// Snapshot merges performed.
    pub merges: u64,
    /// Nanoseconds inside the snapshot merge.
    pub merge_ns: u64,
    /// Flight-recorder sampling passes.
    pub samples: u64,
    /// Nanoseconds inside sampling passes.
    pub sample_ns: u64,
}

crate::impl_to_json!(WallOverhead {
    spans,
    dropped,
    retained_dropped,
    bytes,
    record_ns,
    merges,
    merge_ns,
    samples,
    sample_ns
});

impl WallOverhead {
    /// Total observability nanoseconds (record + merge + sample).
    pub fn total_ns(&self) -> u64 {
        self.record_ns
            .saturating_add(self.merge_ns)
            .saturating_add(self.sample_ns)
    }
}

/// An epoch-stamped merged view of every family and sampled stack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallSnapshot {
    /// Bumped on every merge that ran.
    pub epoch: u64,
    /// ns since the wall was created, at merge time.
    pub uptime_ns: u64,
    /// Per-family latency stats, one row per [`families::ALL`] entry.
    pub families: Vec<FamilyStats>,
    /// Collapsed-stack counts accumulated by the flight recorder.
    pub collapsed: Vec<StackCount>,
    /// Wall self-accounting at merge time.
    pub overhead: WallOverhead,
}

impl WallSnapshot {
    /// The stats row for `family`, if registered.
    pub fn family(&self, family: &str) -> Option<&FamilyStats> {
        self.families.iter().find(|f| f.family == family)
    }

    /// Closed spans across all families.
    pub fn total_spans(&self) -> u64 {
        self.families.iter().map(|f| f.count).sum()
    }

    /// The shared [`Budget`] verdict for this snapshot's overhead
    /// against its own uptime, so both figures come from one reading.
    pub fn budget_verdict(&self) -> BudgetVerdict {
        Budget::default().verdict(self.overhead.total_ns(), self.uptime_ns)
    }

    /// The collapsed-stack text block (`stack count` per line),
    /// directly consumable by `flamegraph.pl` / speedscope.
    pub fn collapsed_text(&self) -> String {
        let mut out = String::new();
        for s in &self.collapsed {
            out.push_str(&s.stack);
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }
}

impl ToJson for WallSnapshot {
    fn to_json(&self) -> Json {
        Json::object()
            .field("epoch", self.epoch)
            .field("uptime_ns", self.uptime_ns)
            .field("total_spans", self.total_spans())
            .field("families", &self.families)
            .field("collapsed", &self.collapsed)
            .field("overhead", self.overhead)
    }
}

/// One thread's live span stack, read by the flight-recorder sampler.
struct LiveStack {
    /// Stack depth (may exceed `MAX_LIVE_DEPTH`; the sampler caps its
    /// read).
    depth: AtomicU64,
    /// Family index + 1 per frame, outermost first.
    frames: [AtomicU64; MAX_LIVE_DEPTH],
}

/// Cold-side merged data (never touched by the span hot path).
struct WallAgg {
    /// Parallel to `families::ALL`; each also sums its durations.
    hists: Vec<Histogram>,
    retained: Vec<RetainedSpan>,
    retained_dropped: u64,
    collapsed: Vec<(String, u64)>,
    samples: u64,
    sample_ns: u64,
}

struct WallInner {
    started: Instant,
    retained_cap: usize,
    /// One span ring per thread slot.
    rings: Vec<SeqRing<SPAN_WORDS>>,
    /// Parallel to `rings`.
    stacks: Vec<LiveStack>,
    agg: Aggregator<WallAgg>,
}

impl std::fmt::Debug for WallInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallInner")
            .field("threads", &self.rings.len())
            .finish_non_exhaustive()
    }
}

impl WallInner {
    fn overhead(&self, merged: &Merged<WallAgg>) -> WallOverhead {
        let rings = SeqRing::totals(&self.rings);
        WallOverhead {
            spans: rings.accepted,
            dropped: rings.dropped,
            retained_dropped: merged.data.retained_dropped,
            bytes: rings.bytes,
            record_ns: rings.billed_ns,
            merges: merged.epoch,
            merge_ns: merged.merge_ns,
            samples: merged.data.samples,
            sample_ns: merged.data.sample_ns,
        }
    }
}

/// The wall-clock flight recorder.
///
/// Cheap to clone — clones share the same rings and merge state.
/// Inactive (without `trace`) it is built empty: no thread slots, no
/// shared state, inert thread handles, and an empty epoch-0 snapshot.
#[derive(Debug, Clone)]
pub struct Wall {
    /// `None` exactly when the wall is inactive.
    inner: Option<Arc<WallInner>>,
}

impl Wall {
    /// Compile-time flag: true in `trace` builds.
    pub const ACTIVE: bool = cfg!(feature = "trace");

    /// A wall with `threads` slots and `ring_capacity` buffered spans
    /// per thread (none, and no allocation, when inactive).
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity < 2`.
    pub fn new(threads: usize, ring_capacity: usize) -> Wall {
        assert!(ring_capacity >= 2, "span ring capacity must be ≥ 2");
        if !Self::ACTIVE {
            return Wall { inner: None };
        }
        Wall {
            inner: Some(Arc::new(WallInner {
                started: Instant::now(),
                retained_cap: DEFAULT_RETAINED_SPANS,
                rings: (0..threads).map(|_| SeqRing::new(ring_capacity)).collect(),
                stacks: (0..threads)
                    .map(|_| LiveStack {
                        depth: AtomicU64::new(0),
                        frames: std::array::from_fn(|_| AtomicU64::new(0)),
                    })
                    .collect(),
                agg: Aggregator::new(WallAgg {
                    hists: families::ALL.iter().map(|_| Histogram::new()).collect(),
                    retained: Vec::new(),
                    retained_dropped: 0,
                    collapsed: Vec::new(),
                    samples: 0,
                    sample_ns: 0,
                }),
            })),
        }
    }

    /// A wall with the default ring capacity.
    pub fn with_threads(threads: usize) -> Wall {
        Wall::new(threads, DEFAULT_SPAN_RING_CAPACITY)
    }

    /// Thread slots configured (0 when inactive).
    pub fn threads(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.rings.len())
    }

    /// ns since the wall was created (the clock spans are stamped
    /// with); 0 when inactive.
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.started.elapsed().as_nanos() as u64)
    }

    /// Claims thread slot `index`'s producer handle. Each slot has
    /// exactly one producer: the first claim wins, later claims (and
    /// out-of-range indices) get `None`. Inactive, every call gets an
    /// inert handle and claims nothing.
    pub fn thread(&self, index: usize) -> Option<WallThread> {
        if let Some(inner) = &self.inner {
            if !inner.rings.get(index)?.claim() {
                return None;
            }
        }
        Some(WallThread {
            inner: self.inner.clone(),
            index,
            stack: RefCell::new(Vec::new()),
            next_id: Cell::new(0),
        })
    }

    /// Drains every ring into the per-family histograms and the
    /// retained-span list, bumps the epoch, and returns the merged
    /// view (empty, epoch 0, when inactive). Cold side only; producers
    /// never block on it.
    pub fn snapshot(&self) -> WallSnapshot {
        let Some(inner) = &self.inner else {
            return WallSnapshot::default();
        };
        let merged = inner.agg.merge(|agg| {
            for (thread, ring) in inner.rings.iter().enumerate() {
                ring.drain(|&[id, parent, family, start_ns, dur_ns, _]| {
                    let fi = family as usize;
                    debug_assert!(fi < families::ALL.len(), "unregistered family index");
                    debug_assert_ne!(id, 0, "span ids are nonzero");
                    if let Some(h) = agg.hists.get_mut(fi) {
                        h.observe(dur_ns);
                    }
                    if agg.retained.len() < inner.retained_cap {
                        agg.retained.push(RetainedSpan {
                            id,
                            parent,
                            family: families::ALL
                                .get(fi)
                                .copied()
                                .unwrap_or("unregistered")
                                .to_string(),
                            thread,
                            start_ns,
                            dur_ns,
                        });
                    } else {
                        agg.retained_dropped += 1;
                    }
                });
            }
        });
        let agg = &merged.data;
        WallSnapshot {
            epoch: merged.epoch,
            uptime_ns: self.now_ns(),
            families: families::ALL
                .iter()
                .enumerate()
                .map(|(i, name)| FamilyStats {
                    family: (*name).to_string(),
                    count: agg.hists[i].count(),
                    total_ns: agg.hists[i].sum(),
                    p50_ns: agg.hists[i].quantile(0.50),
                    p99_ns: agg.hists[i].quantile(0.99),
                    p999_ns: agg.hists[i].quantile(0.999),
                    max_ns: agg.hists[i].max(),
                })
                .collect(),
            collapsed: agg
                .collapsed
                .iter()
                .map(|(stack, count)| StackCount {
                    stack: stack.clone(),
                    count: *count,
                })
                .collect(),
            overhead: inner.overhead(&merged),
        }
    }

    /// One flight-recorder pass: reads every thread's live span stack
    /// and folds the observed shapes into the collapsed-stack counts.
    /// Returns how many non-empty stacks were observed (0 when
    /// inactive). Approximate by design — a stack mutating mid-read
    /// yields a momentarily stale (never torn) frame.
    pub fn sample_stacks(&self) -> usize {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let t0 = Instant::now();
        let mut seen = 0usize;
        let mut merged = inner.agg.lock();
        let agg = &mut merged.data;
        for live in &inner.stacks {
            // ord: Acquire pairs with the producer's Release depth store
            // in enter(): frames below `depth` were published before the
            // depth became visible.
            let depth = live.depth.load(Ordering::Acquire) as usize;
            let depth = depth.min(MAX_LIVE_DEPTH);
            if depth == 0 {
                continue;
            }
            let mut stack = String::new();
            for entry in live.frames.iter().take(depth) {
                // ord: Relaxed — covered by the Acquire depth load; a
                // racing re-push can make this momentarily stale, which
                // sampling tolerates.
                let fam = entry.load(Ordering::Relaxed);
                let name = (fam as usize)
                    .checked_sub(1)
                    .and_then(|i| families::ALL.get(i).copied())
                    .unwrap_or("unregistered");
                if !stack.is_empty() {
                    stack.push(';');
                }
                stack.push_str(name);
            }
            seen += 1;
            match agg.collapsed.iter_mut().find(|(s, _)| *s == stack) {
                Some((_, count)) => *count += 1,
                None => agg.collapsed.push((stack, 1)),
            }
        }
        agg.samples += 1;
        agg.sample_ns += t0.elapsed().as_nanos() as u64;
        seen
    }

    /// Wall self-accounting so far (without forcing a merge); zero when
    /// inactive.
    pub fn overhead(&self) -> WallOverhead {
        self.inner
            .as_ref()
            .map_or_else(WallOverhead::default, |i| i.overhead(&i.agg.lock()))
    }

    /// The retained closed spans (for Chrome export). Forces a merge
    /// first so freshly closed spans are included. Empty when inactive.
    pub fn spans(&self) -> Vec<RetainedSpan> {
        let _ = self.snapshot();
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.agg.lock().data.retained.clone())
    }
}

/// A thread's producer handle. Deliberately not `Clone`: one producer
/// per ring is what makes the ring SPSC. Handles from an inactive wall
/// are inert: they open no spans and record nothing.
#[derive(Debug)]
pub struct WallThread {
    inner: Option<Arc<WallInner>>,
    index: usize,
    /// Open frames: `(id, parent, family index, start_ns)`.
    stack: RefCell<Vec<(u64, u64, u64, u64)>>,
    next_id: Cell<u64>,
}

impl WallThread {
    /// The slot index this handle records to.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The id of the innermost open span, 0 when none.
    pub fn current(&self) -> u64 {
        self.stack.borrow().last().map_or(0, |f| f.0)
    }

    /// Opens a span of `family`, parented to the innermost open span on
    /// this thread. Returns the span id (0 and records nothing for
    /// unregistered families — lint E014 keeps that branch unreachable
    /// in tree — and on an inert handle). Self-measured into
    /// [`WallOverhead::record_ns`].
    pub fn enter(&self, family: &'static str) -> u64 {
        let parent = self.current();
        self.enter_with_parent(family, parent)
    }

    /// Opens a span of `family` with an explicit parent id — the
    /// cross-thread causality hook (e.g. runner tasks parented to the
    /// driver's sweep span).
    pub fn enter_with_parent(&self, family: &'static str, parent: u64) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let t0 = Instant::now();
        let Some(fi) = families::index_of(family) else {
            return 0;
        };
        let live = &inner.stacks[self.index];
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        // Thread index in the high 16 bits keeps ids globally unique
        // without any shared allocation.
        let id = ((self.index as u64 + 1) << 48) | id;
        let start_ns = t0.duration_since(inner.started).as_nanos() as u64;
        let depth = {
            let mut stack = self.stack.borrow_mut();
            let depth = stack.len();
            stack.push((id, parent, fi as u64, start_ns));
            depth
        };
        if depth < MAX_LIVE_DEPTH {
            // ord: Relaxed — the Release depth store below publishes
            // this entry to the sampler.
            live.frames[depth].store(fi as u64 + 1, Ordering::Relaxed);
        }
        // ord: Release pairs with the sampler's Acquire depth load in
        // sample_stacks(): the entry above is visible before the deeper
        // stack is.
        live.depth.store(depth as u64 + 1, Ordering::Release);
        inner.rings[self.index].bill(t0.elapsed().as_nanos() as u64);
        id
    }

    /// Closes the innermost open span and pushes its record into this
    /// thread's ring. A full ring drops the record and counts the drop
    /// — the hot path never waits.
    ///
    /// `id` is the value [`enter`](Self::enter) returned; a mismatch
    /// (unbalanced guards) still closes the innermost frame, keeping
    /// the stack consistent. `id == 0` is a no-op.
    pub fn exit(&self, id: u64) {
        let Some(inner) = self.recording(id) else {
            return;
        };
        let t0 = Instant::now();
        let Some((span_id, parent, fi, start_ns)) = self.stack.borrow_mut().pop() else {
            return;
        };
        debug_assert_eq!(span_id, id, "span guards must close LIFO");
        self.publish_depth(inner);
        let end_ns = t0.duration_since(inner.started).as_nanos() as u64;
        let dur_ns = end_ns.saturating_sub(start_ns);
        let ring = &inner.rings[self.index];
        ring.push([span_id, parent, fi, start_ns, dur_ns, 0]);
        ring.bill(t0.elapsed().as_nanos() as u64);
    }

    /// Discards the innermost open span without recording it (used when
    /// a span turns out to cover nothing, e.g. a task claim that found
    /// the queue empty). `id == 0` is a no-op.
    pub fn cancel(&self, id: u64) {
        let Some(inner) = self.recording(id) else {
            return;
        };
        let popped = self.stack.borrow_mut().pop();
        debug_assert!(
            popped.is_none_or(|f| f.0 == id),
            "span guards must close LIFO"
        );
        self.publish_depth(inner);
    }

    /// The state closing span `id` touches; none for id 0 or inert.
    fn recording(&self, id: u64) -> Option<&WallInner> {
        self.inner.as_deref().filter(|_| id != 0)
    }

    /// Shrinks the sampled live stack to the open-frame count.
    fn publish_depth(&self, inner: &WallInner) {
        let depth = self.stack.borrow().len() as u64;
        let live = &inner.stacks[self.index];
        // ord: Release — frames at or above the new depth are dead to
        // the sampler once it loads this depth.
        live.depth.store(depth, Ordering::Release);
    }
}

// Thread-propagated context: a thread attaches its WallThread once and
// instrumentation anywhere down the call stack opens spans without
// plumbing a handle through every signature. Inactive, none of these
// touch the thread-local.

thread_local! {
    static CURRENT: RefCell<Option<WallThread>> = const { RefCell::new(None) };
}

/// Claims slot `index` of `wall` and installs the handle as this
/// thread's recording context. Returns false (and leaves any existing
/// context in place) when the slot is already claimed or out of range.
/// Inactive, does nothing and returns true (so callers need not
/// branch).
pub fn attach(wall: &Wall, index: usize) -> bool {
    if !Wall::ACTIVE {
        return true;
    }
    match wall.thread(index) {
        Some(t) => {
            CURRENT.with(|c| *c.borrow_mut() = Some(t));
            true
        }
        None => false,
    }
}

/// Drops this thread's recording context (open guards become no-ops).
/// The slot stays claimed — like the hub, one producer per slot per
/// wall lifetime.
pub fn detach() {
    if Wall::ACTIVE {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// The innermost open span id on this thread, 0 when none (or
/// unattached, or inactive). Hand this to [`span_with_parent`] on
/// another thread for cross-thread causality.
pub fn current_id() -> u64 {
    if !Wall::ACTIVE {
        return 0;
    }
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, |t| t.current()))
}

/// An RAII span: closes (records) the span when dropped.
#[must_use = "a span measures nothing unless held for its extent"]
#[derive(Debug)]
pub struct ScopedSpan {
    id: u64,
}

impl ScopedSpan {
    /// The span id (0 when this thread is unattached or inactive).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        let id = std::mem::take(&mut self.id);
        if id != 0 {
            CURRENT.with(|c| {
                if let Some(t) = c.borrow().as_ref() {
                    t.cancel(id);
                }
            });
        }
    }
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        if self.id != 0 {
            CURRENT.with(|c| {
                if let Some(t) = c.borrow().as_ref() {
                    t.exit(self.id);
                }
            });
        }
    }
}

/// Opens a span of `family` on this thread's attached context,
/// parented to the innermost open span. A no-op (id 0) when the thread
/// is unattached or the wall inactive.
pub fn span(family: &'static str) -> ScopedSpan {
    if !Wall::ACTIVE {
        return ScopedSpan { id: 0 };
    }
    ScopedSpan {
        id: CURRENT.with(|c| c.borrow().as_ref().map_or(0, |t| t.enter(family))),
    }
}

/// As [`span`], with an explicit parent id (0 for a root).
pub fn span_with_parent(family: &'static str, parent: u64) -> ScopedSpan {
    if !Wall::ACTIVE {
        return ScopedSpan { id: 0 };
    }
    ScopedSpan {
        id: CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map_or(0, |t| t.enter_with_parent(family, parent))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_table_is_closed_and_unique() {
        for (i, f) in families::ALL.iter().enumerate() {
            assert_eq!(families::index_of(f), Some(i), "family {f}");
        }
        let mut sorted: Vec<&str> = families::ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), families::ALL.len(), "duplicate family");
        assert_eq!(families::index_of("not-registered"), None);
    }

    #[test]
    fn snapshot_verdict_rates_its_own_overhead() {
        let snap = WallSnapshot {
            uptime_ns: 1_000_000,
            overhead: WallOverhead {
                record_ns: 1_000,
                merge_ns: 500,
                sample_ns: 500,
                ..WallOverhead::default()
            },
            ..WallSnapshot::default()
        };
        assert_eq!(snap.overhead.total_ns(), 2_000);
        let v = snap.budget_verdict();
        assert_eq!(v, Budget::default().verdict(2_000, 1_000_000));
        assert!(v.within);
        // An empty snapshot (uptime 0) never fails the budget.
        assert!(WallSnapshot::default().budget_verdict().within);
    }

    #[test]
    fn wall_matches_feature_mode() {
        let wall = Wall::with_threads(2);
        let t = wall.thread(0).expect("first claim");
        let outer = t.enter(families::SWEEP);
        let inner = t.enter(families::TASK);
        t.exit(inner);
        t.exit(outer);
        let snap = wall.snapshot();
        if Wall::ACTIVE {
            assert_eq!(snap.families.len(), families::ALL.len());
            assert_eq!(snap.epoch, 1);
            let sweep = snap.family(families::SWEEP).expect("sweep row");
            assert_eq!(sweep.count, 1);
            let task = snap.family(families::TASK).expect("task row");
            assert_eq!(task.count, 1);
            assert!(sweep.max_ns >= task.max_ns, "outer span covers inner");
            assert_eq!(snap.total_spans(), 2);
            // The second claim of the same slot must fail (SPSC).
            assert!(wall.thread(0).is_none(), "slot 0 already claimed");
            assert!(wall.thread(5).is_none(), "out of range");
            let o = wall.overhead();
            assert_eq!(o.spans, 2);
            assert_eq!(o.bytes, 2 * (SPAN_WORDS as u64) * 8);
            assert!(o.record_ns > 0);
            assert!(o.merges >= 1);
            // Both spans survive into the retained list with causality.
            let spans = wall.spans();
            assert_eq!(spans.len(), 2);
            let task_span = spans
                .iter()
                .find(|s| s.family == families::TASK)
                .expect("task span retained");
            let sweep_span = spans
                .iter()
                .find(|s| s.family == families::SWEEP)
                .expect("sweep span retained");
            assert_eq!(task_span.parent, sweep_span.id, "nesting sets parent");
            assert_eq!(sweep_span.parent, 0, "root has no parent");
        } else {
            assert_eq!(snap.families.len(), 0);
            assert_eq!(snap.epoch, 0);
            assert_eq!(wall.overhead(), WallOverhead::default());
            assert!(snap.budget_verdict().within);
        }
    }

    #[test]
    fn unregistered_family_records_nothing() {
        let wall = Wall::with_threads(1);
        let t = wall.thread(0).expect("claim");
        assert_eq!(t.enter("not/registered"), 0);
        t.exit(0); // the returned 0 is a safe no-op
        assert_eq!(wall.snapshot().total_spans(), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn full_ring_drops_and_counts() {
        let wall = Wall::new(1, 4);
        let t = wall.thread(0).expect("claim");
        for _ in 0..10 {
            let id = t.enter(families::RUN);
            t.exit(id);
        }
        let snap = wall.snapshot();
        let o = snap.overhead;
        assert_eq!(o.spans, 4, "ring holds 4");
        assert_eq!(o.dropped, 6);
        assert_eq!(o.spans + o.dropped, 10, "record conservation");
        assert_eq!(snap.family(families::RUN).expect("run row").count, 4);
        // After the drain the ring has room again.
        let id = t.enter(families::RUN);
        t.exit(id);
        let snap = wall.snapshot();
        assert_eq!(snap.family(families::RUN).expect("run row").count, 5);
        assert_eq!(snap.epoch, 2);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn cancel_discards_the_frame() {
        let wall = Wall::with_threads(1);
        let t = wall.thread(0).expect("claim");
        let id = t.enter(families::CLAIM);
        t.cancel(id);
        assert_eq!(t.current(), 0, "stack unwound");
        assert_eq!(wall.snapshot().total_spans(), 0, "nothing recorded");
        t.cancel(0); // no-op
    }

    #[cfg(feature = "trace")]
    #[test]
    fn live_stack_sampling_collapses() {
        let wall = Wall::with_threads(1);
        let t = wall.thread(0).expect("claim");
        let outer = t.enter(families::SWEEP);
        let inner = t.enter(families::TASK);
        assert_eq!(wall.sample_stacks(), 1);
        assert_eq!(wall.sample_stacks(), 1);
        t.exit(inner);
        assert_eq!(wall.sample_stacks(), 1, "outer frame still live");
        t.exit(outer);
        assert_eq!(wall.sample_stacks(), 0, "empty stacks are skipped");
        let snap = wall.snapshot();
        let deep = snap
            .collapsed
            .iter()
            .find(|s| s.stack == "sweep;runner/task")
            .expect("nested stack sampled");
        assert_eq!(deep.count, 2);
        let shallow = snap
            .collapsed
            .iter()
            .find(|s| s.stack == "sweep")
            .expect("outer-only stack sampled");
        assert_eq!(shallow.count, 1);
        assert!(snap.collapsed_text().contains("sweep;runner/task 2\n"));
        assert_eq!(snap.overhead.samples, 4);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn explicit_parent_crosses_threads() {
        let wall = Wall::with_threads(2);
        let driver = wall.thread(0).expect("claim 0");
        let root = driver.enter(families::SWEEP);
        let worker = wall.thread(1).expect("claim 1");
        let task = worker.enter_with_parent(families::TASK, root);
        worker.exit(task);
        driver.exit(root);
        let spans = wall.spans();
        let task_span = spans
            .iter()
            .find(|s| s.family == families::TASK)
            .expect("task retained");
        assert_eq!(task_span.parent, root);
        assert_eq!(task_span.thread, 1);
        // Ids from different threads never collide.
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
    }

    #[test]
    fn tls_spans_record_through_the_attached_context() {
        let wall = Wall::with_threads(1);
        assert!(attach(&wall, 0), "first attach claims the slot");
        {
            let outer = span(families::SWEEP);
            if Wall::ACTIVE {
                assert_ne!(outer.id(), 0);
                assert_eq!(current_id(), outer.id());
            }
            let inner = span(families::TASK);
            drop(inner);
            drop(outer);
        }
        // Cancelled guards record nothing.
        let ghost = span(families::CLAIM);
        ghost.cancel();
        detach();
        // Unattached: guards are inert.
        let idle = span(families::RUN);
        assert_eq!(idle.id(), 0);
        drop(idle);
        assert_eq!(current_id(), 0);
        let snap = wall.snapshot();
        if Wall::ACTIVE {
            assert_eq!(snap.total_spans(), 2, "sweep + task, no claim/run");
            assert_eq!(snap.family(families::CLAIM).expect("claim row").count, 0);
        } else {
            assert_eq!(snap.total_spans(), 0);
        }
    }

    #[test]
    fn snapshot_json_shape() {
        let wall = Wall::with_threads(1);
        let j = wall.snapshot().to_json();
        assert!(j.get("epoch").is_some());
        assert!(j.get("families").is_some());
        assert!(j.get("collapsed").is_some());
        assert!(j.get("overhead").is_some());
        assert!(j.get("total_spans").is_some());
    }

    #[cfg(feature = "trace")]
    #[cfg_attr(miri, ignore = "timed producer loops are too slow under miri")]
    #[test]
    fn concurrent_record_merge_and_sample() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let wall = Wall::with_threads(4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = wall.thread(i).expect("claim");
                let stop = &stop;
                scope.spawn(move || {
                    // A guaranteed floor of iterations first: the main
                    // thread's snapshot loop can finish before a slow
                    // spawn even starts, and the final conservation
                    // check needs spans to conserve.
                    let mut done = 0u32;
                    while done < 50 || !stop.load(Ordering::Relaxed) {
                        let outer = t.enter(families::TASK);
                        let inner = t.enter(families::RUN);
                        t.exit(inner);
                        t.exit(outer);
                        done += 1;
                    }
                });
            }
            for _ in 0..100 {
                let snap = wall.snapshot();
                for f in &snap.families {
                    assert!(f.p50_ns <= f.p99_ns && f.p99_ns <= f.p999_ns);
                    assert!(f.p999_ns <= f.max_ns.max(f.p999_ns));
                }
                let _ = wall.sample_stacks();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let snap = wall.snapshot();
        let o = snap.overhead;
        // 4 producers x >= 50 iterations x 2 spans, and a slot can only
        // drop once 1024 records sit undrained — so all 400 floor spans
        // publish.
        assert!(o.spans >= 400);
        assert!(o.merges >= 101);
        assert!(o.samples >= 100);
        // Conservation after join: the final snapshot drained every
        // ring, so the histograms saw exactly the accepted records
        // (drops were counted, never silently lost).
        assert_eq!(snap.total_spans(), o.spans, "merged == accepted");
    }
}

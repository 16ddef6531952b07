//! The traced run: the per-layer breakdown.
//!
//! Each operation runs four times from scratch on the same stream:
//!
//! 1. untraced, exactly as the end-to-end run times it;
//! 2. traced: the loop `Machine::run` uses (`Workload::fill_block`, then
//!    `Machine::run_block`), each call wrapped in a benchmark-side span
//!    parented to one span for the operation;
//! 3. observed: `Machine::run_observed` with a telemetry `Hub` worker and
//!    a wall-clock `Wall` attached, in the default build;
//! 4. captured: stepped one event at a time with `Machine::step_tagged`,
//!    recording the L2 request stream and the controller request stream
//!    the machine produced, which are then replayed into
//!    `Cache::access` and `MigrationController::on_request_tagged`.
//!
//! A fifth pass probes the L1 geometry alone over a fresh copy of the
//! stream; the requests it sends on must number the machine's L2
//! accesses.
//!
//! Runs 2–4 must end in the statistics of run 1. All timing is from the
//! outside, around calls to each layer's public functions.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use execmig_cache::Cache;
use execmig_core::{ControllerConfig, MigrationController};
use execmig_machine::{Machine, MachineStats};
use execmig_obs::{wall, Hub, HubConfig, Wall};
use execmig_trace::{AccessKind, LineAddr, LineSize, Workload, WorkloadEvent};

use crate::check;
use crate::ops::Op;
use crate::report::Metric;
use crate::run::{execute, Checks, Tally};
use crate::spans::{self_times, Recorder};
use crate::stats::ratio;

/// Span name of a `Workload::fill_block` call (generation).
pub const TRACE_LAYER: &str = "execmig-trace";
/// Span name of a `Machine::run_block` call (L1/L2/bus/coherence and
/// the controller it consults).
pub const MACHINE_LAYER: &str = "execmig-machine";
/// Span name of one whole operation.
pub const OP_SPAN: &str = "op";

/// Instructions between telemetry beats in the observed run.
const BEAT_PERIOD: u64 = 100_000;

/// Sums over every traced operation.
#[derive(Debug, Default)]
struct Totals {
    instructions: u64,
    events: u64,
    untraced_ns: u64,
    observed_ns: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    forwards: u64,
    bus_bytes: u64,
    invalidations: u64,
    updates: u64,
    coherence_bus_bytes: u64,
    consulted: u64,
    migrations: u64,
    l1_probes: u64,
    l1_probe_ns: u64,
    l2_probes: u64,
    l2_hits: u64,
    l2_probe_ns: u64,
    requests_replayed: u64,
    request_ns: u64,
    table_hits: u64,
    table_reads: u64,
}

/// Runs whole rounds of traced operations while another round still
/// fits in `seconds` (at least one round), writes the span log to
/// `spans_out`, and returns the per-layer metrics.
pub fn traced(
    ops: &[Op],
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
    spans_out: &Path,
) -> Vec<Metric> {
    let mut checks = Checks::new(ops, seed);
    let mut rec = Recorder::default();
    let mut t = Totals::default();
    let (start, wanted) = (Instant::now(), Duration::from_secs(seconds));
    loop {
        let round = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                one_op(op, seed, &mut rec, &mut t)
                    .and_then(|stats| checks.verdict(i, op, seed, &stats))
            }))
            .unwrap_or_else(|_| Err(format!("{}: panicked in the traced run", op.id())));
            tally.record(verdict);
        }
        // Traced rounds are long; stop before one would overrun.
        if start.elapsed() + round.elapsed() > wanted {
            break;
        }
    }
    if let Err(e) = rec.write_tsv(spans_out) {
        eprintln!("simbench: cannot write {}: {e}", spans_out.display());
    }
    metrics(&t, &rec)
}

/// Runs one operation in all four ways, adds it to `t`, and returns the
/// untraced run's statistics.
fn one_op(op: &Op, seed: u64, rec: &mut Recorder, t: &mut Totals) -> Result<MachineStats, String> {
    let id = op.id();
    let base = execute(op, seed)?;
    let s = base.stats;

    let (traced, events) = traced_run(op, seed, rec);
    check::same_stats(&id, "traced run", &traced, &s)?;

    let (observed, observed_run) = observed_run(op, seed);
    check::same_stats(&id, "observed run", &observed, &s)?;

    let cap = capture(op, seed, &s);
    check::same_stats(&id, "per-step capture", &cap.stats, &s)?;
    let (l1_probes, l2_requests, l1_ns) = l1_replay(op, seed);
    if l2_requests != s.l2_accesses {
        return Err(format!(
            "{id}: outside L1 model sends {l2_requests} requests to the L2, machine counted {}",
            s.l2_accesses
        ));
    }

    // L2 probes: the machine's per-core L2 geometry over the captured
    // request stream, each request to the core that was active.
    let mut l2: Vec<Cache> = (0..op.config.cores)
        .map(|_| Cache::new(op.config.l2.to_cache_config(op.config.line_bytes)))
        .collect();
    let clock = Instant::now();
    let mut l2_hits = 0u64;
    for &w in &cap.l2 {
        let hit = l2[(w & 7) as usize]
            .access(LineAddr::new(w >> 4), w & 8 != 0)
            .hit;
        l2_hits += u64::from(hit);
    }
    let l2_ns = clock.elapsed().as_nanos() as u64;

    // Controller: the captured (line, L2 miss, pointer) requests. With
    // the same inputs the replay makes the machine's decisions; the
    // single-core baseline has no controller, so it replays into the
    // paper's four-core one.
    let config = op
        .config
        .controller
        .unwrap_or_else(ControllerConfig::paper_4core);
    let mut mc = MigrationController::new(config);
    let clock = Instant::now();
    for &w in &cap.requests {
        black_box(mc.on_request_tagged(w >> 2, w & 2 != 0, w & 1 != 0));
    }
    let request_ns = clock.elapsed().as_nanos() as u64;
    if op.config.controller.is_some() && mc.stats().migrations != s.migrations {
        return Err(format!(
            "{id}: controller replay migrated {} times, machine {}",
            mc.stats().migrations,
            s.migrations
        ));
    }
    let table = mc.table_stats();

    t.instructions += s.instructions;
    t.events += events;
    t.untraced_ns += (base.run_ms() * 1e6) as u64;
    t.observed_ns += observed_run.as_nanos() as u64;
    t.l1_misses += s.il1_misses + s.dl1_misses;
    t.l2_accesses += s.l2_accesses;
    t.l2_misses += s.l2_misses;
    t.forwards += s.l2_to_l2_forwards;
    t.bus_bytes += s.bus.update_bus_bytes();
    t.invalidations += s.invalidations;
    t.updates += s.coherence_updates + s.store_broadcast_updates;
    t.coherence_bus_bytes += s.coherence_bus_bytes;
    if op.config.controller.is_some() {
        t.consulted += s.l1_requests;
    }
    t.migrations += s.migrations;
    t.l1_probes += l1_probes;
    t.l1_probe_ns += l1_ns;
    t.l2_probes += cap.l2.len() as u64;
    t.l2_hits += l2_hits;
    t.l2_probe_ns += l2_ns;
    t.requests_replayed += cap.requests.len() as u64;
    t.request_ns += request_ns;
    t.table_hits += table.hits;
    t.table_reads += table.hits + table.misses;
    Ok(s)
}

/// The traced loop; returns the final statistics and the event count.
fn traced_run(op: &Op, seed: u64, rec: &mut Recorder) -> (MachineStats, u64) {
    let mut machine = Machine::new(op.config.clone());
    let mut stream = check::stream(op, seed);
    let mut buf: Vec<WorkloadEvent> = Vec::with_capacity(Machine::BLOCK_EVENTS);
    let mut events = 0;
    let op_span = rec.open(OP_SPAN, 0);
    loop {
        let span = rec.open(TRACE_LAYER, op_span);
        buf.clear();
        let filled = stream.fill_block(&mut buf, op.instructions, Machine::BLOCK_EVENTS);
        rec.close(span);
        if filled == 0 {
            break;
        }
        events += filled as u64;
        let span = rec.open(MACHINE_LAYER, op_span);
        machine.run_block(&buf);
        rec.close(span);
    }
    rec.close(op_span);
    (*machine.stats(), events)
}

/// `Machine::run_observed` with a hub worker and an attached wall;
/// returns the final statistics and the host time of the run call.
fn observed_run(op: &Op, seed: u64) -> (MachineStats, Duration) {
    let mut machine = Machine::new(op.config.clone());
    let mut stream = check::stream(op, seed);
    let hub = Hub::new(HubConfig::with_workers(1));
    let worker = hub.worker(0).expect("slot 0 of a one-worker hub");
    let recorder = Wall::new(1, 1 << 12);
    wall::attach(&recorder, 0);
    let clock = Instant::now();
    machine.run_observed(&mut stream, op.instructions, &worker, 0, 0, BEAT_PERIOD);
    let took = clock.elapsed();
    wall::detach();
    (*machine.stats(), took)
}

/// The L1 filter alone: the machine's IL1/DL1 geometry probed with
/// `Cache::access` (stores: `Cache::lookup`, as the write-through,
/// non-write-allocate DL1 does) over a fresh copy of the stream, timed
/// block by block. Returns probes, requests that reach the L2, and ns.
fn l1_replay(op: &Op, seed: u64) -> (u64, u64, u64) {
    let line =
        LineSize::new(op.config.line_bytes).expect("configured line sizes are powers of two");
    let mut il1 = Cache::new(op.config.il1.to_cache_config(op.config.line_bytes));
    let mut dl1 = Cache::new(op.config.dl1.to_cache_config(op.config.line_bytes));
    let mut stream = check::stream(op, seed);
    let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
    let (mut probes, mut l2_requests, mut ns) = (0, 0, 0);
    loop {
        buf.clear();
        if stream.fill_block(&mut buf, op.instructions, Machine::BLOCK_EVENTS) == 0 {
            break;
        }
        let clock = Instant::now();
        for e in &buf {
            let l = line.line_of(e.access.addr);
            let reaches_l2 = match e.access.kind {
                AccessKind::IFetch => !il1.access(l, false).hit,
                AccessKind::Load => !dl1.access(l, false).hit,
                AccessKind::Store => {
                    black_box(dl1.lookup(l));
                    true
                }
            };
            l2_requests += u64::from(reaches_l2);
        }
        ns += clock.elapsed().as_nanos() as u64;
        probes += buf.len() as u64;
    }
    (probes, black_box(l2_requests), ns)
}

/// What one operation sent past its L1s, packed one word per request
/// so a long operation's streams stay small.
struct Capture {
    stats: MachineStats,
    /// L2 accesses: `line << 4 | store << 3 | active core`.
    l2: Vec<u64>,
    /// Controller requests: `line << 2 | L2 miss << 1 | pointer load`.
    requests: Vec<u64>,
}

/// Steps `op` one event at a time, reading the machine's counters after
/// each event to recover which events reached the L2 and the controller.
/// `expected` (the untraced run's statistics) sizes the streams.
fn capture(op: &Op, seed: u64, expected: &MachineStats) -> Capture {
    let mut machine = Machine::new(op.config.clone());
    let mut stream = check::stream(op, seed);
    let line =
        LineSize::new(op.config.line_bytes).expect("configured line sizes are powers of two");
    let mut l2 = Vec::with_capacity(expected.l2_accesses as usize);
    let mut requests = Vec::with_capacity(expected.l1_requests as usize);
    let mut buf = Vec::with_capacity(Machine::BLOCK_EVENTS);
    loop {
        buf.clear();
        if stream.fill_block(&mut buf, op.instructions, Machine::BLOCK_EVENTS) == 0 {
            break;
        }
        for e in &buf {
            let l = line.line_of(e.access.addr);
            let core = machine.active_core() as u64;
            let before = *machine.stats();
            machine.step_tagged(e.access.kind, l, e.instructions, e.access.pointer);
            let after = machine.stats();
            if after.l2_accesses > before.l2_accesses {
                l2.push(l.raw() << 4 | u64::from(e.access.kind.is_store()) << 3 | core);
            }
            if after.l1_requests > before.l1_requests {
                let l2_miss = after.l2_misses > before.l2_misses;
                requests.push(l.raw() << 2 | u64::from(l2_miss) << 1 | u64::from(e.access.pointer));
            }
        }
    }
    Capture {
        stats: *machine.stats(),
        l2,
        requests,
    }
}

fn metrics(t: &Totals, rec: &Recorder) -> Vec<Metric> {
    let selfs = self_times(rec.spans());
    let wall_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == OP_SPAN)
        .map(|s| s.dur_ns())
        .sum();
    let fill_ns = selfs.get(TRACE_LAYER).copied().unwrap_or(0);
    let block_ns = selfs.get(MACHINE_LAYER).copied().unwrap_or(0);
    let instr = t.instructions;
    let per_k = |n: u64| ratio(n, instr) * 1e3;
    let request_ns = ratio(t.request_ns, t.requests_replayed);
    vec![
        Metric::new("trace.fill_ns_per_instr", ratio(fill_ns, instr), "ns"),
        Metric::new("trace.share", ratio(fill_ns, wall_ns), "ratio"),
        Metric::new("trace.events_per_kinstr", per_k(t.events), "1/kinstr"),
        Metric::new(
            "machine.run_block_ns_per_instr",
            ratio(block_ns, instr),
            "ns",
        ),
        Metric::new("machine.share", ratio(block_ns, wall_ns), "ratio"),
        Metric::new(
            "machine.l1_misses_per_kinstr",
            per_k(t.l1_misses),
            "1/kinstr",
        ),
        Metric::new(
            "machine.l2_accesses_per_kinstr",
            per_k(t.l2_accesses),
            "1/kinstr",
        ),
        Metric::new(
            "machine.l2_misses_per_kinstr",
            per_k(t.l2_misses),
            "1/kinstr",
        ),
        Metric::new(
            "machine.l2_forwards_per_kinstr",
            per_k(t.forwards),
            "1/kinstr",
        ),
        Metric::new(
            "machine.bus_bytes_per_instr",
            ratio(t.bus_bytes, instr),
            "B/instr",
        ),
        Metric::new(
            "coherence.invalidations_per_kinstr",
            per_k(t.invalidations),
            "1/kinstr",
        ),
        Metric::new("coherence.updates_per_kinstr", per_k(t.updates), "1/kinstr"),
        Metric::new(
            "coherence.bus_bytes_per_instr",
            ratio(t.coherence_bus_bytes, instr),
            "B/instr",
        ),
        Metric::new("cache.l1_probe_ns", ratio(t.l1_probe_ns, t.l1_probes), "ns"),
        Metric::new("cache.l2_probe_ns", ratio(t.l2_probe_ns, t.l2_probes), "ns"),
        Metric::new("cache.l2_hit_ratio", ratio(t.l2_hits, t.l2_probes), "ratio"),
        Metric::new("controller.request_ns", request_ns, "ns"),
        Metric::new(
            "controller.requests_per_kinstr",
            per_k(t.consulted),
            "1/kinstr",
        ),
        Metric::new(
            "controller.migrations_per_minstr",
            per_k(t.migrations) * 1e3,
            "1/Minstr",
        ),
        Metric::new(
            "controller.table_hit_ratio",
            ratio(t.table_hits, t.table_reads),
            "ratio",
        ),
        Metric::new(
            "controller.est_share",
            request_ns * t.consulted as f64 / wall_ns.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "obs.observed_overhead_pct",
            pct_over(t.observed_ns, t.untraced_ns),
            "%",
        ),
        Metric::new(
            "layers.unattributed_share",
            ratio(wall_ns.saturating_sub(fill_ns + block_ns), wall_ns),
            "ratio",
        ),
        Metric::new(
            "tracing_overhead_pct",
            pct_over(wall_ns, t.untraced_ns),
            "%",
        ),
    ]
}

/// How much longer `slow` took than `base`, in percent.
fn pct_over(slow: u64, base: u64) -> f64 {
    (ratio(slow, base) - 1.0) * 100.0
}

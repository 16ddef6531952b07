//! Observability layer for the execution-migration workspace.
//!
//! All dependency-free. Simulated time (what the modelled machine did):
//!
//! - [`tracer`]: a feature-gated event tracer. With the `trace` feature
//!   on, [`Tracer`] records typed events ([`EventKind`]) with monotonic
//!   instruction timestamps in a fixed-capacity [`EventRing`]; with it
//!   off, `Tracer` holds an unallocated ring and `emit` returns at
//!   once — instrumented hot paths cost nothing.
//! - [`profile`]: a feature-gated interval [`Profiler`] attributing
//!   misses/migrations/`F` dynamics to fixed instruction windows
//!   ([`ProfileRecord`]), with pair-merge decimation so long runs stay
//!   O(capacity). Same zero-cost-when-off discipline as [`Tracer`].
//! - [`metrics`]: named counters/gauges/log-2 [`Histogram`]s in a
//!   [`Registry`] with snapshot/delta semantics.
//!
//! Host time (where the simulator's own wall clock goes):
//!
//! - [`spsc`]: `SeqRing`, the one lock-free
//!   single-producer/single-consumer ring both live channels below
//!   ride on, and `Aggregator`, their shared cold-side merge state.
//! - [`hub`]: the live-telemetry [`Hub`] — per-worker progress
//!   [`Beat`]s with an epoch'd snapshot merge.
//! - [`wall`]: the wall-clock flight recorder — causal spans
//!   ([`wall::span`]), per-family latency histograms with
//!   p50/p99/p999, and a live-stack sampler rendering collapsed
//!   (flamegraph) output.
//! - [`budget`]: the one overhead [`Budget`] (2 % of run time by
//!   default) both the hub and the wall are held to.
//! - [`span`]: a plain [`Stopwatch`] and the per-task [`Span`] record
//!   of the parallel runner.
//!
//! [`Tracer`], [`Profiler`], [`Hub`], [`Wall`] and the [`wall::span`]
//! guards each have one implementation gated by an `ACTIVE` constant,
//! `cfg!(feature = "trace")`: without the feature they are built empty
//! (no allocation) and record nothing, and call sites outside obs gate
//! on `ACTIVE` (lints E006/E010/E011/E015).
//!
//! Output and serving:
//!
//! - [`export`]: JSON, CSV, and Prometheus text exposition.
//! - [`chrome`]: Chrome Trace Event Format export of profiles, the
//!   [`EventRing`] and wall spans, loadable in Perfetto.
//! - [`manifest`]: a [`RunManifest`] JSON artefact per experiment run.
//! - [`http`]: a minimal, panic-free HTTP/1.1 request parser and
//!   response writer.
//! - [`serve`]: the [`TelemetryServer`] serving `/metrics`,
//!   `/progress`, `/spans`, and `/healthz` over the in-tree HTTP stack.
//!
//! [`model`] is the concurrency shim — std `sync`/`thread` re-exports
//! in real builds, the `execmig-model` interleaving checker under
//! `--cfg execmig_model`. All thread/atomic use in the workspace goes
//! through it (lint E012). Serialisation rides on the in-tree
//! [`Json`]/[`ToJson`] model; structs derive `ToJson` via
//! [`impl_to_json!`].

pub mod budget;
pub mod chrome;
pub mod event;
pub mod export;
pub mod http;
pub mod hub;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod model;
pub mod profile;
pub mod ring;
pub mod serve;
pub mod span;
pub mod spsc;
pub mod tracer;
pub mod wall;

pub use budget::{Budget, BudgetVerdict};
pub use chrome::{merge_traces, render_wall_trace, ChromeTraceBuilder};
pub use event::{EventKind, TraceEvent};
pub use export::{escape_label_value, to_csv, to_prometheus, PromKind, PromWriter};
pub use http::{parse_request, response, HttpError, Request};
pub use hub::{
    Beat, HealthReport, Hub, HubConfig, HubOverhead, HubSnapshot, HubWorker, WorkerProgress,
    WorkerState,
};
pub use json::{Json, JsonParseError, ToJson};
pub use manifest::RunManifest;
pub use metrics::{Histogram, MetricValue, Registry};
pub use profile::{ProfileConfig, ProfileCumulative, ProfileRecord, Profiler};
pub use ring::EventRing;
pub use serve::{MetricsProvider, TelemetryServer};
pub use span::{Span, Stopwatch};
pub use tracer::Tracer;
pub use wall::{
    FamilyStats, RetainedSpan, ScopedSpan, StackCount, Wall, WallOverhead, WallSnapshot, WallThread,
};

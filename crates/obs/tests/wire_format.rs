//! Pins the telemetry wire format. A hub and a wall are driven with
//! fixed beats and spans and served through `TelemetryServer`'s routing
//! over real TCP; the test asserts the exact key sets of the
//! `/progress`, `/spans` and `/healthz` JSON bodies and the exact
//! ordered `# TYPE` and metric-name lines of `/metrics`. Timing values
//! are left out: only the structure scrapers and dashboards depend on
//! is pinned.

#![cfg(all(feature = "trace", not(miri)))] // real TCP sockets

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use execmig_obs::wall::families;
use execmig_obs::{json, Beat, Hub, Json, Registry, TelemetryServer, Wall, WorkerState};

/// One `GET path` with `Connection: close`; returns `(status, body)`.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// Every key path in `j`: objects contribute `parent.key`, array
/// elements share one `parent[]` prefix.
fn key_paths(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match j {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(path.clone());
                key_paths(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for v in items {
                key_paths(v, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

fn keys_of(body: &str) -> Vec<String> {
    let doc = json::parse(body).expect("endpoint serves valid JSON");
    let mut out = BTreeSet::new();
    key_paths(&doc, "", &mut out);
    out.into_iter().collect()
}

/// `/metrics` reduced to its `# TYPE` lines and each sample's name and
/// labels (the value is dropped), in order.
fn metric_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|l| !l.starts_with("# HELP") && !l.is_empty())
        .map(|l| {
            if l.starts_with('#') {
                l.to_string()
            } else {
                l.rsplit_once(' ').map_or(l, |(name, _)| name).to_string()
            }
        })
        .collect()
}

/// A two-worker hub (worker 0 ran and finished, worker 1 never beat)
/// and a two-thread wall (thread 0 closed a task span under a sweep
/// span, with one flight-recorder sample taken while both were open).
fn fixture() -> (Hub, Wall) {
    let hub = Hub::with_workers(2);
    let worker = hub.worker(0).expect("claim worker 0");
    worker.publish(Beat {
        state: WorkerState::Running,
        task: 3,
        instructions: 1_000,
        ..Beat::default()
    });
    worker.publish(Beat {
        state: WorkerState::Done,
        tasks_done: 1,
        ..Beat::idle()
    });
    let wall = Wall::new(2, 16);
    let thread = wall.thread(0).expect("claim thread 0");
    let sweep = thread.enter(families::SWEEP);
    let task = thread.enter(families::TASK);
    assert_eq!(wall.sample_stacks(), 1);
    thread.exit(task);
    thread.exit(sweep);
    (hub, wall)
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[test]
fn served_wire_format_is_pinned() {
    let (hub, wall) = fixture();
    let metrics = std::sync::Arc::new(|| {
        let mut r = Registry::new();
        r.counter("rows_done", 18);
        r.gauge("overhead_fraction", 0.001);
        r
    });
    let server = TelemetryServer::start_with_wall(("127.0.0.1", 0), hub, wall, metrics, 4)
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let (status, progress) = get(addr, "/progress");
    assert_eq!(status, 200);
    let worker_keys = [
        "worker",
        "state",
        "beats",
        "dropped",
        "task",
        "tasks_done",
        "instructions",
        "l2_misses",
        "migrations",
        "f_value",
        "a_r",
        "bus_bytes",
        "wall_us",
        "age_us",
    ];
    let mut expected: Vec<String> = strings(&[
        "epoch",
        "taken_us",
        "total_instructions",
        "total_tasks_done",
        "workers",
        "overhead",
        "overhead.beats",
        "overhead.dropped",
        "overhead.bytes",
        "overhead.publish_ns",
        "overhead.merges",
        "overhead.merge_ns",
        "config",
        "config.workers",
        "config.ring_capacity",
        "config.heartbeat_us",
        "config.stall_beats",
        "stalled",
    ]);
    expected.extend(worker_keys.iter().map(|k| format!("workers[].{k}")));
    expected.sort();
    assert_eq!(keys_of(&progress), expected, "/progress key set");

    let (status, spans) = get(addr, "/spans");
    assert_eq!(status, 200);
    let family_keys = [
        "family", "count", "total_ns", "p50_ns", "p99_ns", "p999_ns", "max_ns",
    ];
    let mut expected: Vec<String> = strings(&[
        "epoch",
        "uptime_ns",
        "total_spans",
        "families",
        "collapsed",
        "collapsed[].stack",
        "collapsed[].count",
        "overhead",
        "overhead.spans",
        "overhead.dropped",
        "overhead.retained_dropped",
        "overhead.bytes",
        "overhead.record_ns",
        "overhead.merges",
        "overhead.merge_ns",
        "overhead.samples",
        "overhead.sample_ns",
        "budget",
        "budget.fraction",
        "budget.max_fraction",
        "budget.within",
    ]);
    expected.extend(family_keys.iter().map(|k| format!("families[].{k}")));
    expected.sort();
    assert_eq!(keys_of(&spans), expected, "/spans key set");

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200, "a done worker is never stalled");
    let mut expected = strings(&["status", "workers", "stalled", "epoch"]);
    expected.sort();
    assert_eq!(keys_of(&health), expected, "/healthz key set");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let mut expected = strings(&[
        "# TYPE execmig_rows_done counter",
        "execmig_rows_done",
        "# TYPE execmig_overhead_fraction gauge",
        "execmig_overhead_fraction",
    ]);
    for name in [
        "execmig_worker_instructions",
        "execmig_worker_l2_misses",
        "execmig_worker_migrations",
        "execmig_worker_tasks_done",
        "execmig_worker_beats",
        "execmig_worker_beat_age_us",
    ] {
        expected.push(format!("# TYPE {name} gauge"));
        expected.push(format!("{name}{{worker=\"0\",state=\"done\"}}"));
        expected.push(format!("{name}{{worker=\"1\",state=\"idle\"}}"));
    }
    for name in [
        "execmig_hub_beats_total",
        "execmig_hub_beats_dropped_total",
        "execmig_hub_bytes_total",
        "execmig_hub_publish_ns_total",
        "execmig_hub_merge_ns_total",
        "execmig_hub_merges_total",
    ] {
        expected.push(format!("# TYPE {name} counter"));
        expected.push(name.to_string());
    }
    expected.push("# TYPE execmig_hub_epoch gauge".to_string());
    expected.push("execmig_hub_epoch".to_string());
    expected.push("# TYPE execmig_span_latency_ns gauge".to_string());
    for family in families::ALL {
        for q in ["0.5", "0.99", "0.999"] {
            expected.push(format!(
                "execmig_span_latency_ns{{family=\"{family}\",quantile=\"{q}\"}}"
            ));
        }
    }
    for name in [
        "execmig_span_latency_ns_count",
        "execmig_span_latency_ns_sum",
    ] {
        expected.push(format!("# TYPE {name} counter"));
        for family in families::ALL {
            expected.push(format!("{name}{{family=\"{family}\"}}"));
        }
    }
    for name in [
        "execmig_wall_spans_total",
        "execmig_wall_spans_dropped_total",
        "execmig_wall_record_ns_total",
        "execmig_wall_merge_ns_total",
        "execmig_wall_samples_total",
        "execmig_wall_sample_ns_total",
    ] {
        expected.push(format!("# TYPE {name} counter"));
        expected.push(name.to_string());
    }
    expected.push("# TYPE execmig_wall_overhead_fraction gauge".to_string());
    expected.push("execmig_wall_overhead_fraction".to_string());
    assert_eq!(metric_lines(&metrics), expected, "/metrics line set");

    server.shutdown();
}

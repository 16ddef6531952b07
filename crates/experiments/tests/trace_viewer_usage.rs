//! `trace_viewer` rejects a zero sampling period with a usage message
//! and exit code 2 — in both feature builds — rather than letting
//! `Profiler::with_config` panic on it.

#![cfg(not(miri))]

use std::process::Command;

#[test]
fn zero_period_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_viewer"))
        .args(["--period", "0", "--no-manifest"])
        .output()
        .expect("spawn trace_viewer");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--period expects a positive"), "{stderr}");
}

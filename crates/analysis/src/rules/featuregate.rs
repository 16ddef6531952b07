//! E003/E006/E010: feature-gate discipline for the observability layer.
//!
//! Tracing must cost nothing unless a *top-level* build opts in with
//! `--features trace`. Two things can silently break that:
//!
//! - a manifest hard-wiring the feature on a dependency
//!   (`features = ["trace"]`), which turns tracing on for every build
//!   of everything above it (E003 — the feature may only travel via
//!   `[features]` forwarding like `trace = ["execmig-obs/trace"]`);
//! - source code reading the tracer's ring buffer unconditionally —
//!   the buffer APIs (`.events()`, `.dropped()`, `.emitted()`,
//!   `EventRing`, `TraceEvent`) exist in both builds, but calling them
//!   outside `if Tracer::ACTIVE { … }`, a `#[cfg(feature = …)]` item,
//!   or a test means the call is *meant* to do work that a default
//!   build silently skips (E006). The zero-cost `Tracer::emit` API
//!   needs no gate — that is its point.
//!
//! The interval profiler follows the same discipline (E010): its ring
//! accessors (`.record_sample()`, `.records()`) outside obs must sit
//! behind `if Profiler::ACTIVE { … }`, a `#[cfg(feature = …)]` item, or
//! a test. The cheap `sample_due` guard needs no gate — like
//! `Tracer::emit`, it is the gate.
//!
//! So does the live-telemetry hub (E011): `.publish()` beats outside
//! obs must sit behind `if Hub::ACTIVE { … }`, a `#[cfg(feature = …)]`
//! item, or a test. Without `trace`, `HubWorker::publish` returns at
//! once on the inert handle, but an ungated call still constructs its
//! `Beat` argument — and signals intent the default build silently
//! skips.

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind};
use crate::workspace::Workspace;

const RING_METHODS: &[&str] = &["events", "dropped", "emitted"];
const RING_TYPES: &[&str] = &["EventRing", "TraceEvent"];
const PROFILER_METHODS: &[&str] = &["record_sample", "records"];
const HUB_METHODS: &[&str] = &["publish"];

/// Runs E003 (manifests), E006, E010, and E011 (sources).
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == "execmig-obs" {
            continue;
        }
        for dep in &krate.manifest.dependencies {
            if dep.name.starts_with("execmig") && dep.features.iter().any(|f| f == "trace") {
                diags.push(Diagnostic::new(
                    "E003",
                    &krate.manifest_rel,
                    dep.line,
                    format!(
                        "`{}` hard-wires the `trace` feature of `{}`; forward it \
                         through [features] instead (`trace = [\"{}/trace\"]`)",
                        krate.name, dep.name, dep.name
                    ),
                ));
            }
        }
        for file in &krate.files {
            let mut exempt = lexer::test_regions(&file.toks);
            exempt.extend(lexer::feature_regions(&file.toks));
            exempt.extend(lexer::tracer_active_regions(&file.toks));
            for (k, t) in file.toks.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let banned = if RING_TYPES.contains(&t.text.as_str()) {
                    true
                } else {
                    RING_METHODS.contains(&t.text.as_str())
                        && k > 0
                        && lexer::is_punct(&file.toks[k - 1], '.')
                        && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '('))
                };
                if banned && !lexer::in_regions(t.pos, &exempt) {
                    diags.push(Diagnostic::new(
                        "E006",
                        &file.rel,
                        t.line,
                        format!(
                            "tracer buffer access `{}` outside `if Tracer::ACTIVE`, \
                             `#[cfg(feature = …)]`, or tests",
                            t.text
                        ),
                    ));
                }
                let profiler_banned = PROFILER_METHODS.contains(&t.text.as_str())
                    && k > 0
                    && lexer::is_punct(&file.toks[k - 1], '.')
                    && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '('));
                if profiler_banned && !lexer::in_regions(t.pos, &exempt) {
                    diags.push(Diagnostic::new(
                        "E010",
                        &file.rel,
                        t.line,
                        format!(
                            "profile sampler access `{}` outside `if Profiler::ACTIVE`, \
                             `#[cfg(feature = …)]`, or tests",
                            t.text
                        ),
                    ));
                }
                let hub_banned = HUB_METHODS.contains(&t.text.as_str())
                    && k > 0
                    && lexer::is_punct(&file.toks[k - 1], '.')
                    && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '('));
                if hub_banned && !lexer::in_regions(t.pos, &exempt) {
                    diags.push(Diagnostic::new(
                        "E011",
                        &file.rel,
                        t.line,
                        format!(
                            "telemetry hub publish `{}` outside `if Hub::ACTIVE`, \
                             `#[cfg(feature = …)]`, or tests",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
}

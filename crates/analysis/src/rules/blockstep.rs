//! E015: block-stepping hoisting discipline for event-replay loops.
//!
//! `Machine::run_block` exists so per-event overheads move to block
//! boundaries. Two regressions keep trying to creep back into loop
//! bodies:
//!
//! - copying the update-bus counters per event (`… = bus.stats()`),
//!   which re-materialises the whole mirror struct on every access
//!   instead of once per flush point (block end, profiler sample);
//! - probing the profiler per event without the compile-time gate
//!   (`.sample_due(…)` not behind `Profiler::ACTIVE &&`), which keeps
//!   a live branch in the replay loop that default builds are
//!   supposed to fold to `false`. The machine itself no longer probes
//!   per event at all: it cuts blocks at `Profiler::next_due()`.
//!
//! Both are flagged only *inside* `for`/`while`/`loop` bodies. Tests
//! and `#[cfg(feature = …)]` items are exempt (a test may replay
//! per-event on purpose), and obs — which defines the profiler —
//! checks itself.

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind};
use crate::workspace::Workspace;

/// How far back (in tokens) an `ACTIVE` gate may sit from the
/// `.sample_due(` call it guards; covers the canonical
/// `if Profiler::ACTIVE && self.profiler.sample_due(n)` spelling.
const GATE_LOOKBACK: usize = 10;

/// Runs E015 over every crate's sources.
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == "execmig-obs" {
            continue;
        }
        for file in &krate.files {
            let loops = lexer::loop_body_regions(&file.toks);
            if loops.is_empty() {
                continue;
            }
            let mut exempt = lexer::test_regions(&file.toks);
            exempt.extend(lexer::feature_regions(&file.toks));
            for (k, t) in file.toks.iter().enumerate() {
                if t.kind != TokKind::Ident
                    || !lexer::in_regions(t.pos, &loops)
                    || lexer::in_regions(t.pos, &exempt)
                {
                    continue;
                }
                let is_call = k > 0
                    && lexer::is_punct(&file.toks[k - 1], '.')
                    && lexer::is_punct_at(&file.toks, k + 1, '(');
                if !is_call {
                    continue;
                }
                if t.text == "stats"
                    && k >= 2
                    && file.toks[k - 2].kind == TokKind::Ident
                    && file.toks[k - 2].text == "bus"
                {
                    diags.push(Diagnostic::new(
                        "E015",
                        &file.rel,
                        t.line,
                        "per-event `bus.stats()` copy inside a loop body; mirror the \
                         counters once per flush point (block boundary / profiler \
                         sample / miss path) instead",
                    ));
                }
                if t.text == "sample_due" {
                    let lo = k.saturating_sub(GATE_LOOKBACK);
                    let gated = file.toks[lo..k]
                        .iter()
                        .any(|g| g.kind == TokKind::Ident && g.text == "ACTIVE");
                    if !gated {
                        diags.push(Diagnostic::new(
                            "E015",
                            &file.rel,
                            t.line,
                            "ungated `sample_due` probe inside a loop body; guard with \
                             `Profiler::ACTIVE &&` so default builds hoist the check \
                             to the block boundary",
                        ));
                    }
                }
            }
        }
    }
}

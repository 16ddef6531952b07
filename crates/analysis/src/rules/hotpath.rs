//! E004/E005: hot-path hygiene.
//!
//! The files below model the hardware datapath of Fig 2 and the cache
//! lookup paths — code that runs once per memory reference across
//! hundreds of millions of references. Two properties are enforced:
//!
//! - **E004, panic-freedom**: no `.unwrap()`, `.expect()`, `panic!`,
//!   `todo!`, or `unimplemented!` outside tests. Hardware has no
//!   failure path; neither should its model. (`assert!`/`debug_assert!`
//!   are allowed: the runtime invariant checkers I101–I107 use them and
//!   compile out of release builds.)
//! - **E005, fixed-point only**: no `f32`/`f64` identifiers and no
//!   float literals outside tests. The paper's datapath is 16-bit
//!   saturating integer arithmetic (§3.2); float-returning metrics
//!   belong in introspection modules (`core/src/introspect.rs`).

use crate::diag::Diagnostic;
use crate::lexer::{self, TokKind};
use crate::workspace::Workspace;

/// (crate, file basename) pairs making up the hot path.
const HOT: &[(&str, &str)] = &[
    ("execmig-core", "sat.rs"),
    ("execmig-core", "window.rs"),
    ("execmig-core", "filter.rs"),
    ("execmig-core", "table.rs"),
    ("execmig-core", "splitter2.rs"),
    ("execmig-core", "tree.rs"),
    ("execmig-core", "mechanism.rs"),
    ("execmig-cache", "cache.rs"),
    ("execmig-cache", "fully_assoc.rs"),
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Runs E004 and E005 over the hot files.
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        for file in &krate.files {
            if !HOT.contains(&(krate.name.as_str(), file.name.as_str())) {
                continue;
            }
            let exempt = lexer::test_regions(&file.toks);
            for (k, t) in file.toks.iter().enumerate() {
                if lexer::in_regions(t.pos, &exempt) {
                    continue;
                }
                match t.kind {
                    TokKind::Float => diags.push(Diagnostic::new(
                        "E005",
                        &file.rel,
                        t.line,
                        format!(
                            "float literal `{}` on the hot path; fixed-point only (§3.2)",
                            t.text
                        ),
                    )),
                    TokKind::Ident if t.text == "f32" || t.text == "f64" => {
                        diags.push(Diagnostic::new(
                            "E005",
                            &file.rel,
                            t.line,
                            format!(
                                "`{}` on the hot path; move float metrics to an \
                                 introspection module (§3.2: fixed-point only)",
                                t.text
                            ),
                        ));
                    }
                    TokKind::Ident
                        if PANIC_MACROS.contains(&t.text.as_str())
                            && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '!')) =>
                    {
                        diags.push(Diagnostic::new(
                            "E004",
                            &file.rel,
                            t.line,
                            format!(
                                "`{}!` on the hot path; hardware has no failure path",
                                t.text
                            ),
                        ));
                    }
                    TokKind::Ident
                        if PANIC_METHODS.contains(&t.text.as_str())
                            && k > 0
                            && lexer::is_punct(&file.toks[k - 1], '.')
                            && matches!(file.toks.get(k + 1), Some(n) if lexer::is_punct(n, '(')) =>
                    {
                        diags.push(Diagnostic::new(
                            "E004",
                            &file.rel,
                            t.line,
                            format!(
                                "`.{}()` on the hot path; hardware has no failure path",
                                t.text
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}

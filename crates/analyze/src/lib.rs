//! # omen-analyze — dependency-free domain lints for the omen workspace
//!
//! Clippy knows Rust; it does not know SPMD programming or the workspace's
//! tolerance policy. This crate encodes the workspace-specific invariants
//! clippy cannot express as a small rule engine — zero dependencies, so the
//! CI gate costs one crate compile and no proc-macro stack. It runs in one
//! pass over the workspace:
//!
//! 1. **Item model** ([`parse`]): each file is lexed ([`lexer`]) once and
//!    parsed into a lightweight item model — fn items, call expressions,
//!    protocol primitives recognized by name and arity, a control-flow
//!    skeleton of branches/`?`/early-`return`, `rank()`-conditioned regions,
//!    and the tolerance-literal candidates of test targets.
//! 2. **Dataflow** ([`callgraph`], [`effects`]): a workspace call graph is
//!    built and per-function *collective effect summaries* are propagated
//!    bottom-up to a fixpoint. Every rule then reads the models and the
//!    summaries.
//!
//! ## Rules
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `spmd-divergence` | a collective (`allreduce_sum`, `bcast`, `gather`, `allgather`, `agree`, `barrier`, `split`) inside a `rank()`-conditioned branch, spelled there or reached through calls — the classic deadlock/divergence seed in SPMD code |
//! | `protocol-early-exit` | `?` / `return` between a send and its matching recv, or between epoch-open and epoch-close — the typed-error-era deadlock seed: the peer blocks until timeout |
//! | `tag-conflict` | two concurrently-live call paths using the same reserved parsim tag in the same direction — concurrent rounds on one tag can cross-match messages |
//! | `tolerance-literal` | hard-coded scientific-notation tolerances (`1e-12`) compared in test targets — numeric bounds belong in the repo-root `TOLERANCES.toml` policy (DESIGN.md §12) |
//!
//! Float equality against a literal, printing from library code and
//! `# Errors` docs on fallible public API are clippy's (`float_cmp`,
//! `print_stdout` / `print_stderr`, `missing_errors_doc`), denied over the
//! workspace's library targets in `ci.sh`.
//!
//! ## Escape hatch
//!
//! A finding is suppressed by an adjacent annotation comment:
//!
//! ```text
//! // analyze: allow(<rule>, <reason>)
//! ```
//!
//! A *trailing* annotation covers its own line. An *own-line* annotation
//! covers the next code line — and, when that line opens a brace block
//! (`fn … {`, `if … {`), the whole block. Attribute lines (`#[…]`) between
//! the annotation and the code it governs are skipped.
//!
//! That annotation is the only place debt is accepted: CI runs the binary
//! with `--deny-all`, so any finding without one fails the gate.

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod parse;

use parse::FileModel;
use std::path::{Component, Path, PathBuf};

/// Which kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Library code (`src/` outside `src/bin/`).
    Lib,
    /// Binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// Example (`examples/`).
    Example,
    /// Criterion-style bench target (`benches/`).
    Bench,
    /// Integration test (`tests/`).
    Test,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Short crate name: `"negf"` for `crates/negf`, `"omen"` for the root
    /// package.
    pub crate_name: String,
    /// Target kind inferred from the path.
    pub kind: TargetKind,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (see [`RULES`]).
    pub rule: &'static str,
    /// File the finding is in (as passed to [`analyze_sources`]).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Static description of one rule for `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name used in findings and `allow(...)` annotations.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// The rule table.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "spmd-divergence",
        summary: "collective inside a rank()-conditioned branch, directly or through calls",
        scope: "all crates, all targets (tests included)",
    },
    RuleInfo {
        name: "protocol-early-exit",
        summary: "?/return between a send and its matching recv, or between epoch open/close",
        scope: "lib/bin non-test code",
    },
    RuleInfo {
        name: "tag-conflict",
        summary: "two concurrently-live call paths using the same reserved tag in one direction",
        scope: "lib/bin non-test code",
    },
    RuleInfo {
        name: "tolerance-literal",
        summary: "hard-coded tolerance literal compared in a test — use the TOLERANCES.toml policy",
        scope: "test targets (tests/) of every crate",
    },
];

/// Classifies a workspace-relative path (`crates/negf/src/rgf.rs`,
/// `src/bin/omen_cli.rs`, `examples/iv_curve.rs`, …).
pub fn classify(rel: &Path) -> FileClass {
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| match c {
            Component::Normal(p) => p.to_str(),
            _ => None,
        })
        .collect();
    let (crate_name, rest): (String, &[&str]) = if parts.first() == Some(&"crates") {
        (
            parts.get(1).unwrap_or(&"").to_string(),
            parts.get(2..).unwrap_or(&[]),
        )
    } else {
        ("omen".to_string(), &parts[..])
    };
    let kind = match rest.first() {
        Some(&"examples") => TargetKind::Example,
        Some(&"benches") => TargetKind::Bench,
        Some(&"tests") => TargetKind::Test,
        Some(&"src") => match rest.get(1) {
            Some(&"bin") => TargetKind::Bin,
            Some(&"main.rs") => TargetKind::Bin,
            _ => TargetKind::Lib,
        },
        _ => TargetKind::Lib,
    };
    FileClass { crate_name, kind }
}

/// Recursively collects the workspace's `.rs` files, skipping `target`,
/// VCS internals, the analyzer's own lint fixtures (which deliberately
/// violate every rule), and nested workspace roots — a subdirectory whose
/// `Cargo.toml` opens its own `[workspace]` (the standalone `benchmark/`
/// package) is not part of this workspace, and its path layout would be
/// misread as library code of the umbrella crate. Results are sorted for
/// deterministic output.
///
/// # Errors
///
/// Propagates filesystem errors from directory traversal.
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                let manifest = std::fs::read_to_string(path.join("Cargo.toml"));
                if manifest.is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]")) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The analysis over a set of files treated as one workspace: each file is
/// lexed and parsed once into its item model ([`parse::parse_file`]), then
/// the call graph and effect summaries are built across all of them and
/// every rule runs on the models. Allow-annotated findings are already
/// filtered out. Findings are sorted by `(path, line, rule)`.
pub fn analyze_sources(files: &[(String, String, FileClass)]) -> Vec<Finding> {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(path, src, class)| parse::parse_file(path, src, class))
        .collect();
    let graph = callgraph::CallGraph::build(&models);
    let sums = effects::compute_summaries(&models, &graph);
    let mut findings = Vec::new();
    effects::rule_spmd_divergence(&models, &graph, &sums, &mut findings);
    effects::rule_protocol_early_exit(&models, &graph, &sums, &mut findings);
    effects::rule_tag_conflict(&models, &graph, &sums, &mut findings);
    rule_tolerance_literal(&models, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// `tolerance-literal`: the candidates [`parse::parse_file`] collected in
/// test targets — scientific-notation float literals with a negative
/// exponent (`1e-12`) on lines that also perform an ordered comparison, the
/// signature of a hard-coded accuracy tolerance. Bounds belong in the
/// repo-root `TOLERANCES.toml` (read through
/// `omen_num::tolerance::test_bound`), where every change carries a
/// rationale; an inline literal is exactly the silent-drift channel the
/// policy exists to close. Physics parameters in argument position
/// (`eta = 2e-6` with no comparison on the line) and structural factors
/// (`100.0 * tol`) do not trip.
fn rule_tolerance_literal(models: &[FileModel], findings: &mut Vec<Finding>) {
    for m in models {
        for (line, lit) in &m.tolerance_literals {
            if m.allowed("tolerance-literal", *line) {
                continue;
            }
            findings.push(Finding {
                rule: "tolerance-literal",
                path: m.path.clone(),
                line: *line,
                message: format!(
                    "hard-coded tolerance `{lit}` in a test comparison: pull the bound from \
                     TOLERANCES.toml via omen_num::tolerance::test_bound so every change \
                     carries a rationale"
                ),
            });
        }
    }
}

//! # omen-analyze — dependency-free domain lints for the omen workspace
//!
//! Clippy knows Rust; it does not know SPMD programming or quantum-transport
//! numerics. This crate encodes the workspace-specific invariants as a small
//! rule engine — zero dependencies, so the CI gate costs one crate compile
//! and no proc-macro stack. It runs in two passes:
//!
//! 1. **Syntactic** ([`parse`]): each file is lexed ([`lexer`]) and parsed
//!    into a lightweight item model — fn items, call expressions, protocol
//!    primitives, a control-flow skeleton of branches/`?`/early-`return`,
//!    and `rank()`-conditioned regions. The five lexical rules run here.
//! 2. **Dataflow** ([`callgraph`], [`effects`]): a workspace call graph is
//!    built and per-function *collective effect summaries* are propagated
//!    bottom-up to a fixpoint. The three interprocedural rules run on the
//!    summaries.
//!
//! ## Rules
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `spmd-divergence` | collectives (`allreduce_sum`, `bcast`, `gather`, `allgather`, `agree`, `barrier`, `split`) lexically inside `rank()`-conditioned branches — the classic deadlock/divergence seed in SPMD code |
//! | `spmd-divergence-interproc` | a collective *transitively reachable through calls* from inside a rank()-conditioned branch — closes the helper-one-call-deep gap the lexical rule cannot see |
//! | `protocol-early-exit` | `?` / `return` between a send and its matching recv, or between epoch-open and epoch-close — the typed-error-era deadlock seed: the peer blocks until timeout |
//! | `tag-conflict` | two concurrently-live call paths using the same reserved parsim tag in the same direction — concurrent rounds on one tag can cross-match messages |
//! | `float-eq` | `==` / `!=` against a float literal in the solver crates — exact float comparison is almost always a tolerance bug |
//! | `print-in-lib` | `println!` / `eprintln!` (and `print!` / `eprint!`) in library targets — libraries must stay silent; drivers log through the sanctioned env-gated sink |
//! | `errors-doc` | `pub fn` returning `OmenResult` without a `# Errors` doc section |
//! | `tolerance-literal` | hard-coded scientific-notation tolerances (`1e-12`) compared in test targets — numeric bounds belong in the repo-root `TOLERANCES.toml` policy (DESIGN.md §12) |
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

use lexer::{lex, Comment, Lexed, Tok, TokKind};
use parse::{is_ident, is_punct};
use std::collections::HashMap;
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
    /// File the finding is in (as passed to [`analyze_source`]).
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
        summary: "collective call lexically inside a rank()-conditioned branch",
        scope: "all crates, all targets (tests included)",
    },
    RuleInfo {
        name: "spmd-divergence-interproc",
        summary: "collective transitively reachable through calls from a rank()-conditioned branch",
        scope: "all crates, all targets (tests included); needs the workspace pass",
    },
    RuleInfo {
        name: "protocol-early-exit",
        summary: "?/return between a send and its matching recv, or between epoch open/close",
        scope: "lib/bin non-test code; needs the workspace pass",
    },
    RuleInfo {
        name: "tag-conflict",
        summary: "two concurrently-live call paths using the same reserved tag in one direction",
        scope: "lib/bin non-test code; needs the workspace pass",
    },
    RuleInfo {
        name: "float-eq",
        summary: "== / != comparison against a float literal",
        scope: "solver crates (num linalg sparse wf negf poisson phonon core), non-test code",
    },
    RuleInfo {
        name: "print-in-lib",
        summary: "println!/eprintln!/print!/eprint! in library code",
        scope: "lib targets of every crate except omen-bench, non-test code",
    },
    RuleInfo {
        name: "errors-doc",
        summary: "pub fn returning OmenResult without a `# Errors` doc section",
        scope: "lib targets, non-test code",
    },
    RuleInfo {
        name: "tolerance-literal",
        summary: "hard-coded tolerance literal compared in a test — use the TOLERANCES.toml policy",
        scope: "test targets (tests/) of every crate",
    },
];

/// Crates whose numerics must never use exact float equality.
const FLOAT_EQ_CRATES: &[&str] = &[
    "num", "linalg", "sparse", "wf", "negf", "poisson", "phonon", "core",
];

/// Collective operations whose call schedule must be rank-uniform.
const COLLECTIVES: &[&str] = &[
    "allreduce_sum",
    "bcast",
    "gather",
    "allgather",
    "agree",
    "barrier",
    "split",
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

/// Analyzes one source file under the given classification with the
/// *lexical* rules only; the interprocedural rules need the whole
/// workspace — use [`analyze_sources`]. Allow-annotated findings are
/// already filtered out.
pub fn analyze_source(path: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    let lexed = lex(src);
    let ctx = FileCtx::build(&lexed);
    let mut findings = Vec::new();
    rule_spmd_divergence(&lexed.toks, &ctx, &mut findings);
    if FLOAT_EQ_CRATES.contains(&class.crate_name.as_str())
        && matches!(class.kind, TargetKind::Lib | TargetKind::Bin)
    {
        rule_float_eq(&lexed.toks, &ctx, &mut findings);
    }
    if class.kind == TargetKind::Lib && class.crate_name != "bench" {
        rule_print_in_lib(&lexed.toks, &ctx, &mut findings);
    }
    if class.kind == TargetKind::Lib {
        rule_errors_doc(&lexed.toks, &ctx, &mut findings);
    }
    if class.kind == TargetKind::Test {
        rule_tolerance_literal(&lexed.toks, &ctx, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
        .into_iter()
        .map(|mut f| {
            f.path = path.to_string();
            f
        })
        .collect()
}

/// The full two-pass analysis over a set of files treated as one
/// workspace: the lexical rules per file, then the call graph + effect
/// summaries and the interprocedural rules across all of them. Findings
/// are sorted by `(path, line, rule)`.
pub fn analyze_sources(files: &[(String, String, FileClass)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut models = Vec::with_capacity(files.len());
    for (path, src, class) in files {
        findings.extend(analyze_source(path, src, class));
        models.push(parse::parse_file(path, src, class));
    }
    let graph = callgraph::CallGraph::build(&models);
    let sums = effects::compute_summaries(&models, &graph);
    effects::rule_spmd_divergence_interproc(&models, &graph, &sums, &mut findings);
    effects::rule_protocol_early_exit(&models, &graph, &sums, &mut findings);
    effects::rule_tag_conflict(&models, &graph, &sums, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Shared per-file context (lexical rules)
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    /// The code token stream.
    toks: &'a [Tok],
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` spans.
    test_spans: Vec<(u32, u32)>,
    /// Rule name → covered line ranges from `analyze: allow(...)` comments.
    allows: HashMap<String, Vec<(u32, u32)>>,
    /// Line → index of its first code token.
    line_first_tok: HashMap<u32, usize>,
    /// Line → its comment (for doc lookup; last one wins).
    line_comment: HashMap<u32, &'a Comment>,
    /// Token index ranges (exclusive of the braces) inside
    /// rank()-conditioned branches.
    rank_spans: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    fn build(lexed: &'a Lexed) -> Self {
        let toks = &lexed.toks[..];
        let brace_match = parse::match_braces(toks);
        let mut line_first_tok = HashMap::new();
        for (i, t) in toks.iter().enumerate() {
            line_first_tok.entry(t.line).or_insert(i);
        }
        let mut line_comment = HashMap::new();
        for c in &lexed.comments {
            line_comment.insert(c.line, c);
        }
        let test_spans = parse::find_test_spans(toks, &brace_match);
        let tainted = parse::rank_tainted_idents(toks);
        let rank_spans = parse::find_rank_spans(toks, &brace_match, &tainted);
        let allows = parse::find_allows(toks, &lexed.comments, &line_first_tok, &brace_match);
        FileCtx {
            toks,
            test_spans,
            allows,
            line_first_tok,
            line_comment,
            rank_spans,
        }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .get(rule)
            .is_some_and(|spans| spans.iter().any(|&(a, b)| a <= line && line <= b))
    }

    fn in_rank_span(&self, tok_idx: usize) -> bool {
        self.rank_spans
            .iter()
            .any(|&(open, close)| open < tok_idx && tok_idx < close)
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn push(findings: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
    findings.push(Finding {
        rule,
        path: String::new(),
        line,
        message,
    });
}

fn rule_spmd_divergence(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for i in 0..toks.len().saturating_sub(2) {
        if is_punct(&toks[i], ".")
            && toks[i + 1].kind == TokKind::Ident
            && COLLECTIVES.contains(&toks[i + 1].text.as_str())
            && is_punct(&toks[i + 2], "(")
            && ctx.in_rank_span(i + 1)
        {
            let line = toks[i + 1].line;
            if ctx.allowed("spmd-divergence", line) {
                continue;
            }
            push(
                findings,
                "spmd-divergence",
                line,
                format!(
                    "collective `{}` inside a rank()-conditioned branch: ranks taking the \
                     other branch skip it and the schedule diverges",
                    toks[i + 1].text
                ),
            );
        }
    }
}

fn rule_float_eq(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(is_punct(t, "==") || is_punct(t, "!=")) {
            continue;
        }
        let adj_float = (i > 0 && toks[i - 1].kind == TokKind::Float)
            || (i + 1 < toks.len() && toks[i + 1].kind == TokKind::Float);
        if !adj_float || ctx.in_test(t.line) || ctx.allowed("float-eq", t.line) {
            continue;
        }
        push(
            findings,
            "float-eq",
            t.line,
            format!(
                "exact float comparison `{}` against a literal: use a tolerance, or annotate \
                 an intentional exact guard",
                t.text
            ),
        );
    }
}

fn rule_print_in_lib(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for i in 0..toks.len().saturating_sub(1) {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
            && is_punct(&toks[i + 1], "!")
            && !ctx.in_test(t.line)
            && !ctx.allowed("print-in-lib", t.line)
        {
            push(
                findings,
                "print-in-lib",
                t.line,
                format!(
                    "`{}!` in library code: libraries stay silent — route driver progress \
                     through the env-gated log sink",
                    t.text
                ),
            );
        }
    }
}

fn rule_errors_doc(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip restricted visibility `pub(crate)` — not public API.
        if j < toks.len() && is_punct(&toks[j], "(") {
            i += 1;
            continue;
        }
        // Skip qualifiers.
        while j < toks.len()
            && (toks[j].kind == TokKind::Str
                || matches!(
                    toks[j].text.as_str(),
                    "unsafe" | "const" | "async" | "extern"
                ))
        {
            j += 1;
        }
        if j + 1 >= toks.len() || !is_ident(&toks[j], "fn") {
            i += 1;
            continue;
        }
        let name = toks[j + 1].text.clone();
        // Signature runs to the body `{` (or `;`) at delimiter depth 0.
        let mut depth = 0i32;
        let mut k = j + 2;
        let mut returns_omen_result = false;
        let mut past_arrow = false;
        while k < toks.len() {
            let t = &toks[k];
            if is_punct(t, "(") || is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") {
                depth -= 1;
            } else if is_punct(t, "->") && depth <= 0 {
                past_arrow = true;
            } else if past_arrow && is_ident(t, "OmenResult") {
                returns_omen_result = true;
            } else if depth <= 0 && (is_punct(t, "{") || is_punct(t, ";")) {
                break;
            }
            k += 1;
        }
        if returns_omen_result && !ctx.in_test(toks[i].line) {
            let line = toks[i].line;
            if !ctx.allowed("errors-doc", line) && !doc_has_errors_section(ctx, line) {
                push(
                    findings,
                    "errors-doc",
                    line,
                    format!(
                        "pub fn `{name}` returns OmenResult but its docs have no `# Errors` \
                         section"
                    ),
                );
            }
        }
        i = j + 2;
    }
}

/// Flags scientific-notation float literals with a negative exponent
/// (`1e-12`) on lines that also perform an ordered comparison — the
/// signature of a hard-coded accuracy tolerance in a test. Bounds belong
/// in the repo-root `TOLERANCES.toml` (read through
/// `omen_num::tolerance::test_bound`), where every change carries a
/// rationale; an inline literal is exactly the silent-drift channel the
/// policy exists to close. Physics parameters in argument position
/// (`eta = 2e-6` with no comparison on the line) and structural factors
/// (`100.0 * tol`) do not trip.
fn rule_tolerance_literal(toks: &[Tok], ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let mut cmp_lines: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for t in toks {
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | "<=" | ">" | ">=") {
            cmp_lines.insert(t.line);
        }
    }
    for t in toks {
        if t.kind == TokKind::Float
            && (t.text.contains("e-") || t.text.contains("E-"))
            && cmp_lines.contains(&t.line)
            && !ctx.allowed("tolerance-literal", t.line)
        {
            push(
                findings,
                "tolerance-literal",
                t.line,
                format!(
                    "hard-coded tolerance `{}` in a test comparison: pull the bound from \
                     TOLERANCES.toml via omen_num::tolerance::test_bound so every change \
                     carries a rationale",
                    t.text
                ),
            );
        }
    }
}

/// Walks upward from the `pub` token's line through doc comments and
/// attribute lines, checking the doc block for a `# Errors` heading.
fn doc_has_errors_section(ctx: &FileCtx, fn_line: u32) -> bool {
    let mut l = fn_line.saturating_sub(1);
    while l > 0 {
        if let Some(c) = ctx.line_comment.get(&l) {
            if c.text.starts_with("///") {
                if c.text.contains("# Errors") {
                    return true;
                }
                l -= 1;
                continue;
            }
        }
        if line_is_attribute(ctx, l) {
            l -= 1;
            continue;
        }
        break;
    }
    false
}

fn line_is_attribute(ctx: &FileCtx, line: u32) -> bool {
    ctx.line_first_tok
        .get(&line)
        .is_some_and(|&i| is_punct(&ctx.toks[i], "#"))
}

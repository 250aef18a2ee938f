//! The item model: the one place a file is lexed, and a lightweight
//! syntactic model on top of its token stream.
//!
//! The parser does not build an AST — it extracts exactly what the
//! dataflow pass and the rules need, per file:
//!
//! - **fn items** (and brace/expression-bodied closures, modeled as
//!   anonymous sub-functions) with their body token ranges;
//! - an ordered **event** stream per function: call expressions, protocol
//!   primitives (collectives, `send`/`recv`, epoch open/close markers)
//!   recognized by name *and arity* so `str::split` or an mpsc
//!   `Sender::send` never masquerade as communicator traffic, and early
//!   exits (`?`, `return`);
//! - a control-flow skeleton: every event carries "lexically inside a
//!   rank()-conditioned region" and "inside any branch" flags. Rank
//!   regions include a one-step dataflow extension: `let me = comm.rank();
//!   … if me == 0 { … }` taints `me`, so the coordinator/worker idiom is
//!   seen even when the `rank()` call is not spelled in the condition;
//! - the `#[cfg(test)]`/`#[test]` spans and `analyze: allow` ranges every
//!   rule shares;
//! - in test targets, the `tolerance-literal` candidates: negative-exponent
//!   float literals on lines that make an ordered comparison.
//!
//! Everything stays line-addressed so findings anchor to real source
//! lines and the allow escape hatch keeps working.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::{FileClass, TargetKind};
use std::collections::{HashMap, HashSet};

/// Collective operations whose call schedule must be rank-uniform, with
/// the exact argument count of the `Comm` API — arity is what keeps
/// `str::split(pat)` (1 arg) distinct from `Comm::split(color, key)`
/// (2 args).
pub const COLLECTIVE_ARITY: &[(&str, usize)] = &[
    ("allreduce_sum", 1),
    ("bcast", 2),
    ("gather", 2),
    ("allgather", 1),
    ("agree", 1),
    ("barrier", 0),
    ("split", 2),
];

/// One protocol/control event inside a function body, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A call expression that is not a recognized protocol primitive.
    Call {
        /// Callee name (last path segment).
        callee: String,
        /// True when invoked as `.callee(...)`.
        method: bool,
    },
    /// A collective on a communicator (`.allreduce_sum(x)` etc.).
    Collective {
        /// Which collective.
        name: String,
    },
    /// Point-to-point send (`.send(to, tag, data)` / `.send_internal`).
    Send {
        /// Reserved-tag identifier in the tag slot (`TAG_CTRL`), if any.
        tag: Option<String>,
    },
    /// Point-to-point receive (`.recv(from, tag)` / `.try_recv_any(tag, t)`).
    Recv {
        /// Reserved-tag identifier in the tag slot, if any.
        tag: Option<String>,
    },
    /// Epoch/round opening marker (`next_epoch`, `open_epoch`, …).
    EpochOpen,
    /// Epoch/round closing marker (`close_epoch`, `end_epoch`, …).
    EpochClose,
    /// Early-exit point: `?` or `return`.
    Exit {
        /// `"?"` or `"return"`.
        what: &'static str,
    },
}

/// An [`EventKind`] with its source position and control-flow flags.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based source line.
    pub line: u32,
    /// Lexically inside a rank()-conditioned (or rank-tainted) region.
    pub under_rank: bool,
    /// Inside any branch/loop body.
    pub under_branch: bool,
}

/// One function (or closure) with its ordered event stream.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Function name; closures get `"<closure:LINE>"`.
    pub name: String,
    /// 1-based line of the `fn` keyword / closure opening `|`.
    pub line: u32,
    /// Inside a `#[cfg(test)]` module or a `#[test]` function.
    pub is_test: bool,
    /// True for closures (never callable by name in the call graph).
    pub is_closure: bool,
    /// Source-ordered events.
    pub events: Vec<Event>,
}

/// The per-file output of pass 1.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path as given to the analyzer.
    pub path: String,
    /// Crate / target classification.
    pub class: FileClass,
    /// Functions and closures, in source order.
    pub fns: Vec<FnModel>,
    /// Rule name → covered line ranges from `analyze: allow(...)`.
    pub allows: HashMap<String, Vec<(u32, u32)>>,
    /// Line ranges of `#[cfg(test)]` / `#[test]` spans.
    pub test_spans: Vec<(u32, u32)>,
    /// Test targets only: `(line, literal)` of every scientific-notation
    /// float literal with a negative exponent (`1e-12`) on a line that also
    /// makes an ordered comparison (`<`, `<=`, `>`, `>=`).
    pub tolerance_literals: Vec<(u32, String)>,
}

impl FileModel {
    /// True when `line` is suppressed for `rule` by an allow annotation.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .get(rule)
            .is_some_and(|spans| spans.iter().any(|&(a, b)| a <= line && line <= b))
    }

    /// True when `line` falls in a test span.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn match_braces(toks: &[Tok]) -> HashMap<usize, usize> {
    let mut stack = Vec::new();
    let mut map = HashMap::new();
    for (i, t) in toks.iter().enumerate() {
        if is_punct(t, "{") {
            stack.push(i);
        } else if is_punct(t, "}") {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
            }
        }
    }
    map
}

/// Finds the line spans of `#[cfg(test)]` items and `#[test]` functions:
/// from the attribute, the next top-level `{` opens the span (a `;` first
/// means the attribute decorated a braceless item — no span). `cfg(all(…))`
/// and `cfg(any(…))` lists mentioning `test` count too.
fn find_test_spans(toks: &[Tok], braces: &HashMap<usize, usize>) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        let is_attr_start = is_punct(&toks[i], "#") && is_punct(&toks[i + 1], "[");
        if !is_attr_start {
            i += 1;
            continue;
        }
        let body = &toks[i + 2..];
        let is_test_attr =
            (body.len() >= 2 && is_ident(&body[0], "test") && is_punct(&body[1], "]"))
                || (!body.is_empty() && is_ident(&body[0], "cfg") && {
                    // Scan the attribute to its closing `]`, looking for the
                    // bare `test` predicate at any nesting depth.
                    let mut depth = 0i32;
                    let mut has_test = false;
                    for t in body.iter().take(64) {
                        if is_punct(t, "[") || is_punct(t, "(") {
                            depth += 1;
                        } else if is_punct(t, ")") {
                            depth -= 1;
                        } else if is_punct(t, "]") && depth <= 0 {
                            break;
                        } else if is_ident(t, "test") {
                            has_test = true;
                        }
                    }
                    has_test
                });
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Scan past the attribute to the decorated item's body.
        let mut j = i + 2;
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if is_punct(t, "(") || is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") {
                depth -= 1;
            } else if depth <= 0 && is_punct(t, ";") {
                break;
            } else if depth <= 0 && is_punct(t, "{") {
                if let Some(&close) = braces.get(&j) {
                    spans.push((toks[j].line, toks[close].line));
                }
                break;
            }
            j += 1;
        }
        i += 1;
    }
    spans
}

/// Collects local bindings whose initializer calls `rank()` — the one-step
/// dataflow that makes `let me = comm.rank(); if me == 0 { … }` a
/// rank-conditioned region. Tuple/struct patterns are skipped (no taint).
fn rank_tainted_idents(toks: &[Tok]) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if !is_ident(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_ident(&toks[j], "mut") {
            j += 1;
        }
        if j >= toks.len() || toks[j].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[j].text.clone();
        // Scan the initializer to the statement's `;` at delimiter depth 0.
        let mut depth = 0i32;
        let mut k = j + 1;
        let mut has_rank = false;
        while k < toks.len() {
            let t = &toks[k];
            if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth <= 0 && is_punct(t, ";") {
                break;
            } else if is_ident(t, "rank") && k + 1 < toks.len() && is_punct(&toks[k + 1], "(") {
                has_rank = true;
            }
            k += 1;
        }
        if has_rank {
            out.insert(name);
        }
        i = k.max(i + 1);
    }
    out
}

/// Marks the body blocks of `if` / `while` / `match` whose condition or
/// scrutinee calls `rank()` or mentions a rank-tainted binding, plus every
/// `else` / `else if` block chained to such an `if` (the whole chain
/// executes divergently across ranks).
fn find_rank_spans(
    toks: &[Tok],
    braces: &HashMap<usize, usize>,
    tainted: &HashSet<String>,
) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if !(is_ident(t, "if") || is_ident(t, "while") || is_ident(t, "match")) {
            i += 1;
            continue;
        }
        let Some((open, has_rank)) = scan_condition(toks, i + 1, tainted) else {
            i += 1;
            continue;
        };
        if !has_rank {
            i += 1;
            continue;
        }
        let Some(&close) = braces.get(&open) else {
            i += 1;
            continue;
        };
        spans.push((open, close));
        // Chain the else arms.
        let mut k = close + 1;
        while k + 1 < toks.len() && is_ident(&toks[k], "else") {
            if is_punct(&toks[k + 1], "{") {
                if let Some(&c2) = braces.get(&(k + 1)) {
                    spans.push((k + 1, c2));
                    k = c2 + 1;
                    continue;
                }
                break;
            } else if is_ident(&toks[k + 1], "if") || is_ident(&toks[k + 1], "match") {
                if let Some((o2, _)) = scan_condition(toks, k + 2, tainted) {
                    if let Some(&c2) = braces.get(&o2) {
                        spans.push((o2, c2));
                        k = c2 + 1;
                        continue;
                    }
                }
                break;
            }
            break;
        }
        i += 1; // keep scanning inside the body for nested conditions
    }
    spans
}

/// From `start`, scans a condition/scrutinee to its body's `{` at delimiter
/// depth 0. Returns `(open_brace_idx, condition_mentions_rank)`, or `None`
/// when a `;` ends the statement first (macro fragments etc.).
fn scan_condition(toks: &[Tok], start: usize, tainted: &HashSet<String>) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    let mut has_rank = false;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "(") || is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            depth -= 1;
        } else if depth <= 0 && is_punct(t, ";") {
            return None;
        } else if depth <= 0 && is_punct(t, "{") {
            return Some((j, has_rank));
        } else if (is_ident(t, "rank") && j + 1 < toks.len() && is_punct(&toks[j + 1], "("))
            || (t.kind == TokKind::Ident && tainted.contains(&t.text))
        {
            has_rank = true;
        }
        j += 1;
    }
    None
}

/// Body blocks of every `if`/`else`/`while`/`for`/`match`/`loop` — the
/// generic "inside a branch or loop" skeleton.
fn find_branch_spans(toks: &[Tok], braces: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let empty = HashSet::new();
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if is_ident(t, "if") || is_ident(t, "while") || is_ident(t, "match") || is_ident(t, "for") {
            if let Some((open, _)) = scan_condition(toks, i + 1, &empty) {
                if let Some(&close) = braces.get(&open) {
                    spans.push((open, close));
                }
            }
        } else if (is_ident(t, "loop") || is_ident(t, "else"))
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], "{")
        {
            if let Some(&close) = braces.get(&(i + 1)) {
                spans.push((i + 1, close));
            }
        }
    }
    spans
}

/// Parses `analyze: allow(<rule>, <reason>)` annotations out of the comment
/// stream and computes the line ranges each one covers.
fn find_allows(
    toks: &[Tok],
    comments: &[Comment],
    line_first_tok: &HashMap<u32, usize>,
    braces: &HashMap<usize, usize>,
) -> HashMap<String, Vec<(u32, u32)>> {
    let mut out: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = line_first_tok.keys().copied().collect();
        v.sort_unstable();
        v
    };
    for c in comments {
        let Some(rule) = parse_allow(&c.text) else {
            continue;
        };
        let span = if c.own_line {
            // Covers the next code line (skipping attribute lines); if that
            // line opens a brace block, the whole block.
            let mut covered = None;
            let mut from = c.line;
            while let Some(&next) = code_lines.iter().find(|&&l| l > from) {
                let first = line_first_tok[&next];
                if is_punct(&toks[first], "#") {
                    from = next; // attribute — the allow rides through it
                    continue;
                }
                // First open brace on that line extends coverage to its close.
                let mut end = next;
                let mut k = first;
                while k < toks.len() && toks[k].line == next {
                    if is_punct(&toks[k], "{") {
                        if let Some(&close) = braces.get(&k) {
                            end = toks[close].line;
                        }
                        break;
                    }
                    k += 1;
                }
                covered = Some((next, end));
                break;
            }
            covered
        } else {
            Some((c.line, c.line))
        };
        if let Some(span) = span {
            out.entry(rule).or_default().push(span);
        }
    }
    out
}

/// Extracts the rule name from an `analyze: allow(rule, reason)` comment.
fn parse_allow(comment: &str) -> Option<String> {
    let idx = comment.find("analyze: allow(")?;
    let rest = &comment[idx + "analyze: allow(".len()..];
    let end = rest.rfind(')')?;
    let inner = &rest[..end];
    let rule = inner.split(',').next().unwrap_or("").trim();
    if rule.is_empty() {
        None
    } else {
        Some(rule.to_string())
    }
}

// ---------------------------------------------------------------------------
// Item extraction
// ---------------------------------------------------------------------------

/// A raw item before event extraction: a fn or closure body token range.
struct RawItem {
    name: String,
    line: u32,
    /// Token index of the item's first token (`fn` keyword / opening `|`):
    /// enclosing items skip from here so a nested signature never reads as
    /// call expressions.
    start: usize,
    /// Exclusive token-index range of the body (inside the braces for fn
    /// items; the full expression for expression-bodied closures).
    range: (usize, usize),
    is_closure: bool,
}

/// Finds `fn` items with brace bodies (trait-method declarations ending in
/// `;` are skipped).
fn find_fn_items(toks: &[Tok], braces: &HashMap<usize, usize>) -> Vec<RawItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !is_ident(&toks[i], "fn") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Signature runs to the body `{` (or declaration `;`) at
        // paren/bracket depth 0.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if is_punct(t, "(") || is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") {
                depth -= 1;
            } else if depth <= 0 && is_punct(t, ";") {
                break;
            } else if depth <= 0 && is_punct(t, "{") {
                if let Some(&close) = braces.get(&j) {
                    body = Some((j + 1, close));
                }
                break;
            }
            j += 1;
        }
        if let Some(range) = body {
            out.push(RawItem {
                name,
                line,
                start: i,
                range,
                is_closure: false,
            });
            i = range.0;
        } else {
            i = j.max(i + 1);
        }
    }
    out
}

/// Tokens that can directly precede a closure's opening `|`. Anywhere
/// else, `|` / `||` are the binary operators.
fn closure_can_start_after(prev: Option<&Tok>) -> bool {
    match prev {
        None => true,
        Some(t) if t.kind == TokKind::Punct => matches!(
            t.text.as_str(),
            "(" | "," | "=" | "{" | "[" | ";" | "=>" | ":" | "&&" | "||" | "==" | "!=" | "&"
        ),
        Some(t) if t.kind == TokKind::Ident => {
            matches!(t.text.as_str(), "move" | "return" | "else" | "in")
        }
        _ => false,
    }
}

/// Finds closures and models them as anonymous items. A closure's `return`
/// and `?` exit the *closure*, not the enclosing fn, so attributing its
/// body to a sub-function keeps the early-exit pairing honest.
fn find_closures(toks: &[Tok], braces: &HashMap<usize, usize>) -> Vec<RawItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let prev = if i == 0 { None } else { Some(&toks[i - 1]) };
        let params_close = if is_punct(t, "||") && closure_can_start_after(prev) {
            Some(i)
        } else if is_punct(t, "|") && closure_can_start_after(prev) {
            // Scan for the closing `|` of the parameter list.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut close = None;
            while j < toks.len() && j - i <= 64 {
                let u = &toks[j];
                if is_punct(u, "(") || is_punct(u, "[") {
                    depth += 1;
                } else if is_punct(u, ")") || is_punct(u, "]") {
                    if depth == 0 {
                        break; // ran out of the enclosing call — not a closure
                    }
                    depth -= 1;
                } else if is_punct(u, ";") || is_punct(u, "{") {
                    break;
                } else if depth == 0 && is_punct(u, "|") {
                    close = Some(j);
                    break;
                }
                j += 1;
            }
            close
        } else {
            None
        };
        let Some(close) = params_close else {
            i += 1;
            continue;
        };
        // Optional `-> Type`, then the body: a brace block or an expression
        // running to the `,` / `)` / `]` / `;` that ends it.
        let mut b = close + 1;
        let mut depth = 0i32;
        let mut body = None;
        while b < toks.len() {
            let u = &toks[b];
            if is_punct(u, "(") || is_punct(u, "[") {
                depth += 1;
            } else if is_punct(u, ")") || is_punct(u, "]") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth <= 0 && is_punct(u, "{") {
                if let Some(&c2) = braces.get(&b) {
                    body = Some((b + 1, c2));
                }
                break;
            } else if depth <= 0 && (is_punct(u, ",") || is_punct(u, ";")) {
                body = Some((close + 1, b));
                break;
            }
            b += 1;
        }
        // Expression body running to the end of the enclosing call.
        if body.is_none() && b > close + 1 {
            body = Some((close + 1, b));
        }
        if let Some(range) = body {
            if range.1 > range.0 {
                // The trailing counter keeps names unique within a file even
                // with several closures on one line.
                out.push(RawItem {
                    name: format!("<closure:{}:{}>", t.line, out.len()),
                    line: t.line,
                    start: i,
                    range,
                    is_closure: true,
                });
            }
        }
        i = close + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Event extraction
// ---------------------------------------------------------------------------

/// Counts the top-level arguments of the call whose `(` sits at `open`,
/// and returns the token ranges of each argument. `None` when the paren
/// never closes (macro fragments, truncated input).
fn call_args(toks: &[Tok], open: usize) -> Option<Vec<(usize, usize)>> {
    let mut depth = 1i32;
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut j = open + 1;
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                if j > start {
                    args.push((start, j));
                }
                return Some(args);
            }
        } else if depth == 1 && is_punct(t, ",") {
            args.push((start, j));
            start = j + 1;
        }
        j += 1;
    }
    None
}

/// First reserved-tag identifier (`TAG_…`) in an argument range, if any.
fn tag_in_range(toks: &[Tok], range: (usize, usize)) -> Option<String> {
    toks[range.0..range.1]
        .iter()
        .find(|t| {
            t.kind == TokKind::Ident
                && t.text.starts_with("TAG_")
                && t.text
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        })
        .map(|t| t.text.clone())
}

const EPOCH_OPENERS: &[&str] = &["next_epoch", "epoch_open", "open_epoch", "begin_epoch"];
const EPOCH_CLOSERS: &[&str] = &["epoch_close", "close_epoch", "end_epoch", "finish_epoch"];

/// Every protocol-primitive method name. A method call with one of these
/// names but the *wrong* arity is some std lookalike (`str::split(pat)`,
/// mpsc `send(x)`, iterator `take`) — it must produce no event at all,
/// because a `Call` edge named `split` would resolve to `Comm::split` and
/// hand every string-splitting function a phantom collective.
const PROTOCOL_NAMES: &[&str] = &[
    "allreduce_sum",
    "bcast",
    "gather",
    "allgather",
    "agree",
    "barrier",
    "split",
    "send",
    "send_internal",
    "recv",
    "recv_internal",
    "try_recv_any",
    "try_recv_any_internal",
];

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "else", "in", "as",
    "ref", "mut", "box", "dyn", "impl", "where", "unsafe",
];

fn in_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(a, b)| a < idx && idx < b)
}

/// A nested item's skip range inside an enclosing body: `(start, end,
/// name, is_closure)`.
type NestedItem = (usize, usize, String, bool);

/// Extracts the source-ordered events of one item's body range, skipping
/// token ranges owned by nested items. A directly-nested *closure* leaves a
/// synthetic `Call` to its unique name at the definition site — its
/// protocol ops belong to the enclosing schedule (the closure runs where
/// it is used) while its `?`/`return` exit only the closure itself.
fn events_for(
    toks: &[Tok],
    range: (usize, usize),
    nested: &[NestedItem],
    rank_spans: &[(usize, usize)],
    branch_spans: &[(usize, usize)],
) -> Vec<Event> {
    let mut out = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        if let Some((a, end, name, is_closure)) =
            nested.iter().find(|&&(a, b, _, _)| a <= i && i < b)
        {
            if *is_closure && i == *a {
                out.push(Event {
                    kind: EventKind::Call {
                        callee: name.clone(),
                        method: false,
                    },
                    line: toks[*a].line,
                    under_rank: in_spans(rank_spans, *a),
                    under_branch: in_spans(branch_spans, *a),
                });
            }
            i = *end;
            continue;
        }
        let t = &toks[i];
        let flags = (in_spans(rank_spans, i), in_spans(branch_spans, i));
        if is_punct(t, "?") {
            // `?Sized` bounds are not the try operator.
            if !(i + 1 < toks.len() && is_ident(&toks[i + 1], "Sized")) {
                out.push(Event {
                    kind: EventKind::Exit { what: "?" },
                    line: t.line,
                    under_rank: flags.0,
                    under_branch: flags.1,
                });
            }
            i += 1;
            continue;
        }
        if is_ident(t, "return") {
            out.push(Event {
                kind: EventKind::Exit { what: "return" },
                line: t.line,
                under_rank: flags.0,
                under_branch: flags.1,
            });
            i += 1;
            continue;
        }
        // Call expression: `name(` optionally preceded by `.` (method).
        if t.kind == TokKind::Ident && i + 1 < range.1 && is_punct(&toks[i + 1], "(") {
            let name = t.text.as_str();
            if CALLISH_KEYWORDS.contains(&name) {
                i += 1;
                continue;
            }
            let method = i > 0 && is_punct(&toks[i - 1], ".");
            let args = call_args(toks, i + 1);
            let arity = args.as_ref().map(Vec::len);
            let kind = if method
                && COLLECTIVE_ARITY
                    .iter()
                    .any(|&(n, a)| n == name && Some(a) == arity)
            {
                Some(EventKind::Collective {
                    name: name.to_string(),
                })
            } else if method && matches!(name, "send" | "send_internal") && arity == Some(3) {
                Some(EventKind::Send {
                    tag: args.as_ref().and_then(|a| tag_in_range(toks, a[1])),
                })
            } else if method && matches!(name, "recv" | "recv_internal") && arity == Some(2) {
                Some(EventKind::Recv {
                    tag: args.as_ref().and_then(|a| tag_in_range(toks, a[1])),
                })
            } else if method
                && matches!(name, "try_recv_any" | "try_recv_any_internal")
                && arity == Some(2)
            {
                Some(EventKind::Recv {
                    tag: args.as_ref().and_then(|a| tag_in_range(toks, a[0])),
                })
            } else if EPOCH_OPENERS.contains(&name) {
                Some(EventKind::EpochOpen)
            } else if EPOCH_CLOSERS.contains(&name) {
                Some(EventKind::EpochClose)
            } else if method && PROTOCOL_NAMES.contains(&name) {
                // Wrong-arity protocol lookalike: opaque, see above.
                None
            } else if name.chars().next().is_some_and(char::is_uppercase) {
                // Tuple-struct / enum constructors (`Some(x)`, `Ok(y)`)
                // are data, not calls.
                None
            } else {
                Some(EventKind::Call {
                    callee: t.text.clone(),
                    method,
                })
            };
            if let Some(kind) = kind {
                out.push(Event {
                    kind,
                    line: t.line,
                    under_rank: flags.0,
                    under_branch: flags.1,
                });
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Parses one source file into its [`FileModel`]. Never fails — anything
/// the tokenizer degrades gracefully on, the item scan degrades with.
pub fn parse_file(path: &str, src: &str, class: &FileClass) -> FileModel {
    let lexed = lex(src);
    let toks = &lexed.toks[..];
    let braces = match_braces(toks);
    let mut line_first_tok = HashMap::new();
    for (i, t) in toks.iter().enumerate() {
        line_first_tok.entry(t.line).or_insert(i);
    }
    let test_spans = find_test_spans(toks, &braces);
    let allows = find_allows(toks, &lexed.comments, &line_first_tok, &braces);
    let tainted = rank_tainted_idents(toks);
    let rank_spans = find_rank_spans(toks, &braces, &tainted);
    let branch_spans = find_branch_spans(toks, &braces);

    let mut items = find_fn_items(toks, &braces);
    items.extend(find_closures(toks, &braces));
    items.sort_by_key(|it| it.start);

    let fns = items
        .iter()
        .map(|it| {
            // Skip every strictly-nested item, signature included.
            let nested: Vec<NestedItem> = items
                .iter()
                .filter(|o| o.start > it.start && o.range.1 <= it.range.1)
                .map(|o| (o.start, o.range.1, o.name.clone(), o.is_closure))
                .collect();
            FnModel {
                name: it.name.clone(),
                line: it.line,
                is_test: test_spans
                    .iter()
                    .any(|&(a, b)| a <= it.line && it.line <= b),
                is_closure: it.is_closure,
                events: events_for(toks, it.range, &nested, &rank_spans, &branch_spans),
            }
        })
        .collect();

    let tolerance_literals = if class.kind == TargetKind::Test {
        find_tolerance_literals(toks)
    } else {
        Vec::new()
    };

    FileModel {
        path: path.to_string(),
        class: class.clone(),
        fns,
        allows,
        test_spans,
        tolerance_literals,
    }
}

/// The `(line, literal)` pairs [`FileModel::tolerance_literals`] holds.
fn find_tolerance_literals(toks: &[Tok]) -> Vec<(u32, String)> {
    let cmp_lines: HashSet<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | "<=" | ">" | ">="))
        .map(|t| t.line)
        .collect();
    toks.iter()
        .filter(|t| {
            t.kind == TokKind::Float
                && (t.text.contains("e-") || t.text.contains("E-"))
                && cmp_lines.contains(&t.line)
        })
        .map(|t| (t.line, t.text.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileModel {
        parse_file(
            "t.rs",
            src,
            &FileClass {
                crate_name: "omen".to_string(),
                kind: TargetKind::Lib,
            },
        )
    }

    #[test]
    fn fn_items_and_events() {
        let m = parse(
            "fn a(c: &Comm) -> OmenResult<()> {\n\
             \x20   c.send(1, TAG_REQ, data);\n\
             \x20   let x = helper(c)?;\n\
             \x20   let r = c.recv(1, TAG_REP)?;\n\
             \x20   Ok(())\n\
             }\n",
        );
        assert_eq!(m.fns.len(), 1);
        let ev = &m.fns[0].events;
        let kinds: Vec<&EventKind> = ev.iter().map(|e| &e.kind).collect();
        assert!(
            matches!(kinds[0], EventKind::Send { tag: Some(t) } if t == "TAG_REQ"),
            "{kinds:?}"
        );
        assert!(matches!(kinds[1], EventKind::Call { callee, .. } if callee == "helper"));
        assert!(matches!(kinds[2], EventKind::Exit { what: "?" }));
        assert!(matches!(kinds[3], EventKind::Recv { tag: Some(t) } if t == "TAG_REP"));
        assert!(matches!(kinds[4], EventKind::Exit { what: "?" }));
    }

    #[test]
    fn arity_separates_comm_ops_from_lookalikes() {
        let m = parse(
            "fn a(s: &str, tx: &Sender<u8>) {\n\
             \x20   let parts = s.split(',');\n\
             \x20   tx.send(1);\n\
             \x20   let v = rx.recv();\n\
             }\n",
        );
        let ev = &m.fns[0].events;
        assert!(
            ev.iter().all(|e| matches!(e.kind, EventKind::Call { .. })),
            "lookalikes must stay plain calls: {ev:?}"
        );
    }

    #[test]
    fn rank_taint_marks_branches() {
        let m = parse(
            "fn a(c: &Comm) {\n\
             \x20   let me = c.rank();\n\
             \x20   if me == 0 {\n\
             \x20       helper(c);\n\
             \x20   }\n\
             \x20   helper(c);\n\
             }\n",
        );
        let calls: Vec<&Event> = m.fns[0]
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Call { callee, .. } if callee == "helper"))
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].under_rank, "tainted branch call");
        assert!(!calls[1].under_rank, "call outside branch");
    }

    #[test]
    fn closures_own_their_exits() {
        let m = parse(
            "fn a(c: &Comm) -> OmenResult<()> {\n\
             \x20   c.send(0, TAG_A, d);\n\
             \x20   let f = |k: usize| -> OmenResult<u8> {\n\
             \x20       let v = g(k)?;\n\
             \x20       Ok(v)\n\
             \x20   };\n\
             \x20   let r = c.recv(0, TAG_A)?;\n\
             \x20   Ok(())\n\
             }\n",
        );
        assert_eq!(m.fns.len(), 2, "fn + closure: {:?}", m.fns);
        let outer = m.fns.iter().find(|f| f.name == "a").unwrap();
        // The closure's `?` must not appear between the outer send/recv.
        let outer_exits = outer
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Exit { .. }))
            .count();
        assert_eq!(outer_exits, 1, "{:?}", outer.events);
        let closure = m.fns.iter().find(|f| f.is_closure).unwrap();
        assert!(closure
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Exit { what: "?" })));
    }

    #[test]
    fn epoch_markers_and_constructors() {
        let m = parse(
            "fn a(c: &Comm) -> OmenResult<()> {\n\
             \x20   let e = c.next_epoch();\n\
             \x20   let x = Some(compute()?);\n\
             \x20   c.end_epoch(e);\n\
             \x20   Ok(())\n\
             }\n",
        );
        let kinds: Vec<&EventKind> = m.fns[0].events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::EpochOpen));
        assert!(
            matches!(kinds[1], EventKind::Call { callee, .. } if callee == "compute"),
            "Some() must not be a call: {kinds:?}"
        );
        assert!(matches!(kinds[2], EventKind::Exit { .. }));
        assert!(matches!(kinds[3], EventKind::EpochClose));
    }
}

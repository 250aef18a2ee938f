//! Pass 2b: per-function *collective effect summaries* and the three
//! protocol rules built on them.
//!
//! A summary is the ordered sequence of protocol operations a function may
//! perform — its own collectives/sends/recvs/epoch markers and early exits,
//! with callee summaries inlined at the call site (bounded by [`OPS_CAP`]).
//! Early exits are *never* inlined across a call: a callee's `?` returns
//! from the callee, not from the caller, so only the caller's own exits can
//! abandon the caller's protocol. Each summary also carries a witness chain
//! for the first transitively-reachable collective, which is what lets
//! findings name the path (`helper → deep → allgather`).
//!
//! Propagation is a chaotic iteration to a fixpoint: recompute every
//! summary from its callees' current summaries until nothing changes. The
//! op list is length-capped and the witness chain depth-capped, so the
//! lattice is finite and the iteration terminates; [`ROUND_CAP`] is a
//! backstop for pathological shapes, after which the partial (still
//! conservative) summaries are used as-is. Recursive cycles simply stop
//! growing once the cap truncates the repeated suffix.

use crate::callgraph::CallGraph;
use crate::parse::{EventKind, FileModel};
use crate::{Finding, TargetKind};
use std::collections::HashSet;

/// Maximum inlined protocol ops kept per function summary.
pub const OPS_CAP: usize = 64;
/// Maximum call-chain segments kept in a witness.
pub const CHAIN_CAP: usize = 6;
/// Fixpoint iteration backstop.
pub const ROUND_CAP: usize = 32;

/// A protocol operation in a flattened summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Collective by name.
    Collective(String),
    /// Send with the reserved tag, when statically known.
    Send(Option<String>),
    /// Recv with the reserved tag, when statically known.
    Recv(Option<String>),
    /// Epoch opening marker.
    EpochOpen,
    /// Epoch closing marker.
    EpochClose,
    /// The function's own `?` / `return` (never inlined from callees).
    Exit,
}

/// One op with provenance: where it is defined and whether it executes
/// under rank-divergent control flow (at any level of the inlined chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumOp {
    /// What the op is.
    pub kind: OpKind,
    /// File (model index) the op's source line lives in.
    pub file: usize,
    /// 1-based line in that file.
    pub line: u32,
    /// True when the op (or the call chain inlining it) sits inside a
    /// rank()-conditioned region.
    pub under_rank: bool,
}

/// Call chain to the first reachable collective: the called fn names in
/// order, then the collective itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Intermediate callee names (capped at [`CHAIN_CAP`]).
    pub chain: Vec<String>,
    /// Collective name.
    pub name: String,
    /// Defining file (model index).
    pub file: usize,
    /// Defining line.
    pub line: u32,
}

/// Effect summary of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    /// Flattened op sequence, own ops and inlined callee ops in call order.
    pub ops: Vec<SumOp>,
    /// The op list hit [`OPS_CAP`]; the tail is missing (conservative:
    /// flags below still propagate).
    pub truncated: bool,
    /// First transitively-reachable collective, with its call chain.
    pub collective_witness: Option<Witness>,
    /// Some reachable collective executes under rank-divergent control
    /// flow somewhere down the chain.
    pub may_diverge_by_rank: bool,
    /// Some own exit sits strictly between paired ops (send→recv or
    /// epoch-open→epoch-close) of the flattened sequence.
    pub may_exit_mid_protocol: bool,
}

/// Computes the fixpoint of all function summaries over the call graph.
pub fn compute_summaries(models: &[FileModel], graph: &CallGraph) -> Vec<Summary> {
    let mut sums: Vec<Summary> = vec![Summary::default(); graph.fns.len()];
    for _round in 0..ROUND_CAP {
        let mut changed = false;
        for gid in 0..graph.fns.len() {
            let new = summarize_one(gid, models, graph, &sums);
            if new != sums[gid] {
                sums[gid] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// Recomputes one function's summary from the current callee summaries.
fn summarize_one(gid: usize, models: &[FileModel], graph: &CallGraph, sums: &[Summary]) -> Summary {
    let (fi, ki) = graph.fns[gid];
    let f = &models[fi].fns[ki];
    let mut s = Summary::default();
    let mut edge_iter = graph.calls[gid].iter().peekable();
    for (ei, ev) in f.events.iter().enumerate() {
        let own = |kind: OpKind| SumOp {
            kind,
            file: fi,
            line: ev.line,
            under_rank: ev.under_rank,
        };
        match &ev.kind {
            EventKind::Collective { name } => {
                if s.collective_witness.is_none() {
                    s.collective_witness = Some(Witness {
                        chain: Vec::new(),
                        name: name.clone(),
                        file: fi,
                        line: ev.line,
                    });
                }
                if ev.under_rank {
                    s.may_diverge_by_rank = true;
                }
                push_op(&mut s, own(OpKind::Collective(name.clone())));
            }
            EventKind::Send { tag } => push_op(&mut s, own(OpKind::Send(tag.clone()))),
            EventKind::Recv { tag } => push_op(&mut s, own(OpKind::Recv(tag.clone()))),
            EventKind::EpochOpen => push_op(&mut s, own(OpKind::EpochOpen)),
            EventKind::EpochClose => push_op(&mut s, own(OpKind::EpochClose)),
            EventKind::Exit { .. } => push_op(&mut s, own(OpKind::Exit)),
            EventKind::Call { callee, .. } => {
                // Edges were built in event order; advance to this event's.
                while edge_iter.peek().is_some_and(|e| e.event < ei) {
                    edge_iter.next();
                }
                let Some(edge) = edge_iter.peek().filter(|e| e.event == ei) else {
                    continue;
                };
                let primary = &sums[edge.callees[0]];
                // Inline the primary candidate's protocol ops (not its
                // exits) at this position, OR-ing the call's rank flag in.
                for op in &primary.ops {
                    if op.kind == OpKind::Exit {
                        continue;
                    }
                    let mut op = op.clone();
                    op.under_rank |= ev.under_rank;
                    push_op(&mut s, op);
                }
                s.truncated |= primary.truncated;
                // Witness and flags consider every candidate — ambiguity
                // must never hide a collective.
                for &c in &edge.callees {
                    let cs = &sums[c];
                    if let Some(w) = &cs.collective_witness {
                        if s.collective_witness.is_none() {
                            let mut chain = Vec::with_capacity(w.chain.len() + 1);
                            chain.push(callee.clone());
                            chain.extend(w.chain.iter().cloned());
                            chain.truncate(CHAIN_CAP);
                            s.collective_witness = Some(Witness {
                                chain,
                                name: w.name.clone(),
                                file: w.file,
                                line: w.line,
                            });
                        }
                        if ev.under_rank {
                            s.may_diverge_by_rank = true;
                        }
                    }
                    if cs.may_diverge_by_rank {
                        s.may_diverge_by_rank = true;
                    }
                }
            }
        }
    }
    s.may_exit_mid_protocol = exit_between_paired_ops(&s.ops);
    s
}

fn push_op(s: &mut Summary, op: SumOp) {
    if s.ops.len() < OPS_CAP {
        s.ops.push(op);
    } else {
        s.truncated = true;
    }
}

/// Finds an own `Exit` op strictly between a send and the next recv after
/// it, or between an epoch-open and the next epoch-close. Exits sharing a
/// source line with any send/recv in the sequence are skipped: `?` applied
/// directly to a comm call is the designed typed-fatal path (`RecvTimeout`
/// etc.), not an abandonment of the protocol.
fn exit_between_paired_ops(ops: &[SumOp]) -> bool {
    let comm_lines: HashSet<(usize, u32)> = ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Send(_) | OpKind::Recv(_)))
        .map(|o| (o.file, o.line))
        .collect();
    paired_op_spans(ops).iter().any(|&(open, close, _)| {
        ops[open + 1..close]
            .iter()
            .any(|op| op.kind == OpKind::Exit && !comm_lines.contains(&(op.file, op.line)))
    })
}

/// `(open idx, close idx, kind)` of every send→next-recv and
/// epoch-open→next-epoch-close pair in a flattened op sequence.
pub(crate) fn paired_op_spans(ops: &[SumOp]) -> Vec<(usize, usize, &'static str)> {
    let mut pairs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op.kind {
            OpKind::Send(_) => {
                if let Some(j) =
                    (i + 1..ops.len()).find(|&j| matches!(ops[j].kind, OpKind::Recv(_)))
                {
                    pairs.push((i, j, "send/recv round"));
                }
            }
            OpKind::EpochOpen => {
                if let Some(j) = (i + 1..ops.len()).find(|&j| ops[j].kind == OpKind::EpochClose) {
                    pairs.push((i, j, "epoch"));
                }
            }
            _ => {}
        }
    }
    pairs
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn push_finding(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        message,
    });
}

/// `spmd-divergence`: under rank-divergent control flow, either a
/// collective event (recognized by name and arity, so `str::split` is not
/// `Comm::split`) or a call whose callee may (transitively) perform one.
/// Ranks taking the other branch never issue it and the schedule diverges.
/// Scope: all crates, all targets.
pub fn rule_spmd_divergence(
    models: &[FileModel],
    graph: &CallGraph,
    sums: &[Summary],
    findings: &mut Vec<Finding>,
) {
    const RULE: &str = "spmd-divergence";
    for gid in 0..graph.fns.len() {
        let (fi, ki) = graph.fns[gid];
        let m = &models[fi];
        let f = &m.fns[ki];
        for ev in &f.events {
            let EventKind::Collective { name } = &ev.kind else {
                continue;
            };
            if !ev.under_rank || m.allowed(RULE, ev.line) {
                continue;
            }
            push_finding(
                findings,
                RULE,
                &m.path,
                ev.line,
                format!(
                    "collective `{name}` inside a rank()-conditioned branch: ranks taking the \
                     other branch skip it and the schedule diverges"
                ),
            );
        }
        let mut seen: HashSet<(u32, String)> = HashSet::new();
        for edge in &graph.calls[gid] {
            let ev = &f.events[edge.event];
            if !ev.under_rank {
                continue;
            }
            let EventKind::Call { callee, .. } = &ev.kind else {
                continue;
            };
            let Some(w) = edge
                .callees
                .iter()
                .find_map(|&c| sums[c].collective_witness.as_ref())
            else {
                continue;
            };
            if m.allowed(RULE, ev.line) || !seen.insert((ev.line, callee.clone())) {
                continue;
            }
            let mut via: Vec<String> = vec![format!("{callee}()")];
            via.extend(w.chain.iter().map(|c| format!("{c}()")));
            push_finding(
                findings,
                RULE,
                &m.path,
                ev.line,
                format!(
                    "collective `{}` ({}:{}) is reachable via {} from inside a \
                     rank()-conditioned branch: ranks taking the other branch never issue \
                     it and the collective schedule diverges",
                    w.name,
                    models[w.file].path,
                    w.line,
                    via.join(" -> "),
                ),
            );
        }
    }
}

/// `protocol-early-exit`: a `?` or `return` strictly between a send and its
/// matching recv, or between epoch-open and epoch-close, in lib/bin
/// non-test code. Bailing out mid-round leaves the peer blocked until its
/// timeout; the round must complete (or fail typed on the comm call
/// itself) before control leaves the function.
pub fn rule_protocol_early_exit(
    models: &[FileModel],
    graph: &CallGraph,
    sums: &[Summary],
    findings: &mut Vec<Finding>,
) {
    for (gid, s) in sums.iter().enumerate() {
        let (fi, ki) = graph.fns[gid];
        let m = &models[fi];
        if !matches!(m.class.kind, TargetKind::Lib | TargetKind::Bin) {
            continue;
        }
        if !s.may_exit_mid_protocol {
            continue;
        }
        let f = &m.fns[ki];
        // Re-derive the exits so each distinct line reports once.
        let mut reported: HashSet<u32> = HashSet::new();
        let ops = &s.ops;
        let comm_lines: HashSet<(usize, u32)> = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Send(_) | OpKind::Recv(_)))
            .map(|o| (o.file, o.line))
            .collect();
        for (open, close, what) in paired_op_spans(ops) {
            for op in &ops[open + 1..close] {
                if op.kind != OpKind::Exit
                    || op.file != fi
                    || comm_lines.contains(&(op.file, op.line))
                {
                    continue;
                }
                if m.in_test(op.line)
                    || m.allowed("protocol-early-exit", op.line)
                    || !reported.insert(op.line)
                {
                    continue;
                }
                push_finding(
                    findings,
                    "protocol-early-exit",
                    &m.path,
                    op.line,
                    format!(
                        "early exit in `{}` between the open and close of a {} (opened \
                         {}:{}, closed {}:{}): peers block until timeout when this path \
                         is taken — finish the round, or annotate the typed-fatal path",
                        f.name,
                        what,
                        models[ops[open].file].path,
                        ops[open].line,
                        models[ops[close].file].path,
                        ops[close].line,
                    ),
                );
            }
        }
    }
}

/// `tag-conflict`: two call paths that can be live concurrently both use
/// the same reserved tag in the same direction. Sites whose functions
/// reach one another are one protocol component (a coordinator calling its
/// own helper is not a conflict); two *independent* components sending on
/// one tag under a common caller means messages can cross-match.
pub fn rule_tag_conflict(
    models: &[FileModel],
    graph: &CallGraph,
    sums: &[Summary],
    findings: &mut Vec<Finding>,
) {
    let _ = sums;
    // Collect direct tagged sites in lib/bin non-test code.
    struct Site {
        gid: usize,
        line: u32,
        is_send: bool,
    }
    let mut by_tag: std::collections::BTreeMap<String, Vec<Site>> = Default::default();
    for gid in 0..graph.fns.len() {
        let (fi, ki) = graph.fns[gid];
        let m = &models[fi];
        if !matches!(m.class.kind, TargetKind::Lib | TargetKind::Bin) {
            continue;
        }
        for ev in &m.fns[ki].events {
            let (tag, is_send) = match &ev.kind {
                EventKind::Send { tag: Some(t) } => (t, true),
                EventKind::Recv { tag: Some(t) } => (t, false),
                _ => continue,
            };
            if m.in_test(ev.line) {
                continue;
            }
            by_tag.entry(tag.clone()).or_default().push(Site {
                gid,
                line: ev.line,
                is_send,
            });
        }
    }
    for (tag, sites) in &by_tag {
        // Union site functions that reach each other (either direction).
        let mut site_fns: Vec<usize> = sites.iter().map(|s| s.gid).collect();
        site_fns.sort_unstable();
        site_fns.dedup();
        let reach: Vec<HashSet<usize>> = site_fns.iter().map(|&g| graph.reaching(&[g])).collect();
        let mut comp: Vec<usize> = (0..site_fns.len()).collect();
        fn root(comp: &mut [usize], mut i: usize) -> usize {
            while comp[i] != i {
                comp[i] = comp[comp[i]];
                i = comp[i];
            }
            i
        }
        for i in 0..site_fns.len() {
            for j in i + 1..site_fns.len() {
                // `reach[i]` holds everything that reaches fn i; fn j
                // appearing there means j calls (transitively) into i.
                if reach[i].contains(&site_fns[j]) || reach[j].contains(&site_fns[i]) {
                    let (a, b) = (root(&mut comp, i), root(&mut comp, j));
                    comp[a.max(b)] = a.min(b);
                }
            }
        }
        for is_send in [true, false] {
            // Components owning a site of this direction, with their first
            // such site, ordered by source position for determinism.
            let mut comp_site: std::collections::BTreeMap<usize, &Site> = Default::default();
            for s in sites.iter().filter(|s| s.is_send == is_send) {
                let idx = site_fns.binary_search(&s.gid).unwrap_or(0);
                let c = root(&mut comp, idx);
                let cur = comp_site.entry(c).or_insert(s);
                if (graph.fns[s.gid].0, s.line) < (graph.fns[cur.gid].0, cur.line) {
                    *cur = s;
                }
            }
            if comp_site.len() < 2 {
                continue;
            }
            // Pairwise: conflict only when a common (non-test) caller can
            // have both components live at once.
            let entries: Vec<(&usize, &&Site)> = comp_site.iter().collect();
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    let (a, b) = (entries[i].1, entries[j].1);
                    let ra = graph.reaching(&[a.gid]);
                    let rb = graph.reaching(&[b.gid]);
                    let common = ra.intersection(&rb).find(|&&g| {
                        let (fi, ki) = graph.fns[g];
                        !models[fi].fns[ki].is_test && !models[fi].fns[ki].is_closure
                    });
                    let Some(&common) = common else { continue };
                    // Report at the lexically-later site.
                    let (later, earlier) = {
                        let (afi, _) = graph.fns[a.gid];
                        let (bfi, _) = graph.fns[b.gid];
                        if (bfi, b.line) > (afi, a.line) {
                            (b, a)
                        } else {
                            (a, b)
                        }
                    };
                    let (lfi, lki) = graph.fns[later.gid];
                    let m = &models[lfi];
                    if m.allowed("tag-conflict", later.line) {
                        continue;
                    }
                    let (efi, eki) = graph.fns[earlier.gid];
                    let (cfi, cki) = graph.fns[common];
                    let dir = if is_send { "send" } else { "recv" };
                    push_finding(
                        findings,
                        "tag-conflict",
                        &m.path,
                        later.line,
                        format!(
                            "`{tag}` is {dir}-used by two independent call paths that can \
                             be live concurrently: `{}` here and `{}` ({}:{}), both \
                             reachable from `{}` ({}) — concurrent rounds on one tag can \
                             cross-match messages; give one path its own tag",
                            m.fns[lki].name,
                            models[efi].fns[eki].name,
                            models[efi].path,
                            earlier.line,
                            models[cfi].fns[cki].name,
                            models[cfi].path,
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::{FileClass, TargetKind};

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(p, s)| {
                parse_file(
                    p,
                    s,
                    &FileClass {
                        crate_name: "x".to_string(),
                        kind: TargetKind::Lib,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn witness_chain_through_two_hops() {
        let ms = models(&[(
            "crates/x/src/a.rs",
            "fn deep(c: &Comm) { c.allgather(buf); }\n\
             fn mid(c: &Comm) { deep(c); }\n\
             fn top(c: &Comm) { mid(c); }\n",
        )]);
        let g = CallGraph::build(&ms);
        let sums = compute_summaries(&ms, &g);
        let top = g
            .fns
            .iter()
            .position(|&(_, ki)| ms[0].fns[ki].name == "top")
            .unwrap();
        let w = sums[top].collective_witness.as_ref().unwrap();
        assert_eq!(w.name, "allgather");
        assert_eq!(w.chain, vec!["mid".to_string(), "deep".to_string()]);
        assert_eq!(w.line, 1);
    }

    #[test]
    fn recursive_cycle_terminates_conservatively() {
        let ms = models(&[(
            "crates/x/src/a.rs",
            "fn ping(c: &Comm, d: u32) { if d > 0 { pong(c, d - 1); } }\n\
             fn pong(c: &Comm, d: u32) { c.allreduce_sum(x); ping(c, d); }\n",
        )]);
        let g = CallGraph::build(&ms);
        let sums = compute_summaries(&ms, &g);
        assert_eq!(sums.len(), g.fns.len());
        for s in &sums {
            assert!(
                s.collective_witness.is_some(),
                "both cycle members must report the reachable allreduce_sum"
            );
        }
    }

    #[test]
    fn mid_protocol_exit_flag() {
        let ms = models(&[(
            "crates/x/src/a.rs",
            "fn round(c: &Comm) -> OmenResult<()> {\n\
             \x20   c.send(1, TAG_A, data);\n\
             \x20   let x = fallible()?;\n\
             \x20   let r = c.recv(1, TAG_A)?;\n\
             \x20   Ok(())\n\
             }\n",
        )]);
        let g = CallGraph::build(&ms);
        let sums = compute_summaries(&ms, &g);
        let round = g
            .fns
            .iter()
            .position(|&(_, ki)| ms[0].fns[ki].name == "round")
            .unwrap();
        assert!(sums[round].may_exit_mid_protocol);
    }

    #[test]
    fn exit_on_comm_line_is_designed_fatal_path() {
        let ms = models(&[(
            "crates/x/src/a.rs",
            "fn round(c: &Comm) -> OmenResult<()> {\n\
             \x20   c.send(1, TAG_A, data);\n\
             \x20   let r = c.recv(1, TAG_A)?;\n\
             \x20   Ok(())\n\
             }\n",
        )]);
        let g = CallGraph::build(&ms);
        let sums = compute_summaries(&ms, &g);
        let round = g
            .fns
            .iter()
            .position(|&(_, ki)| ms[0].fns[ki].name == "round")
            .unwrap();
        assert!(!sums[round].may_exit_mid_protocol);
    }
}

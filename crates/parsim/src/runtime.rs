//! Threads-as-ranks message-passing runtime.
//!
//! [`run_ranks`] spawns `n` scoped threads, each holding a [`RankCtx`] with
//! a channel receiver and clones of every other rank's sender. Messages are
//! `(from, tag, payload)` triplets; a receive delivers in match order with
//! an out-of-order buffer, so the semantics match `MPI_Recv` with explicit
//! source and tag. Ranks talk through a [`crate::Comm`]: its point-to-point
//! messages and its two collectives (`allreduce_sum`, `allgather`), which
//! are built from point-to-point operations so their traffic is
//! *executed*, not modeled.
//!
//! ## Collective schedule verification
//!
//! Every rank of a communicator must enter the same collectives in the same
//! order (the SPMD contract). Instead of trusting a doc comment, each
//! collective runs a verified round: every non-root member prepends a
//! `Fingerprint` header — op kind, communicator id, op counter, payload
//! length — to its first message, the root compares each header against its
//! own fingerprint, and a mismatch is broadcast back down as a typed
//! [`OmenError::ScheduleDivergence`] on *every* member within that one
//! round. A divergent rank is named at the collective where it diverged,
//! not 30 seconds later as an anonymous timeout.
//!
//! Fault containment: a panic inside one rank's closure is caught on that
//! rank's thread and surfaced as `Err(OmenError::RankFailed)` in
//! [`RunOutput::results`] — the other ranks and the calling process keep
//! running. Receives carry a bounded timeout so a peer's death converts a
//! would-be deadlock into a typed, attributable [`OmenError::RecvTimeout`]
//! that also reports the out-of-order buffer state.

use omen_linalg::threads::{budget, with_budget};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// One message between ranks.
struct Msg {
    from: usize,
    tag: u64,
    data: Vec<u8>,
}

/// Default upper bound on how long a blocking receive waits for a matching
/// message. Ranks share one process, so any legitimate message arrives in
/// micro- to milliseconds; hitting this bound means the sending rank died
/// (schedule divergence inside a collective is caught much earlier by the
/// fingerprint check), and the receive fails with a typed error instead of
/// deadlocking the job. [`run_ranks_with_timeout`] overrides it for tests.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-rank communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Collective operations (allreduce/allgather) participated in.
    pub collectives: u64,
}

impl CommStats {
    /// Element-wise sum.
    pub fn merged(&self, o: &CommStats) -> CommStats {
        CommStats {
            messages_sent: self.messages_sent + o.messages_sent,
            bytes_sent: self.bytes_sent + o.bytes_sent,
            collectives: self.collectives + o.collectives,
        }
    }
}

/// Out-of-order receive buffer keyed by `(source rank, tag)`.
type PendingMsgs = HashMap<(usize, u64), VecDeque<Vec<u8>>>;

/// Collective operation kinds carried in the [`Fingerprint`] header. The
/// wire codes are fixed; 2 and 3 are unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollectiveKind {
    /// Element-wise sum reduction distributed back to every member.
    AllreduceSum = 1,
    /// All-to-all gather: every member receives every contribution.
    Allgather = 4,
}

impl CollectiveKind {
    fn from_u8(v: u8) -> Option<CollectiveKind> {
        match v {
            1 => Some(CollectiveKind::AllreduceSum),
            4 => Some(CollectiveKind::Allgather),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            CollectiveKind::AllreduceSum => "allreduce_sum",
            CollectiveKind::Allgather => "allgather",
        }
    }
}

/// Sentinel length meaning "payload length not checked for this op" (used
/// by allgather, whose per-rank contributions may legitimately differ).
pub(crate) const LEN_UNCHECKED: u64 = u64::MAX;

/// The schedule fingerprint prepended to every collective's first (upward)
/// message. Wire format, little-endian: `[kind:u8][comm:u64][op:u64]
/// [len:u64]` — 25 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    kind: u8,
    comm: u64,
    op: u64,
    len: u64,
}

impl Fingerprint {
    fn new(kind: CollectiveKind, comm: u64, op: u64, len: u64) -> Fingerprint {
        Fingerprint {
            kind: kind as u8,
            comm,
            op,
            len,
        }
    }

    fn put(&self, e: &mut Enc) {
        e.u8(self.kind);
        e.u64(self.comm);
        e.u64(self.op);
        e.u64(self.len);
    }

    /// Reads one fingerprint off the front of `d`.
    fn decode(d: &mut Dec<'_>) -> OmenResult<Fingerprint> {
        Ok(Fingerprint {
            kind: d.u8()?,
            comm: d.u64()?,
            op: d.u64()?,
            len: d.u64()?,
        })
    }

    /// Two fingerprints agree when kind, communicator and op counter are
    /// identical and the payload lengths match (a [`LEN_UNCHECKED`] on
    /// either side wildcards the length).
    fn matches(&self, other: &Fingerprint) -> bool {
        self.kind == other.kind
            && self.comm == other.comm
            && self.op == other.op
            && (self.len == other.len || self.len == LEN_UNCHECKED || other.len == LEN_UNCHECKED)
    }

    /// Human-readable form used in [`OmenError::ScheduleDivergence`], e.g.
    /// `allreduce_sum#2 comm=1 len=8`.
    fn describe(&self) -> String {
        let kind = match CollectiveKind::from_u8(self.kind) {
            Some(k) => k.name().to_string(),
            None => format!("op-kind-{}", self.kind),
        };
        if self.len == LEN_UNCHECKED {
            format!("{kind}#{} comm={} len=?", self.op, self.comm)
        } else {
            format!("{kind}#{} comm={} len={}", self.op, self.comm, self.len)
        }
    }
}

/// Local rank of every collective round's root.
const ROOT: usize = 0;

/// Verdict byte leading every downward (root → member) collective message.
const DOWN_OK: u8 = 0;
const DOWN_DIVERGED: u8 = 1;

/// The execution context handed to each rank's closure.
pub struct RankCtx {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    recv_timeout: Duration,
    // Out-of-order buffer: messages that arrived before being asked for.
    pending: RefCell<PendingMsgs>,
    stats: RefCell<CommStats>,
}

/// Tag namespace split: user tags occupy the low half, internal collective
/// tags the high half.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 63;

impl RankCtx {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    /// Number of received-but-unconsumed messages sitting in the
    /// out-of-order buffer. A correct SPMD protocol drains to zero at its
    /// synchronization points; a nonzero value after a solve indicates a
    /// leaked (e.g. duplicated) send.
    pub fn pending_messages(&self) -> usize {
        self.pending.borrow().values().map(|q| q.len()).sum()
    }

    /// Like [`Self::pending_messages`], restricted to point-to-point
    /// traffic (collective-internal messages excluded). Collective
    /// payloads from ranks running ahead of this one may legitimately sit
    /// in the buffer at a solver's drain point; leaked point-to-point
    /// sends may not.
    pub fn pending_p2p_messages(&self) -> usize {
        self.pending
            .borrow()
            .iter()
            .filter(|((_, tag), _)| tag & COLLECTIVE_TAG_BASE == 0)
            .map(|(_, q)| q.len())
            .sum()
    }

    /// Sends `data` to world rank `to` with wire tag `tag`.
    pub(crate) fn send(&self, to: usize, tag: u64, data: Vec<u8>) {
        assert!(to < self.size, "send to out-of-range rank {to}");
        {
            let mut s = self.stats.borrow_mut();
            s.messages_sent += 1;
            s.bytes_sent += data.len() as u64;
        }
        // A send can only fail when the destination rank already died (its
        // receiver dropped). The peer's failure is reported by run_ranks;
        // aborting this rank too would just obscure the root cause.
        let _ = self.senders[to].send(Msg {
            from: self.rank,
            tag,
            data,
        });
    }

    /// Blocking receive of the next message from world rank `from` with
    /// wire tag `tag`.
    ///
    /// # Errors
    ///
    /// [`OmenError::RecvTimeout`] when no matching message arrives within
    /// the runtime's receive bound (the peer died or the communication
    /// schedule diverged), [`OmenError::ChannelClosed`] when every sender
    /// to this rank dropped while it was blocked. Both report the
    /// out-of-order buffer occupancy at the time of failure.
    pub(crate) fn recv(&self, from: usize, tag: u64) -> OmenResult<Vec<u8>> {
        if let Some(q) = self.pending.borrow_mut().get_mut(&(from, tag)) {
            if let Some(d) = q.pop_front() {
                return Ok(d);
            }
        }
        loop {
            let msg = match self.receiver.recv_timeout(self.recv_timeout) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(OmenError::RecvTimeout {
                        rank: self.rank,
                        from,
                        tag,
                        waited_ms: self.recv_timeout.as_millis() as u64,
                        pending: self.pending_messages(),
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(OmenError::ChannelClosed {
                        rank: self.rank,
                        from,
                        tag,
                        pending: self.pending_messages(),
                    });
                }
            };
            if msg.from == from && msg.tag == tag {
                return Ok(msg.data);
            }
            self.pending
                .borrow_mut()
                .entry((msg.from, msg.tag))
                .or_default()
                .push_back(msg.data);
        }
    }

    /// Non-blocking-ish any-source receive: returns the next message
    /// carrying `tag` from *any* rank, waiting at most `timeout` for one to
    /// arrive. `Ok(None)` means the poll window elapsed with no match — the
    /// caller keeps control instead of deadlocking, which is what lets a
    /// work-scheduling coordinator interleave its own solves and its
    /// liveness scan with message service. When several sources already have a matching
    /// message buffered, the lowest source rank wins (deterministic drain
    /// order). Non-matching arrivals are parked in the out-of-order buffer
    /// exactly like `recv`.
    ///
    /// # Errors
    ///
    /// [`OmenError::ChannelClosed`] when every sender to this rank dropped
    /// while it was polling (the runtime is tearing down); the `from` field
    /// carries this rank's own id since the source was unconstrained.
    pub(crate) fn try_recv_any(
        &self,
        tag: u64,
        timeout: Duration,
    ) -> OmenResult<Option<(usize, Vec<u8>)>> {
        // Buffered matches first, lowest source rank first.
        {
            let mut pending = self.pending.borrow_mut();
            let source = pending
                .iter()
                .filter(|((_, t), q)| *t == tag && !q.is_empty())
                .map(|((from, _), _)| *from)
                .min();
            if let Some(from) = source {
                if let Some(q) = pending.get_mut(&(from, tag)) {
                    if let Some(d) = q.pop_front() {
                        return Ok(Some((from, d)));
                    }
                }
            }
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let msg = match self.receiver.recv_timeout(remaining) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(OmenError::ChannelClosed {
                        rank: self.rank,
                        from: self.rank,
                        tag,
                        pending: self.pending_messages(),
                    });
                }
            };
            if msg.tag == tag {
                return Ok(Some((msg.from, msg.data)));
            }
            self.pending
                .borrow_mut()
                .entry((msg.from, msg.tag))
                .or_default()
                .push_back(msg.data);
        }
    }

    /// One verified collective round over `members` (global ranks, ordered;
    /// `members[my_index]` is this rank), rooted at local rank 0. Non-root
    /// members send `fingerprint ‖ up_payload` to the root; the root checks
    /// every fingerprint against its own, then either distributes
    /// `DOWN_OK ‖ down_of(contributions)` or a `DOWN_DIVERGED` verdict
    /// naming the first mismatching rank. Returns the root's contribution
    /// table (root only) and the downward payload.
    ///
    /// # Errors
    ///
    /// [`OmenError::ScheduleDivergence`] when any member's fingerprint
    /// disagrees with the root's — raised identically on every member of
    /// the round; receive failures propagate as
    /// [`OmenError::RecvTimeout`] / [`OmenError::ChannelClosed`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub(crate) fn collective_round(
        &self,
        members: &[usize],
        my_index: usize,
        comm_id: u64,
        op: u64,
        kind: CollectiveKind,
        fp_len: u64,
        up_payload: Vec<u8>,
        down_of: impl FnOnce(&[Vec<u8>]) -> Vec<u8>,
    ) -> OmenResult<(Option<Vec<Vec<u8>>>, Vec<u8>)> {
        debug_assert_eq!(members[my_index], self.rank);
        self.stats.borrow_mut().collectives += 1;
        let tag = COLLECTIVE_TAG_BASE | comm_id;
        let my_fp = Fingerprint::new(kind, comm_id, op, fp_len);

        if my_index == ROOT {
            // Collect every member's fingerprinted contribution before any
            // verdict goes out, so one divergence report covers the round.
            let mut contributions: Vec<Vec<u8>> = vec![Vec::new(); members.len()];
            contributions[ROOT] = up_payload;
            let mut divergence: Option<(usize, Fingerprint)> = None;
            for (i, &peer) in members.iter().enumerate() {
                if i == ROOT {
                    continue;
                }
                let data = self.recv(peer, tag)?;
                let mut d = Dec::new(&data, "collective fingerprint header");
                let fp = Fingerprint::decode(&mut d)?;
                if divergence.is_none() && !my_fp.matches(&fp) {
                    divergence = Some((peer, fp));
                }
                contributions[i] = d.rest().to_vec();
            }
            if let Some((peer, fp)) = divergence {
                let mut verdict = Enc::new();
                verdict.u8(DOWN_DIVERGED);
                verdict.usize(peer);
                my_fp.put(&mut verdict);
                fp.put(&mut verdict);
                let verdict = verdict.finish();
                for (i, &other) in members.iter().enumerate() {
                    if i != ROOT {
                        self.send(other, tag, verdict.clone());
                    }
                }
                // analyze: allow(protocol-early-exit, divergence verdict path: every peer was just sent DOWN_DIVERGED above, so no rank is left blocking — all members surface the same typed ScheduleDivergence)
                return Err(OmenError::ScheduleDivergence {
                    rank: peer,
                    expected: my_fp.describe(),
                    got: fp.describe(),
                });
            }
            let down = down_of(&contributions);
            for (i, &other) in members.iter().enumerate() {
                if i != ROOT {
                    let mut msg = Enc::new();
                    msg.u8(DOWN_OK);
                    msg.raw(&down);
                    self.send(other, tag, msg.finish());
                }
            }
            Ok((Some(contributions), down))
        } else {
            let root = members[ROOT];
            let mut up = Enc::new();
            my_fp.put(&mut up);
            up.raw(&up_payload);
            self.send(root, tag, up.finish());
            let down = self.recv(root, tag)?;
            let mut d = Dec::new(&down, "collective verdict");
            match d.u8()? {
                DOWN_OK => Ok((None, d.rest().to_vec())),
                DOWN_DIVERGED => {
                    let rank = d.usize()?;
                    let expected = Fingerprint::decode(&mut d)?;
                    let got = Fingerprint::decode(&mut d)?;
                    d.finish()?;
                    Err(OmenError::ScheduleDivergence {
                        rank,
                        expected: expected.describe(),
                        got: got.describe(),
                    })
                }
                byte => Err(d.invalid(format_args!("unknown verdict byte {byte}"))),
            }
        }
    }
}

/// Element-wise sum of equal-length little-endian `f64` payloads (the
/// allreduce reduction applied at the root; lengths were already checked by
/// the fingerprint round).
pub(crate) fn sum_contributions(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut acc: Vec<f64> = Vec::new();
    for p in parts {
        let vals = decode_f64s(p);
        if acc.is_empty() {
            acc = vals;
        } else {
            for (a, b) in acc.iter_mut().zip(vals) {
                *a += b;
            }
        }
    }
    encode_f64s(&acc)
}

/// Result of a rank-parallel run.
pub struct RunOutput<R> {
    /// Per-rank closure results, indexed by rank. A rank that panicked or
    /// whose receive timed out yields `Err(OmenError::RankFailed)` here;
    /// the other ranks' results are still delivered.
    pub results: Vec<OmenResult<R>>,
    /// Per-rank communication counters (zeroed for failed ranks).
    pub stats: Vec<CommStats>,
}

impl<R> RunOutput<R> {
    /// Aggregate communication counters over all ranks.
    pub fn total_stats(&self) -> CommStats {
        self.stats
            .iter()
            .fold(CommStats::default(), |a, b| a.merged(b))
    }

    /// The first failed rank, if any.
    pub fn first_error(&self) -> Option<&OmenError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }

    /// Unwraps every rank's result, panicking with the first failure's
    /// message. Convenience for callers (tests, benches) where any rank
    /// failure is a bug in the calling protocol.
    #[allow(clippy::panic)]
    pub fn unwrap_all(self) -> Vec<R> {
        self.results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(e) => panic!("{e}"),
            })
            .collect()
    }
}

impl<R> RunOutput<OmenResult<R>> {
    /// Collapses `Ok(Err(e))` (the closure itself returned an error) into
    /// `Err(e)`, merging closure-level and runtime-level failures into one
    /// per-rank `OmenResult`.
    pub fn flattened(self) -> RunOutput<R> {
        RunOutput {
            results: self
                .results
                .into_iter()
                .map(|r| r.and_then(|inner| inner))
                .collect(),
            stats: self.stats,
        }
    }
}

/// The output slot of a rank whose closure panicked with payload `p`.
fn panicked<R>(rank: usize, p: Box<dyn std::any::Any + Send>) -> (OmenResult<R>, CommStats) {
    let detail = if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    (
        Err(OmenError::RankFailed { rank, detail }),
        CommStats::default(),
    )
}

/// Runs `f` on `n` ranks (threads) and collects per-rank results and comm
/// counters.
///
/// The closure receives this rank's [`RankCtx`]; it must follow SPMD
/// collective ordering (all ranks call collectives in the same sequence —
/// violations surface as typed [`OmenError::ScheduleDivergence`] via the
/// fingerprint protocol rather than as hangs). A panic inside one rank is
/// caught on that rank's thread and reported as
/// `Err(OmenError::RankFailed { rank, .. })` in the output — it does not
/// tear down the process or the surviving ranks. A rank waiting on a dead
/// peer fails via the receive timeout: every blocking primitive of the
/// runtime is a bounded receive, so no rank protocol can hang.
pub fn run_ranks<R, F>(n: usize, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&RankCtx) -> R + Sync,
{
    run_ranks_with_timeout(n, RECV_TIMEOUT, f)
}

/// [`run_ranks`] with an explicit receive-timeout bound. Production callers
/// use [`run_ranks`]; tests exercising dead-peer handling shrink the bound
/// so a deliberate stall fails in milliseconds instead of 30 s.
pub fn run_ranks_with_timeout<R, F>(n: usize, recv_timeout: Duration, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&RankCtx) -> R + Sync,
{
    assert!(n > 0);
    // Ranks × what each rank runs ≤ cores: every rank thread keeps its
    // share of the caller's core budget.
    let share = budget() / n;
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<Msg>()).unzip();
    let (results, stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                let senders = senders.clone();
                let f = &f;
                scope.spawn(move || {
                    let ctx = RankCtx {
                        rank,
                        size: n,
                        senders,
                        receiver,
                        recv_timeout,
                        pending: RefCell::new(HashMap::new()),
                        stats: RefCell::new(CommStats::default()),
                    };
                    match catch_unwind(AssertUnwindSafe(|| with_budget(share, || f(&ctx)))) {
                        Ok(r) => (Ok(r), ctx.stats()),
                        Err(p) => panicked(rank, p),
                    }
                })
            })
            .collect();
        // The closure result is pre-caught above; join itself can only
        // fail on runtime-internal corruption.
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| h.join().unwrap_or_else(|p| panicked(rank, p)))
            .unzip()
    });
    RunOutput { results, stats }
}

/// Encodes an `f64` slice as little-endian bytes.
pub(crate) fn encode_f64s(x: &[f64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(x.len() * 8);
    for &f in x {
        v.extend_from_slice(&f.to_le_bytes());
    }
    v
}

/// Decodes little-endian bytes into `f64`s.
pub(crate) fn decode_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "payload not a multiple of 8 bytes");
    b.chunks_exact(8)
        .map(|c| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(c);
            f64::from_le_bytes(bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;

    #[test]
    fn ring_pass() {
        let n = 6;
        let out = run_ranks(n, |ctx| {
            let w = Comm::world(ctx);
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            w.send(next, 7, encode_f64s(&[ctx.rank() as f64]));
            let got = decode_f64s(&w.recv(prev, 7).unwrap());
            got[0]
        });
        let total = out.total_stats();
        for (rank, v) in out.unwrap_all().into_iter().enumerate() {
            let prev = (rank + n - 1) % n;
            assert_eq!(v, prev as f64);
        }
        assert_eq!(total.messages_sent, n as u64);
        assert_eq!(total.bytes_sent, 8 * n as u64);
    }

    #[test]
    fn allreduce_matches_serial_sum() {
        let n = 5;
        let out = run_ranks(n, |ctx| {
            let mine = vec![ctx.rank() as f64, 1.0, -(ctx.rank() as f64) * 0.5];
            Comm::world(ctx).allreduce_sum(&mine).unwrap()
        });
        let expect = [10.0, 5.0, -5.0];
        for r in out.unwrap_all() {
            for (a, b) in r.iter().zip(expect) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let out = run_ranks(2, |ctx| {
            let w = Comm::world(ctx);
            if ctx.rank() == 0 {
                // Send tag 2 first, then tag 1.
                w.send(1, 2, vec![2]);
                w.send(1, 1, vec![1]);
                0
            } else {
                // Receive in the opposite order.
                let a = w.recv(0, 1).unwrap();
                let b = w.recv(0, 2).unwrap();
                assert_eq!((a, b), (vec![1], vec![2]));
                assert_eq!(ctx.pending_messages(), 0, "buffer drained after both recvs");
                1
            }
        });
        assert_eq!(out.unwrap_all(), vec![0, 1]);
    }

    #[test]
    fn try_recv_any_matches_any_source_and_times_out() {
        let out = run_ranks(3, |ctx| {
            let w = Comm::world(ctx);
            if ctx.rank() == 0 {
                // Collect one tagged message from each peer, source unknown
                // a priori; then confirm the poll window expires cleanly.
                let mut froms = Vec::new();
                for _ in 0..2 {
                    let (from, data) = w
                        .try_recv_any(5, Duration::from_secs(5))
                        .unwrap()
                        .expect("peers send promptly");
                    assert_eq!(data, vec![from as u8]);
                    froms.push(from);
                }
                froms.sort_unstable();
                assert_eq!(froms, vec![1, 2]);
                assert!(w
                    .try_recv_any(5, Duration::from_millis(10))
                    .unwrap()
                    .is_none());
                1
            } else {
                w.send(0, 5, vec![ctx.rank() as u8]);
                0
            }
        });
        assert_eq!(out.unwrap_all().iter().sum::<i32>(), 1);
    }

    #[test]
    fn try_recv_any_drains_buffer_lowest_source_first() {
        let out = run_ranks(3, |ctx| {
            let w = Comm::world(ctx);
            if ctx.rank() == 0 {
                // Park both messages in the out-of-order buffer via a recv
                // on an unrelated tag, then drain with any-source.
                w.recv(1, 9).unwrap();
                assert_eq!(ctx.pending_messages(), 2);
                let (a, _) = w.try_recv_any(5, Duration::from_secs(1)).unwrap().unwrap();
                let (b, _) = w.try_recv_any(5, Duration::from_secs(1)).unwrap().unwrap();
                assert_eq!((a, b), (1, 2), "lowest source drains first");
                1
            } else if ctx.rank() == 2 {
                // Send first, then release rank 1 — the causal chain makes
                // the arrival order at rank 0 deterministic.
                w.send(0, 5, vec![2]);
                w.send(1, 8, vec![]);
                0
            } else {
                w.recv(2, 8).unwrap();
                w.send(0, 5, vec![1]);
                // The unrelated unblocking message, last in rank 0's queue.
                w.send(0, 9, vec![0]);
                0
            }
        });
        assert_eq!(out.unwrap_all().iter().sum::<i32>(), 1);
    }

    #[test]
    fn single_rank_degenerate() {
        let out = run_ranks(1, |ctx| {
            assert_eq!(ctx.size(), 1);
            let w = Comm::world(ctx);
            let r = w.allreduce_sum(&[3.0]).unwrap();
            assert_eq!(r, vec![3.0]);
            let g = w.allgather(vec![9]).unwrap();
            assert_eq!(g, vec![vec![9]]);
            7u8
        });
        assert_eq!(out.unwrap_all(), vec![7]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let x = vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&x)), x);
    }

    #[test]
    fn fingerprint_wire_roundtrip() {
        let fp = Fingerprint::new(CollectiveKind::Allgather, 0x7FFF_0001, 42, LEN_UNCHECKED);
        let mut enc = Enc::new();
        fp.put(&mut enc);
        let enc = enc.finish();
        assert_eq!(enc.len(), 25);
        assert_eq!(
            Fingerprint::decode(&mut Dec::new(&enc, "fingerprint")),
            Ok(fp)
        );
        assert!(fp.describe().contains("allgather#42"));
        assert!(fp.describe().contains("len=?"));
        let a = Fingerprint::new(CollectiveKind::AllreduceSum, 1, 2, 16);
        let b = Fingerprint::new(CollectiveKind::AllreduceSum, 1, 2, 24);
        assert!(!a.matches(&b), "allreduce length mismatch must not match");
        let w = Fingerprint::new(CollectiveKind::AllreduceSum, 1, 2, LEN_UNCHECKED);
        assert!(a.matches(&w) && w.matches(&b), "wildcard length matches");
        assert!(Fingerprint::decode(&mut Dec::new(&enc[..10], "fingerprint")).is_err());
    }

    #[test]
    fn rank_panic_is_captured_not_fatal() {
        let out = run_ranks(3, |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate failure on rank 1");
            }
            ctx.rank() * 10
        });
        assert!(out.results[0].is_ok());
        assert!(out.results[2].is_ok());
        match &out.results[1] {
            Err(OmenError::RankFailed { rank, detail }) => {
                assert_eq!(*rank, 1);
                assert!(detail.contains("deliberate failure"));
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
        assert!(out.first_error().is_some());
    }

    #[test]
    fn closure_level_errors_flatten() {
        let out = run_ranks(2, |ctx| -> OmenResult<usize> {
            if ctx.rank() == 0 {
                Err(OmenError::LeadNotConverged {
                    energy: 0.25,
                    iters: 200,
                })
            } else {
                Ok(99)
            }
        })
        .flattened();
        assert_eq!(
            out.results[0],
            Err(OmenError::LeadNotConverged {
                energy: 0.25,
                iters: 200
            })
        );
        assert_eq!(out.results[1], Ok(99));
    }

    #[test]
    fn skipped_allgather_is_schedule_divergence_on_every_rank() {
        // Rank 1 skips the second allgather and goes straight to the
        // allreduce.
        // The fingerprint protocol must convert this into the *same* typed
        // ScheduleDivergence on every rank within one collective round —
        // no 30 s timeout, no panic. The generous default timeout proves
        // detection does not rely on it.
        let t0 = std::time::Instant::now();
        let out = run_ranks(3, |ctx| -> OmenResult<()> {
            let w = Comm::world(ctx);
            w.allgather(vec![ctx.rank() as u8])?;
            if ctx.rank() != 1 {
                // analyze: allow(spmd-divergence, deliberately divergent schedule under test)
                w.allgather(vec![7])?;
            }
            w.allreduce_sum(&[1.0])?;
            Ok(())
        })
        .flattened();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "divergence must be detected without waiting out the recv timeout"
        );
        for (rank, r) in out.results.iter().enumerate() {
            match r {
                Err(OmenError::ScheduleDivergence {
                    rank: divergent,
                    expected,
                    got,
                }) => {
                    assert_eq!(*divergent, 1, "rank {rank} must name the divergent rank");
                    assert!(expected.contains("allgather#2"), "expected fp: {expected}");
                    assert!(got.contains("allreduce_sum#2"), "got fp: {got}");
                }
                other => panic!("rank {rank}: expected ScheduleDivergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn allreduce_length_mismatch_is_divergence() {
        let out = run_ranks(2, |ctx| -> OmenResult<()> {
            let mine: Vec<f64> = vec![1.0; 2 + ctx.rank()];
            Comm::world(ctx).allreduce_sum(&mine)?;
            Ok(())
        })
        .flattened();
        for r in &out.results {
            match r {
                Err(OmenError::ScheduleDivergence { rank, .. }) => assert_eq!(*rank, 1),
                other => panic!("expected ScheduleDivergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn dead_peer_recv_is_typed_timeout_with_pending_state() {
        let out = run_ranks_with_timeout(2, Duration::from_millis(100), |ctx| {
            let w = Comm::world(ctx);
            if ctx.rank() == 0 {
                // Rank 1 exits without ever sending; also park an unrelated
                // message in the buffer to check the pending count.
                w.send(0, 3, vec![1, 2, 3]);
                w.recv(1, 9).map(|_| ())
            } else {
                Ok(())
            }
        })
        .flattened();
        assert!(out.results[1].is_ok());
        match &out.results[0] {
            Err(OmenError::RecvTimeout {
                rank,
                from,
                tag,
                waited_ms,
                pending,
            }) => {
                // The error carries the communicator's wire tag.
                assert_eq!((*rank, *from, *tag & 0xFF_FFFF), (0, 1, 9));
                assert_eq!(*waited_ms, 100);
                assert_eq!(*pending, 1, "the self-sent message must be reported");
            }
            other => panic!("expected RecvTimeout, got {other:?}"),
        }
    }
}

//! The pull-based coordinator/worker engine and its deterministic merge.
//!
//! One communicator member (local rank 0) acts as the coordinator: it owns
//! the work queue, hands out chunks to workers that *pull* (send a
//! [`crate::proto::WorkerMsg::Request`]), folds measured solve times back
//! into the [`CostModel`], re-issues failed or straggling units a bounded
//! number of times, and finally distributes one merged [`SweepOutcome`] to
//! every worker. All other members are workers running the caller's solve
//! closure.
//!
//! No rank waits while a unit is queued. The coordinator alternates
//! *drain the mailbox* (zero timeout) with *solve one unit*, popping the
//! *cheapest* queued unit — the solving coordinator recovers 1/N of the
//! machine that a broker-only rank would waste, and picking from the cheap
//! end of the LPT queue keeps the stretches during which worker messages
//! wait unserved short. It blocks for traffic only with nothing to solve,
//! and the first message ends the wait. Workers *request ahead*: the
//! request for the next chunk leaves before the last unit of the current
//! chunk starts, so the answer crosses that solve instead of following it.
//! A request the queue cannot serve is *parked* at the coordinator and
//! answered the moment a unit is re-queued or the sweep resolves; the
//! worker meanwhile blocks in its receive. `poll_ms` paces housekeeping
//! only (the liveness and straggler scan, which always follows a full
//! drain so that a message waiting in the mailbox never reads as silence).
//!
//! # Determinism
//!
//! The solve closure is pure in its unit id — a unit's payload is the same
//! bytes no matter which worker computes it or how often it is duplicated —
//! and the coordinator merges payloads into a dense vector indexed by
//! canonical unit id, first result wins. The merged values are therefore
//! *bit-identical* across runs, worker counts, and injected delays; only
//! [`SchedStats`] (timings, re-issue counters) is timing-dependent.
//!
//! # Fault model
//!
//! A unit that fails with a typed solver error is re-queued up to
//! `max_reissue` times, then recorded in the outcome's
//! [`SweepReport::failed`] — the sweep continues. A worker silent past
//! `dead_after_ms` is declared dead: everything it holds — the unit it was
//! solving, the rest of its chunk and the chunk prefetched behind it — is
//! re-issued (or failed once re-issue is exhausted) and its parked request
//! is dropped. A worker whose request is parked and which holds nothing is
//! silent by protocol, not by fault: at half of `dead_after_ms` the
//! coordinator voids the request with an empty assignment and the worker
//! proves itself with a fresh one. The terminal broadcast is point-to-point
//! per worker rather than a collective precisely so a dead member cannot
//! wedge the fan-out. `dead_after_ms` must comfortably exceed the slowest
//! single unit, or a merely-slow worker is mistaken for a dead one and
//! later fails itself on a receive timeout.

use crate::cost::CostModel;
use crate::proto::{
    decode_coord, decode_worker, encode_coord, encode_worker, put_failures, take_failures,
    CoordMsg, WorkerMsg, TAG_CTRL, TAG_WORK,
};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult, SweepReport};
use omen_parsim::Comm;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tuning knobs of the dynamic scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedOptions {
    /// Upper bound on units per hand-out. Actual chunks shrink guided-style
    /// as the queue drains: `min(chunk_max, max(1, remaining / (2·C)))`
    /// over the `C` members that pop from the queue (live workers, plus
    /// the coordinator when it solves).
    pub chunk_max: usize,
    /// How many times one unit may be re-issued (failure or straggle)
    /// before it is abandoned into [`SweepReport::failed`].
    pub max_reissue: usize,
    /// Cadence of the coordinator's liveness and straggler scan, and the
    /// pause before a worker repeats a request answered with an empty
    /// assignment, in milliseconds. Nothing on the fault-free path waits
    /// for it.
    pub poll_ms: u64,
    /// A unit is a straggler once in flight longer than
    /// `straggler_min_ms + straggler_factor × predicted seconds`.
    pub straggler_factor: f64,
    /// Floor of the straggler bound, in milliseconds.
    pub straggler_min_ms: u64,
    /// A worker silent this long is declared dead. Must exceed the
    /// slowest single unit's solve time.
    pub dead_after_ms: u64,
    /// Whether the coordinator solves queued units itself between mailbox
    /// drains (cheapest-first, so worker messages never wait long).
    /// On by default; turned off only by tests that pin exact scheduling
    /// behavior.
    pub coordinator_solves: bool,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            chunk_max: 4,
            max_reissue: 2,
            poll_ms: 5,
            straggler_factor: 8.0,
            straggler_min_ms: 500,
            dead_after_ms: 30_000,
            coordinator_solves: true,
        }
    }
}

/// Load-balance and fault counters of one dynamically scheduled sweep.
/// Everything here is timing-dependent diagnostics — the sweep's *values*
/// and [`SweepReport`] stay bit-identical regardless of these numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// Units in the sweep.
    pub units: usize,
    /// Non-empty chunks handed out.
    pub chunks: usize,
    /// Re-issues triggered by typed unit failures or dead workers.
    pub reissued_failed: usize,
    /// Re-issues triggered by straggler detection.
    pub reissued_straggler: usize,
    /// Results that arrived for already-resolved units (straggler copies
    /// that lost the race; still folded into the cost ledger).
    pub duplicate_results: usize,
    /// Workers declared dead during the sweep.
    pub workers_dead: usize,
    /// Messages dropped (or refused) because they carried a superseded
    /// sweep epoch — late traffic from a previous sweep on the same
    /// communicator.
    pub stale_msgs: usize,
    /// Units the coordinator solved itself between brokering rounds.
    pub coordinator_units: usize,
    /// Busy seconds per communicator member (index = local rank; entry 0
    /// is the coordinator's own solve time, 0.0 when it only brokered).
    pub worker_busy_s: Vec<f64>,
}

impl SchedStats {
    /// Load-imbalance ratio (max/mean busy seconds) over the solving
    /// members. A coordinator that only brokered (entry 0 exactly 0.0) is
    /// excluded; a solving coordinator counts like any other member. 1.0
    /// is a perfect balance; also 1.0 for degenerate inputs.
    pub fn imbalance(&self) -> f64 {
        let busy: &[f64] = if self.worker_busy_s.len() > 1 && self.worker_busy_s[0] == 0.0 {
            &self.worker_busy_s[1..]
        } else {
            &self.worker_busy_s
        };
        imbalance_ratio(busy)
    }

    /// Folds another sweep's counters into this one (k-point / bias
    /// aggregation): counts add, busy seconds add element-wise (shorter
    /// vectors zero-extend).
    pub fn absorb(&mut self, o: &SchedStats) {
        self.units += o.units;
        self.chunks += o.chunks;
        self.reissued_failed += o.reissued_failed;
        self.reissued_straggler += o.reissued_straggler;
        self.duplicate_results += o.duplicate_results;
        self.workers_dead += o.workers_dead;
        self.stale_msgs += o.stale_msgs;
        self.coordinator_units += o.coordinator_units;
        if self.worker_busy_s.len() < o.worker_busy_s.len() {
            self.worker_busy_s.resize(o.worker_busy_s.len(), 0.0);
        }
        for (a, b) in self.worker_busy_s.iter_mut().zip(&o.worker_busy_s) {
            *a += b;
        }
    }
}

/// Max/mean ratio of a busy-time distribution; 1.0 when empty or idle.
pub fn imbalance_ratio(busy: &[f64]) -> f64 {
    if busy.is_empty() {
        return 1.0;
    }
    let sum: f64 = busy.iter().sum();
    let mean = sum / busy.len() as f64;
    if !mean.is_finite() || mean <= 0.0 {
        return 1.0;
    }
    let max = busy.iter().fold(0.0_f64, |m, &b| m.max(b));
    max / mean
}

/// The merged result of a sweep, identical on every communicator member.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-unit payloads in canonical unit order; `None` for abandoned
    /// units (their typed errors live in `report.failed`).
    pub values: Vec<Option<Vec<f64>>>,
    /// Per-sweep fault ledger, failures in canonical unit order.
    pub report: SweepReport,
    /// Scheduling diagnostics (timing-dependent, see [`SchedStats`]).
    pub stats: SchedStats,
}

/// The single-member arm of [`dynamic_sweep`]: runs the sweep on the
/// calling thread in cost-descending order, feeding measured times back
/// into `model`. Same canonical merge and per-unit fault isolation as the
/// brokered arms, no re-issue (a deterministic solve that failed once
/// would fail again).
fn local_sweep(
    energies: &[f64],
    model: &mut CostModel,
    mut solve: impl FnMut(usize) -> OmenResult<Vec<f64>>,
) -> SweepOutcome {
    let n = energies.len();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut errors: Vec<Option<OmenError>> = vec![None; n];
    let mut busy_s = 0.0;
    for id in model.descending_order(0..n) {
        let t0 = Instant::now();
        let out = solve(id);
        let secs = t0.elapsed().as_secs_f64();
        busy_s += secs;
        match out {
            Ok(v) => {
                // Instant-derived seconds are always finite and
                // non-negative, so the ledger cannot reject them; if it
                // ever did, dropping the observation only costs prediction
                // quality, never correctness.
                let _ = model.observe(id, secs);
                values[id] = Some(v);
            }
            Err(e) => errors[id] = Some(e),
        }
    }
    let mut report = SweepReport::default();
    for (id, slot) in errors.into_iter().enumerate() {
        match slot {
            Some(e) => report.record_failed(energies[id], e),
            None => report.record_solved(0),
        }
    }
    SweepOutcome {
        values,
        report,
        stats: SchedStats {
            units: n,
            worker_busy_s: vec![busy_s],
            ..SchedStats::default()
        },
    }
}

/// Runs a dynamically scheduled sweep over `energies.len()` units on
/// `comm`. Local rank 0 coordinates; every other member runs `solve`
/// (pure: unit id → payload). Every member returns the same
/// [`SweepOutcome`]. With a single-member communicator the sweep runs
/// locally on the caller. `energies[id]` stamps failed units in the
/// report; `model` must cover exactly as many units.
///
/// # Errors
///
/// Communicator faults only — [`OmenError::RecvTimeout`] /
/// [`OmenError::ChannelClosed`] when the coordinator (from a worker's view)
/// or the runtime died, [`OmenError::Deserialize`] on a corrupt or
/// misrouted scheduler message, [`OmenError::ShapeMismatch`] when `model`
/// and `energies` disagree on the unit count. Per-unit *solver* failures
/// never surface here; they land in the outcome's [`SweepReport::failed`].
pub fn dynamic_sweep(
    comm: &Comm<'_>,
    energies: &[f64],
    model: &mut CostModel,
    opts: &SchedOptions,
    solve: impl FnMut(usize) -> OmenResult<Vec<f64>>,
) -> OmenResult<SweepOutcome> {
    // Every member advances the communicator's epoch in lockstep; messages
    // carry it so a late copy from a previous sweep on this communicator
    // can never be merged into (or wedge) the current one.
    let epoch = comm.next_epoch();
    if model.len() != energies.len() {
        return Err(OmenError::ShapeMismatch {
            context: "dynamic_sweep cost model vs energy grid",
            expected: (energies.len(), 1),
            got: (model.len(), 1),
        });
    }
    if comm.size() == 1 {
        return Ok(local_sweep(energies, model, solve));
    }
    if comm.rank() == 0 {
        coordinate(comm, epoch, energies, model, opts, solve)
    } else {
        work(comm, epoch, opts, solve)
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One copy of a unit held by a worker — in progress, or handed out and
/// waiting behind the units ahead of it. Tracking copies individually —
/// instead of a single `inflight` count plus one `assigned_to` rank — is
/// what makes dead-worker reclamation exact: a worker's death removes
/// *its* copies only, and a unit is re-issued only when no live copy
/// remains, so a late heartbeat can never re-attribute a straggler copy to
/// the wrong holder and double-count the re-issue.
#[derive(Debug, Clone)]
struct HeldCopy {
    /// Local rank of the worker holding this copy (never the coordinator:
    /// its own solves are synchronous and need no bookkeeping).
    holder: usize,
    /// Hand-out time, refreshed when the holder's heartbeat lands.
    started: Instant,
}

/// Lifecycle of one unit at the coordinator.
#[derive(Debug, Clone)]
struct UnitState {
    /// Final value or failure recorded; all later copies are duplicates.
    resolved: bool,
    /// Sitting in the queue awaiting (re-)hand-out.
    queued: bool,
    /// Copies held by workers, one entry per holder.
    copies: Vec<HeldCopy>,
    /// Re-issues spent (failures, stragglers, dead workers combined).
    reissues: usize,
    /// Local rank of the most recent holder (stamps dead-worker errors).
    last_holder: usize,
}

struct WorkerState {
    last_seen: Instant,
    busy_s: f64,
    dead: bool,
    finned: bool,
    /// This worker's `Request` could not be served and waits here; the
    /// worker blocks in its receive until a unit is re-queued or the sweep
    /// resolves.
    parked: bool,
}

/// One sweep in progress, as the coordinator sees it.
struct Coordinator<'a, 'c> {
    comm: &'a Comm<'c>,
    epoch: u64,
    opts: &'a SchedOptions,
    model: &'a mut CostModel,
    /// LPT order: workers pop the expensive front, the coordinator the
    /// cheap back. May hold entries of units resolved or re-popped since.
    queue: VecDeque<usize>,
    state: Vec<UnitState>,
    values: Vec<Option<Vec<f64>>>,
    last_err: Vec<Option<OmenError>>,
    /// Index = local rank − 1.
    workers: Vec<WorkerState>,
    stats: SchedStats,
    unresolved: usize,
}

fn coordinate(
    comm: &Comm<'_>,
    epoch: u64,
    energies: &[f64],
    model: &mut CostModel,
    opts: &SchedOptions,
    mut solve: impl FnMut(usize) -> OmenResult<Vec<f64>>,
) -> OmenResult<SweepOutcome> {
    let poll = Duration::from_millis(opts.poll_ms.max(1));
    let mut c = Coordinator::new(comm, epoch, energies.len(), model, opts);
    let mut last_scan = Instant::now();
    while c.unresolved > 0 {
        // Serve everything already in the mailbox, without waiting.
        while let Some((from, data)) = comm.try_recv_any(TAG_CTRL, Duration::ZERO)? {
            let msg = c.check_message(from, &data)?;
            c.on_message(from, msg);
        }
        // Only after a full drain is a worker's silence really silence.
        if last_scan.elapsed() >= poll {
            c.scan_liveness();
            last_scan = Instant::now();
        }
        c.serve_parked();
        if c.unresolved == 0 {
            break;
        }
        // Solve the cheapest queued unit; wait for traffic only with
        // nothing to solve (the first message ends the wait).
        if let Some(unit) = c.pop_cheapest() {
            let t0 = Instant::now();
            let outcome = solve(unit);
            let elapsed_s = t0.elapsed().as_secs_f64();
            c.stats.coordinator_units += 1;
            c.stats.worker_busy_s[0] += elapsed_s;
            c.fold_outcome(unit, elapsed_s, outcome);
        } else if let Some((from, data)) = comm.try_recv_any(TAG_CTRL, poll)? {
            let msg = c.check_message(from, &data)?;
            c.on_message(from, msg);
        }
    }
    c.terminate(energies, poll)
}

impl<'a, 'c> Coordinator<'a, 'c> {
    fn new(
        comm: &'a Comm<'c>,
        epoch: u64,
        n: usize,
        model: &'a mut CostModel,
        opts: &'a SchedOptions,
    ) -> Self {
        let now = Instant::now();
        Coordinator {
            comm,
            epoch,
            opts,
            queue: model.descending_order(0..n).into_iter().collect(),
            model,
            state: (0..n)
                .map(|_| UnitState {
                    resolved: false,
                    queued: true,
                    copies: Vec::new(),
                    reissues: 0,
                    last_holder: 0,
                })
                .collect(),
            values: (0..n).map(|_| None).collect(),
            last_err: vec![None; n],
            workers: (1..comm.size())
                .map(|_| WorkerState {
                    last_seen: now,
                    busy_s: 0.0,
                    dead: false,
                    finned: false,
                    parked: false,
                })
                .collect(),
            stats: SchedStats {
                units: n,
                worker_busy_s: vec![0.0; comm.size()],
                ..SchedStats::default()
            },
            unresolved: n,
        }
    }

    /// Decodes and validates an arriving message, before anything is sent
    /// on its behalf: a corrupt or misrouted one fails the sweep typed and
    /// is never merged.
    fn check_message(&self, from: usize, data: &[u8]) -> OmenResult<WorkerMsg> {
        if from == 0 {
            return Err(OmenError::Deserialize {
                context: "sched control message from the coordinator itself",
            });
        }
        let msg = decode_worker(data)?;
        match msg {
            WorkerMsg::Result { epoch, unit, .. }
                if epoch == self.epoch && unit >= self.state.len() =>
            {
                Err(OmenError::Deserialize {
                    context: "sched result for out-of-range unit",
                })
            }
            _ => Ok(msg),
        }
    }

    /// What both phases do first with a checked message: stamp the
    /// sender's liveness clock and apply the epoch gate. `None` when the
    /// gate consumed the message.
    fn accept(&mut self, from: usize, msg: WorkerMsg) -> Option<WorkerMsg> {
        self.workers[from - 1].last_seen = Instant::now();
        (!self.filter_epoch(from, &msg)).then_some(msg)
    }

    /// Epoch gate on an incoming worker message. A message from the
    /// *current* sweep passes (returns false). A request from a superseded
    /// sweep is refused with [`CoordMsg::Stale`] — that worker was declared
    /// dead, its sweep finished without it, and it must abandon rather than
    /// wait forever. A request from a *future* sweep (the worker already
    /// received FIN and re-entered while this coordinator still drains its
    /// termination phase) gets an empty assignment so it retries shortly.
    /// Stale results and heartbeats are simply dropped. Returns true when
    /// consumed here.
    fn filter_epoch(&mut self, from: usize, msg: &WorkerMsg) -> bool {
        let e = match msg {
            WorkerMsg::Request { epoch }
            | WorkerMsg::Heartbeat { epoch, .. }
            | WorkerMsg::Result { epoch, .. } => *epoch,
        };
        if e == self.epoch {
            return false;
        }
        let is_request = matches!(msg, WorkerMsg::Request { .. });
        if e < self.epoch {
            self.stats.stale_msgs += 1;
            if is_request {
                self.tell(from, &CoordMsg::Stale { epoch: e });
            }
        } else if is_request {
            self.void_request(from, e);
        }
        true
    }

    /// The coordinator's one way to talk to a worker.
    fn tell(&self, to: usize, msg: &CoordMsg) {
        self.comm.send(to, TAG_WORK, encode_coord(msg));
    }

    /// The empty assignment: "that request is void, send another after a
    /// pause".
    fn void_request(&self, to: usize, epoch: u64) {
        let units = Vec::new();
        self.tell(to, &CoordMsg::Assign { epoch, units });
    }

    /// Main-phase message service.
    fn on_message(&mut self, from: usize, msg: WorkerMsg) {
        match self.accept(from, msg) {
            None => {}
            Some(WorkerMsg::Request { .. }) => self.assign_or_park(from),
            Some(WorkerMsg::Heartbeat { unit, .. }) => {
                // Only the heartbeat of a rank actually holding a copy
                // refreshes the straggler clock: a late or spurious
                // heartbeat from a non-holder must not re-attribute the
                // copy (see [`HeldCopy`]).
                if let Some(st) = self.state.get_mut(unit).filter(|st| !st.resolved) {
                    if let Some(c) = st.copies.iter_mut().find(|c| c.holder == from) {
                        c.started = Instant::now();
                        st.last_holder = from;
                    }
                }
            }
            Some(WorkerMsg::Result {
                unit,
                elapsed_s,
                outcome,
                ..
            }) => {
                self.state[unit].copies.retain(|c| c.holder != from);
                // `elapsed_s` arrived off the wire and can be corrupt:
                // keep non-finite/negative timings out of the busy ledger
                // (they would poison the imbalance stats) and let the cost
                // model's typed rejection drop them from the EWMA. The
                // unit's *result* is still valid either way.
                if elapsed_s.is_finite() && elapsed_s >= 0.0 {
                    self.workers[from - 1].busy_s += elapsed_s;
                }
                self.fold_outcome(unit, elapsed_s, outcome);
            }
        }
    }

    /// Answers `to`'s request with the next chunk, or parks it when the
    /// queue holds nothing live.
    fn assign_or_park(&mut self, to: usize) {
        let units = self.pop_chunk(to);
        self.workers[to - 1].parked = units.is_empty();
        if !units.is_empty() {
            self.stats.chunks += 1;
            let epoch = self.epoch;
            self.tell(to, &CoordMsg::Assign { epoch, units });
        }
    }

    /// Answers parked requests as soon as something was (re-)queued.
    fn serve_parked(&mut self) {
        for to in 1..=self.workers.len() {
            if self.queue.is_empty() {
                return;
            }
            if self.workers[to - 1].parked {
                self.assign_or_park(to);
            }
        }
    }

    fn is_live(&self, unit: usize) -> bool {
        self.state[unit].queued && !self.state[unit].resolved
    }

    /// Pops the next guided-size chunk for `to` off the expensive end:
    /// skips stale queue entries, marks popped units held.
    fn pop_chunk(&mut self, to: usize) -> Vec<usize> {
        // Everyone who pops from this queue at full rate.
        let consumers = self.workers.iter().filter(|w| !w.dead).count()
            + usize::from(self.opts.coordinator_solves);
        let mut live_queued = self.queue.iter().filter(|&&u| self.is_live(u)).count();
        // Near the end — fewer units than consumers — nothing is handed
        // out ahead: a requester still busy would sit on a unit that a
        // rank running dry could start now.
        if live_queued < consumers && self.holds_copy(to) {
            live_queued = 0;
        }
        let want = self
            .opts
            .chunk_max
            .min(live_queued.div_ceil(2 * consumers.max(1)))
            .max(usize::from(live_queued > 0));
        let mut chunk = Vec::with_capacity(want);
        while chunk.len() < want {
            let Some(u) = self.queue.pop_front() else {
                break;
            };
            if !self.is_live(u) {
                continue; // resolved by a straggler copy, or already re-popped
            }
            let st = &mut self.state[u];
            st.queued = false;
            st.copies.push(HeldCopy {
                holder: to,
                started: Instant::now(),
            });
            st.last_holder = to;
            chunk.push(u);
        }
        chunk
    }

    /// Pops the cheapest live unit off the back of the LPT queue for the
    /// coordinator itself — short units keep the stretches during which
    /// worker messages wait unserved short.
    fn pop_cheapest(&mut self) -> Option<usize> {
        if !self.opts.coordinator_solves {
            return None;
        }
        while let Some(u) = self.queue.pop_back() {
            if self.is_live(u) {
                self.state[u].queued = false;
                self.state[u].last_holder = 0;
                return Some(u);
            }
        }
        None
    }

    /// Folds one copy's outcome into the merge: first result wins, typed
    /// failures are re-queued up to `max_reissue` times, and a unit is
    /// abandoned only when no copy remains held or queued. Shared by the
    /// wire path (worker results) and the solving coordinator's local path
    /// so both honor the exact same lifecycle.
    fn fold_outcome(&mut self, unit: usize, elapsed_s: f64, outcome: Result<Vec<f64>, OmenError>) {
        let st = &mut self.state[unit];
        // A wire-decoded timing may be corrupt; the ledger's typed
        // rejection drops it, which costs prediction quality only.
        if st.resolved {
            self.stats.duplicate_results += 1;
            let _ = self.model.observe(unit, elapsed_s);
            return;
        }
        match outcome {
            Ok(v) => {
                let _ = self.model.observe(unit, elapsed_s);
                self.values[unit] = Some(v);
                st.resolved = true;
                st.queued = false;
                self.unresolved -= 1;
            }
            Err(e) => {
                self.last_err[unit] = Some(e);
                if st.reissues < self.opts.max_reissue {
                    st.reissues += 1;
                    st.queued = true;
                    self.queue.push_front(unit);
                    self.stats.reissued_failed += 1;
                } else if st.copies.is_empty() && !st.queued {
                    st.resolved = true;
                    self.unresolved -= 1;
                }
                // else: a straggler copy is still held or queued; it
                // decides.
            }
        }
    }

    fn holds_copy(&self, local: usize) -> bool {
        self.state
            .iter()
            .any(|st| st.copies.iter().any(|c| c.holder == local))
    }

    /// Housekeeping on the `poll_ms` cadence, always right after a full
    /// mailbox drain: declare silent workers dead (re-issuing what they
    /// held), re-issue stragglers, and fail everything left if nobody
    /// remains to solve it.
    fn scan_liveness(&mut self) {
        let now = Instant::now();
        let dead_after = Duration::from_millis(self.opts.dead_after_ms.max(1));
        for i in 0..self.workers.len() {
            let local = i + 1;
            let w = &self.workers[i];
            if w.dead {
                continue;
            }
            let silent = now.duration_since(w.last_seen);
            if w.parked && silent > dead_after / 2 && !self.holds_copy(local) {
                // Silent by protocol, not by fault: it waits on a parked
                // request with nothing to solve. Void the request so the
                // worker proves itself with a fresh one, and its blocking
                // receive never nears the runtime's receive bound.
                self.void_request(local, self.epoch);
                let w = &mut self.workers[i];
                w.parked = false;
                w.last_seen = now;
                continue;
            }
            if silent <= dead_after {
                continue;
            }
            let w = &mut self.workers[i];
            w.dead = true;
            w.parked = false;
            self.stats.workers_dead += 1;
            for (u, st) in self.state.iter_mut().enumerate() {
                if st.resolved {
                    continue;
                }
                // Reclaim exactly the dead worker's copies — the unit it
                // was solving and every unit prefetched behind it.
                // Re-issue only when that leaves the unit with no live
                // copy and no queue entry — a straggler copy on a live
                // rank already covers it, and counting a second re-issue
                // for a covered unit is the double-count race this
                // structure exists to prevent.
                let before = st.copies.len();
                st.copies.retain(|c| c.holder != local);
                if st.copies.len() == before || st.queued || !st.copies.is_empty() {
                    continue;
                }
                if st.reissues < self.opts.max_reissue {
                    st.reissues += 1;
                    st.queued = true;
                    self.queue.push_back(u);
                    self.stats.reissued_failed += 1;
                } else {
                    st.resolved = true;
                    self.unresolved -= 1;
                    if self.last_err[u].is_none() {
                        self.last_err[u] = Some(OmenError::RankFailed {
                            rank: self.comm.global_rank(local),
                            detail: format!(
                                "worker silent past {} ms with unit in flight",
                                self.opts.dead_after_ms
                            ),
                        });
                    }
                }
            }
        }

        // Stragglers: a unit held far past its predicted time is
        // speculatively re-queued; whichever copy lands first wins. A
        // copy's clock starts at hand-out or at the last word from its
        // holder, whichever is later — a prefetched copy waiting behind
        // the holder's current unit is *held*, not late, for as long as
        // the holder keeps reporting — and the unit's clock is its
        // *youngest* copy: only when every holder has gone quiet past the
        // bound is another copy worth paying for.
        let workers = &self.workers;
        for (u, st) in self.state.iter_mut().enumerate() {
            if st.resolved || st.queued || st.reissues >= self.opts.max_reissue {
                continue;
            }
            let youngest = st
                .copies
                .iter()
                .map(|c| c.started.max(workers[c.holder - 1].last_seen))
                .max();
            let (Some(started), Some(pred)) = (youngest, self.model.predict_secs(u)) else {
                continue;
            };
            let bound = Duration::from_millis(self.opts.straggler_min_ms).as_secs_f64()
                + self.opts.straggler_factor * pred;
            if now.duration_since(started).as_secs_f64() > bound {
                st.reissues += 1;
                st.queued = true;
                self.queue.push_back(u);
                self.stats.reissued_straggler += 1;
            }
        }

        // A solving coordinator finishes the sweep alone; a brokering one
        // without workers cannot.
        if !self.opts.coordinator_solves && self.workers.iter().all(|w| w.dead) {
            for (u, st) in self.state.iter_mut().enumerate() {
                if st.resolved {
                    continue;
                }
                st.resolved = true;
                if self.last_err[u].is_none() {
                    self.last_err[u] = Some(OmenError::RankFailed {
                        rank: self.comm.global_rank(0),
                        detail: "every scheduler worker died before this unit resolved".to_string(),
                    });
                }
            }
            self.unresolved = 0;
        }
    }

    /// Builds the canonical merge and hands it to every worker.
    fn terminate(mut self, energies: &[f64], poll: Duration) -> OmenResult<SweepOutcome> {
        let comm = self.comm;
        let values = std::mem::take(&mut self.values);
        // The fault ledger, in unit order.
        let mut report = SweepReport::default();
        for (id, v) in values.iter().enumerate() {
            if v.is_some() {
                report.record_solved(self.state[id].reissues);
            } else {
                let err = self.last_err[id].take().unwrap_or(OmenError::RankFailed {
                    rank: comm.global_rank(self.state[id].last_holder),
                    detail: "unit lost to a dead worker with re-issue exhausted".to_string(),
                });
                report.record_failed(energies[id], err);
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            self.stats.worker_busy_s[i + 1] = w.busy_s;
        }
        // Every member must return this exact outcome, so stale traffic
        // past this point is counted in `self.stats` only.
        let outcome = SweepOutcome {
            values,
            report,
            stats: self.stats.clone(),
        };
        let fin = CoordMsg::Fin {
            epoch: self.epoch,
            payload: encode_outcome(&outcome),
        };

        // Terminal fan-out: point-to-point FIN in answer to each worker's
        // request, never a collective, so dead workers cannot wedge
        // termination. A request parked while its worker still holds a
        // copy (a duplicate racing the resolution) is answered once that
        // copy reported, so no result is left behind in the mailbox.
        let dead_after = Duration::from_millis(self.opts.dead_after_ms.max(1));
        loop {
            for to in 1..=self.workers.len() {
                if self.workers[to - 1].parked && !self.holds_copy(to) {
                    self.tell(to, &fin);
                    self.workers[to - 1].parked = false;
                    self.workers[to - 1].finned = true;
                }
            }
            if self.workers.iter().all(|w| w.dead || w.finned) {
                break;
            }
            match comm.try_recv_any(TAG_CTRL, poll)? {
                Some((from, data)) => {
                    let msg = self.check_message(from, &data)?;
                    match self.accept(from, msg) {
                        Some(WorkerMsg::Request { .. }) => self.workers[from - 1].parked = true,
                        Some(WorkerMsg::Result {
                            unit, elapsed_s, ..
                        }) => {
                            // Straggler copy racing termination: keep the
                            // ledger warm for the next sweep, nothing else.
                            self.state[unit].copies.retain(|c| c.holder != from);
                            let _ = self.model.observe(unit, elapsed_s);
                        }
                        Some(WorkerMsg::Heartbeat { .. }) | None => {}
                    }
                }
                None => {
                    let t = Instant::now();
                    for w in self.workers.iter_mut() {
                        if !w.finned && t.duration_since(w.last_seen) > dead_after {
                            w.dead = true;
                        }
                    }
                }
            }
        }
        comm.record_sched(
            (outcome.stats.reissued_failed + outcome.stats.reissued_straggler) as u64,
            self.stats.stale_msgs as u64,
        );
        Ok(outcome)
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn work(
    comm: &Comm<'_>,
    epoch: u64,
    opts: &SchedOptions,
    mut solve: impl FnMut(usize) -> OmenResult<Vec<f64>>,
) -> OmenResult<SweepOutcome> {
    let me = comm.global_rank(comm.rank());
    let send = |msg: WorkerMsg| comm.send(0, TAG_CTRL, encode_worker(&msg, me));
    send(WorkerMsg::Request { epoch });
    loop {
        // Exactly one request is outstanding here.
        let data = comm.recv(0, TAG_WORK)?;
        match decode_coord(&data)? {
            CoordMsg::Assign { units, .. } if units.is_empty() => {
                std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
                send(WorkerMsg::Request { epoch });
            }
            CoordMsg::Assign { epoch: e, units } => {
                if e != epoch {
                    return Err(OmenError::Deserialize {
                        context: "sched assignment for a different sweep epoch",
                    });
                }
                let last = units.len() - 1;
                for (i, unit) in units.into_iter().enumerate() {
                    if i == last {
                        // Request ahead: the next chunk's hand-out crosses
                        // this chunk's last solve instead of following it.
                        send(WorkerMsg::Request { epoch });
                    }
                    send(WorkerMsg::Heartbeat { epoch, unit });
                    let t0 = Instant::now();
                    let outcome = solve(unit);
                    let elapsed_s = t0.elapsed().as_secs_f64();
                    send(WorkerMsg::Result {
                        epoch,
                        unit,
                        elapsed_s,
                        outcome,
                    });
                }
            }
            CoordMsg::Fin { epoch: e, payload } => {
                if e != epoch {
                    return Err(OmenError::Deserialize {
                        context: "sched termination for a different sweep epoch",
                    });
                }
                return decode_outcome(&payload);
            }
            CoordMsg::Stale { .. } => {
                return Err(OmenError::RankFailed {
                    rank: me,
                    detail: "sweep epoch superseded: this worker was declared dead and \
                             the sweep completed without it"
                        .to_string(),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome codec (FIN payload)
// ---------------------------------------------------------------------------

/// Serializes a merged outcome for the terminal fan-out.
pub fn encode_outcome(o: &SweepOutcome) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(o.values.len());
    for v in &o.values {
        match v {
            Some(vals) => {
                e.u8(1);
                e.f64s(vals);
            }
            None => e.u8(0),
        }
    }
    e.usize(o.report.solved);
    e.usize(o.report.retried);
    e.usize(o.report.recovered);
    put_failures(&mut e, &o.report.failed, 0);
    for v in [
        o.stats.units,
        o.stats.chunks,
        o.stats.reissued_failed,
        o.stats.reissued_straggler,
        o.stats.duplicate_results,
        o.stats.workers_dead,
        o.stats.stale_msgs,
        o.stats.coordinator_units,
    ] {
        e.usize(v);
    }
    e.f64s(&o.stats.worker_busy_s);
    e.finish()
}

/// Decodes a merged outcome.
///
/// # Errors
///
/// [`OmenError::Deserialize`] when the payload is truncated or malformed.
pub fn decode_outcome(b: &[u8]) -> OmenResult<SweepOutcome> {
    let mut d = Dec::new(b, "sched merged-outcome payload");
    // Each slot is at least its presence byte.
    let n = d.count(1)?;
    let values = (0..n)
        .map(|_| match d.u8()? {
            1 => Ok(Some(d.f64s()?)),
            0 => Ok(None),
            flag => Err(d.invalid(format_args!("unknown slot flag {flag}"))),
        })
        .collect::<OmenResult<_>>()?;
    let out = SweepOutcome {
        values,
        report: SweepReport {
            solved: d.usize()?,
            retried: d.usize()?,
            recovered: d.usize()?,
            failed: take_failures(&mut d)?,
        },
        stats: SchedStats {
            units: d.usize()?,
            chunks: d.usize()?,
            reissued_failed: d.usize()?,
            reissued_straggler: d.usize()?,
            duplicate_results: d.usize()?,
            workers_dead: d.usize()?,
            stale_msgs: d.usize()?,
            coordinator_units: d.usize()?,
            worker_busy_s: d.f64s()?,
        },
    };
    d.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_roundtrip() {
        let mut report = SweepReport::default();
        report.record_solved(0);
        report.record_solved(1);
        report.record_failed(
            0.5,
            OmenError::LeadNotConverged {
                energy: 0.5,
                iters: 99,
            },
        );
        let o = SweepOutcome {
            values: vec![Some(vec![1.0, 2.0]), Some(vec![]), None],
            report,
            stats: SchedStats {
                units: 3,
                chunks: 2,
                reissued_failed: 3,
                reissued_straggler: 1,
                duplicate_results: 1,
                workers_dead: 0,
                stale_msgs: 2,
                coordinator_units: 1,
                worker_busy_s: vec![0.25, 1.5, 2.5],
            },
        };
        assert_eq!(decode_outcome(&encode_outcome(&o)).unwrap(), o);
        assert!(decode_outcome(&[1, 2, 3]).is_err());
    }

    #[test]
    fn hostile_outcome_value_count_is_a_typed_error() {
        // One slot whose value list claims 2^61 entries.
        let mut e = Enc::new();
        e.u64(1);
        e.u8(1);
        e.u64(1 << 61);
        assert_eq!(
            decode_outcome(&e.finish()),
            Err(OmenError::Deserialize {
                context: "sched merged-outcome payload"
            })
        );
    }

    #[test]
    fn imbalance_ratio_basics() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
        assert!((imbalance_ratio(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((imbalance_ratio(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
        let s = SchedStats {
            worker_busy_s: vec![0.0, 2.0, 2.0, 4.0],
            ..SchedStats::default()
        };
        // Broker-only coordinator (entry 0 exactly 0.0) excluded:
        // mean 8/3, max 4 → 1.5.
        assert!((s.imbalance() - 1.5).abs() < 1e-12);
        // A solving coordinator counts like any other member:
        // mean 12/4 = 3, max 4 → 4/3.
        let s = SchedStats {
            worker_busy_s: vec![4.0, 2.0, 2.0, 4.0],
            ..SchedStats::default()
        };
        assert!((s.imbalance() - 4.0 / 3.0).abs() < 1e-12);
    }
}

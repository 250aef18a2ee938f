//! The pull-based coordinator/worker engine and its deterministic merge.
//!
//! One communicator member (local rank 0) acts as the coordinator: it owns
//! the work queue, hands out chunks to workers that *pull* (send a
//! [`crate::proto::WorkerMsg::Request`]), folds measured solve times back
//! into the [`CostModel`], reclaims what a dead worker held, and finally
//! distributes one merged [`SweepOutcome`] to every worker. All other
//! members are workers running the caller's solve closure.
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
//! only (the liveness scan, which always follows a full drain so that a
//! message waiting in the mailbox never reads as silence).
//!
//! # Determinism
//!
//! The solve closure is pure in its unit id — a unit's payload is the same
//! bytes no matter which rank computes it — and the coordinator merges
//! payloads into a dense vector indexed by canonical unit id. The merged
//! values are therefore *bit-identical* across runs, worker counts, and
//! injected delays; only [`SchedStats`] (timings, reclamation counters) is
//! timing-dependent.
//!
//! # Fault model
//!
//! Every unit has at most one holder at a time. A unit that fails with a
//! typed solver error is final on its first attempt — the solve is pure,
//! so a second attempt would fail the same way — and is recorded in the
//! outcome's [`SweepReport::failed`]; the sweep continues. A worker silent
//! past `dead_after_ms` is declared dead: everything it holds — the unit it
//! was solving, the rest of its chunk and the chunk prefetched behind it —
//! is re-queued (or failed once `max_reissue` reclamations are spent), its
//! parked request is dropped, a later request from it is refused with
//! [`crate::proto::CoordMsg::Stale`] and a late result from it is dropped.
//! A worker's silence is timed from its last message or its last non-empty
//! hand-out, whichever is later; every unit ends in a result, so a live
//! worker is never silent longer than its slowest single unit.
//! `dead_after_ms` must comfortably exceed that unit, or a merely-slow
//! worker is mistaken for a dead one. A worker whose request is parked and
//! which holds nothing is silent by protocol, not by fault: at half of
//! `dead_after_ms` the coordinator voids the request with an empty
//! assignment and the worker proves itself with a fresh one. The terminal
//! broadcast is point-to-point per worker rather than a collective
//! precisely so a dead member cannot wedge the fan-out. The coordinator
//! solves, so a sweep finishes even when every worker dies.

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
    /// over the `C` members that pop from the queue (live workers plus the
    /// coordinator).
    pub chunk_max: usize,
    /// How many times one unit may be reclaimed from a dead worker before
    /// it is abandoned into [`SweepReport::failed`].
    pub max_reissue: usize,
    /// Cadence of the coordinator's liveness scan, and the pause before a
    /// worker repeats a request answered with an empty assignment, in
    /// milliseconds. Nothing on the fault-free path waits for it.
    pub poll_ms: u64,
    /// A worker silent this long is declared dead. Must exceed the
    /// slowest single unit's solve time.
    pub dead_after_ms: u64,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            chunk_max: 4,
            max_reissue: 2,
            poll_ms: 5,
            dead_after_ms: 30_000,
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
    /// Units reclaimed from dead workers and re-queued. Typed solver
    /// failures are final on the first attempt and never count here.
    pub reissued_failed: usize,
    /// Always 0: the scheduler does not speculate on slow units. Kept so
    /// that existing readers of the field still compile.
    pub reissued_straggler: usize,
    /// Workers declared dead during the sweep.
    pub workers_dead: usize,
    /// Messages dropped (or refused) because they carried a superseded
    /// sweep epoch — late traffic from a previous sweep on the same
    /// communicator.
    pub stale_msgs: usize,
    /// Units the coordinator solved itself between brokering rounds.
    pub coordinator_units: usize,
    /// Busy seconds per communicator member (index = local rank; entry 0
    /// is the coordinator's own solve time).
    pub worker_busy_s: Vec<f64>,
}

impl SchedStats {
    /// Load-imbalance ratio (max/mean busy seconds) over the solving
    /// members. A coordinator that solved nothing (entry 0 exactly 0.0) is
    /// excluded; otherwise it counts like any other member. 1.0 is a
    /// perfect balance; also 1.0 for degenerate inputs.
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

/// The fault ledger in unit order: `errors[id]` failed at `energies[id]`,
/// every other unit solved after `retried(id)` reclamations.
fn ledger(
    energies: &[f64],
    errors: Vec<Option<OmenError>>,
    retried: impl Fn(usize) -> usize,
) -> SweepReport {
    let mut report = SweepReport::default();
    for (id, slot) in errors.into_iter().enumerate() {
        match slot {
            Some(e) => report.record_failed(energies[id], e),
            None => report.record_solved(retried(id)),
        }
    }
    report
}

/// The single-member arm of [`dynamic_sweep`]: runs the sweep on the
/// calling thread in cost-descending order, feeding measured times back
/// into `model`. Same canonical merge and per-unit fault isolation as the
/// brokered arms.
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
    SweepOutcome {
        values,
        report: ledger(energies, errors, |_| 0),
        stats: SchedStats {
            units: n,
            worker_busy_s: vec![busy_s],
            ..SchedStats::default()
        },
    }
}

/// Runs a dynamically scheduled sweep over `energies.len()` units on
/// `comm`. Local rank 0 coordinates and solves; every other member runs
/// `solve` (pure: unit id → payload). Every member returns the same
/// [`SweepOutcome`]. With a single-member communicator the sweep runs
/// locally on the caller. `energies[id]` stamps failed units in the
/// report; `model` must cover exactly as many units.
///
/// # Errors
///
/// Communicator faults only — [`OmenError::RecvTimeout`] /
/// [`OmenError::ChannelClosed`] when the coordinator (from a worker's view)
/// or the runtime died, [`OmenError::Deserialize`] on a corrupt or
/// misrouted scheduler message, [`OmenError::RankFailed`] on a worker the
/// coordinator declared dead, [`OmenError::ShapeMismatch`] when `model`
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

/// A unit at the coordinator: queued, held by one worker, or resolved
/// (its value or error recorded). Queue membership and resolution live in
/// the coordinator's queue and merge slots; only the holder is kept here.
#[derive(Debug, Clone, Default)]
struct UnitState {
    /// Local rank of the worker holding the unit — solving it, or holding
    /// it behind the units ahead of it in its chunks. `None` while queued,
    /// while the coordinator solves it, and once resolved.
    holder: Option<usize>,
    /// Reclamations from dead workers spent.
    reissues: usize,
}

struct WorkerState {
    /// Time of this worker's last message or last non-empty hand-out.
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
    /// Exactly the queued units, in LPT order: workers pop the expensive
    /// front, the coordinator the cheap back.
    queue: VecDeque<usize>,
    state: Vec<UnitState>,
    values: Vec<Option<Vec<f64>>>,
    errors: Vec<Option<OmenError>>,
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
        if let Some(unit) = c.queue.pop_back() {
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
            state: vec![UnitState::default(); n],
            values: vec![None; n],
            errors: vec![None; n],
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
    /// Stale results are simply dropped. Returns true when consumed here.
    fn filter_epoch(&mut self, from: usize, msg: &WorkerMsg) -> bool {
        let e = match msg {
            WorkerMsg::Request { epoch } | WorkerMsg::Result { epoch, .. } => *epoch,
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
            Some(WorkerMsg::Request { epoch }) if self.workers[from - 1].dead => {
                // What it held was reclaimed; it holds nothing again.
                self.tell(from, &CoordMsg::Stale { epoch });
            }
            Some(WorkerMsg::Request { .. }) => self.assign_or_park(from),
            Some(WorkerMsg::Result {
                unit,
                elapsed_s,
                outcome,
                ..
            }) => {
                // `elapsed_s` arrived off the wire and can be corrupt:
                // keep non-finite/negative timings out of the busy ledger
                // (they would poison the imbalance stats) and let the cost
                // model's typed rejection drop them from the EWMA. The
                // unit's *result* is still valid either way.
                if elapsed_s.is_finite() && elapsed_s >= 0.0 {
                    self.workers[from - 1].busy_s += elapsed_s;
                }
                if self.state[unit].holder == Some(from) {
                    self.state[unit].holder = None;
                    self.fold_outcome(unit, elapsed_s, outcome);
                } else {
                    // From a worker declared dead after all: the unit went
                    // to another holder; the timing still informs the
                    // ledger.
                    let _ = self.model.observe(unit, elapsed_s);
                }
            }
        }
    }

    /// Answers `to`'s request with the next chunk, or parks it when the
    /// queue is empty.
    fn assign_or_park(&mut self, to: usize) {
        let units = self.pop_chunk(to);
        let w = &mut self.workers[to - 1];
        w.parked = units.is_empty();
        if !units.is_empty() {
            // Time the assignee from this hand-out, not from a request
            // that may have been parked for up to `dead_after_ms / 2`.
            w.last_seen = Instant::now();
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

    /// Pops the next guided-size chunk for `to` off the expensive end and
    /// makes `to` its holder.
    fn pop_chunk(&mut self, to: usize) -> Vec<usize> {
        // Everyone who pops from this queue at full rate: the live workers
        // and the coordinator.
        let consumers = self.workers.iter().filter(|w| !w.dead).count() + 1;
        let mut queued = self.queue.len();
        // Near the end — fewer units than consumers — nothing is handed
        // out ahead: a requester still busy would sit on a unit that a
        // rank running dry could start now.
        if queued < consumers && self.holds(to) {
            queued = 0;
        }
        let want = self
            .opts
            .chunk_max
            .min(queued.div_ceil(2 * consumers))
            .max(usize::from(queued > 0));
        let chunk: Vec<usize> = self.queue.drain(..want).collect();
        for &u in &chunk {
            self.state[u].holder = Some(to);
        }
        chunk
    }

    /// Records one unit's value or typed error. Shared by the wire path
    /// (a holder's result) and the solving coordinator's local path.
    fn fold_outcome(&mut self, unit: usize, elapsed_s: f64, outcome: Result<Vec<f64>, OmenError>) {
        match outcome {
            Ok(v) => {
                // A wire-decoded timing may be corrupt; the ledger's typed
                // rejection drops it, which costs prediction quality only.
                let _ = self.model.observe(unit, elapsed_s);
                self.values[unit] = Some(v);
            }
            Err(e) => self.errors[unit] = Some(e),
        }
        self.unresolved -= 1;
    }

    fn holds(&self, local: usize) -> bool {
        self.state.iter().any(|st| st.holder == Some(local))
    }

    /// Housekeeping on the `poll_ms` cadence, always right after a full
    /// mailbox drain: void long-parked requests of workers that hold
    /// nothing, and declare silent workers dead.
    fn scan_liveness(&mut self) {
        let now = Instant::now();
        let dead_after = Duration::from_millis(self.opts.dead_after_ms.max(1));
        for local in 1..=self.workers.len() {
            let w = &self.workers[local - 1];
            if w.dead {
                continue;
            }
            let silent = now.duration_since(w.last_seen);
            if w.parked && silent > dead_after / 2 && !self.holds(local) {
                // Silent by protocol, not by fault: it waits on a parked
                // request with nothing to solve. Void the request so the
                // worker proves itself with a fresh one, and its blocking
                // receive never nears the runtime's receive bound.
                self.void_request(local, self.epoch);
                let w = &mut self.workers[local - 1];
                w.parked = false;
                w.last_seen = now;
            } else if silent > dead_after {
                self.declare_dead(local);
            }
        }
    }

    /// Marks `local` dead and reclaims exactly what it held — the unit it
    /// was solving and every unit handed out behind it — re-queuing each
    /// unit with reclamations left and failing the rest.
    fn declare_dead(&mut self, local: usize) {
        let w = &mut self.workers[local - 1];
        w.dead = true;
        w.parked = false;
        self.stats.workers_dead += 1;
        for (u, st) in self.state.iter_mut().enumerate() {
            if st.holder != Some(local) {
                continue;
            }
            st.holder = None;
            if st.reissues < self.opts.max_reissue {
                st.reissues += 1;
                self.queue.push_back(u);
                self.stats.reissued_failed += 1;
            } else {
                self.errors[u] = Some(OmenError::RankFailed {
                    rank: self.comm.global_rank(local),
                    detail: format!(
                        "worker silent past {} ms with unit in flight",
                        self.opts.dead_after_ms
                    ),
                });
                self.unresolved -= 1;
            }
        }
    }

    /// Builds the canonical merge and hands it to every worker.
    fn terminate(mut self, energies: &[f64], poll: Duration) -> OmenResult<SweepOutcome> {
        let comm = self.comm;
        let errors = std::mem::take(&mut self.errors);
        let report = ledger(energies, errors, |id| self.state[id].reissues);
        for (i, w) in self.workers.iter().enumerate() {
            self.stats.worker_busy_s[i + 1] = w.busy_s;
        }
        // Every member must return this exact outcome, so stale traffic
        // past this point is counted in `self.stats` only.
        let outcome = SweepOutcome {
            values: std::mem::take(&mut self.values),
            report,
            stats: self.stats.clone(),
        };
        let fin = CoordMsg::Fin {
            epoch: self.epoch,
            payload: encode_outcome(&outcome),
        };

        // Terminal fan-out: point-to-point FIN in answer to each worker's
        // request, never a collective, so dead workers cannot wedge
        // termination. Every unit resolved through its holder's result,
        // so a live worker holds nothing and has sent everything it will.
        let dead_after = Duration::from_millis(self.opts.dead_after_ms.max(1));
        loop {
            for to in 1..=self.workers.len() {
                if self.workers[to - 1].parked {
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
                            // A dead worker's late result: keep the ledger
                            // warm for the next sweep, nothing else.
                            let _ = self.model.observe(unit, elapsed_s);
                        }
                        None => {}
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
                    detail: "declared dead by the scheduler coordinator: the sweep \
                             completes without this worker"
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
            reissued_straggler: 0,
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
                reissued_straggler: 0,
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
        // A coordinator that solved nothing (entry 0 exactly 0.0) is
        // excluded: mean 8/3, max 4 → 1.5.
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

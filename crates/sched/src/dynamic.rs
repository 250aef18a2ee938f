//! The pull-based coordinator/worker engine and its deterministic merge.
//!
//! One communicator member (local rank 0) acts as the coordinator: it owns
//! the work queue, hands out chunks to workers that *pull* (send a
//! [`crate::proto::WorkerMsg::Request`] whenever idle), folds measured solve
//! times back into the [`CostModel`], re-issues failed or straggling units a
//! bounded number of times, and finally distributes one merged
//! [`SweepOutcome`] to every worker. All other members are workers running
//! the caller's solve closure.
//!
//! The coordinator is not idle between brokering rounds: whenever its
//! mailbox drains (one poll window with no worker traffic) it pops the
//! *cheapest* queued unit and solves it inline — the solving coordinator
//! recovers 1/N of the machine that a broker-only rank would waste, and
//! picking from the cheap end of the LPT queue bounds the blind window
//! during which worker messages queue up unserved. Worker liveness clocks
//! are credited with each blind window so a heartbeat that sat in the
//! mailbox during a local solve can never read as worker silence.
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
//! `dead_after_ms` is declared dead: its in-flight units are re-issued (or
//! failed once re-issue is exhausted) and it receives no further work. The
//! terminal broadcast is point-to-point per worker rather than a collective
//! precisely so a dead member cannot wedge the fan-out. `dead_after_ms`
//! must comfortably exceed the slowest single unit, or a merely-slow worker
//! is mistaken for a dead one and later fails itself on a receive timeout.

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
    /// as the queue drains: `min(chunk_max, max(1, remaining / (2·W)))`.
    pub chunk_max: usize,
    /// How many times one unit may be re-issued (failure or straggle)
    /// before it is abandoned into [`SweepReport::failed`].
    pub max_reissue: usize,
    /// Coordinator poll window and idle-worker backoff, in milliseconds.
    pub poll_ms: u64,
    /// A unit is a straggler once in flight longer than
    /// `straggler_min_ms + straggler_factor × predicted seconds`.
    pub straggler_factor: f64,
    /// Floor of the straggler bound, in milliseconds.
    pub straggler_min_ms: u64,
    /// A worker silent this long is declared dead. Must exceed the
    /// slowest single unit's solve time.
    pub dead_after_ms: u64,
    /// Whether the coordinator solves queued units itself between
    /// brokering rounds (cheapest-first, so the blind window stays short).
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

/// The outcome of a process-local sweep (no communicator): payloads of any
/// type, executed most-expensive-predicted-first, merged canonically.
#[derive(Debug)]
pub struct LocalOutcome<T> {
    /// Per-unit payloads in canonical unit order; `None` for failed units.
    pub values: Vec<Option<T>>,
    /// Fault ledger, failures in canonical unit order.
    pub report: SweepReport,
    /// Total solve seconds spent.
    pub busy_s: f64,
}

/// Runs a sweep on the calling thread in cost-descending order, feeding
/// measured times back into `model`. The serial analogue of
/// [`dynamic_sweep`]: same canonical merge, same per-unit fault isolation,
/// no re-issue (a deterministic solve that failed once would fail again).
/// `energies[id]` stamps failed units in the report.
pub fn local_sweep<T>(
    energies: &[f64],
    model: &mut CostModel,
    mut solve: impl FnMut(usize) -> OmenResult<T>,
) -> LocalOutcome<T> {
    let n = energies.len().min(model.len());
    let mut values: Vec<Option<T>> = (0..n).map(|_| None).collect();
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
    LocalOutcome {
        values,
        report,
        busy_s,
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
        let local = local_sweep(energies, model, solve);
        let units = local.values.len();
        return Ok(SweepOutcome {
            values: local.values,
            report: local.report,
            stats: SchedStats {
                units,
                worker_busy_s: vec![local.busy_s],
                ..SchedStats::default()
            },
        });
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

/// One in-flight copy of a unit: who holds it and when it (last) started.
/// Tracking copies individually — instead of a single `inflight` count plus
/// one `assigned_to` rank — is what makes dead-worker reclamation exact: a
/// worker's death removes *its* copies only, and a unit is re-issued only
/// when no live copy remains, so a late heartbeat can never re-attribute a
/// straggler copy to the wrong holder and double-count the re-issue.
#[derive(Debug, Clone)]
struct InflightCopy {
    /// Local rank holding this copy (0 = the solving coordinator).
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
    /// Copies currently in flight, one entry per holder.
    copies: Vec<InflightCopy>,
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
}

fn coordinate(
    comm: &Comm<'_>,
    epoch: u64,
    energies: &[f64],
    model: &mut CostModel,
    opts: &SchedOptions,
    mut solve: impl FnMut(usize) -> OmenResult<Vec<f64>>,
) -> OmenResult<SweepOutcome> {
    let n = energies.len();
    let poll = Duration::from_millis(opts.poll_ms.max(1));
    let dead_after = Duration::from_millis(opts.dead_after_ms.max(1));
    let now = Instant::now();

    let mut queue: VecDeque<usize> = model.descending_order(0..n).into_iter().collect();
    let mut state: Vec<UnitState> = (0..n)
        .map(|_| UnitState {
            resolved: false,
            queued: true,
            copies: Vec::new(),
            reissues: 0,
            last_holder: 0,
        })
        .collect();
    let mut values: Vec<Option<Vec<f64>>> = (0..n).map(|_| None).collect();
    let mut last_err: Vec<Option<OmenError>> = vec![None; n];
    let mut workers: Vec<WorkerState> = (1..comm.size())
        .map(|_| WorkerState {
            last_seen: now,
            busy_s: 0.0,
            dead: false,
            finned: false,
        })
        .collect();
    let mut stats = SchedStats {
        units: n,
        worker_busy_s: vec![0.0; comm.size()],
        ..SchedStats::default()
    };
    let mut unresolved = n;

    while unresolved > 0 {
        match comm.try_recv_any(TAG_CTRL, poll)? {
            Some((from, data)) => {
                if from == 0 {
                    return Err(OmenError::Deserialize {
                        context: "sched control message from the coordinator itself",
                    });
                }
                let msg = decode_worker(&data)?;
                workers[from - 1].last_seen = Instant::now();
                if filter_epoch(comm, epoch, from, &msg, &mut stats) {
                    continue;
                }
                match msg {
                    WorkerMsg::Request { .. } => {
                        let chunk = pop_chunk(&mut queue, &mut state, &workers, opts, from);
                        if !chunk.is_empty() {
                            stats.chunks += 1;
                        }
                        comm.send(
                            from,
                            TAG_WORK,
                            encode_coord(&CoordMsg::Assign {
                                epoch,
                                units: chunk,
                            }),
                        );
                    }
                    WorkerMsg::Heartbeat { unit, .. } => {
                        // Only the heartbeat of a rank actually holding a
                        // copy refreshes the straggler clock: a late or
                        // spurious heartbeat from a non-holder must not
                        // re-attribute the copy (see [`InflightCopy`]).
                        if unit < n && !state[unit].resolved {
                            let st = &mut state[unit];
                            if let Some(c) = st.copies.iter_mut().find(|c| c.holder == from) {
                                c.started = Instant::now();
                                st.last_holder = from;
                            }
                        }
                    }
                    WorkerMsg::Result {
                        unit,
                        elapsed_s,
                        outcome,
                        ..
                    } => {
                        if unit >= n {
                            // analyze: allow(protocol-early-exit, coordinator fault path: workers block at most one heartbeat interval and surface a typed RecvTimeout — a corrupt wire result must not be merged)
                            return Err(OmenError::Deserialize {
                                context: "sched result for out-of-range unit",
                            });
                        }
                        // `elapsed_s` arrived off the wire and can be
                        // corrupt: keep non-finite/negative timings out of
                        // the busy ledger (they would poison the imbalance
                        // stats) and let the cost model's typed rejection
                        // drop them from the EWMA. The unit's *result* is
                        // still valid either way.
                        if elapsed_s.is_finite() && elapsed_s >= 0.0 {
                            workers[from - 1].busy_s += elapsed_s;
                        }
                        let st = &mut state[unit];
                        if let Some(pos) = st.copies.iter().position(|c| c.holder == from) {
                            st.copies.swap_remove(pos);
                        }
                        fold_outcome(
                            unit,
                            elapsed_s,
                            outcome,
                            model,
                            &mut state,
                            &mut values,
                            &mut last_err,
                            &mut queue,
                            &mut stats,
                            &mut unresolved,
                            opts,
                        );
                    }
                }
            }
            None => {
                // Mailbox drained: instead of idling a whole poll window,
                // the coordinator solves the cheapest queued unit itself.
                if opts.coordinator_solves {
                    if let Some(unit) = pop_back_live(&mut queue, &state) {
                        let t0 = Instant::now();
                        {
                            let st = &mut state[unit];
                            st.queued = false;
                            st.copies.push(InflightCopy {
                                holder: 0,
                                started: t0,
                            });
                            st.last_holder = 0;
                        }
                        stats.coordinator_units += 1;
                        let outcome = solve(unit);
                        let blind = t0.elapsed();
                        let elapsed_s = blind.as_secs_f64();
                        stats.worker_busy_s[0] += elapsed_s;
                        // The coordinator was blind while solving: credit
                        // every live worker the blind window (capped at
                        // now) so a heartbeat that queued up meanwhile is
                        // never mistaken for silence.
                        let t1 = Instant::now();
                        for w in workers.iter_mut() {
                            if !w.dead {
                                w.last_seen = (w.last_seen + blind).min(t1);
                            }
                        }
                        let st = &mut state[unit];
                        if let Some(pos) = st.copies.iter().position(|c| c.holder == 0) {
                            st.copies.swap_remove(pos);
                        }
                        fold_outcome(
                            unit,
                            elapsed_s,
                            outcome,
                            model,
                            &mut state,
                            &mut values,
                            &mut last_err,
                            &mut queue,
                            &mut stats,
                            &mut unresolved,
                            opts,
                        );
                        // Serve the mail that piled up before any liveness
                        // judgement.
                        continue;
                    }
                }
                scan_liveness(
                    comm,
                    energies,
                    model,
                    opts,
                    &mut queue,
                    &mut state,
                    &mut workers,
                    &mut stats,
                    &mut last_err,
                    &mut unresolved,
                    dead_after,
                );
            }
        }
    }

    // Build the canonical merge and the fault ledger in unit order.
    let mut report = SweepReport::default();
    for id in 0..n {
        if values[id].is_some() {
            report.record_solved(state[id].reissues);
        } else {
            let err = last_err[id].take().unwrap_or(OmenError::RankFailed {
                rank: comm.global_rank(state[id].last_holder),
                detail: "unit lost to a dead worker with re-issue exhausted".to_string(),
            });
            report.record_failed(energies[id], err);
        }
    }
    for (i, w) in workers.iter().enumerate() {
        stats.worker_busy_s[i + 1] = w.busy_s;
    }
    let outcome = SweepOutcome {
        values,
        report,
        stats,
    };
    let fin = encode_coord(&CoordMsg::Fin {
        epoch,
        payload: encode_outcome(&outcome),
    });
    // Stale traffic past this point cannot be folded into `outcome.stats`:
    // the FIN payload is already encoded, and every member must return the
    // exact same outcome. Count it into a throwaway ledger instead.
    let mut fin_stats = SchedStats::default();

    // Terminal fan-out: point-to-point FIN on each worker's next request,
    // never a collective, so dead workers cannot wedge termination.
    while workers.iter().any(|w| !w.dead && !w.finned) {
        match comm.try_recv_any(TAG_CTRL, poll)? {
            Some((from, data)) => {
                if from == 0 {
                    return Err(OmenError::Deserialize {
                        context: "sched control message from the coordinator itself",
                    });
                }
                let msg = decode_worker(&data)?;
                workers[from - 1].last_seen = Instant::now();
                if filter_epoch(comm, epoch, from, &msg, &mut fin_stats) {
                    continue;
                }
                match msg {
                    WorkerMsg::Request { .. } => {
                        comm.send(from, TAG_WORK, fin.clone());
                        workers[from - 1].finned = true;
                    }
                    WorkerMsg::Result {
                        unit, elapsed_s, ..
                    } => {
                        // Straggler copy racing termination: keep the
                        // ledger warm for the next sweep, nothing else.
                        // The wire-decoded timing may be corrupt; a
                        // rejected observation is simply dropped.
                        if unit < n {
                            let _ = model.observe(unit, elapsed_s);
                        }
                    }
                    WorkerMsg::Heartbeat { .. } => {}
                }
            }
            None => {
                let t = Instant::now();
                for w in workers.iter_mut() {
                    if !w.dead && !w.finned && t.duration_since(w.last_seen) > dead_after {
                        w.dead = true;
                    }
                }
            }
        }
    }
    comm.record_sched(
        (outcome.stats.reissued_failed + outcome.stats.reissued_straggler) as u64,
        (outcome.stats.stale_msgs + fin_stats.stale_msgs) as u64,
    );
    Ok(outcome)
}

/// Epoch gate on an incoming worker message. A message from the *current*
/// sweep passes (returns false). A request from a superseded sweep is
/// refused with [`CoordMsg::Stale`] — that worker was declared dead, its
/// sweep finished without it, and it must abandon rather than wait
/// forever. A request from a *future* sweep (the worker already received
/// FIN and re-entered while this coordinator still drains its termination
/// phase) gets an empty assignment so it retries shortly. Stale results
/// and heartbeats are simply dropped. Returns true when consumed here.
fn filter_epoch(
    comm: &Comm<'_>,
    current: u64,
    from: usize,
    msg: &WorkerMsg,
    stats: &mut SchedStats,
) -> bool {
    let e = match msg {
        WorkerMsg::Request { epoch, .. }
        | WorkerMsg::Heartbeat { epoch, .. }
        | WorkerMsg::Result { epoch, .. } => *epoch,
    };
    if e == current {
        return false;
    }
    if e < current {
        stats.stale_msgs += 1;
        if matches!(msg, WorkerMsg::Request { .. }) {
            comm.send(from, TAG_WORK, encode_coord(&CoordMsg::Stale { epoch: e }));
        }
    } else if matches!(msg, WorkerMsg::Request { .. }) {
        comm.send(
            from,
            TAG_WORK,
            encode_coord(&CoordMsg::Assign {
                epoch: e,
                units: Vec::new(),
            }),
        );
    }
    true
}

/// Pops the next guided-size chunk for `to`: skips stale queue entries,
/// marks popped units in flight.
fn pop_chunk(
    queue: &mut VecDeque<usize>,
    state: &mut [UnitState],
    workers: &[WorkerState],
    opts: &SchedOptions,
    to: usize,
) -> Vec<usize> {
    let alive = workers.iter().filter(|w| !w.dead).count().max(1);
    let live_queued = queue
        .iter()
        .filter(|&&u| state[u].queued && !state[u].resolved)
        .count();
    let want = opts
        .chunk_max
        .min(live_queued.div_ceil(2 * alive))
        .max(usize::from(live_queued > 0));
    let mut chunk = Vec::with_capacity(want);
    while chunk.len() < want {
        let Some(u) = queue.pop_front() else { break };
        if state[u].resolved || !state[u].queued {
            continue; // resolved by a straggler copy, or already re-popped
        }
        let st = &mut state[u];
        st.queued = false;
        st.copies.push(InflightCopy {
            holder: to,
            started: Instant::now(),
        });
        st.last_holder = to;
        chunk.push(u);
    }
    chunk
}

/// Pops the cheapest live unit off the back of the LPT queue (the
/// solving coordinator's end — short units keep its blind windows short),
/// discarding stale entries along the way.
fn pop_back_live(queue: &mut VecDeque<usize>, state: &[UnitState]) -> Option<usize> {
    while let Some(u) = queue.pop_back() {
        if !state[u].resolved && state[u].queued {
            return Some(u);
        }
    }
    None
}

/// Folds one copy's outcome into the merge: first result wins, typed
/// failures are re-queued up to `max_reissue` times, and a unit is
/// abandoned only when no copy remains in flight or queued. Shared by the
/// wire path (worker results) and the solving coordinator's local path so
/// both honor the exact same lifecycle.
#[allow(clippy::too_many_arguments)]
fn fold_outcome(
    unit: usize,
    elapsed_s: f64,
    outcome: Result<Vec<f64>, OmenError>,
    model: &mut CostModel,
    state: &mut [UnitState],
    values: &mut [Option<Vec<f64>>],
    last_err: &mut [Option<OmenError>],
    queue: &mut VecDeque<usize>,
    stats: &mut SchedStats,
    unresolved: &mut usize,
    opts: &SchedOptions,
) {
    let st = &mut state[unit];
    if st.resolved {
        stats.duplicate_results += 1;
        let _ = model.observe(unit, elapsed_s);
        return;
    }
    match outcome {
        Ok(v) => {
            let _ = model.observe(unit, elapsed_s);
            values[unit] = Some(v);
            st.resolved = true;
            st.queued = false;
            *unresolved -= 1;
        }
        Err(e) => {
            last_err[unit] = Some(e);
            if st.reissues < opts.max_reissue {
                st.reissues += 1;
                st.queued = true;
                queue.push_front(unit);
                stats.reissued_failed += 1;
            } else if st.copies.is_empty() && !st.queued {
                st.resolved = true;
                *unresolved -= 1;
            }
            // else: a straggler copy is still in flight or queued; it
            // decides.
        }
    }
}

/// Poll-timeout housekeeping: declare silent workers dead (re-issuing their
/// in-flight units), re-issue stragglers, and fail everything left if no
/// worker survives.
#[allow(clippy::too_many_arguments)]
fn scan_liveness(
    comm: &Comm<'_>,
    energies: &[f64],
    model: &CostModel,
    opts: &SchedOptions,
    queue: &mut VecDeque<usize>,
    state: &mut [UnitState],
    workers: &mut [WorkerState],
    stats: &mut SchedStats,
    last_err: &mut [Option<OmenError>],
    unresolved: &mut usize,
    dead_after: Duration,
) {
    let now = Instant::now();
    let n = state.len();
    for (i, w) in workers.iter_mut().enumerate() {
        if w.dead || now.duration_since(w.last_seen) <= dead_after {
            continue;
        }
        w.dead = true;
        stats.workers_dead += 1;
        let local = i + 1;
        for u in 0..n {
            let st = &mut state[u];
            if st.resolved {
                continue;
            }
            // Reclaim exactly the dead worker's copies. Re-issue only when
            // that leaves the unit with no live copy and no queue entry —
            // a straggler copy on a live rank already covers it, and
            // counting a second re-issue for a covered unit is the
            // double-count race this structure exists to prevent.
            let before = st.copies.len();
            st.copies.retain(|c| c.holder != local);
            if st.copies.len() == before || st.queued || !st.copies.is_empty() {
                continue;
            }
            if st.reissues < opts.max_reissue {
                st.reissues += 1;
                st.queued = true;
                queue.push_back(u);
                stats.reissued_failed += 1;
            } else {
                st.resolved = true;
                *unresolved -= 1;
                if last_err[u].is_none() {
                    last_err[u] = Some(OmenError::RankFailed {
                        rank: comm.global_rank(local),
                        detail: format!(
                            "worker silent past {} ms with unit in flight",
                            opts.dead_after_ms
                        ),
                    });
                }
            }
        }
    }

    // Stragglers: a unit in flight far past its predicted time is
    // speculatively re-queued; whichever copy lands first wins. The clock
    // is the *youngest* copy — only when every holder has gone quiet past
    // the bound is another copy worth paying for.
    for (u, st) in state.iter_mut().enumerate() {
        if st.resolved || st.queued || st.copies.is_empty() || st.reissues >= opts.max_reissue {
            continue;
        }
        let started = st.copies.iter().map(|c| c.started).max().unwrap_or(now);
        let Some(pred) = model.predict_secs(u) else {
            continue;
        };
        let bound = Duration::from_millis(opts.straggler_min_ms).as_secs_f64()
            + opts.straggler_factor * pred;
        if now.duration_since(started).as_secs_f64() > bound {
            st.reissues += 1;
            st.queued = true;
            queue.push_back(u);
            stats.reissued_straggler += 1;
        }
    }

    if workers.iter().all(|w| w.dead) && *unresolved > 0 {
        for u in 0..n {
            let st = &mut state[u];
            if !st.resolved {
                st.resolved = true;
                if last_err[u].is_none() {
                    last_err[u] = Some(OmenError::RankFailed {
                        rank: comm.global_rank(0),
                        detail: "every scheduler worker died before this unit resolved".to_string(),
                    });
                }
            }
        }
        let _ = energies; // energies stamp the report later, in unit order
        *unresolved = 0;
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
    let mut busy_s = 0.0;
    loop {
        comm.send(
            0,
            TAG_CTRL,
            encode_worker(&WorkerMsg::Request { epoch, busy_s }, me),
        );
        let data = comm.recv(0, TAG_WORK)?;
        match decode_coord(&data)? {
            CoordMsg::Assign { units, .. } if units.is_empty() => {
                std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
            }
            CoordMsg::Assign { epoch: e, units } => {
                if e != epoch {
                    return Err(OmenError::Deserialize {
                        context: "sched assignment for a different sweep epoch",
                    });
                }
                for unit in units {
                    comm.send(
                        0,
                        TAG_CTRL,
                        encode_worker(&WorkerMsg::Heartbeat { epoch, unit }, me),
                    );
                    let t0 = Instant::now();
                    let outcome = solve(unit);
                    let elapsed_s = t0.elapsed().as_secs_f64();
                    busy_s += elapsed_s;
                    comm.send(
                        0,
                        TAG_CTRL,
                        encode_worker(
                            &WorkerMsg::Result {
                                epoch,
                                unit,
                                elapsed_s,
                                outcome,
                            },
                            me,
                        ),
                    );
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

    #[test]
    fn local_sweep_merges_canonically_and_isolates_failures() {
        let energies = [0.0, 0.1, 0.2, 0.3];
        let mut model = CostModel::band_edge(4, 2.0);
        let mut seen = Vec::new();
        let out = local_sweep(&energies, &mut model, |id| {
            seen.push(id);
            if id == 2 {
                Err(OmenError::LeadNotConverged {
                    energy: energies[id],
                    iters: 7,
                })
            } else {
                Ok(vec![id as f64])
            }
        });
        // Band-edge seed: execution order is most-expensive-first …
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // … but the merge is canonical with the failure isolated.
        assert_eq!(out.values[0].as_deref(), Some(&[0.0][..]));
        assert_eq!(out.values[2], None);
        assert_eq!(out.report.solved, 3);
        assert_eq!(out.report.failed.len(), 1);
        assert_eq!(out.report.failed[0].energy, 0.2);
    }
}

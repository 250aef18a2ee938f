//! The serve daemon's state machine: admission, fair-share queue,
//! in-flight dedupe, content-addressed result cache, worker pool,
//! progress fan-out, and graceful drain.
//!
//! Design invariants (DESIGN.md §14):
//!
//! - **Admission is total.** Every submission gets exactly one typed
//!   answer: `Accepted` (fresh / joined / cached), `Busy` (bounded
//!   queue at capacity — never a silent drop), or `Reject` (malformed
//!   request or draining server).
//! - **One solve per content address.** Identical requests — concurrent
//!   or repeated — share one solve: in-flight jobs dedupe by cache key,
//!   finished jobs are served from the cache bit-identically. The
//!   `solves_started` counter is the auditable witness.
//! - **Fair share.** Each connection has its own FIFO; the dispatcher
//!   round-robins across connections, so one client queueing a hundred
//!   sweeps cannot starve a client queueing one.
//! - **Jobs outlive clients.** Progress fan-out drops dead subscribers
//!   silently; the solve always runs to completion and caches, so a
//!   disconnect never wastes compute.
//! - **Workers are fault bulkheads.** A panic inside a solve is caught
//!   and surfaced as a typed job failure; the worker thread survives
//!   and keeps serving.

use crate::protocol::{Disposition, Frame, Progress, StatsSnapshot};
use crate::request::{Mode, SweepRequest};
use omen_core::iv::{frozen_field_sweep_observed, gate_sweep_observed, PointProgress};
use omen_linalg::threads::{budget, with_budget};
use omen_num::{OmenError, OmenResult, SweepReport};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A sweep solver the server dispatches jobs to: gets the validated
/// request and a progress sink, returns the serialized result payload.
/// Injectable so tests and benchmarks can run synthetic solves.
pub type Executor =
    Arc<dyn Fn(&SweepRequest, &mut dyn FnMut(Progress)) -> OmenResult<Vec<u8>> + Send + Sync>;

/// Server sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads in the shared solve pool.
    pub workers: usize,
    /// Maximum jobs queued (waiting, not running) across all clients;
    /// submissions beyond this get a typed `Busy`.
    pub queue_capacity: usize,
    /// Byte budget for the finished-result cache. Least-recently-used
    /// results are evicted once stored payload bytes exceed it; a single
    /// payload larger than the whole budget is never cached (it would
    /// empty the cache and still not fit). In-flight dedupe is
    /// unaffected — it keys on the job table, not the cache.
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock: server
/// state is a set of counters and maps whose critical sections cannot
/// panic halfway, and job panics are caught *outside* any lock, so a
/// poisoned state lock only means some unrelated thread died — the
/// data is still consistent and serving must continue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Job {
    id: u64,
    key: u128,
    request: SweepRequest,
    /// Progress/completion subscribers (one per client streaming this
    /// job). Send failures mean the client went away — ignored.
    subs: Mutex<Vec<Sender<Frame>>>,
}

impl Job {
    fn broadcast(&self, frame: &Frame) {
        for tx in lock(&self.subs).iter() {
            let _ = tx.send(frame.clone());
        }
    }
}

#[derive(Default)]
struct Counters {
    jobs_accepted: u64,
    busy_rejections: u64,
    solves_started: u64,
    cache_hits: u64,
    dedupe_joins: u64,
    cache_evictions: u64,
}

/// One finished result in the bounded cache, tagged with its recency
/// tick (the key into the LRU index).
struct CacheEntry {
    bytes: Arc<Vec<u8>>,
    tick: u64,
}

struct State {
    /// Per-client FIFO queues, keyed by connection id (BTreeMap so the
    /// round-robin order is deterministic).
    queues: BTreeMap<u64, VecDeque<Arc<Job>>>,
    /// Connection id served last; the dispatcher resumes after it.
    rr_last: u64,
    queued: usize,
    running: usize,
    /// Queued or running jobs by content address (the dedupe table).
    inflight: HashMap<u128, Arc<Job>>,
    /// Finished results by content address, LRU-bounded by
    /// [`ServerConfig::cache_bytes`].
    cache: HashMap<u128, CacheEntry>,
    /// Recency index: tick → content address, oldest first. Ticks are
    /// drawn from `next_tick`, so every entry's tick is unique.
    lru: BTreeMap<u64, u128>,
    /// Payload bytes currently cached.
    cache_used: usize,
    next_tick: u64,
    counters: Counters,
    draining: bool,
    next_job_id: u64,
}

impl State {
    /// Cache lookup that refreshes the entry's recency.
    fn cache_get(&mut self, key: u128) -> Option<Arc<Vec<u8>>> {
        let tick = self.next_tick;
        let entry = self.cache.get_mut(&key)?;
        self.next_tick += 1;
        self.lru.remove(&entry.tick);
        entry.tick = tick;
        self.lru.insert(tick, key);
        Some(Arc::clone(&entry.bytes))
    }

    /// Inserts a finished result, evicting least-recently-used entries
    /// until the cache fits `budget`. Returns how many were evicted.
    /// The fresh entry holds the newest tick, so it is never the
    /// eviction victim — oversized payloads are rejected up front.
    fn cache_insert(&mut self, key: u128, bytes: Arc<Vec<u8>>, budget: usize) -> u64 {
        if bytes.len() > budget {
            return 0;
        }
        if let Some(old) = self.cache.remove(&key) {
            self.lru.remove(&old.tick);
            self.cache_used -= old.bytes.len();
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.cache_used += bytes.len();
        self.cache.insert(key, CacheEntry { bytes, tick });
        self.lru.insert(tick, key);
        let mut evicted = 0u64;
        while self.cache_used > budget {
            // An over-budget cache always has a resident entry, so the
            // breaks never fire; they keep an (impossible) bookkeeping
            // desync from looping forever instead of panicking a worker.
            let Some((&t, &k)) = self.lru.iter().next() else {
                break;
            };
            self.lru.remove(&t);
            let Some(e) = self.cache.remove(&k) else {
                break;
            };
            self.cache_used -= e.bytes.len();
            evicted += 1;
        }
        self.counters.cache_evictions += evicted;
        evicted
    }
}

struct Shared {
    cfg: ServerConfig,
    executor: Executor,
    state: Mutex<State>,
    work_cv: Condvar,
    stop_accept: AtomicBool,
}

/// What the admission path decided for one `Submit`.
enum Admission {
    /// Write this one frame (Reject or Busy) and move on.
    Refused(Frame),
    /// Cache hit: write `Accepted` then `Done` immediately.
    Cached(Frame, Frame),
    /// Fresh or joined job: write `Accepted`, then relay the stream
    /// until `Done`/`JobFailed`.
    Streaming(Frame, Receiver<Frame>),
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let st = lock(&self.state);
        StatsSnapshot {
            jobs_accepted: st.counters.jobs_accepted,
            busy_rejections: st.counters.busy_rejections,
            solves_started: st.counters.solves_started,
            cache_hits: st.counters.cache_hits,
            dedupe_joins: st.counters.dedupe_joins,
            cache_evictions: st.counters.cache_evictions,
            queued: st.queued as u64,
            running: st.running as u64,
        }
    }

    fn begin_drain(&self) {
        lock(&self.state).draining = true;
        self.work_cv.notify_all();
    }

    fn admit(&self, client_id: u64, text: &str) -> Admission {
        let request = match SweepRequest::parse(text) {
            Ok(r) => r,
            Err(e) => return Admission::Refused(Frame::Reject(e.to_string())),
        };
        let key = request.cache_key();
        let mut st = lock(&self.state);
        if st.draining {
            return Admission::Refused(Frame::Reject(
                "server is draining; not accepting new jobs".to_string(),
            ));
        }
        let job_id = st.next_job_id;
        if let Some(bytes) = st.cache_get(key) {
            st.counters.jobs_accepted += 1;
            st.counters.cache_hits += 1;
            st.next_job_id += 1;
            return Admission::Cached(
                Frame::Accepted {
                    job_id,
                    cache_key: key,
                    disposition: Disposition::Cached,
                },
                Frame::Done {
                    cache_hit: true,
                    payload: bytes.as_ref().clone(),
                },
            );
        }
        if let Some(job) = st.inflight.get(&key).cloned() {
            st.counters.jobs_accepted += 1;
            st.counters.dedupe_joins += 1;
            let (tx, rx) = channel();
            lock(&job.subs).push(tx);
            return Admission::Streaming(
                Frame::Accepted {
                    job_id: job.id,
                    cache_key: key,
                    disposition: Disposition::Joined,
                },
                rx,
            );
        }
        if st.queued >= self.cfg.queue_capacity {
            st.counters.busy_rejections += 1;
            return Admission::Refused(Frame::Busy {
                queue_depth: st.queued as u64,
                capacity: self.cfg.queue_capacity as u64,
            });
        }
        let (tx, rx) = channel();
        let job = Arc::new(Job {
            id: job_id,
            key,
            request,
            subs: Mutex::new(vec![tx]),
        });
        st.next_job_id += 1;
        st.counters.jobs_accepted += 1;
        st.inflight.insert(key, Arc::clone(&job));
        st.queues.entry(client_id).or_default().push_back(job);
        st.queued += 1;
        drop(st);
        self.work_cv.notify_one();
        Admission::Streaming(
            Frame::Accepted {
                job_id,
                cache_key: key,
                disposition: Disposition::Fresh,
            },
            rx,
        )
    }

    /// Pops the next job fair-share: round-robin over client queues,
    /// resuming after the last-served connection id.
    fn pick_next(st: &mut State) -> Option<Arc<Job>> {
        let ids: Vec<u64> = st.queues.keys().copied().collect();
        if ids.is_empty() {
            return None;
        }
        // Clients strictly after the last-served id first, then wrap.
        let split = ids.partition_point(|&id| id <= st.rr_last);
        let order = ids[split..].iter().chain(ids[..split].iter());
        for &id in order {
            let popped = st.queues.get_mut(&id).and_then(VecDeque::pop_front);
            if let Some(job) = popped {
                if st.queues.get(&id).is_some_and(VecDeque::is_empty) {
                    st.queues.remove(&id);
                }
                st.rr_last = id;
                st.queued -= 1;
                st.running += 1;
                st.counters.solves_started += 1;
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self, worker_idx: usize) {
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(job) = Shared::pick_next(&mut st) {
                        break job;
                    }
                    if st.draining {
                        return;
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            crate::log_line(&format!(
                "serve worker {worker_idx}: solving job {} key {}",
                job.id,
                crate::hash::hex128(job.key)
            ));
            let executor = Arc::clone(&self.executor);
            let job_for_progress = Arc::clone(&job);
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let mut sink = |p: Progress| {
                    job_for_progress.broadcast(&Frame::Progress(p));
                };
                executor(&job_for_progress.request, &mut sink)
            }));
            let finished: Result<Vec<u8>, String> = match outcome {
                Ok(Ok(bytes)) => Ok(bytes),
                Ok(Err(e)) => Err(e.to_string()),
                Err(panic) => Err(OmenError::RankFailed {
                    rank: worker_idx,
                    detail: format!("serve worker panicked: {}", panic_detail(&panic)),
                }
                .to_string()),
            };
            {
                let mut st = lock(&self.state);
                st.inflight.remove(&job.key);
                st.running -= 1;
                if let Ok(bytes) = &finished {
                    let evicted =
                        st.cache_insert(job.key, Arc::new(bytes.clone()), self.cfg.cache_bytes);
                    if evicted > 0 {
                        let (used, total) = (st.cache_used, st.counters.cache_evictions);
                        drop(st);
                        crate::log_line(&format!(
                            "serve cache: evicted {evicted} result(s) to fit {} B budget \
                             ({used} B cached, {total} evictions total)",
                            self.cfg.cache_bytes,
                        ));
                    }
                }
            }
            let final_frame = match finished {
                Ok(payload) => Frame::Done {
                    cache_hit: false,
                    payload,
                },
                Err(detail) => Frame::JobFailed(detail),
            };
            job.broadcast(&final_frame);
        }
    }
}

fn panic_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ------------------------------------------------------------ executor

/// The production executor: builds the device a request describes and
/// runs the real sweep drivers, forwarding each per-point observation
/// (with cumulative [`SweepReport`] totals) to the progress sink.
pub fn solver_executor() -> Executor {
    Arc::new(|req, on_progress| {
        let spec = req.device_spec()?;
        let engine = req.engine_kind()?;
        let v_gates = req.v_gates();
        let mut cum = SweepReport::default();
        let points = {
            let mut observe = |prog: PointProgress<'_>| {
                cum.merge(prog.report);
                on_progress(Progress {
                    seq: prog.seq,
                    index: prog.index as u64,
                    total: prog.total as u64,
                    v_gate: prog.point.v_gate,
                    v_ds: prog.point.v_ds,
                    current_ua: prog.point.current_ua,
                    scf_iters: prog.point.scf_iterations as u64,
                    converged: prog.point.converged,
                    solved: cum.solved as u64,
                    retried: cum.retried as u64,
                    recovered: cum.recovered as u64,
                    failed: cum.failed.len() as u64,
                });
            };
            match req.mode {
                Mode::Frozen => {
                    let tr = spec.build();
                    frozen_field_sweep_observed(
                        &tr,
                        &v_gates,
                        req.vds,
                        req.mu_source,
                        engine,
                        req.n_energy,
                        &mut observe,
                    )
                }
                Mode::Scf => {
                    let mut tr = spec.build();
                    gate_sweep_observed(
                        &mut tr,
                        &v_gates,
                        req.vds,
                        req.mu_source,
                        &req.scf_options()?,
                        &mut observe,
                    )
                }
            }
        };
        Ok(crate::protocol::encode_result(&points, &cum))
    })
}

// -------------------------------------------------------------- server

/// A running serve daemon: TCP acceptor + worker pool around the shared
/// state machine.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker pool with an injected executor.
    ///
    /// # Errors
    ///
    /// [`OmenError::Protocol`] when the listener cannot bind.
    pub fn start_with_executor(
        addr: &str,
        cfg: ServerConfig,
        executor: Executor,
    ) -> OmenResult<Server> {
        let listener = TcpListener::bind(addr).map_err(|e| OmenError::Protocol {
            context: "listener",
            detail: format!("cannot bind {addr}: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| OmenError::Protocol {
            context: "listener",
            detail: format!("no local addr: {e}"),
        })?;
        let shared = Arc::new(Shared {
            cfg,
            executor,
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                rr_last: 0,
                queued: 0,
                running: 0,
                inflight: HashMap::new(),
                cache: HashMap::new(),
                lru: BTreeMap::new(),
                cache_used: 0,
                next_tick: 0,
                counters: Counters::default(),
                draining: false,
                next_job_id: 1,
            }),
            work_cv: Condvar::new(),
            stop_accept: AtomicBool::new(false),
        });
        // Workers × what each worker's solve runs ≤ cores: each keeps its
        // share of the starting thread's core budget.
        let share = budget() / cfg.workers.max(1);
        let workers = (0..cfg.workers.max(1))
            .map(|idx| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || with_budget(share, || sh.worker_loop(idx)))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || {
            let mut next_client = 1u64;
            for stream in listener.incoming() {
                if accept_shared.stop_accept.load(Ordering::SeqCst) {
                    return;
                }
                if let Ok(stream) = stream {
                    // Frames are small and latency-bound: Nagle + delayed
                    // ACK would add ~40 ms to every streamed frame.
                    let _ = stream.set_nodelay(true);
                    let sh = Arc::clone(&accept_shared);
                    let client_id = next_client;
                    next_client += 1;
                    std::thread::spawn(move || handle_connection(&sh, stream, client_id));
                }
            }
        });
        crate::log_line(&format!(
            "serve listening on {local} ({} workers, queue capacity {}, cache budget {} B)",
            cfg.workers.max(1),
            cfg.queue_capacity,
            cfg.cache_bytes
        ));
        Ok(Server {
            shared,
            addr: local,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// [`Server::start_with_executor`] with the production solver.
    ///
    /// # Errors
    ///
    /// [`OmenError::Protocol`] when the listener cannot bind.
    pub fn start(addr: &str, cfg: ServerConfig) -> OmenResult<Server> {
        Server::start_with_executor(addr, cfg, solver_executor())
    }

    /// The bound address (the ephemeral port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current load/health counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Starts a graceful drain: new submissions are rejected, queued
    /// and running jobs run to completion.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the drain finishes (workers exhausted the queue and
    /// exited), then stops accepting connections. A drain must have
    /// been started — by [`Server::begin_drain`] or a client `Shutdown`
    /// frame — or this blocks until one is.
    pub fn join(mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stop_accept.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }

    /// Convenience: drain and join.
    pub fn shutdown_and_join(self) {
        self.begin_drain();
        self.join();
    }
}

/// Writes one frame; `false` means the client is gone.
fn write_frame(stream: &mut TcpStream, frame: &Frame) -> bool {
    stream.write_all(&frame.encode()).is_ok()
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, client_id: u64) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    loop {
        let frame = match crate::protocol::read_frame(&mut reader) {
            Ok(Some(f)) => f,
            // Clean close on a frame boundary.
            Ok(None) => return,
            // Protocol violation: answer typed, then hang up.
            Err(e) => {
                let _ = write_frame(&mut stream, &Frame::Reject(e.to_string()));
                return;
            }
        };
        match frame {
            Frame::Ping => {
                if !write_frame(&mut stream, &Frame::Pong) {
                    return;
                }
            }
            Frame::Stats => {
                if !write_frame(&mut stream, &Frame::StatsReply(shared.snapshot())) {
                    return;
                }
            }
            Frame::Shutdown => {
                shared.begin_drain();
                let _ = write_frame(&mut stream, &Frame::ShutdownAck);
                return;
            }
            Frame::Submit(text) => match shared.admit(client_id, &text) {
                Admission::Refused(f) => {
                    if !write_frame(&mut stream, &f) {
                        return;
                    }
                }
                Admission::Cached(accepted, done) => {
                    if !write_frame(&mut stream, &accepted) || !write_frame(&mut stream, &done) {
                        return;
                    }
                }
                Admission::Streaming(accepted, rx) => {
                    if !write_frame(&mut stream, &accepted) {
                        // Client left before the ack; the job still
                        // runs and caches — drop the receiver.
                        return;
                    }
                    for f in rx.iter() {
                        let last = matches!(f, Frame::Done { .. } | Frame::JobFailed(_));
                        if !write_frame(&mut stream, &f) {
                            // Disconnect mid-stream: stop relaying; the
                            // worker keeps solving into the cache.
                            return;
                        }
                        if last {
                            break;
                        }
                    }
                }
            },
            // A client sending server-side frames is violating the
            // protocol.
            other => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Reject(format!(
                        "unexpected client frame {}; clients send Submit/Ping/Stats/Shutdown",
                        frame_name(&other)
                    )),
                );
                return;
            }
        }
    }
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Submit(_) => "Submit",
        Frame::Ping => "Ping",
        Frame::Stats => "Stats",
        Frame::Shutdown => "Shutdown",
        Frame::Accepted { .. } => "Accepted",
        Frame::Busy { .. } => "Busy",
        Frame::Reject(_) => "Reject",
        Frame::Progress(_) => "Progress",
        Frame::Done { .. } => "Done",
        Frame::JobFailed(_) => "JobFailed",
        Frame::StatsReply(_) => "StatsReply",
        Frame::Pong => "Pong",
        Frame::ShutdownAck => "ShutdownAck",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_core::ScfOptions;

    fn job(id: u64) -> Arc<Job> {
        Arc::new(Job {
            id,
            key: u128::from(id),
            request: SweepRequest::parse("").expect("defaults parse"),
            subs: Mutex::new(Vec::new()),
        })
    }

    fn state_with(queues: &[(u64, &[u64])]) -> State {
        let mut st = State {
            queues: BTreeMap::new(),
            rr_last: 0,
            queued: 0,
            running: 0,
            inflight: HashMap::new(),
            cache: HashMap::new(),
            lru: BTreeMap::new(),
            cache_used: 0,
            next_tick: 0,
            counters: Counters::default(),
            draining: false,
            next_job_id: 1,
        };
        for &(client, jobs) in queues {
            let q: VecDeque<Arc<Job>> = jobs.iter().map(|&id| job(id)).collect();
            st.queued += q.len();
            st.queues.insert(client, q);
        }
        st
    }

    #[test]
    fn dispatch_round_robins_across_clients() {
        // Client 1 queued three jobs before clients 2 and 3 queued one
        // each; fair share interleaves instead of draining client 1.
        let mut st = state_with(&[(1, &[10, 11, 12]), (2, &[20]), (3, &[30])]);
        let order: Vec<u64> =
            std::iter::from_fn(|| Shared::pick_next(&mut st).map(|j| j.id)).collect();
        assert_eq!(order, vec![10, 20, 30, 11, 12]);
        assert_eq!(st.queued, 0);
        assert_eq!(st.running, 5);
        assert_eq!(st.counters.solves_started, 5);
        assert!(st.queues.is_empty(), "drained queues are removed");
    }

    #[test]
    fn cache_lru_evicts_by_recency_within_byte_budget() {
        let mut st = state_with(&[]);
        let budget = 100;
        assert_eq!(st.cache_insert(1, Arc::new(vec![0u8; 40]), budget), 0);
        assert_eq!(st.cache_insert(2, Arc::new(vec![0u8; 40]), budget), 0);
        // Third 40-byte entry overflows the 100-byte budget: the least
        // recently used (key 1) goes.
        assert_eq!(st.cache_insert(3, Arc::new(vec![0u8; 40]), budget), 1);
        assert!(st.cache_get(1).is_none(), "oldest entry evicted");
        assert!(st.cache_get(2).is_some());
        assert!(st.cache_get(3).is_some());
        assert_eq!(st.cache_used, 80);
        assert_eq!(st.counters.cache_evictions, 1);
        // A hit refreshes recency: after touching 2, inserting 4 evicts 3.
        let _ = st.cache_get(2);
        assert_eq!(st.cache_insert(4, Arc::new(vec![0u8; 40]), budget), 1);
        assert!(st.cache_get(3).is_none(), "hit on 2 made 3 the victim");
        assert!(st.cache_get(2).is_some());
        // Replacing a resident key swaps bytes without double counting.
        assert_eq!(st.cache_insert(4, Arc::new(vec![0u8; 10]), budget), 0);
        assert_eq!(st.cache_used, 50);
        // A payload over the whole budget is never cached, evicts nothing.
        assert_eq!(st.cache_insert(9, Arc::new(vec![0u8; 101]), budget), 0);
        assert!(st.cache_get(9).is_none());
        assert_eq!(st.counters.cache_evictions, 2);
        assert_eq!(st.lru.len(), st.cache.len(), "indexes stay aligned");
    }

    #[test]
    fn dispatch_resumes_after_last_served_client() {
        let mut st = state_with(&[(1, &[10]), (5, &[50])]);
        st.rr_last = 3;
        // Last served id 3: the next pick starts at the first id > 3.
        let first = Shared::pick_next(&mut st).map(|j| j.id);
        assert_eq!(first, Some(50));
        let second = Shared::pick_next(&mut st).map(|j| j.id);
        assert_eq!(second, Some(10));
    }

    #[test]
    fn scf_request_k_grid_reaches_the_solver() {
        // `n_k` is hashed into the cache key, so it must change the solve:
        // the executor's currents are the k-averaged `gate_sweep` ones.
        let text = |n_k: usize| {
            format!(
                "geometry = utb\nmode = scf\nslabs = 6\nn_energy = 11\nn_k = {n_k}\n\
                 vg_points = 2\nvg_start = 0.0\nvg_stop = 0.1\nmu_source = -3.2\n"
            )
        };
        let currents = |n_k: usize| -> Vec<u64> {
            let req = SweepRequest::parse(&text(n_k)).expect("parses");
            let payload = solver_executor()(&req, &mut |_| {}).expect("solves");
            let result = crate::protocol::decode_result(&payload).expect("decodes");
            result.points.iter().map(|p| p.2.to_bits()).collect()
        };
        let req = SweepRequest::parse(&text(2)).expect("parses");
        let want: Vec<u64> = omen_core::gate_sweep(
            &mut req.device_spec().expect("spec").build(),
            &req.v_gates(),
            req.vds,
            req.mu_source,
            &ScfOptions {
                engine: omen_core::Engine::WfThomas,
                n_energy: 11,
                n_k: 2,
                ..ScfOptions::default()
            },
        )
        .iter()
        .map(|p| p.current_ua.to_bits())
        .collect();
        assert_eq!(currents(2), want, "n_k = 2 runs the two-point k-average");
        assert_ne!(currents(1), want, "n_k = 1 is a different (Γ-only) curve");
    }
}

//! Scheduler determinism and fault-isolation battery.
//!
//! The contract under test: a dynamically scheduled sweep produces values
//! *bit-identical* to the static/serial evaluation of the same pure solve,
//! regardless of worker count, injected per-unit delays, slow workers or
//! dead ones. Every unit has one holder at a time: a failing unit is
//! attempted once and isolated as a typed entry in the outcome's
//! `SweepReport` instead of failing the whole sweep, and a unit is handed
//! out again only when its holder is declared dead — each stranded unit
//! reclaimed exactly once, each unit solved once by the live ranks.

use omen_parsim::{run_ranks, run_ranks_with_timeout, Comm};
use omen_sched::{dynamic_sweep, BankCounts, CostModel, ModelBank, SchedOptions, SweepOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const N_UNITS: usize = 24;

fn energy(id: usize) -> f64 {
    -1.0 + 2.0 * id as f64 / (N_UNITS - 1) as f64
}

fn energies() -> Vec<f64> {
    (0..N_UNITS).map(energy).collect()
}

/// The pure per-unit solve: an arbitrary but deterministic payload whose
/// bits must survive any scheduling order.
fn payload(id: usize) -> Vec<f64> {
    let e = energy(id);
    vec![e.sin() * (id as f64).sqrt(), 1.0 / (1.0 + e * e), e.exp()]
}

/// Every unit solved, to the bits of [`payload`].
fn assert_payload_bits(o: &SweepOutcome) {
    for (id, got) in o.values.iter().enumerate() {
        let got = got.as_deref().unwrap();
        let want = payload(id);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "unit {id} not bit-identical");
        }
    }
}

fn opts_fast() -> SchedOptions {
    SchedOptions {
        chunk_max: 3,
        max_reissue: 2,
        poll_ms: 2,
        dead_after_ms: 20_000,
    }
}

/// Per-unit start counters, one slot per rank.
fn start_counters<const R: usize>(n: usize) -> Vec<[AtomicUsize; R]> {
    (0..n)
        .map(|_| std::array::from_fn(|_| AtomicUsize::new(0)))
        .collect()
}

/// Units `rank` started, over the whole sweep.
fn starts<const R: usize>(started: &[[AtomicUsize; R]], rank: usize) -> usize {
    started.iter().map(|s| s[rank].load(Ordering::SeqCst)).sum()
}

/// Runs a dynamic sweep over `ranks` threads-as-ranks, with an optional
/// per-(rank, unit) delay injected into the solve.
fn run_dynamic(
    ranks: usize,
    opts: SchedOptions,
    delay: impl Fn(usize, usize) -> Duration + Sync,
) -> Vec<SweepOutcome> {
    let es = energies();
    let out = run_ranks(ranks, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::band_edge(N_UNITS, 2.0);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            std::thread::sleep(delay(ctx.rank(), id));
            Ok(payload(id))
        })
        .unwrap()
    });
    out.results.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn dynamic_matches_serial_bit_for_bit_across_worker_counts() {
    // The reference is the pure payload map. A single member runs the
    // sweep alone on the caller: cost-descending execution, canonical
    // merge, and a failing unit isolated without re-issue.
    const BAD: usize = 2;
    let es = energies();
    let out = run_ranks(1, |ctx| {
        let mut model = CostModel::band_edge(N_UNITS, 2.0);
        let mut seen = Vec::new();
        let o = dynamic_sweep(&Comm::world(ctx), &es, &mut model, &opts_fast(), |id| {
            seen.push(id);
            if id == BAD {
                Err(omen_num::OmenError::LeadNotConverged {
                    energy: energy(id),
                    iters: 7,
                })
            } else {
                Ok(payload(id))
            }
        })
        .unwrap();
        (o, seen)
    });
    let (o, seen) = out.results.into_iter().next().unwrap().unwrap();
    // Band-edge seed: execution order is most-expensive-first …
    assert_eq!(seen, (0..N_UNITS).collect::<Vec<_>>());
    // … and the merge is in grid order with the failure isolated.
    for (id, v) in o.values.iter().enumerate() {
        let want = (id != BAD).then(|| payload(id));
        assert_eq!(*v, want, "unit {id}");
    }
    assert_eq!(o.report.solved, N_UNITS - 1);
    assert_eq!(o.stats.reissued_failed, 0);
    assert_eq!(o.report.failed.len(), 1);
    assert_eq!(o.report.failed[0].energy, energy(BAD));
    assert!(matches!(
        o.report.failed[0].error,
        omen_num::OmenError::LeadNotConverged { iters: 7, .. }
    ));

    // 2 ranks = coordinator + 1 worker; 5 ranks = 4 workers with skewed
    // injected delays (worker- and unit-dependent, so arrival order is
    // scrambled relative to hand-out order).
    let one_worker = run_dynamic(2, opts_fast(), |_, _| Duration::ZERO);
    let many = run_dynamic(5, opts_fast(), |rank, id| {
        Duration::from_micros(((rank * 7919 + id * 131) % 23) as u64 * 200)
    });

    for outcome in one_worker.iter().chain(many.iter()) {
        assert_eq!(outcome.report.solved, N_UNITS);
        assert!(outcome.report.failed.is_empty());
        assert_payload_bits(outcome);
    }

    // Every member of one run returns the same merged outcome.
    assert!(many.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn repeated_sweeps_on_one_comm_stay_isolated_by_epoch() {
    // The core drivers reuse a single communicator for many sweeps (one per
    // k-point, one per SCF iteration). Each dynamic_sweep call must claim a
    // fresh epoch so straggling traffic from a finished sweep can never be
    // merged into the next one. Run three back-to-back sweeps with skewed
    // delays and a persistent cost model, checking every sweep bit-matches
    // the pure payload map.
    const SWEEPS: usize = 3;
    let es = energies();
    let opts = opts_fast();
    let out = run_ranks(4, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::band_edge(N_UNITS, 2.0);
        let mut sweeps = Vec::new();
        for s in 0..SWEEPS {
            let o = dynamic_sweep(&world, &es, &mut model, &opts, |id| {
                std::thread::sleep(Duration::from_micros(
                    ((ctx.rank() * 541 + id * 89 + s * 17) % 13) as u64 * 150,
                ));
                Ok(payload(id))
            })
            .unwrap();
            sweeps.push(o);
        }
        (sweeps, model.observations())
    });
    for r in out.results {
        let (sweeps, observations) = r.unwrap();
        assert_eq!(sweeps.len(), SWEEPS);
        for o in &sweeps {
            assert_eq!(o.report.solved, N_UNITS);
            assert!(o.report.failed.is_empty());
            assert_payload_bits(o);
        }
        // The coordinator's ledger keeps warming across sweeps.
        let coord_obs = sweeps.iter().map(|o| o.stats.units).sum::<usize>();
        if observations > 0 {
            assert!(observations >= coord_obs.min(N_UNITS));
        }
    }
}

#[test]
fn failing_unit_is_attempted_once_then_isolated() {
    // The solve is pure, so a typed failure is final: the bad unit runs
    // exactly once, nothing is re-issued, and its typed error crosses the
    // wire intact.
    const BAD: usize = 5;
    let es = energies();
    let opts = opts_fast();
    let attempts = AtomicUsize::new(0);
    let out = run_ranks(3, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            if id == BAD {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err(omen_num::OmenError::LeadNotConverged {
                    energy: energy(id),
                    iters: 123,
                })
            } else {
                Ok(payload(id))
            }
        })
        .unwrap()
    });
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "one attempt, no re-issue"
    );
    for r in out.results {
        let o = r.unwrap();
        // The bad unit was abandoned on its first attempt — and only it.
        assert_eq!(o.stats.reissued_failed, 0);
        assert_eq!(o.values[BAD], None);
        assert_eq!(o.report.solved, N_UNITS - 1);
        assert_eq!(o.report.failed.len(), 1);
        let f = &o.report.failed[0];
        assert_eq!(f.energy, energy(BAD));
        assert!(
            matches!(
                f.error,
                omen_num::OmenError::LeadNotConverged { iters: 123, .. }
            ),
            "typed error survives the wire: {:?}",
            f.error
        );
        // Healthy units are unaffected.
        for id in (0..N_UNITS).filter(|&i| i != BAD) {
            assert!(o.values[id].is_some(), "unit {id} must still solve");
        }
    }
}

#[test]
fn dead_worker_is_isolated_and_its_units_rescheduled() {
    // Worker (global rank 2) wedges forever on its first unit; the
    // coordinator must declare it dead, re-issue, and finish without it.
    // The wedged rank itself dies on the runtime receive timeout.
    let es = energies();
    let opts = SchedOptions {
        chunk_max: 2,
        max_reissue: 2,
        poll_ms: 2,
        dead_after_ms: 150,
    };
    let wedge = Duration::from_secs(2);
    let started = start_counters::<4>(N_UNITS);
    let out = run_ranks_with_timeout(4, Duration::from_millis(400), |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            started[id][ctx.rank()].fetch_add(1, Ordering::SeqCst);
            if ctx.rank() == 2 {
                std::thread::sleep(wedge);
            } else {
                // Slow the healthy workers slightly so the wedged worker is
                // guaranteed to have pulled a chunk before the queue drains.
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(payload(id))
        })
        .unwrap()
    });
    let mut healthy = 0;
    for (rank, r) in out.results.into_iter().enumerate() {
        match r {
            Ok(o) => {
                healthy += 1;
                assert_eq!(o.report.solved, N_UNITS, "rank {rank}: all units solve");
                assert!(o.report.failed.is_empty());
                assert_eq!(o.stats.workers_dead, 1);
                assert!(o.stats.reissued_failed >= 1, "wedged units re-issued");
                for id in 0..N_UNITS {
                    let got = o.values[id].as_deref().unwrap();
                    for (a, b) in got.iter().zip(payload(id).iter()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
            Err(e) => {
                assert_eq!(rank, 2, "only the wedged worker may fail: {e}");
            }
        }
    }
    assert_eq!(healthy, 3);
    // One holder per unit: the live ranks solved every unit exactly once,
    // the ones reclaimed from rank 2 included.
    assert_eq!(
        starts(&started, 0) + starts(&started, 1) + starts(&started, 3),
        N_UNITS
    );
}

#[test]
fn solving_coordinator_executes_units_and_stays_bit_identical() {
    // With `coordinator_solves` on and slow workers, the coordinator's idle
    // poll windows pick units off the cheap end of the queue. The merged
    // values must stay bit-identical to the pure payload map, and the
    // stats must witness the coordinator's own work.
    for ranks in [2usize, 4] {
        let outs = run_dynamic(ranks, opts_fast(), |rank, _| {
            if rank == 0 {
                Duration::ZERO
            } else {
                Duration::from_millis(10)
            }
        });
        for o in &outs {
            assert_eq!(o.report.solved, N_UNITS);
            assert!(o.report.failed.is_empty());
            if ranks == 2 {
                // One slow worker guarantees idle poll windows: the
                // coordinator must have solved units itself.
                assert!(
                    o.stats.coordinator_units >= 1,
                    "coordinator solved nothing: {:?}",
                    o.stats
                );
                assert!(o.stats.worker_busy_s[0] > 0.0);
            }
            assert_payload_bits(o);
        }
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn dead_worker_prefetched_chunk_is_reclaimed_and_solved_elsewhere() {
    // Rank 2 wedges in the first unit it starts. With one-unit chunks its
    // request for the next chunk left before that unit began, and the
    // coordinator answers a rank's messages in order, so by the wedge it
    // holds a second, prefetched unit it never starts. Its death must
    // reclaim both — each exactly once — and the live ranks (rank 1 and
    // the solving coordinator) must solve them to the same bits.
    let es = energies();
    let opts = SchedOptions {
        chunk_max: 1,
        max_reissue: 2,
        poll_ms: 2,
        dead_after_ms: 150,
    };
    let started = start_counters::<3>(N_UNITS);
    let out = run_ranks_with_timeout(3, Duration::from_millis(400), |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            started[id][ctx.rank()].fetch_add(1, Ordering::SeqCst);
            // The live ranks are slow enough that rank 2 pulls its chunk
            // before the queue is gone.
            std::thread::sleep(if ctx.rank() == 2 {
                Duration::from_secs(1)
            } else {
                Duration::from_millis(2)
            });
            Ok(payload(id))
        })
    });
    for rank in 0..2 {
        let o = out.results[rank].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(o.report.solved, N_UNITS);
        assert!(o.report.failed.is_empty());
        assert_eq!(o.stats.workers_dead, 1);
        assert_eq!(o.stats.reissued_failed, 2, "in-progress + prefetched");
        assert_payload_bits(o);
    }
    // The live ranks solved every unit once, the two stranded ones
    // included; the sweep was over long before rank 2 woke up to start
    // its prefetched unit.
    assert_eq!(starts(&started, 0) + starts(&started, 1), N_UNITS);
    assert!(starts(&started, 2) >= 1);
    assert!(out.results[2].as_ref().is_ok_and(|r| r.is_err()));
}

#[test]
fn solving_coordinator_finishes_alone_when_every_worker_dies() {
    // Two ranks, and the only worker wedges in its first unit. A
    // coordinator that solves needs no worker: it drains the queue, then
    // reclaims what the dead worker held and solves that too. Nothing is
    // failed for want of a worker.
    let es = energies();
    let opts = SchedOptions {
        dead_after_ms: 100,
        ..opts_fast()
    };
    let wedged = AtomicUsize::new(0);
    let out = run_ranks_with_timeout(2, Duration::from_millis(300), |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            if ctx.rank() == 0 {
                // Slow enough that the worker pulls a chunk before the
                // queue is gone.
                std::thread::sleep(Duration::from_millis(2));
            } else if wedged.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(600));
            }
            Ok(payload(id))
        })
    });
    let o = out.results[0].as_ref().unwrap().as_ref().unwrap();
    assert_eq!(o.report.solved, N_UNITS);
    assert!(o.report.failed.is_empty());
    assert_eq!(o.stats.workers_dead, 1);
    assert!(o.stats.reissued_failed >= 1, "{:?}", o.stats);
    assert_eq!(o.stats.coordinator_units, N_UNITS);
    assert_payload_bits(o);
}

#[test]
fn slow_worker_is_not_dead() {
    // A worker's sign of life while it solves is the result that ends the
    // unit. One unit on the worker runs 0.6 × `dead_after_ms`: slow, not
    // dead — nobody is declared dead, nothing is reclaimed, and the bits
    // are the pure map's.
    const DEAD_AFTER_MS: u64 = 300;
    let es = energies();
    let opts = SchedOptions {
        dead_after_ms: DEAD_AFTER_MS,
        ..opts_fast()
    };
    let worker_starts = AtomicUsize::new(0);
    let out = run_ranks(2, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            let slow = ctx.rank() == 1 && worker_starts.fetch_add(1, Ordering::SeqCst) == 0;
            std::thread::sleep(Duration::from_millis(if slow {
                DEAD_AFTER_MS * 6 / 10
            } else {
                1
            }));
            Ok(payload(id))
        })
        .unwrap()
    });
    assert!(
        worker_starts.load(Ordering::SeqCst) >= 1,
        "the worker solved"
    );
    for r in out.results {
        let o = r.unwrap();
        assert_eq!(o.report.solved, N_UNITS);
        assert_eq!(o.stats.workers_dead, 0, "{:?}", o.stats);
        assert_eq!(o.stats.reissued_failed, 0, "{:?}", o.stats);
        assert_payload_bits(&o);
    }
}

#[test]
fn hand_out_restarts_the_assignee_liveness_clock() {
    // Rank 2 wedges in the first unit of its first chunk and is declared
    // dead. Rank 1 has sat parked on the empty queue since it ran dry; its
    // last message is the re-request after the void probe at half of
    // `dead_after_ms`. It is handed a two-unit chunk of what rank 2 held and
    // starts with the unit rank 2 was solving, which runs 0.8 ×
    // `dead_after_ms` on rank 1 with no message in between — longer than
    // what is left of `dead_after_ms` since the re-request, shorter than
    // `dead_after_ms` from the hand-out. Timed from the hand-out, rank 1 is
    // slow, not dead. Rank 2 wakes before the sweep ends: its late results
    // are dropped and its next request is refused.
    const N: usize = 48;
    const DEAD_AFTER_MS: u64 = 600;
    let es: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let opts = SchedOptions {
        chunk_max: 8,
        max_reissue: 2,
        poll_ms: 2,
        dead_after_ms: DEAD_AFTER_MS,
    };
    let started = start_counters::<3>(N);
    let long_runs = AtomicUsize::new(0);
    let out = run_ranks_with_timeout(3, Duration::from_millis(2 * DEAD_AFTER_MS), |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            let me = ctx.rank();
            started[id][me].fetch_add(1, Ordering::SeqCst);
            let ms = if me == 2 && starts(&started, 2) == 1 {
                DEAD_AFTER_MS * 5 / 4
            } else if me == 1
                && started[id][2].load(Ordering::SeqCst) > 0
                && long_runs.fetch_add(1, Ordering::SeqCst) == 0
            {
                DEAD_AFTER_MS * 4 / 5
            } else {
                2
            };
            std::thread::sleep(Duration::from_millis(ms));
            Ok(payload(id))
        })
    });
    assert!(
        long_runs.load(Ordering::SeqCst) >= 1,
        "rank 1 ran the reclaimed unit"
    );
    for rank in 0..2 {
        let o = out.results[rank].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(o.report.solved, N);
        assert_eq!(o.stats.workers_dead, 1, "only rank 2 died: {:?}", o.stats);
        assert!(o.stats.reissued_failed >= 2, "{:?}", o.stats);
        assert_payload_bits(o);
    }
    assert!(matches!(
        out.results[2].as_ref().unwrap(),
        Err(omen_num::OmenError::RankFailed { .. })
    ));
}

/// Spins the CPU for `d` — a unit that costs compute, not a sleep.
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn coordinator_keeps_pace_with_one_worker() {
    // Two ranks, 64 equal 2 ms units, a 50 ms poll window: the worker's
    // traffic arrives every 2 ms, so a coordinator that solves only after
    // a whole window of silence solves nothing. It must instead solve
    // whenever a unit is queued and take close to half of the sweep.
    const N: usize = 64;
    let es: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let opts = SchedOptions {
        poll_ms: 50,
        ..SchedOptions::default()
    };
    let out = run_ranks(2, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            spin(Duration::from_millis(2));
            Ok(payload(id))
        })
        .unwrap()
    });
    for r in out.results {
        let o = r.unwrap();
        assert!(o.report.is_clean());
        assert!(o.stats.coordinator_units >= 24, "{:?}", o.stats);
        assert!(o.stats.imbalance() <= 1.25, "{:?}", o.stats);
        assert_payload_bits(&o);
    }
}

#[test]
fn fault_free_wall_is_independent_of_poll_ms() {
    // `poll_ms` paces housekeeping only: with no fault, no rank may wait
    // out a window — not a worker whose request found the queue empty, not
    // the coordinator's FIN. Eleven 1 ms units and one of 20 ms leave one
    // worker without work while the other still solves; the sweep must
    // end with the long unit however long the window.
    const N: usize = 12;
    let es: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let opts = SchedOptions {
        poll_ms: 250,
        ..SchedOptions::default()
    };
    let t0 = Instant::now();
    let out = run_ranks(3, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            spin(Duration::from_millis(if id == 0 { 20 } else { 1 }));
            Ok(payload(id))
        })
        .unwrap()
    });
    let wall = t0.elapsed();
    assert!(wall < Duration::from_millis(150), "sweep took {wall:?}");
    for r in out.results {
        let o = r.unwrap();
        assert!(o.report.is_clean());
        let s = &o.stats;
        assert_eq!(s.reissued_failed + s.stale_msgs, 0);
    }
}

#[test]
fn warm_cost_models_keep_merged_sweeps_bit_identical() {
    // Sweep-lifetime persistence must never leak into values: a sweep
    // scheduled from a warm (measured) model is bit-identical to the
    // cold-seeded sweep of the same pure solve, and the bank's counters
    // witness that the warm path actually ran.
    let es = energies();
    let opts = opts_fast();
    let out = run_ranks(3, |ctx| {
        let world = Comm::world(ctx);
        let mut bank = ModelBank::new();
        let seed = || CostModel::band_edge(N_UNITS, 2.0);
        let mut cold = bank.checkout(0, N_UNITS, seed);
        let first = dynamic_sweep(&world, &es, &mut cold, &opts, |id| {
            std::thread::sleep(Duration::from_micros(((id * 37) % 11) as u64 * 120));
            Ok(payload(id))
        })
        .unwrap();
        bank.commit(0, cold);
        let cold_counts = bank.lifetime_counts();
        // Next bias point: warm-started from bias 0's ledger.
        let mut warm = bank.checkout(1, N_UNITS, seed);
        let second = dynamic_sweep(&world, &es, &mut warm, &opts, |id| Ok(payload(id))).unwrap();
        bank.commit(1, warm);
        (first, second, cold_counts, bank.lifetime_counts())
    });
    for r in out.results {
        let (first, second, cold_counts, total_counts) = r.unwrap();
        assert_eq!(
            cold_counts,
            BankCounts {
                hits: 0,
                warmed: 0,
                seeded: 1
            }
        );
        assert_eq!(
            total_counts,
            BankCounts {
                hits: 0,
                warmed: 1,
                seeded: 1
            },
            "the second sweep warmed, it did not seed again"
        );
        assert_eq!(first.report.solved, N_UNITS);
        assert_eq!(second.report.solved, N_UNITS);
        for id in 0..N_UNITS {
            let a = first.values[id].as_deref().unwrap();
            let b = second.values[id].as_deref().unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "unit {id} cold vs warm");
            }
        }
    }
}

//! Scheduler determinism and fault-isolation battery.
//!
//! The contract under test: a dynamically scheduled sweep produces values
//! *bit-identical* to the static/serial evaluation of the same pure solve,
//! regardless of worker count, injected per-unit delays, stragglers or
//! duplicated copies — and a persistently failing unit is re-issued a
//! bounded number of times, then isolated as a typed entry in the
//! outcome's `SweepReport` instead of failing the whole sweep.

use omen_parsim::{run_ranks, run_ranks_with_timeout, Comm};
use omen_sched::proto::{encode_worker, WorkerMsg, TAG_CTRL};
use omen_sched::{
    dynamic_sweep, local_sweep, BankCounts, CostModel, ModelBank, SchedOptions, SweepOutcome,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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

fn opts_fast() -> SchedOptions {
    SchedOptions {
        chunk_max: 3,
        max_reissue: 2,
        poll_ms: 2,
        straggler_factor: 50.0,
        straggler_min_ms: 5_000,
        dead_after_ms: 20_000,
        coordinator_solves: true,
    }
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
    // Serial reference (also exercises the single-member fast path).
    let es = energies();
    let mut model = CostModel::band_edge(N_UNITS, 2.0);
    let serial = local_sweep(&es, &mut model, |id| Ok(payload(id)));
    assert!(serial.report.is_clean());

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
        for id in 0..N_UNITS {
            let got = outcome.values[id].as_deref().unwrap();
            let want = &serial.values[id].as_deref().unwrap();
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "unit {id} not bit-identical");
            }
        }
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
    // the serial reference.
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
    let serial = {
        let mut model = CostModel::band_edge(N_UNITS, 2.0);
        local_sweep(&es, &mut model, |id| Ok(payload(id)))
    };
    for r in out.results {
        let (sweeps, observations) = r.unwrap();
        assert_eq!(sweeps.len(), SWEEPS);
        for o in &sweeps {
            assert_eq!(o.report.solved, N_UNITS);
            assert!(o.report.failed.is_empty());
            for id in 0..N_UNITS {
                let got = o.values[id].as_deref().unwrap();
                let want = serial.values[id].as_deref().unwrap();
                for (a, b) in got.iter().zip(want.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        // The coordinator's ledger keeps warming across sweeps.
        let coord_obs = sweeps.iter().map(|o| o.stats.units).sum::<usize>();
        if observations > 0 {
            assert!(observations >= coord_obs.min(N_UNITS));
        }
    }
}

#[test]
fn failing_unit_is_reissued_bounded_then_isolated() {
    const BAD: usize = 5;
    let es = energies();
    let opts = opts_fast();
    let out = run_ranks(3, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            if id == BAD {
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
    for r in out.results {
        let o = r.unwrap();
        // The bad unit was attempted 1 + max_reissue times, then abandoned
        // — and only it.
        assert_eq!(o.stats.reissued_failed, opts.max_reissue);
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
        straggler_factor: 1_000.0,
        straggler_min_ms: 60_000, // keep straggler logic out of this test
        dead_after_ms: 150,
        coordinator_solves: false, // pin exact re-issue accounting
    };
    let wedge = Duration::from_secs(2);
    let out = run_ranks_with_timeout(4, Duration::from_millis(400), |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
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
}

#[test]
fn straggler_copy_is_speculatively_reissued_first_result_wins() {
    // Units are ~1 ms except unit 0, which wedges its first copy (and any
    // re-issued copy) for 600 ms. With a tight straggler bound the
    // coordinator speculatively re-issues unit 0 long before the first
    // copy lands; late copies are duplicates. Nobody dies, values stay
    // bit-identical.
    let es = energies();
    let opts = SchedOptions {
        chunk_max: 1,
        max_reissue: 2,
        poll_ms: 2,
        straggler_factor: 10.0,
        straggler_min_ms: 60,
        dead_after_ms: 30_000,
        coordinator_solves: false, // the 600 ms wedge must stay on a worker
    };
    let out = run_ranks(4, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(N_UNITS);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            if id == 0 {
                std::thread::sleep(Duration::from_millis(600));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = ctx.rank();
            Ok(payload(id))
        })
        .unwrap()
    });
    for r in out.results {
        let o = r.unwrap();
        assert_eq!(o.report.solved, N_UNITS);
        assert!(o.report.failed.is_empty());
        assert_eq!(o.stats.workers_dead, 0, "slow is not dead");
        // LPT hand-out gives unit 0 to the first requester, so the wedge
        // engages and must have triggered a speculative re-issue.
        assert!(
            o.stats.reissued_straggler + o.stats.duplicate_results >= 1,
            "straggler path exercised: {:?}",
            o.stats
        );
        for id in 0..N_UNITS {
            let got = o.values[id].as_deref().unwrap();
            for (a, b) in got.iter().zip(payload(id).iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

#[test]
fn solving_coordinator_executes_units_and_stays_bit_identical() {
    // With `coordinator_solves` on and slow workers, the coordinator's idle
    // poll windows pick units off the cheap end of the queue. The merged
    // values must stay bit-identical to the serial reference, and the
    // stats must witness the coordinator's own work.
    let es = energies();
    let serial = {
        let mut model = CostModel::band_edge(N_UNITS, 2.0);
        local_sweep(&es, &mut model, |id| Ok(payload(id)))
    };
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
            for id in 0..N_UNITS {
                let got = o.values[id].as_deref().unwrap();
                let want = serial.values[id].as_deref().unwrap();
                for (a, b) in got.iter().zip(want.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "unit {id} not bit-identical");
                }
            }
        }
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn dead_worker_heartbeat_race_does_not_double_count_reissues() {
    // Regression for the heartbeat/dead-worker race: a worker that
    // heartbeats a unit it does not hold and then goes silent must not
    // cause that unit to be re-issued when it is declared dead — only the
    // dying rank's own in-flight copy is reclaimed. The old bookkeeping
    // kept a single `assigned_to` rank per unit, so the spurious heartbeat
    // re-attributed the covered unit to the dying rank and its death
    // double-counted the re-issue (and spawned a duplicate copy).
    const N: usize = 8;
    let es: Vec<f64> = (0..N).map(|i| i as f64 * 0.1).collect();
    let opts = SchedOptions {
        chunk_max: 1,
        max_reissue: 2,
        poll_ms: 2,
        straggler_factor: 1_000.0,
        straggler_min_ms: 60_000, // keep straggler logic out of this test
        dead_after_ms: 350,
        coordinator_solves: false, // pin exact re-issue accounting
    };
    let attempts = AtomicUsize::new(0);
    let second_holder = AtomicUsize::new(usize::MAX);
    let wedger = AtomicUsize::new(usize::MAX);
    let out = run_ranks_with_timeout(3, Duration::from_millis(400), |ctx| {
        let world = Comm::world(ctx);
        let me = ctx.rank();
        let mut model = CostModel::uniform(N);
        // First sweep on a fresh communicator: epoch 1 (what the injected
        // heartbeats below must carry to pass the coordinator's gate).
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            if id == 0 {
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    // First copy fails fast: re-issue #1.
                    std::thread::sleep(Duration::from_millis(50));
                    return Err(omen_num::OmenError::LeadNotConverged {
                        energy: es[0],
                        iters: 1,
                    });
                }
                // Second copy: a long solve that stays visibly alive by
                // re-heartbeating its own unit (the legitimate refresh).
                second_holder.store(me, Ordering::SeqCst);
                for _ in 0..6 {
                    std::thread::sleep(Duration::from_millis(100));
                    world.send(
                        0,
                        TAG_CTRL,
                        encode_worker(&WorkerMsg::Heartbeat { epoch: 1, unit: 0 }, me),
                    );
                }
                return Ok(payload(0));
            }
            let holder = second_holder.load(Ordering::SeqCst);
            if holder != usize::MAX
                && holder != me
                && wedger
                    .compare_exchange(usize::MAX, me, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                // Spurious heartbeat for a unit this rank does NOT hold,
                // then permanent silence — this rank is declared dead while
                // the true copy of unit 0 is still in flight.
                world.send(
                    0,
                    TAG_CTRL,
                    encode_worker(&WorkerMsg::Heartbeat { epoch: 1, unit: 0 }, me),
                );
                std::thread::sleep(Duration::from_millis(2_500));
            } else {
                std::thread::sleep(Duration::from_millis(30));
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
                assert_eq!(o.report.solved, N, "rank {rank}: all units solve");
                assert!(o.report.failed.is_empty());
                assert_eq!(o.stats.workers_dead, 1);
                // Exactly two re-issues: the failed first copy of unit 0
                // plus the dead worker's own in-flight unit. The spurious
                // heartbeat must not add a third, and no duplicate copy of
                // unit 0 may ever be spawned.
                assert_eq!(o.stats.reissued_failed, 2, "rank {rank}: {:?}", o.stats);
                assert_eq!(o.stats.reissued_straggler, 0, "rank {rank}: {:?}", o.stats);
                assert_eq!(o.stats.duplicate_results, 0, "rank {rank}: {:?}", o.stats);
                for id in 0..N {
                    let got = o.values[id].as_deref().unwrap();
                    for (a, b) in got.iter().zip(payload(id).iter()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
            Err(e) => {
                assert_eq!(
                    rank,
                    wedger.load(Ordering::SeqCst),
                    "only the wedged worker may fail: {e}"
                );
            }
        }
    }
    assert!(healthy >= 2, "coordinator and the true holder both finish");
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
        let mut cold = bank.checkout(0, 0, N_UNITS, seed);
        let first = dynamic_sweep(&world, &es, &mut cold, &opts, |id| {
            std::thread::sleep(Duration::from_micros(((id * 37) % 11) as u64 * 120));
            Ok(payload(id))
        })
        .unwrap();
        bank.commit(0, 0, cold);
        let cold_counts = bank.lifetime_counts();
        // Next bias point, same k: warm-started from bias 0's ledger.
        let mut warm = bank.checkout(1, 0, N_UNITS, seed);
        let second = dynamic_sweep(&world, &es, &mut warm, &opts, |id| Ok(payload(id))).unwrap();
        bank.commit(1, 0, warm);
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

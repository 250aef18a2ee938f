//! Properties of the global flop counter: totals are *exact* — not
//! approximate — for GEMM and LU at every thread count, and concurrent
//! reporting from many threads loses nothing.
//!
//! The counter backs the paper-reproduction harness (tab2/fig7 derive
//! sustained-performance numbers from measured counts), so "roughly right"
//! is not good enough: a parallel kernel that double-counted its trailing
//! updates or dropped increments under contention would silently corrupt
//! every downstream figure. The tests serialize on a local mutex because
//! the counter is process-global.

use omen::linalg::flops::{flop_count, gemm_flops, lu_flops, trsm_flops};
use omen::linalg::{gemm_threaded, lu::Lu, FlopScope, Op, ZMat};
use omen::num::c64;
use std::sync::Mutex;

/// Serializes counter-delta measurements within this test binary.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn randmat(nr: usize, nc: usize, seed: u64) -> ZMat {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
    let mut next = move || {
        s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()))
}

/// Diagonally dominant so `Lu::factor` can never fail mid-measurement.
fn dd_mat(n: usize, seed: u64) -> ZMat {
    let mut a = randmat(n, n, seed);
    for i in 0..n {
        a[(i, i)] += c64::real(n as f64);
    }
    a
}

#[test]
fn gemm_total_is_exact_at_every_thread_count() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // Mixed shapes and ops; the count must be 8·m·n·k per call, once —
    // independent of tiling, thread fan-out, or transposition copies.
    let cases = [(3usize, 4usize, 5usize), (13, 67, 9), (70, 70, 70)];
    for t in [1usize, 2, 8] {
        let scope = FlopScope::new();
        let mut expected = 0u64;
        for &(m, k, n) in &cases {
            let a = randmat(m, k, 1);
            let b = randmat(k, n, 2);
            let mut c = ZMat::zeros(m, n);
            gemm_threaded(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c, t);
            expected += gemm_flops(m, n, k);
        }
        assert_eq!(scope.take(), expected, "threads={t}");
    }
}

#[test]
fn lu_total_is_exact_for_unblocked_and_blocked_paths() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // The blocked paths route their trailing and off-diagonal updates
    // through the *uncounted* GEMM core, and every row update of the panel
    // factor and the triangular solves through the *uncounted* AXPY entry;
    // a regression that switched either to the public, counting entry
    // point would double-count and fail these exact equalities.
    for &n in &[5usize, 32, 48, 60, 90, 97] {
        let a = dd_mat(n, 11 + n as u64);
        let scope = FlopScope::new();
        let f = Lu::factor(&a).expect("diagonally dominant");
        assert_eq!(scope.take(), lu_flops(n), "factor n={n}");
        for nrhs in [1usize, 3, n] {
            let b = randmat(n, nrhs, 5);
            let scope = FlopScope::new();
            let _ = f.solve_mat(&b);
            assert_eq!(scope.take(), trsm_flops(n, nrhs), "solve n={n} nrhs={nrhs}");
        }
        let scope = FlopScope::new();
        let _ = f.solve_vec(&randmat(n, 1, 6).col(0));
        assert_eq!(scope.take(), trsm_flops(n, 1), "solve_vec n={n}");
        let scope = FlopScope::new();
        let _ = f.inverse();
        assert_eq!(scope.take(), trsm_flops(n, n), "inverse n={n}");
    }
}

#[test]
fn counter_is_race_free_under_concurrent_kernels() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // 8 threads hammer the counter with interleaved GEMMs and LUs; the
    // global delta must equal the exact sum of every kernel's report —
    // any lost update (a non-atomic read-modify-write) shows up as a
    // deficit here.
    const WORKERS: usize = 8;
    const REPS: usize = 10;
    let (m, k, n) = (17usize, 23usize, 13usize);
    let lu_n = 50usize; // blocked path, so its internal GEMM runs too
    let before = flop_count();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                let a = randmat(m, k, w as u64);
                let b = randmat(k, n, 100 + w as u64);
                let d = dd_mat(lu_n, 200 + w as u64);
                for _ in 0..REPS {
                    let mut c = ZMat::zeros(m, n);
                    gemm_threaded(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c, 2);
                    let _ = Lu::factor(&d).expect("diagonally dominant");
                }
            });
        }
    });
    let delta = flop_count().wrapping_sub(before);
    let expected = (WORKERS * REPS) as u64 * (gemm_flops(m, n, k) + lu_flops(lu_n));
    assert_eq!(delta, expected);
}

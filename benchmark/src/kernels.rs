//! The dense kernels at the block sizes the workloads run them at: n = 32
//! (single-band 1 nm wire) and n = 90 (sp3s* 0.8 nm wire). The solvers call
//! `gemm`/`Lu::factor` thousands of times per curve at exactly these sizes,
//! so these rates — and what a second thread does to them — bound
//! `sustained_gflops`.

use crate::gen::Rng;
use crate::metrics::Outcome;
use crate::stats::median;
use omen_linalg::flops::{gemm_flops, lu_flops};
use omen_linalg::{gemm_threaded, Lu, Op, ZMat};
use omen_num::c64;
use std::hint::black_box;
use std::time::Instant;

fn random_matrix(n: usize, rng: &mut Rng) -> ZMat {
    // Diagonally dominant, so the LU never meets a tiny pivot.
    ZMat::from_fn(n, n, |i, j| {
        let d = if i == j { n as f64 } else { 0.0 };
        c64::new(rng.unit() - 0.5 + d, rng.unit() - 0.5)
    })
}

/// Median seconds per call of `f`, over `samples` batches of `batch` calls.
fn per_call_s(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let walls: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&walls)
}

pub fn measure(out: &mut Outcome, smoke: bool) {
    let samples = if smoke { 3 } else { 15 };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rng = Rng::new(0x6b65_726e, 0);
    for (n, gemm_name, lu_name, ratio_name) in [
        (
            32,
            "linalg.gemm_n32_gflops",
            "linalg.lu_n32_gflops",
            "linalg.gemm_n32_t2_over_t1",
        ),
        (
            90,
            "linalg.gemm_n90_gflops",
            "linalg.lu_n90_gflops",
            "linalg.gemm_n90_t2_over_t1",
        ),
    ] {
        let a = random_matrix(n, &mut rng);
        let b = random_matrix(n, &mut rng);
        let mut c = ZMat::zeros(n, n);
        // ~2 ms of work per batch at either size.
        let batch = if smoke {
            4
        } else {
            (64 * 90 * 90 * 90) / (n * n * n) / 16 + 4
        };
        let mut gemm_s = |threads: usize| {
            per_call_s(samples, batch, || {
                gemm_threaded(
                    c64::ONE,
                    black_box(&a),
                    Op::N,
                    black_box(&b),
                    Op::N,
                    c64::ZERO,
                    &mut c,
                    threads,
                );
            })
        };
        let t1 = gemm_s(1);
        let tn = gemm_s(nproc);
        let lu_s = per_call_s(samples, batch, || {
            black_box(Lu::factor(black_box(&a)).is_ok());
        });
        out.put(gemm_name, gemm_flops(n, n, n) as f64 / t1 * 1e-9, samples);
        out.put(lu_name, lu_flops(n) as f64 / lu_s * 1e-9, samples);
        // Wall time at `nproc` threads over wall time at one: above 1, the
        // second thread costs more than it saves.
        out.put(ratio_name, tn / t1, samples);
    }
}

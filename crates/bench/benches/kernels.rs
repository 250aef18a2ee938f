//! Microbenchmarks for the dense and transport kernels — the performance
//! baselines behind tab2/tab3 and the machine-model calibration in fig7.
//!
//! Self-contained timing harness (`harness = false`): each kernel runs a
//! warm-up pass, then is sampled repeatedly with `std::time::Instant`; the
//! median and minimum per-iteration times are reported, and the dense
//! kernel measurements (GEMM and the LU family — factor, multi-RHS solve,
//! inverse — across sizes and thread counts, plus the n = 8 and 16
//! blocks as the `*_small` kernels) are merged
//! into the repo-root `BENCH_kernels.json` baseline (schema:
//! `omen_bench::records`). Run with `cargo bench -p omen-bench`.
//!
//! `--smoke` runs tiny sizes with a single sample and publishes to the
//! ledger's smoke twin under `target/` instead (`records::publish`),
//! round-tripping it through the parser — the CI gate uses this to
//! exercise the parallel kernels and the emitter on every run without
//! touching the committed baseline.

use omen_bench::records::{publish, KernelRecord};
use omen_bench::sample_secs;
use omen_core::{solve_point, Engine};
use omen_lattice::{Crystal, Device};
use omen_linalg::{eigh, eigh_values, flops, gemm_threaded, lu::Lu, threads, Op, ZMat};
use omen_num::{c64, A_SI};
use omen_tb::{DeviceHamiltonian, Material, TbParams};

fn randmat(n: usize, seed: u64) -> ZMat {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    ZMat::from_fn(n, n, |_, _| c64::new(next(), next()))
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

fn report(name: &str, (median, min): (f64, f64)) {
    println!(
        "{name:<28} median {:>12}   min {:>12}",
        fmt_time(median),
        fmt_time(min)
    );
}

/// Samples/target scaled down so the big sizes stay affordable.
fn plan(n: usize, smoke: bool) -> (usize, f64) {
    if smoke {
        (1, 0.0)
    } else if n >= 256 {
        (3, 0.0)
    } else {
        (7, 0.02)
    }
}

/// Thread counts measured for one size: the baseline trajectory pins 1, 2
/// and 4 threads at the flagship size so speedup is read straight from the
/// JSON, plus the machine's configured width when it differs.
fn thread_counts(n: usize, flagship: usize) -> Vec<usize> {
    let mut ts = vec![1usize];
    if n >= flagship {
        ts.extend([2, 4]);
        let conf = threads::configured_threads();
        if !ts.contains(&conf) {
            ts.push(conf);
        }
        ts.sort_unstable();
    }
    ts
}

/// True when this process dispatches the AVX2+FMA microkernel — stamped
/// into every record so scalar and SIMD measurements stay separate rows.
fn simd_flag() -> bool {
    threads::simd_path() == threads::SimdPath::Avx2Fma
}

/// Prints one timing and appends its ledger record; `work` is the counted
/// flops of one call.
fn record(
    out: &mut Vec<KernelRecord>,
    (kernel, label): (&str, &str),
    (n, threads): (usize, usize),
    work: u64,
    (median, min): (f64, f64),
) {
    report(label, (median, min));
    out.push(KernelRecord {
        kernel: kernel.into(),
        n,
        threads,
        simd: simd_flag(),
        median_s: median,
        min_s: min,
        gflops: work as f64 / median / 1e9,
    });
}

fn bench_gemm(sizes: &[usize], flagship: usize, smoke: bool, out: &mut Vec<KernelRecord>) {
    for &n in sizes {
        let a = randmat(n, 1);
        let b = randmat(n, 2);
        let mut c = ZMat::zeros(n, n);
        let (samples, target) = plan(n, smoke);
        for t in thread_counts(n, flagship) {
            let timing = sample_secs(samples, target, || {
                gemm_threaded(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c, t);
            });
            record(
                out,
                ("gemm", "zgemm"),
                (n, t),
                flops::gemm_flops(n, n, n),
                timing,
            );
        }
    }
}

/// The LU family at one size: the factorization (`lu`), the multi-RHS
/// triangular solve with `n` right-hand sides (`trsm`) and the explicit
/// inverse (`inverse`) — the three calls a contact decimation, a Thomas
/// elimination and an RGF slab make per block.
fn bench_lu(sizes: &[usize], flagship: usize, smoke: bool, out: &mut Vec<KernelRecord>) {
    for &n in sizes {
        let mut a = randmat(n, 3);
        for i in 0..n {
            a[(i, i)] += c64::real(n as f64);
        }
        let b = randmat(n, 4);
        let f = Lu::factor(&a).expect("bench matrix is diagonally dominant");
        let (samples, target) = plan(n, smoke);
        // The trailing and off-diagonal updates pick their width from the
        // ambient policy, so pin it through OMEN_THREADS for the measurement.
        let saved = std::env::var(threads::THREADS_ENV).ok();
        for t in thread_counts(n, flagship) {
            std::env::set_var(threads::THREADS_ENV, t.to_string());
            let timing = sample_secs(samples, target, || {
                Lu::factor(&a).expect("bench matrix is diagonally dominant")
            });
            record(
                out,
                ("lu", &format!("zgetrf/{n}/t{t}")),
                (n, t),
                flops::lu_flops(n),
                timing,
            );
            let timing = sample_secs(samples, target, || f.solve_mat(&b));
            record(
                out,
                ("trsm", &format!("zgetrs/{n}/t{t}")),
                (n, t),
                flops::trsm_flops(n, n),
                timing,
            );
            let timing = sample_secs(samples, target, || f.inverse());
            record(
                out,
                ("inverse", &format!("zgetri/{n}/t{t}")),
                (n, t),
                flops::inverse_flops(n),
                timing,
            );
        }
        match saved {
            Some(v) => std::env::set_var(threads::THREADS_ENV, v),
            None => std::env::remove_var(threads::THREADS_ENV),
        }
    }
}

/// GEMM, factorization and inverse at n = 8 and 16, the blocks a
/// decimation over a lead's coupling support would run (ROADMAP item 3).
/// A 4 × 8 microkernel block on such operands is mostly ragged edge and
/// call overhead, so the rows carry kernels of their own (`gemm_small`,
/// `lu_small`, `inverse_small`) with their own floors, instead of pulling
/// the n ≥ 32 groups' floors down. Every size here runs on one thread.
fn bench_small(out: &mut Vec<KernelRecord>) {
    for n in [8usize, 16] {
        let a = randmat(n, 1);
        let b = randmat(n, 2);
        let mut c = ZMat::zeros(n, n);
        let (samples, target) = plan(n, false);
        let timing = sample_secs(samples, target, || {
            gemm_threaded(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c, 1);
        });
        let label = format!("zgemm/{n}");
        let work = flops::gemm_flops(n, n, n);
        record(out, ("gemm_small", &label), (n, 1), work, timing);
        let mut d = randmat(n, 3);
        for i in 0..n {
            d[(i, i)] += c64::real(n as f64);
        }
        let factor = || Lu::factor(&d).expect("bench matrix is diagonally dominant");
        let timing = sample_secs(samples, target, factor);
        let label = format!("zgetrf/{n}");
        record(
            out,
            ("lu_small", &label),
            (n, 1),
            flops::lu_flops(n),
            timing,
        );
        let f = factor();
        let timing = sample_secs(samples, target, || f.inverse());
        let label = format!("zgetri/{n}");
        let work = flops::inverse_flops(n);
        record(out, ("inverse_small", &label), (n, 1), work, timing);
    }
}

/// Tree-structured selected inversion on a synthetic block-tridiagonal
/// system. The flop count is taken from the instrumented kernels (one
/// counted solve), so the reported Gflop/s stays honest as the algorithm
/// evolves.
fn bench_selinv(smoke: bool, out: &mut Vec<KernelRecord>) {
    let (nb, bs, samples, target) = if smoke {
        (12, 8, 1, 0.0)
    } else {
        (24, 24, 7, 0.02)
    };
    let diag: Vec<ZMat> = (0..nb)
        .map(|i| {
            let mut m = randmat(bs, 5 + i as u64);
            for k in 0..bs {
                m[(k, k)] += c64::real(bs as f64 + 4.0);
            }
            m
        })
        .collect();
    let lower: Vec<ZMat> = (0..nb - 1).map(|i| randmat(bs, 100 + i as u64)).collect();
    let upper: Vec<ZMat> = (0..nb - 1).map(|i| randmat(bs, 200 + i as u64)).collect();
    let a = omen_sparse::BlockTridiag::from_dense(diag, lower, upper);
    let gl = randmat(bs, 300).hermitian_part();
    let gr = randmat(bs, 301).hermitian_part();

    flops::reset_flops();
    omen_negf::selinv_solve(&a, &gl, &gr).expect("dominant bench system is regular");
    let work = flops::reset_flops();

    let timing = sample_secs(samples, target, || {
        omen_negf::selinv_solve(&a, &gl, &gr).expect("dominant bench system is regular")
    });
    record(
        out,
        ("selinv", &format!("selinv/{nb}x{bs}")),
        (nb * bs, 1),
        work,
        timing,
    );
}

/// The eigen calls the transport path makes, at its sizes: eigenvalues of a
/// lead's Bloch Hamiltonian under every transport window (block n = 32 and
/// 90), and the full decomposition of Γ on its 7–20-orbital support under
/// every injection bundle. Printed only: the eigen path has one scalar
/// routine, so there is no SIMD/scalar pair for bench-gate to hold.
fn bench_eigh() {
    for n in [32usize, 90] {
        let a = randmat(n, 4).hermitian_part();
        let name = format!("zheev_values/{n}");
        report(&name, sample_secs(11, 0.02, || eigh_values(&a)));
    }
    for n in [8usize, 20] {
        let a = randmat(n, 4).hermitian_part();
        report(&format!("zheev/{n}"), sample_secs(11, 0.02, || eigh(&a)));
    }
}

fn bench_transport() {
    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 8, 1.2, 1.2);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot = vec![0.0; dev.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let e = -3.2;

    report(
        "transport_point/rgf",
        sample_secs(11, 0.02, || {
            solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
        }),
    );
    report(
        "transport_point/wf_thomas",
        sample_secs(11, 0.02, || {
            solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::WfThomas)
        }),
    );
    report(
        "transport_point/wf_bcr",
        sample_secs(11, 0.02, || {
            solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::WfBcr)
        }),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Resolve and announce the kernel dispatch before timing anything, so
    // every printed number and JSON record is attributable to a path.
    omen_core::log::emit_kernel_dispatch();
    println!(
        "omen-bench kernels ({}, {} host threads, {})",
        if smoke {
            "smoke: tiny sizes, 1 sample"
        } else {
            "median/min over samples"
        },
        threads::configured_threads(),
        threads::dispatch_summary()
    );

    let mut records = Vec::new();
    if smoke {
        // Tiny but structurally honest: 60 > the LU panel width, so the
        // blocked path and its threaded trailing GEMM both run.
        bench_gemm(&[24, 40], 40, true, &mut records);
        bench_lu(&[24, 60], 60, true, &mut records);
        bench_selinv(true, &mut records);
    } else {
        // 32 and 90 are the block sizes the benchmark workloads run
        // (single-band 1 nm wire, sp3s* 0.8 nm wire).
        bench_small(&mut records);
        bench_gemm(&[32, 64, 90, 128, 256, 512], 512, false, &mut records);
        bench_lu(&[32, 64, 90, 128, 256, 512], 512, false, &mut records);
        bench_selinv(false, &mut records);
        bench_eigh();
        bench_transport();
    }

    let path = publish(smoke, &records).expect("publish kernel records");
    println!(
        "wrote {} kernel records -> {}",
        records.len(),
        path.display()
    );
}

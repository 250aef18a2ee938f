//! Tiled, packed, multi-threaded complex GEMM with a register-blocked
//! microkernel.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` where each operand op is
//! none, transpose, or conjugate-transpose. The kernel packs both operands
//! into microkernel-friendly panels — op(B) once up front into `NR`-wide
//! column panels per `KC`-deep k-block (the transpose/conjugate of
//! `Op::T`/`Op::H` is folded into that single packing pass), and per
//! `MC`-high output stripe the A tile into `MR`-interleaved row panels
//! with α folded in — then walks `MR×NR` output blocks with an
//! outer-product microkernel that keeps all `MR·NR` complex accumulators
//! in registers across the k-loop. Both packs go into per-thread buffers
//! that are reused from call to call (`PackBufs`), so at the block sizes
//! the transport engines run (n = 32…90) the driver around the
//! microkernel allocates and zero-fills nothing.
//!
//! ## Dispatch
//!
//! The microkernel has two implementations behind the single dispatch
//! point [`crate::threads::simd_path`] (`OMEN_SIMD`, resolved once per
//! process): the portable scalar reference below and the `x86_64`
//! AVX2+FMA variant in `crate::simd`. Both consume the same packed
//! panels; zero padding at ragged edges lets one kernel shape serve every
//! block, with the store loop masking the padded rows/columns.
//!
//! ## Parallelism and determinism
//!
//! Stripes are distributed over `std::thread::scope` workers, each owning
//! a disjoint contiguous row range of C **split at multiples of `MR`**, so
//! a row's microkernel row-panel — and with it every rounding step of its
//! k-accumulation (k-blocks ascending, entries ascending inside a block,
//! one register accumulation per block) — is independent of the thread
//! count. For a fixed dispatch path the parallel result is therefore
//! **bit-identical** to the serial one. Across dispatch paths results
//! agree only to rounding: FMA and split accumulators legitimately change
//! the rounding sequence (DESIGN.md §10), so cross-path agreement is an
//! oracle-tolerance contract, never bit equality. The thread count comes
//! from [`crate::threads`] (`OMEN_THREADS`, default: available
//! parallelism, serial below [`crate::threads::PAR_MIN_WORK`]);
//! `gemm_threaded` pins it explicitly.

use crate::flops;
use crate::matrix::ZMat;
use crate::threads::{self, SimdPath};
use omen_num::c64;
use std::cell::RefCell;

/// Operand transformation for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    N,
    /// Use the plain transpose.
    T,
    /// Use the conjugate (Hermitian) transpose.
    H,
}

impl Op {
    fn apply(self, a: &ZMat) -> ZMat {
        match self {
            Op::N => a.clone(),
            Op::T => a.transpose(),
            Op::H => a.adjoint(),
        }
    }

    fn dims(self, a: &ZMat) -> (usize, usize) {
        match self {
            Op::N => (a.nrows(), a.ncols()),
            Op::T | Op::H => (a.ncols(), a.nrows()),
        }
    }
}

/// Output stripe height (rows packed and processed per A panel).
const MC: usize = 64;

/// Panel depth (k-extent of a packed A tile / B panel); 64 complex
/// values = 1 KiB per packed row.
const KC: usize = 64;

/// Microkernel register-block height (C rows per A row-panel).
pub(crate) const MR: usize = 4;

/// Microkernel register-block width (C columns per B column-panel).
pub(crate) const NR: usize = 4;

/// The calling thread's packing buffers, kept across calls so the GEMM
/// driver allocates only when a call needs more than any before it on
/// this thread: `a` holds one stripe's A tile (at most `MC·KC` values),
/// `b` the whole packed op(B). Stale contents are harmless — both packing
/// passes write every slot the kernels read, zero padding included.
#[derive(Default)]
struct PackBufs {
    a: Vec<c64>,
    b: Vec<c64>,
}

thread_local! {
    static PACK: RefCell<PackBufs> = RefCell::default();
}

/// Grows `buf` to at least `len` values and returns its first `len`.
fn reserve(buf: &mut Vec<c64>, len: usize) -> &mut [c64] {
    if buf.len() < len {
        buf.resize(len, c64::ZERO);
    }
    &mut buf[..len]
}

/// Packs op(B) (effective shape `k×n`) into `out` in the microkernel
/// layout: per `KC`-deep k-block in ascending-k order, `NR`-wide column
/// panels, each holding `kc·NR` contiguous values `op(B)[kk+p, j0+jj]` at
/// `p·NR + jj`, zero-padded to `NR` when `n` is ragged. The
/// transpose/conjugate of `Op::T`/`Op::H` is folded into this single
/// pass, so op(B) is never materialized.
fn pack_b(out: &mut [c64], b: &ZMat, opb: Op, k: usize, n: usize) {
    let padded_n = n.div_ceil(NR) * NR;
    for kk in (0..k).step_by(KC) {
        let k_hi = (kk + KC).min(k);
        let kc = k_hi - kk;
        let block = &mut out[kk * padded_n..k_hi * padded_n];
        match opb {
            Op::N => {
                for p in 0..kc {
                    let row = b.row(kk + p);
                    for (jp, j0) in (0..n).step_by(NR).enumerate() {
                        let nr = (n - j0).min(NR);
                        let dst = &mut block[jp * kc * NR + p * NR..][..NR];
                        dst[..nr].copy_from_slice(&row[j0..j0 + nr]);
                        dst[nr..].fill(c64::ZERO);
                    }
                }
            }
            Op::T | Op::H => {
                // op(B)[p, j] = stored B[j, p] (conjugated for H): per
                // destination column j the source is one contiguous row of
                // the stored matrix, so the fold costs no strided reads.
                for (jp, j0) in (0..n).step_by(NR).enumerate() {
                    let nr = (n - j0).min(NR);
                    let panel = &mut block[jp * kc * NR..(jp + 1) * kc * NR];
                    for jj in 0..nr {
                        let src = &b.row(j0 + jj)[kk..k_hi];
                        if opb == Op::T {
                            for (p, &v) in src.iter().enumerate() {
                                panel[p * NR + jj] = v;
                            }
                        } else {
                            for (p, &v) in src.iter().enumerate() {
                                panel[p * NR + jj] = v.conj();
                            }
                        }
                    }
                    for jj in nr..NR {
                        for p in 0..kc {
                            panel[p * NR + jj] = c64::ZERO;
                        }
                    }
                }
            }
        }
    }
}

/// Portable scalar `MR×NR` microkernel — the reference arithmetic order:
/// `acc[ii·NR + jj] = Σ_p ap[p·MR + ii] · bp[p·NR + jj]` with `p`
/// ascending and each product accumulated through one `c64` multiply-add.
/// One column of the block per pass: `MR` live accumulators fit the
/// baseline (SSE2) register file, where the full `MR·NR` set spills; the
/// k-panels re-read on every pass stay in L1. Per output element the
/// accumulation chain is its own, so loop nesting does not affect the
/// result bit-wise.
#[inline(always)]
fn mk_scalar(kc: usize, ap: &[c64], bp: &[c64], acc: &mut [c64; MR * NR]) {
    for jj in 0..NR {
        let mut a0 = c64::ZERO;
        let mut a1 = c64::ZERO;
        let mut a2 = c64::ZERO;
        let mut a3 = c64::ZERO;
        for p in 0..kc {
            let b = bp[p * NR + jj];
            let av = &ap[p * MR..(p + 1) * MR];
            a0 += av[0] * b;
            a1 += av[1] * b;
            a2 += av[2] * b;
            a3 += av[3] * b;
        }
        acc[jj] = a0;
        acc[NR + jj] = a1;
        acc[2 * NR + jj] = a2;
        acc[3 * NR + jj] = a3;
    }
}

/// Runs the microkernel selected by `path` on one packed panel pair.
#[inline(always)]
fn run_microkernel(path: SimdPath, kc: usize, ap: &[c64], bp: &[c64], acc: &mut [c64; MR * NR]) {
    match path {
        SimdPath::Scalar => mk_scalar(kc, ap, bp, acc),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2Fma => {
            // SAFETY: `Avx2Fma` is only ever selected by
            // `threads::simd_path` after `is_x86_feature_detected!`
            // confirmed avx2+fma, and the packed (padded) panels hold the
            // full `kc·MR` / `kc·NR` values the kernel reads.
            unsafe { crate::simd::mk4x4(kc, ap.as_ptr(), bp.as_ptr(), acc) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2Fma => mk_scalar(kc, ap, bp, acc),
    }
}

/// Runs the stripe kernel over rows `row0..row0 + nrows` of C, whose
/// storage is the disjoint slice `cdata` (row-major, width `n`). `a` is
/// the effective (already materialized) left operand; `bpack` is the
/// packed op(B) built by [`pack_b`]; `abuf` is this thread's A-tile
/// buffer. `row0` is always a multiple of `MR` (the thread split
/// guarantees it), so row-panel membership — and with it every element's
/// rounding sequence — is thread-count invariant.
#[allow(clippy::too_many_arguments)]
fn stripe_kernel(
    cdata: &mut [c64],
    row0: usize,
    nrows: usize,
    a: &ZMat,
    abuf: &mut Vec<c64>,
    bpack: &[c64],
    alpha: c64,
    k: usize,
    n: usize,
    path: SimdPath,
) {
    let padded_n = n.div_ceil(NR) * NR;
    let apack = reserve(abuf, nrows.min(MC).div_ceil(MR) * MR * k.min(KC));
    let mut acc = [c64::ZERO; MR * NR];
    for s0 in (0..nrows).step_by(MC) {
        let s_hi = (s0 + MC).min(nrows);
        let mc = s_hi - s0;
        let rpanels = mc.div_ceil(MR);
        for kk in (0..k).step_by(KC) {
            let k_hi = (kk + KC).min(k);
            let kc = k_hi - kk;
            // Pack the A tile MR-interleaved with α folded in (a plain
            // copy when α = 1): panel rp stores α·A[row0+s0+rp·MR+ii, kk+p]
            // at rp·kc·MR + p·MR + ii, zero-padded when the stripe's rows
            // run out. Row fragments of A are strided `k` apart in memory;
            // the packed panel keeps the whole tile in cache across the
            // stripe's column panels.
            for rp in 0..rpanels {
                let base = rp * kc * MR;
                for ii in 0..MR {
                    let r = s0 + rp * MR + ii;
                    if r < s_hi {
                        let src = &a.row(row0 + r)[kk..k_hi];
                        if alpha == c64::ONE {
                            for (p, &v) in src.iter().enumerate() {
                                apack[base + p * MR + ii] = v;
                            }
                        } else {
                            for (p, &v) in src.iter().enumerate() {
                                apack[base + p * MR + ii] = alpha * v;
                            }
                        }
                    } else {
                        for p in 0..kc {
                            apack[base + p * MR + ii] = c64::ZERO;
                        }
                    }
                }
            }
            let bblock = &bpack[kk * padded_n..k_hi * padded_n];
            for rp in 0..rpanels {
                let ap = &apack[rp * kc * MR..(rp + 1) * kc * MR];
                let rbase = s0 + rp * MR;
                let mr = (s_hi - rbase).min(MR);
                for (jp, j0) in (0..n).step_by(NR).enumerate() {
                    let nr = (n - j0).min(NR);
                    let bp = &bblock[jp * kc * NR..(jp + 1) * kc * NR];
                    run_microkernel(path, kc, ap, bp, &mut acc);
                    // One store per k-block: the masked add keeps padded
                    // rows/columns out of C without a separate edge kernel.
                    for ii in 0..mr {
                        let crow = &mut cdata[(rbase + ii) * n + j0..(rbase + ii) * n + j0 + nr];
                        for (cv, &av) in crow.iter_mut().zip(&acc[ii * NR..ii * NR + nr]) {
                            *cv += av;
                        }
                    }
                }
            }
        }
    }
}

/// Shared core: beta scaling, operand packing, stripe fan-out.
/// Counts no flops — the public entry points (and the blocked LU, which
/// accounts its trailing updates inside `lu_flops`) decide what to report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    alpha: c64,
    a: &ZMat,
    opa: Op,
    b: &ZMat,
    opb: Op,
    beta: c64,
    c: &mut ZMat,
    threads: usize,
) {
    let (m, ka) = opa.dims(a);
    let (kb, n) = opb.dims(b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!((c.nrows(), c.ncols()), (m, n), "gemm output shape mismatch");
    let k = ka;

    if beta == c64::ZERO {
        c.data_mut().fill(c64::ZERO);
    } else if beta != c64::ONE {
        c.scale_inplace(beta);
    }
    if alpha == c64::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }

    let path = threads::simd_path();

    // Materialize the effective row-major left operand (`Op::N` is
    // borrowed as-is); op(B) folds its transform into the packing instead.
    let ae;
    let a_eff: &ZMat = if opa == Op::N {
        a
    } else {
        ae = opa.apply(a);
        &ae
    };
    let blocks = m.div_ceil(MR);
    let t = threads.clamp(1, blocks);
    PACK.with_borrow_mut(|pack| {
        let PackBufs { a: abuf, b: bbuf } = pack;
        let bpack = reserve(bbuf, k * n.div_ceil(NR) * NR);
        pack_b(bpack, b, opb, k, n);
        let bpack = &*bpack;
        if t == 1 {
            stripe_kernel(c.data_mut(), 0, m, a_eff, abuf, bpack, alpha, k, n, path);
            return;
        }

        // Contiguous row chunks, one per worker, split at multiples of MR
        // so every row keeps its microkernel row-panel regardless of the
        // thread count (see module docs); balanced to ±MR rows. Each
        // worker packs its A tiles into its own thread's buffer.
        let base = blocks / t;
        let rem = blocks % t;
        std::thread::scope(|scope| {
            let mut rest = c.data_mut();
            let mut row0 = 0usize;
            for ti in 0..t {
                let nblocks = base + usize::from(ti < rem);
                let rows = (nblocks * MR).min(m - row0);
                let (chunk, tail) = rest.split_at_mut(rows * n);
                rest = tail;
                let start = row0;
                scope.spawn(move || {
                    PACK.with_borrow_mut(|mine| {
                        let abuf = &mut mine.a;
                        stripe_kernel(chunk, start, rows, a_eff, abuf, bpack, alpha, k, n, path)
                    })
                });
                row0 += rows;
            }
        });
    });
}

/// General matrix multiply-accumulate `C ← α·op(A)·op(B) + β·C`, run with
/// the automatic thread policy of [`crate::threads`] (`OMEN_THREADS`,
/// default available parallelism, serial fallback for small problems) and
/// the microkernel selected by [`crate::threads::simd_path`] (`OMEN_SIMD`).
///
/// Panics on dimension mismatch or invalid `OMEN_THREADS`/`OMEN_SIMD`.
/// Reports `8·m·n·k` real flops.
pub fn gemm(alpha: c64, a: &ZMat, opa: Op, b: &ZMat, opb: Op, beta: c64, c: &mut ZMat) {
    let (m, k) = opa.dims(a);
    let (_, n) = opb.dims(b);
    let work = m as u64 * n as u64 * k as u64;
    gemm_threaded(alpha, a, opa, b, opb, beta, c, threads::auto_threads(work));
}

/// [`gemm`] with an explicitly pinned thread count (`threads ≥ 1`; clamped
/// to the row-panel count). For a fixed dispatch path the output is
/// bit-identical for every `threads` value — the conformance battery
/// relies on this to compare serial and parallel runs exactly.
///
/// Panics on dimension mismatch or invalid `OMEN_SIMD`. Reports `8·m·n·k`
/// real flops.
#[allow(clippy::too_many_arguments)]
pub fn gemm_threaded(
    alpha: c64,
    a: &ZMat,
    opa: Op,
    b: &ZMat,
    opb: Op,
    beta: c64,
    c: &mut ZMat,
    threads: usize,
) {
    let (m, k) = opa.dims(a);
    let (_, n) = opb.dims(b);
    flops::add_flops(flops::gemm_flops(m, n, k));
    gemm_core(alpha, a, opa, b, opb, beta, c, threads);
}

/// Convenience: `A · B`.
pub fn matmul(a: &ZMat, b: &ZMat) -> ZMat {
    let mut c = ZMat::zeros(a.nrows(), b.ncols());
    gemm(c64::ONE, a, Op::N, b, Op::N, c64::ZERO, &mut c);
    c
}

/// Convenience: `A† · B`.
pub fn matmul_h_n(a: &ZMat, b: &ZMat) -> ZMat {
    let mut c = ZMat::zeros(a.ncols(), b.ncols());
    gemm(c64::ONE, a, Op::H, b, Op::N, c64::ZERO, &mut c);
    c
}

/// Convenience: `A · B†`.
pub fn matmul_n_h(a: &ZMat, b: &ZMat) -> ZMat {
    let mut c = ZMat::zeros(a.nrows(), b.nrows());
    gemm(c64::ONE, a, Op::N, b, Op::H, c64::ZERO, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn randmat(nr: usize, nc: usize, seed: u64) -> ZMat {
        // Tiny deterministic LCG so unit tests avoid dev-dependency plumbing.
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()))
    }

    fn naive_mul(a: &ZMat, b: &ZMat) -> ZMat {
        ZMat::from_fn(a.nrows(), b.ncols(), |i, j| {
            (0..a.ncols()).map(|k| a[(i, k)] * b[(k, j)]).sum()
        })
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 2), (7, 5, 9), (70, 65, 80)] {
            let a = randmat(m, k, 1);
            let b = randmat(k, n, 2);
            let c = matmul(&a, &b);
            let r = naive_mul(&a, &b);
            let mut err = 0.0f64;
            for i in 0..m {
                for j in 0..n {
                    err = err.max((c[(i, j)] - r[(i, j)]).abs());
                }
            }
            assert!(err < 1e-11 * k as f64, "m={m} k={k} n={n} err={err}");
        }
    }

    #[test]
    fn ops_match_explicit_transposes() {
        let a = randmat(4, 6, 3);
        let b = randmat(4, 5, 4);
        // A† B: (6x4)(4x5)
        let c = matmul_h_n(&a, &b);
        let r = naive_mul(&a.adjoint(), &b);
        assert!((&c - &r).max_abs() < 1e-12);
        // A B† with compatible dims
        let a2 = randmat(3, 6, 5);
        let b2 = randmat(4, 6, 6);
        let c2 = matmul_n_h(&a2, &b2);
        let r2 = naive_mul(&a2, &b2.adjoint());
        assert!((&c2 - &r2).max_abs() < 1e-12);
        // T op
        let mut c3 = ZMat::zeros(6, 5);
        gemm(c64::ONE, &a, Op::T, &b.conj(), Op::N, c64::ZERO, &mut c3);
        let r3 = naive_mul(&a.transpose(), &b.conj());
        assert!((&c3 - &r3).max_abs() < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = randmat(3, 3, 7);
        let b = randmat(3, 3, 8);
        let c0 = randmat(3, 3, 9);
        let mut c = c0.clone();
        let alpha = c64::new(0.5, -1.0);
        let beta = c64::new(2.0, 0.25);
        gemm(alpha, &a, Op::N, &b, Op::N, beta, &mut c);
        let r = &naive_mul(&a, &b).scaled(alpha) + &c0.scaled(beta);
        assert!((&c - &r).max_abs() < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = randmat(5, 5, 11);
        let e = ZMat::eye(5);
        assert!((&matmul(&a, &e) - &a).max_abs() < 1e-14);
        assert!((&matmul(&e, &a) - &a).max_abs() < 1e-14);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Shapes chosen to cross the MC/KC tile boundaries, leave ragged
        // remainder tiles, and leave ragged MR/NR microkernel edges.
        for (m, k, n) in [(1, 130, 3), (67, 97, 81), (130, 64, 65)] {
            let a = randmat(m, k, 41);
            let b = randmat(k, n, 42);
            let c0 = randmat(m, n, 43);
            let alpha = c64::new(0.7, -0.3);
            let beta = c64::new(-1.0, 0.1);
            let mut serial = c0.clone();
            gemm_threaded(alpha, &a, Op::N, &b, Op::N, beta, &mut serial, 1);
            for t in [2usize, 3, 8, 16] {
                let mut par = c0.clone();
                gemm_threaded(alpha, &a, Op::N, &b, Op::N, beta, &mut par, t);
                for (x, y) in par.data().iter().zip(serial.data()) {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "threads={t} not bit-identical for {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_counts_flops() {
        crate::flops::reset_flops();
        let a = randmat(10, 20, 31);
        let b = randmat(20, 30, 32);
        let _ = matmul(&a, &b);
        assert!(crate::flops::flop_count() >= 8 * 10 * 20 * 30);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = ZMat::zeros(2, 3);
        let b = ZMat::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}

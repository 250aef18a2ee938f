//! Tiled complex GEMM with a register-blocked microkernel.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` where each operand op is
//! none, transpose, or conjugate-transpose. The driver walks `MR×NR`
//! output blocks (`MR × 2NR` on 512-bit lanes) per `KC`-deep k-block
//! with an outer-product microkernel that keeps all of a block's complex
//! accumulators in registers across the k-loop, and adds each block's
//! sums into C once per k-block.
//!
//! ## Operands in place
//!
//! The microkernel reads row-major operands where they lie: each of a
//! block's `MR` A rows is `kc` contiguous values of α·op(A), and each B
//! row `kc` values of op(B) `n` apart. α·op(A) is `A` itself when
//! `op = N` and α = 1; otherwise it is written row-major into a
//! per-thread buffer first, α folded into each entry by one `c64`
//! product. A ragged block — fewer than `MR` rows or than the block's
//! columns left — repeats its last A row, loads and stores B and C under
//! lane masks, and stores only its own rows, so no padded copy exists.
//!
//! op(B) is packed instead into `NR`-wide column panels per k-block (one
//! pass that also folds `Op::T`/`Op::H`) when the product is one of the
//! shapes where that measured faster (`packs`): a transposed B, which
//! must be copied either way, and products with `m, n ≥ PACK_MIN_MN`,
//! whose B rows are too far apart to stream. The panels are one more
//! stride set of the same kernel body (`simd::block`), so both drivers
//! give the same bits: every C entry gets the same products, `p`
//! ascending inside a k-block, in the same split accumulators starting
//! from +0, and one add into C per k-block. Which one runs is a
//! performance decision only.
//!
//! ## Dispatch
//!
//! The microkernel has two implementations behind the single dispatch
//! point [`crate::threads::simd_path`] (`OMEN_SIMD`, resolved once per
//! process): the portable scalar reference below and the `x86_64`
//! AVX2+FMA variant in `crate::simd`, which runs 256 or 512 bits wide
//! (`threads::lanes`, by feature detection alone: both widths give the
//! same bits). All take one `Block` and add into C themselves.
//!
//! ## Determinism
//!
//! The product runs on the calling thread (the parallel levels are above
//! the kernels, `crate::threads`), so for a fixed dispatch path every
//! output element's rounding sequence — k-blocks ascending, entries
//! ascending inside a block, one register accumulation per block — is
//! fixed by the shapes alone. Across dispatch paths results agree only to
//! rounding: FMA and split accumulators legitimately change the rounding
//! sequence (DESIGN.md §10), so cross-path agreement is an
//! oracle-tolerance contract, never bit equality.

use crate::flops;
use crate::matrix::ZMat;
use crate::threads::{self, Lanes};
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
    fn dims(self, a: &ZMat) -> (usize, usize) {
        match self {
            Op::N => (a.nrows(), a.ncols()),
            Op::T | Op::H => (a.ncols(), a.nrows()),
        }
    }
}

/// Output stripe height: C rows that run through every k-block before
/// the next stripe starts.
const MC: usize = 64;

/// k-block depth: C gets one add of each entry's sums per `KC` products.
pub(crate) const KC: usize = 64;

/// Microkernel register-block height (C rows per block).
pub(crate) const MR: usize = 4;

/// Microkernel register-block width (C columns per B column-panel).
pub(crate) const NR: usize = 4;

/// Smallest `m` and `n` at which an untransposed op(B) is packed. One
/// process alternated the two drivers on `gemm` (β = 1, 512-bit lanes,
/// median of 31 pairs; EXPERIMENTS.md "No-pack products"): in place over
/// packed read 0.60 / 0.65 / 0.79 / 0.87 / 0.90 at n = 8 / 16 / 32 / 90 /
/// 128, a tie at 256 (0.99–1.03) and 384 (1.02), and 1.07–1.13 at 512,
/// where a k-block of B rows 8 KiB apart no longer streams. A transposed B is packed at every size: it
/// is copied either way, and a row-major copy read in place took
/// 0.93–1.22× the time of the copy into panels.
const PACK_MIN_MN: usize = 512;

/// Whether [`gemm_core`] packs op(B) for an `m×n` product (see
/// [`PACK_MIN_MN`]).
fn packs(m: usize, n: usize, opb: Op) -> bool {
    opb != Op::N || m.min(n) >= PACK_MIN_MN
}

/// One `MR × panels·NR` block of the product as a microkernel reads it.
///
/// Validity (what the kernels' safety rests on, established by
/// `stripe_kernel` from slices): every `a[ii]` is readable for `kc`
/// values; B panel `r < panels` is readable at
/// `r·b_panel + p·b_step + j` for `p < kc` and every column `j` the block
/// stores; C is readable and writable at `ii·ldc + jj`, `ii < mr`,
/// `jj < nr`.
#[derive(Clone, Copy)]
pub(crate) struct Block {
    /// Depth of the k-block.
    pub(crate) kc: usize,
    /// Row `ii` of the A block, `kc` contiguous values; rows past `mr`
    /// repeat row `mr − 1`.
    pub(crate) a: [*const c64; MR],
    /// Row 0 of the block's first B panel.
    pub(crate) b: *const c64,
    /// Distance between consecutive B rows: `n` in place, `NR` packed.
    pub(crate) b_step: usize,
    /// Distance between adjacent B panels: `NR` in place, `kc·NR` packed.
    pub(crate) b_panel: usize,
    /// B panels in the block: 1, or 2 on [`Lanes::Avx512`].
    pub(crate) panels: usize,
    /// The block's first C entry.
    pub(crate) c: *mut c64,
    /// C's row stride.
    pub(crate) ldc: usize,
    /// C rows the block adds into (≤ `MR`).
    pub(crate) mr: usize,
    /// C columns the block adds into (≤ `panels·NR`).
    pub(crate) nr: usize,
}

/// The calling thread's operand buffers, kept across calls so the GEMM
/// driver allocates only when a call needs more than any before it on
/// this thread: `a` holds α·op(A) when that is not `A` itself, `b` the
/// packed op(B). Stale contents are harmless: every slot a kernel reads
/// is written first.
#[derive(Default)]
struct Scratch {
    a: Vec<c64>,
    b: Vec<c64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Grows `buf` to at least `len` values and returns its first `len`.
fn reserve(buf: &mut Vec<c64>, len: usize) -> &mut [c64] {
    if buf.len() < len {
        buf.resize(len, c64::ZERO);
    }
    &mut buf[..len]
}

/// Writes α·op(A) row-major into `out`: op(A)'s entries at α = 1,
/// otherwise `alpha * v` for each entry `v` of op(A).
fn scaled_op(out: &mut [c64], a: &ZMat, opa: Op, alpha: c64) {
    let f = |v: c64| {
        let v = if opa == Op::H { v.conj() } else { v };
        if alpha == c64::ONE {
            v
        } else {
            alpha * v
        }
    };
    if opa == Op::N {
        for (o, &v) in out.iter_mut().zip(a.data()) {
            *o = f(v);
        }
    } else {
        // op(A)[i, p] = A[p, i]: read the stored rows contiguously.
        let w = a.nrows();
        for p in 0..w {
            for (i, &v) in a.row(p).iter().enumerate() {
                out[i * w + p] = f(v);
            }
        }
    }
}

/// Packs op(B) (effective shape `k×n`) into `out` in the microkernel
/// layout: per `KC`-deep k-block in ascending-k order, `NR`-wide column
/// panels, each holding `kc·NR` contiguous values `op(B)[kk+p, j0+jj]` at
/// `p·NR + jj`. The transpose/conjugate of `Op::T`/`Op::H` is folded into
/// this single pass. A ragged last panel's unused slots are never read.
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
                        let dst = &mut block[jp * kc * NR + p * NR..][..nr];
                        dst.copy_from_slice(&row[j0..j0 + nr]);
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
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * NR + jj] = if opb == Op::H { v.conj() } else { v };
                        }
                    }
                }
            }
        }
    }
}

/// Portable scalar microkernel — the reference arithmetic order: adds
/// `Σ_p a(ii, p) · b(p, jj)` into C for every stored entry, with `p`
/// ascending and each product accumulated through one `c64`
/// multiply-add. One column of the block per pass: `MR` live
/// accumulators fit the baseline (SSE2) register file, where the full
/// `MR·NR` set spills. Per output element the accumulation chain is its
/// own, so loop nesting does not affect the result bit-wise.
///
/// # Safety
///
/// `blk` describes valid operands (see [`Block`]).
unsafe fn mk_scalar(blk: &Block) {
    for jj in 0..blk.nr {
        let b = blk.b.add(jj / NR * blk.b_panel + jj % NR);
        let mut acc = [c64::ZERO; MR];
        for p in 0..blk.kc {
            let bv = *b.add(p * blk.b_step);
            for (a, &row) in acc.iter_mut().zip(&blk.a) {
                *a += *row.add(p) * bv;
            }
        }
        for (ii, a) in acc.into_iter().take(blk.mr).enumerate() {
            *blk.c.add(ii * blk.ldc + jj) += a;
        }
    }
}

/// Adds one block of the product into C on the kernels `lanes`.
///
/// # Safety
///
/// `blk` describes valid operands (see [`Block`]) and at most
/// `lanes.panels()` B panels.
#[inline(always)]
unsafe fn run_microkernel(lanes: Lanes, blk: &Block) {
    match lanes {
        Lanes::Scalar => mk_scalar(blk),
        // SAFETY (both arms): the lanes are only ever `Avx2` / `Avx512`
        // once `is_x86_feature_detected!` confirmed the features (see
        // `threads::Lanes`).
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => crate::simd::mk_avx2(blk),
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx512 => crate::simd::mk_avx512(blk),
        #[cfg(not(target_arch = "x86_64"))]
        Lanes::Avx2 | Lanes::Avx512 => mk_scalar(blk),
    }
}

impl Lanes {
    /// Adjacent B panels one microkernel call covers: the 512-bit kernel
    /// takes two (`MR × 2NR`), the others one.
    fn panels(self) -> usize {
        if self == Lanes::Avx512 {
            2
        } else {
            1
        }
    }
}

/// Where the stripe kernel reads op(B): row-major `k×n` in place, or
/// packed by [`pack_b`].
#[derive(Clone, Copy)]
enum BSource<'a> {
    InPlace(&'a [c64]),
    Packed(&'a [c64]),
}

/// Runs the stripe kernel over the `nrows` rows of C, whose storage is
/// `cdata` (row-major, width `n`). `a` is α·op(A), row-major `nrows×k`.
fn stripe_kernel(
    cdata: &mut [c64],
    nrows: usize,
    a: &[c64],
    b: BSource,
    (k, n): (usize, usize),
    lanes: Lanes,
) {
    let npanels = n.div_ceil(NR);
    let padded_n = npanels * NR;
    let a_row = |r: usize, kk: usize, kc: usize| &a[r * k + kk..][..kc];
    for s0 in (0..nrows).step_by(MC) {
        let s_hi = (s0 + MC).min(nrows);
        for kk in (0..k).step_by(KC) {
            let k_hi = (kk + KC).min(k);
            let kc = k_hi - kk;
            for rbase in (s0..s_hi).step_by(MR) {
                let mr = (s_hi - rbase).min(MR);
                let a_rows =
                    std::array::from_fn(|ii| a_row(rbase + ii.min(mr - 1), kk, kc).as_ptr());
                let mut jp = 0;
                while jp < npanels {
                    let panels = lanes.panels().min(npanels - jp);
                    let j0 = jp * NR;
                    let nr = (n - j0).min(panels * NR);
                    let (bp, b_step, b_panel) = match b {
                        BSource::Packed(bpack) => {
                            let bp = &bpack[kk * padded_n + jp * kc * NR..][..panels * kc * NR];
                            (bp.as_ptr(), NR, kc * NR)
                        }
                        BSource::InPlace(bm) => {
                            let bp = &bm[kk * n + j0..(k_hi - 1) * n + j0 + nr];
                            (bp.as_ptr(), n, NR)
                        }
                    };
                    let c = &mut cdata[rbase * n + j0..(rbase + mr - 1) * n + j0 + nr];
                    let blk = Block {
                        kc,
                        a: a_rows,
                        b: bp,
                        b_step,
                        b_panel,
                        panels,
                        c: c.as_mut_ptr(),
                        ldc: n,
                        mr,
                        nr,
                    };
                    // SAFETY: every pointer in `blk` comes from a slice
                    // that covers what `Block` promises the kernel: `kc`
                    // values of each A row, the B block through row
                    // `kc − 1` and column `nr − 1` (of row-major op(B), or
                    // of `panels` packed `kc×NR` panels), and the C block
                    // through row `mr − 1` and column `nr − 1`.
                    unsafe { run_microkernel(lanes, &blk) };
                    jp += panels;
                }
            }
        }
    }
}

/// Shared core: beta scaling, operand preparation and the stripes, on
/// the kernels `lanes`. Counts no flops — the public entry points (and
/// the blocked LU, which accounts its trailing updates inside
/// `lu_flops`) decide what to report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    lanes: Lanes,
    alpha: c64,
    a: &ZMat,
    opa: Op,
    b: &ZMat,
    opb: Op,
    beta: c64,
    c: &mut ZMat,
) {
    let packed = packs(c.nrows(), c.ncols(), opb);
    gemm_driver((lanes, packed), alpha, (a, opa), (b, opb), beta, c);
}

/// [`gemm_core`] with the B operand's treatment chosen by the caller:
/// packed, or (for `opb = N` only) read in place.
pub(crate) fn gemm_driver(
    (lanes, packed): (Lanes, bool),
    alpha: c64,
    (a, opa): (&ZMat, Op),
    (b, opb): (&ZMat, Op),
    beta: c64,
    c: &mut ZMat,
) {
    let (m, ka) = opa.dims(a);
    let (kb, n) = opb.dims(b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!((c.nrows(), c.ncols()), (m, n), "gemm output shape mismatch");
    assert!(packed || opb == Op::N, "a transposed B is always packed");
    let k = ka;

    if beta == c64::ZERO {
        c.data_mut().fill(c64::ZERO);
    } else if beta != c64::ONE {
        c.scale_inplace(beta);
    }
    if alpha == c64::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }

    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { a: abuf, b: bbuf } = scratch;
        let a_eff: &[c64] = if opa == Op::N && alpha == c64::ONE {
            a.data()
        } else {
            let out = reserve(abuf, m * k);
            scaled_op(out, a, opa, alpha);
            out
        };
        let b_src = if packed {
            let out = reserve(bbuf, k * n.div_ceil(NR) * NR);
            pack_b(out, b, opb, k, n);
            BSource::Packed(out)
        } else {
            BSource::InPlace(b.data())
        };
        stripe_kernel(c.data_mut(), m, a_eff, b_src, (k, n), lanes);
    });
}

/// General matrix multiply-accumulate `C ← α·op(A)·op(B) + β·C` on the
/// calling thread, with the microkernel selected by
/// [`crate::threads::simd_path`] (`OMEN_SIMD`).
///
/// Panics on dimension mismatch or invalid `OMEN_SIMD`. Reports `8·m·n·k`
/// real flops.
pub fn gemm(alpha: c64, a: &ZMat, opa: Op, b: &ZMat, opb: Op, beta: c64, c: &mut ZMat) {
    let (m, k) = opa.dims(a);
    let (_, n) = opb.dims(b);
    flops::add_flops(flops::gemm_flops(m, n, k));
    gemm_core(threads::lanes(), alpha, a, opa, b, opb, beta, c);
}

/// [`gemm`]. `_threads` is unused (every product runs on the calling
/// thread); the function stays because the `benchmark/` kernel probes call
/// this signature.
#[allow(clippy::too_many_arguments)]
pub fn gemm_threaded(
    alpha: c64,
    a: &ZMat,
    opa: Op,
    b: &ZMat,
    opb: Op,
    beta: c64,
    c: &mut ZMat,
    _threads: usize,
) {
    gemm(alpha, a, opa, b, opb, beta, c);
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

    /// The kernels this host runs: scalar, and the SIMD widths it has.
    fn host_lanes() -> Vec<Lanes> {
        let mut lanes = vec![Lanes::Scalar];
        if threads::simd_supported() {
            lanes.push(Lanes::Avx2);
        }
        if threads::avx512_supported() {
            lanes.push(Lanes::Avx512);
        }
        lanes
    }

    fn same_bits(a: &ZMat, b: &ZMat) -> bool {
        a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// The no-pack driver gives the packed driver's bits on every kernel
    /// the host runs (widths it lacks are skipped): the width battery's
    /// shapes, then every residue of m, n modulo `MR` and `2·NR` at
    /// k = 1, `KC`, `KC` + 1 and 2·`KC` + 3; all nine op pairs, α and β
    /// each 1, −1 or 0, and general. A transposed B is
    /// always packed, so its in-place run gets op(B) written out.
    #[test]
    fn in_place_operands_give_the_packed_bits() {
        let mut shapes = vec![
            (5, 7, 13),
            (13, 67, 7),
            (67, 13, 97),
            (1, 130, 1),
            (130, 1, 67),
            (2, 97, 130),
            (67, 97, 66),
            (90, 20, 90),
            (20, 20, 90),
        ];
        for m in 1..=2 * MR {
            for n in 1..=2 * NR {
                for k in [1, KC, KC + 1, 2 * KC + 3] {
                    shapes.push((m, k, n));
                }
            }
        }
        let ops = [Op::N, Op::T, Op::H];
        let mut runs = vec![];
        for lanes in host_lanes() {
            for alpha in [c64::ONE, -c64::ONE, c64::new(0.37, -0.82)] {
                for beta in [c64::ZERO, c64::ONE, c64::new(-1.1, 0.25)] {
                    runs.push((lanes, alpha, beta));
                }
            }
        }
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = 10 * si as u64;
            let c0 = randmat(m, n, seed + 3);
            for (opa, opb) in ops.iter().flat_map(|&x| ops.map(|y| (x, y))) {
                let stored = |op: Op, r: usize, c: usize, seed: u64| {
                    if op == Op::N {
                        randmat(r, c, seed)
                    } else {
                        randmat(c, r, seed)
                    }
                };
                let a = stored(opa, m, k, seed + 1);
                let b = stored(opb, k, n, seed + 2);
                let b_eff = match opb {
                    Op::N => b.clone(),
                    Op::T => b.transpose(),
                    Op::H => b.adjoint(),
                };
                for &(lanes, alpha, beta) in &runs {
                    let (mut packed, mut in_place) = (c0.clone(), c0.clone());
                    let a = (&a, opa);
                    gemm_driver((lanes, true), alpha, a, (&b, opb), beta, &mut packed);
                    gemm_driver(
                        (lanes, false),
                        alpha,
                        a,
                        (&b_eff, Op::N),
                        beta,
                        &mut in_place,
                    );
                    assert!(
                        same_bits(&packed, &in_place),
                        "{m}x{k}x{n} {opa:?}{opb:?} {lanes:?} alpha={alpha:?} beta={beta:?}"
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

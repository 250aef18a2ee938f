//! AVX2+FMA and AVX-512F kernels for the GEMM hot path and the BLAS-1
//! ops.
//!
//! Everything here is the `SimdPath::Avx2Fma` half of the dispatch in
//! [`crate::threads`]; the scalar reference implementations live next to
//! their call sites (`crate::gemm`, `crate::vec_ops`). A `c64` is stored
//! as interleaved `[re, im]` (`repr(C)`), so one register holds two
//! (`ymm`) or four (`zmm`) complex values and a complex multiply-accumulate
//! becomes the classic split-accumulator sequence:
//!
//! ```text
//! acc1 += broadcast(a.re) · b          → Σ [aᵣbᵣ, aᵣbᵢ]
//! acc2 += broadcast(a.im) · b          → Σ [aᵢbᵣ, aᵢbᵢ]
//! result = addsub(acc1, swap(acc2))    → [Σaᵣbᵣ − Σaᵢbᵢ, Σaᵣbᵢ + Σaᵢbᵣ]
//! ```
//!
//! i.e. two FMAs per register of complex multiply-adds in the steady
//! state, with the real/imag cross terms kept in **separate accumulator
//! chains** that are combined once after the k-loop. The within-pair swap
//! is applied to the finished `acc2`, not to `b` inside the loop: the
//! same products in the same order, each in its partner lane. This changes
//! the rounding sequence relative to the scalar path (each product pair is
//! no longer rounded through a single `c64` multiply), which is exactly
//! why the SIMD/scalar contract is oracle-tolerance agreement, not bit
//! equality (DESIGN.md §10). Within this path all arithmetic is
//! per-element deterministic, so thread-count bit-identity holds just as
//! it does for the scalar path.
//!
//! **Two widths, one set of bits.** The GEMM microkernel and `axpy` are
//! each one `#[inline(always)]` body over the [`Reg`] operations,
//! instantiated once in an `avx2,fma` function over `__m256d` and once in
//! an `avx512f` function over `__m512d`. A `zmm` lane performs the scalar
//! operation a `ymm` lane performs on the same element — the `addsub` is
//! `fmaddsub(a, 1.0, b)` at 512 bits, exact because the product by 1.0 is —
//! so the wide kernels give the 256-bit kernels' output to the bit. The
//! width is therefore resolved by feature detection alone
//! ([`crate::threads`]) and is no dispatch leg. `dot` stays 256-bit: its
//! two lanes hold the even- and odd-element partial sums, and a wider
//! register would regroup them.
//!
//! Safety: every kernel here requires AVX2+FMA (the `512` ones AVX-512F
//! too) at runtime. They are `pub(crate)` and only reachable through the
//! [`crate::threads::simd_path`] dispatch, which selects `Avx2Fma`
//! exclusively after `is_x86_feature_detected!("avx2")` / `("fma")` both
//! succeed, and its 512-bit width only after `("avx512f")` does.
#![cfg(target_arch = "x86_64")]

use crate::gemm::{Block, MR, NR};
use core::arch::x86_64::{
    __m256d, __m256i, __m512d, __mmask8, _mm256_add_pd, _mm256_addsub_pd, _mm256_broadcast_sd,
    _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_mul_pd,
    _mm256_permute_pd, _mm256_setr_epi64x, _mm256_setzero_pd, _mm256_storeu_pd, _mm512_add_pd,
    _mm512_fmadd_pd, _mm512_fmaddsub_pd, _mm512_loadu_pd, _mm512_mask_storeu_pd,
    _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_permute_pd, _mm512_set1_pd, _mm512_storeu_pd,
};
use omen_num::c64;

/// One vector register of interleaved `c64` values and the operations the
/// kernel bodies are written in. Every lane-wise operation does per lane
/// what the scalar `f64` operation does, so an element's result does not
/// depend on the register width it was computed at.
///
/// The methods are `unsafe` and `#[inline(always)]`: they are only sound,
/// and only compile to single instructions, inside a function compiled
/// for the register's target features.
trait Reg: Copy {
    /// `c64` values per register.
    const C64S: usize;
    /// Selects the first `n ≤ C64S` complex values of a register.
    type Mask: Copy;
    unsafe fn mask(n: usize) -> Self::Mask;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    /// Loads the masked values; the others read as zero and their memory
    /// is not touched.
    unsafe fn load_masked(p: *const f64, m: Self::Mask) -> Self;
    /// Stores the masked values; the memory of the others is not touched.
    unsafe fn store_masked(self, p: *mut f64, m: Self::Mask);
    /// `a·b + c`, one rounding.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    /// Swaps `re` and `im` within every complex value.
    unsafe fn swap(self) -> Self;
    /// `self − b` on the real (even) lanes, `self + b` on the imaginary.
    unsafe fn addsub(self, b: Self) -> Self;
}

impl Reg for __m256d {
    const C64S: usize = 2;
    type Mask = __m256i;
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        let (lo, hi) = (-i64::from(n > 0), -i64::from(n > 1));
        _mm256_setr_epi64x(lo, lo, hi, hi)
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_broadcast_sd(&x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: __m256i) -> Self {
        _mm256_maskload_pd(p, m)
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f64, m: __m256i) {
        _mm256_maskstore_pd(p, m, self)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm256_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_pd(self, b)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm256_add_pd(self, b)
    }
    #[inline(always)]
    unsafe fn swap(self) -> Self {
        _mm256_permute_pd::<0b0101>(self)
    }
    #[inline(always)]
    unsafe fn addsub(self, b: Self) -> Self {
        _mm256_addsub_pd(self, b)
    }
}

impl Reg for __m512d {
    const C64S: usize = 4;
    type Mask = __mmask8;
    #[inline(always)]
    unsafe fn mask(n: usize) -> __mmask8 {
        ((1u16 << (2 * n)) - 1) as __mmask8
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm512_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: __mmask8) -> Self {
        _mm512_maskz_loadu_pd(m, p)
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f64, m: __mmask8) {
        _mm512_mask_storeu_pd(p, m, self)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_pd(self, b)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm512_add_pd(self, b)
    }
    #[inline(always)]
    unsafe fn swap(self) -> Self {
        _mm512_permute_pd::<0b0101_0101>(self)
    }
    #[inline(always)]
    unsafe fn addsub(self, b: Self) -> Self {
        // AVX-512 has no addsub; the product by 1.0 is exact, so this is
        // the one rounding of `self ∓ b` that `vaddsubpd` performs.
        _mm512_fmaddsub_pd(self, _mm512_set1_pd(1.0), b)
    }
}

/// Reinterprets a `c64` pointer as its interleaved `f64` storage.
#[inline(always)]
fn as_f64(p: *const c64) -> *const f64 {
    p.cast::<f64>()
}

/// The microkernel body, the one in the crate: adds `Σ_p a(ii, p) ·
/// b(p, jj)` into C row `ii < blk.mr`, the columns of register column `r`
/// that `m[r]` selects, for `R` register columns at once, `p < blk.kc`
/// ascending. `a(ii, ·)` is at `blk.a[ii]`, `b(p, ·)` at
/// `b[r] + p·blk.b_step`, C row `ii` at `c[r] + ii·blk.ldc`. Row-major
/// op(B) read in place and packed B panels are two stride sets of this
/// one body, so a C entry gets the same products in the same order
/// either way, and one add of its combined accumulators, as in the scalar
/// kernel. On an `EDGE` block B and C go through the masks: masked-off
/// lanes of B read as zero, and those of C are neither read nor written.
/// An interior block (every mask full) loads and stores plainly: a masked
/// load costs a shuffle-port µop, which the FMAs need.
///
/// # Safety
///
/// Inline only into a function compiled for `V`'s target features; `blk`
/// describes valid operands (see [`Block`]), and `b`, `c` and `m` are its
/// register columns.
#[inline(always)]
unsafe fn block<V: Reg, const R: usize, const EDGE: bool>(
    blk: &Block,
    b: [*const c64; R],
    c: [*mut c64; R],
    m: [V::Mask; R],
) {
    let mut acc1 = [[V::splat(0.0); R]; MR];
    let mut acc2 = [[V::splat(0.0); R]; MR];
    for p in 0..blk.kc {
        let mut bv = [V::splat(0.0); R];
        for r in 0..R {
            let bp = as_f64(b[r].add(p * blk.b_step));
            bv[r] = if EDGE {
                V::load_masked(bp, m[r])
            } else {
                V::load(bp)
            };
        }
        for ii in 0..MR {
            let a = as_f64(blk.a[ii].add(p));
            let ar = V::splat(*a);
            let ai = V::splat(*a.add(1));
            for r in 0..R {
                acc1[ii][r] = V::fma(ar, bv[r], acc1[ii][r]);
                acc2[ii][r] = V::fma(ai, bv[r], acc2[ii][r]);
            }
        }
    }
    for ii in 0..blk.mr {
        for r in 0..R {
            let cp = c[r].add(ii * blk.ldc).cast::<f64>();
            let sum = acc1[ii][r].addsub(acc2[ii][r].swap());
            if EDGE {
                V::load_masked(cp, m[r]).add(sum).store_masked(cp, m[r]);
            } else {
                V::load(cp).add(sum).store(cp);
            }
        }
    }
}

/// 256-bit microkernel: adds one `MR×NR` block of the product into C
/// (one B panel: `blk.panels == 1`). The block runs as two 4×2 column
/// halves, each a full pass over the k-loop: 8 accumulator registers per
/// half plus `b` and the two broadcasts stay inside the 16 `ymm`
/// registers, and the B rows are re-read from L1 on the second pass. A
/// half with no stored column is skipped.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA and `blk` describes
/// valid operands.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mk_avx2(blk: &Block) {
    for col in (0..blk.nr).step_by(__m256d::C64S) {
        let (b, c) = ([blk.b.add(col)], [blk.c.add(col)]);
        if blk.nr - col < __m256d::C64S {
            block::<__m256d, 1, true>(blk, b, c, [__m256d::mask(blk.nr - col)]);
        } else {
            block::<__m256d, 1, false>(blk, b, c, [__m256d::mask(__m256d::C64S)]);
        }
    }
}

/// 512-bit microkernel: adds one `MR×NR` or `MR×2NR` block of the product
/// (`blk.panels` B panels, `blk.b_panel` apart) into C. One `zmm` holds
/// one B panel row, so two panels keep 16 accumulator chains, the two B
/// rows and the two broadcasts inside the 32 `zmm` registers in one
/// k-pass.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, AVX2 and FMA and `blk`
/// describes valid operands.
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn mk_avx512(blk: &Block) {
    let m = |r: usize| __m512d::mask(blk.nr.saturating_sub(r * NR).min(NR));
    let edge = blk.nr < blk.panels * NR;
    if blk.panels == 2 {
        let (b, c) = ([blk.b, blk.b.add(blk.b_panel)], [blk.c, blk.c.add(NR)]);
        if edge {
            block::<__m512d, 2, true>(blk, b, c, [m(0), m(1)]);
        } else {
            block::<__m512d, 2, false>(blk, b, c, [m(0), m(1)]);
        }
    } else if edge {
        block::<__m512d, 1, true>(blk, [blk.b], [blk.c], [m(0)]);
    } else {
        block::<__m512d, 1, false>(blk, [blk.b], [blk.c], [m(0)]);
    }
}

/// `y ← y + α·x` on elements `from..` in whole registers of `V`; returns
/// where it stopped. Lane-local: element `i` gets
/// `[fma(αᵣ, xᵣ, yᵣ) − αᵢxᵢ, fma(αᵣ, xᵢ, yᵢ) + αᵢxᵣ]` at every width.
///
/// # Safety
///
/// Inline only into a function compiled for `V`'s target features;
/// `x.len() == y.len()`.
#[inline(always)]
unsafe fn axpy_from<V: Reg>(alpha: c64, x: &[c64], y: &mut [c64], from: usize) -> usize {
    let ar = V::splat(alpha.re);
    let ai = V::splat(alpha.im);
    let xp = as_f64(x.as_ptr());
    let yp = y.as_mut_ptr().cast::<f64>();
    let mut i = from;
    while i + V::C64S <= x.len() {
        let xv = V::load(xp.add(2 * i));
        let yv = V::load(yp.add(2 * i));
        // y + α·x = addsub(y + aᵣ·x, aᵢ·xswap): even lanes subtract the
        // aᵢ·xᵢ cross term, odd lanes add aᵢ·xᵣ.
        V::fma(ar, xv, yv)
            .addsub(ai.mul(xv.swap()))
            .store(yp.add(2 * i));
        i += V::C64S;
    }
    i
}

/// The scalar tail of `axpy`: the odd last element, as the scalar loop
/// computes it.
#[inline(always)]
fn axpy_tail(alpha: c64, x: &[c64], y: &mut [c64], from: usize) {
    for i in from..x.len() {
        y[i] += alpha * x[i];
    }
}

/// AVX2 `y ← y + α·x`, same element order as the scalar loop (lane-local
/// arithmetic only — no accumulation across elements).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA and `x.len() ==
/// y.len()`.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy(alpha: c64, x: &[c64], y: &mut [c64]) {
    let i = axpy_from::<__m256d>(alpha, x, y, 0);
    axpy_tail(alpha, x, y, i);
}

/// AVX-512 [`axpy`]: quads of elements, then at most one 256-bit pair and
/// the odd tail element exactly as [`axpy`] computes them — every element
/// gets [`axpy`]'s formula, so the result is its bits.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, AVX2 and FMA and
/// `x.len() == y.len()`.
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn axpy512(alpha: c64, x: &[c64], y: &mut [c64]) {
    let i = axpy_from::<__m512d>(alpha, x, y, 0);
    let i = axpy_from::<__m256d>(alpha, x, y, i);
    axpy_tail(alpha, x, y, i);
}

/// AVX2 conjugated inner product `Σ x̄ᵢ yᵢ`, split-accumulator form. The
/// two vector lanes accumulate independent partial sums (even/odd element
/// pairs) that are combined once at the end — a different summation order
/// from the scalar reference, covered by the cross-path tolerance
/// contract. It has no 512-bit twin: four lanes would regroup the partial
/// sums and move the bits.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot(x: &[c64], y: &[c64]) -> c64 {
    let n = x.len();
    let pairs = n / 2;
    let xp = as_f64(x.as_ptr());
    let yp = as_f64(y.as_ptr());
    // acc1 = Σ [xᵣyᵣ, xᵢyᵢ]·lane, acc2 = Σ [xᵣyᵢ, xᵢyᵣ]·lane:
    // re = acc1 pair-sum, im = acc2 pair-difference.
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    for q in 0..pairs {
        let xv = _mm256_loadu_pd(xp.add(4 * q));
        let yv = _mm256_loadu_pd(yp.add(4 * q));
        let ys = _mm256_permute_pd::<0b0101>(yv);
        acc1 = _mm256_fmadd_pd(xv, yv, acc1);
        acc2 = _mm256_fmadd_pd(xv, ys, acc2);
    }
    let mut a1 = [0.0f64; 4];
    let mut a2 = [0.0f64; 4];
    _mm256_storeu_pd(a1.as_mut_ptr(), acc1);
    _mm256_storeu_pd(a2.as_mut_ptr(), acc2);
    let mut s = c64::new(
        (a1[0] + a1[1]) + (a1[2] + a1[3]),
        (a2[0] - a2[1]) + (a2[2] - a2[3]),
    );
    for i in 2 * pairs..n {
        s += x[i].conj() * y[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_core, Op};
    use crate::lu::Lu;
    use crate::matrix::ZMat;
    use crate::threads::{self, Lanes};

    fn vals(n: usize, seed: u64) -> Vec<c64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
                let r = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                c64::new(r, -r * 0.5 + 0.1)
            })
            .collect()
    }

    fn mat(nr: usize, nc: usize, seed: u64) -> ZMat {
        ZMat::from_vec(nr, nc, vals(nr * nc, seed))
    }

    fn same_bits(a: &[c64], b: &[c64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Each microkernel the host can run — 256-bit on one B panel, 512-bit
    /// on one and on two — against the plain sum of products.
    #[test]
    fn microkernel_matches_scalar_within_tolerance() {
        if !threads::simd_supported() {
            return; // nothing to test on this host
        }
        let mut kernels = vec![(Lanes::Avx2, 1)];
        if threads::avx512_supported() {
            kernels.extend([(Lanes::Avx512, 1), (Lanes::Avx512, 2)]);
        }
        for (lanes, panels) in kernels {
            let cols = panels * NR;
            for kc in [1usize, 3, 63, 64, 65] {
                let ap = vals(MR * kc, 1);
                let bp = vals(kc * cols, 2);
                let mut c = vec![c64::ZERO; MR * cols];
                let blk = Block {
                    kc,
                    a: std::array::from_fn(|ii| ap[ii * kc..].as_ptr()),
                    b: bp.as_ptr(),
                    b_step: NR,
                    b_panel: kc * NR,
                    panels,
                    c: c.as_mut_ptr(),
                    ldc: cols,
                    mr: MR,
                    nr: cols,
                };
                // SAFETY: guarded by the feature checks above; the panels
                // and the block hold what the kernels read and write.
                unsafe {
                    if lanes == Lanes::Avx2 {
                        mk_avx2(&blk);
                    } else {
                        mk_avx512(&blk);
                    }
                }
                for ii in 0..MR {
                    for jj in 0..cols {
                        let (jp, j) = (jj / NR, jj % NR);
                        let want: c64 = (0..kc)
                            .map(|p| ap[ii * kc + p] * bp[jp * kc * NR + p * NR + j])
                            .sum();
                        assert!(
                            (c[ii * cols + jj] - want).abs()
                                <= 1e-13 * (1.0 + want.abs()) * kc as f64,
                            "{lanes:?}x{panels} kc={kc} ({ii},{jj})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_and_dot_match_scalar_within_tolerance() {
        if !threads::simd_supported() {
            return;
        }
        type Axpy = unsafe fn(c64, &[c64], &mut [c64]);
        let mut axpys: Vec<Axpy> = vec![axpy];
        if threads::avx512_supported() {
            axpys.push(axpy512);
        }
        for n in [0usize, 1, 2, 5, 17, 64] {
            let x = vals(n, 3);
            let alpha = c64::new(0.7, -1.3);
            for &f in &axpys {
                let mut y = vals(n, 4);
                let y0 = y.clone();
                // SAFETY: guarded by the feature checks above.
                unsafe { f(alpha, &x, &mut y) };
                for i in 0..n {
                    let want = y0[i] + alpha * x[i];
                    assert!(
                        (y[i] - want).abs() <= 1e-14 * (1.0 + want.abs()),
                        "n={n} i={i}"
                    );
                }
            }
            let y = vals(n, 4);
            // SAFETY: guarded by simd_supported() above.
            let got = unsafe { dot(&x, &y) };
            let want: c64 = x.iter().zip(&y).map(|(&a, &b)| a.conj() * b).sum();
            assert!(
                (got - want).abs() <= 1e-13 * (1.0 + want.abs()) * (1 + n) as f64,
                "dot n={n}"
            );
        }
    }

    // The width-equality battery. On an AVX-512F host every SIMD run uses
    // the 512-bit kernels, so nothing else runs the 256-bit GEMM interior
    // and row update there: these tests run both widths directly and hold
    // them to the same bits. On other hosts they return early (`ci.sh`
    // prints a NOTICE).

    #[test]
    fn axpy_widths_agree_to_the_bit() {
        if !threads::avx512_supported() {
            return;
        }
        for n in (0..=9).chain([17, 64]) {
            let x = vals(n, 5);
            let alpha = c64::new(-0.4, 0.9);
            let mut narrow = vals(n, 6);
            let mut wide = narrow.clone();
            // SAFETY: guarded by avx512_supported() above.
            unsafe {
                axpy(alpha, &x, &mut narrow);
                axpy512(alpha, &x, &mut wide);
            }
            assert!(same_bits(&narrow, &wide), "axpy n={n}");
        }
    }

    #[test]
    fn gemm_widths_agree_to_the_bit() {
        if !threads::avx512_supported() {
            return;
        }
        // The conformance shapes: prime and ragged edges on every side,
        // k across KC = 64, the thin RGF products; then every residue of
        // m and n modulo MR / 2·NR at k = 1, KC and KC + 1.
        let mut cases: Vec<((usize, usize, usize), bool)> = [
            (5, 7, 13),
            (13, 67, 7),
            (67, 13, 97),
            (1, 130, 1),
            (130, 1, 67),
            (2, 97, 130),
            (67, 97, 66),
            (90, 20, 90),
            (20, 20, 90),
        ]
        .into_iter()
        .map(|s| (s, true))
        .collect();
        for (m, n) in [
            (1, 1),
            (2, 3),
            (3, 7),
            (4, 8),
            (5, 2),
            (6, 6),
            (7, 13),
            (8, 12),
        ] {
            for k in [1, 64, 65] {
                cases.push(((m, k, n), false));
            }
        }
        let ops = [Op::N, Op::T, Op::H];
        for (ci, ((m, k, n), all_ops)) in cases.into_iter().enumerate() {
            let pairs: Vec<(Op, Op)> = if all_ops {
                ops.iter()
                    .flat_map(|&a| ops.iter().map(move |&b| (a, b)))
                    .collect()
            } else {
                vec![(Op::N, Op::N)]
            };
            for (opa, opb) in pairs {
                let stored = |op: Op, r: usize, c: usize, seed: u64| {
                    if op == Op::N {
                        mat(r, c, seed)
                    } else {
                        mat(c, r, seed)
                    }
                };
                let a = stored(opa, m, k, 10 * ci as u64 + 1);
                let b = stored(opb, k, n, 10 * ci as u64 + 2);
                let c0 = mat(m, n, 10 * ci as u64 + 3);
                let scalars = [
                    (c64::new(0.37, -0.82), c64::new(-1.1, 0.25)),
                    (c64::ONE, c64::ONE),
                ];
                for (alpha, beta) in scalars {
                    for threads in [1, 2] {
                        let run = |lanes| {
                            let mut c = c0.clone();
                            gemm_core(lanes, alpha, &a, opa, &b, opb, beta, &mut c, threads);
                            c
                        };
                        let (narrow, wide) = (run(Lanes::Avx2), run(Lanes::Avx512));
                        assert!(
                            same_bits(narrow.data(), wide.data()),
                            "gemm {m}x{k}x{n} {opa:?}{opb:?} alpha={alpha:?} t={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lu_widths_agree_to_the_bit() {
        if !threads::avx512_supported() {
            return;
        }
        // Unblocked up to NB = 48, blocked (trailing GEMM, blocked solves)
        // above it; the right-hand side is wide enough for the 512-bit
        // solves (`lu::WIDE_MIN_N`).
        for n in [1usize, 2, 3, 5, 8, 13, 16, 32, 47, 48, 49, 64, 90, 97, 130] {
            let a = mat(n, n, 100 + n as u64);
            let b = mat(n, 17, 200 + n as u64);
            let narrow = Lu::factor_on(Lanes::Avx2, &a).expect("random matrix is regular");
            let wide = Lu::factor_on(Lanes::Avx512, &a).expect("random matrix is regular");
            assert!(
                same_bits(narrow.packed().data(), wide.packed().data()),
                "factor n={n}"
            );
            assert_eq!(narrow.perm(), wide.perm(), "perm n={n}");
            assert_eq!(
                narrow.det().re.to_bits(),
                wide.det().re.to_bits(),
                "det n={n}"
            );
            let (xn, xw) = (narrow.solve_mat(&b), wide.solve_mat(&b));
            assert!(same_bits(xn.data(), xw.data()), "solve_mat n={n}");
            let (inv_n, inv_w) = (narrow.inverse(), wide.inverse());
            assert!(same_bits(inv_n.data(), inv_w.data()), "inverse n={n}");
        }
    }
}

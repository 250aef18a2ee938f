//! AVX2+FMA microkernels for the packed GEMM hot path and the BLAS-1 ops.
//!
//! Everything here is the `SimdPath::Avx2Fma` half of the dispatch in
//! [`crate::threads`]; the scalar reference implementations live next to
//! their call sites (`crate::gemm`, `crate::vec_ops`). A `c64` is stored
//! as interleaved `[re, im]` (`repr(C)`), so one 256-bit register holds
//! two complex values and a complex multiply-accumulate becomes the
//! classic split-accumulator sequence: with `bswap` the within-pair
//! swap of `b` (`[im₀, re₀, im₁, re₁]`),
//!
//! ```text
//! acc1 += broadcast(a.re) · b        → Σ [aᵣbᵣ, aᵣbᵢ]
//! acc2 += broadcast(a.im) · bswap    → Σ [aᵢbᵢ, aᵢbᵣ]
//! result = addsub(acc1, acc2)        → [Σaᵣbᵣ − Σaᵢbᵢ, Σaᵣbᵢ + Σaᵢbᵣ]
//! ```
//!
//! i.e. two FMAs per two complex multiply-adds in the steady state, with
//! the real/imag cross terms kept in **separate accumulator chains** that
//! are only combined after the k-loop. This changes the rounding sequence
//! relative to the scalar path (each product pair is no longer rounded
//! through a single `c64` multiply), which is exactly why the SIMD/scalar
//! contract is oracle-tolerance agreement, not bit equality (DESIGN.md
//! §10). Within this path all arithmetic is per-element deterministic, so
//! thread-count bit-identity holds just as it does for the scalar path.
//!
//! Safety: every function here requires AVX2+FMA at runtime. They are
//! `pub(crate)` and only reachable through the [`crate::threads::simd_path`]
//! dispatch, which selects `Avx2Fma` exclusively after
//! `is_x86_feature_detected!("avx2")` / `("fma")` both succeed.
#![cfg(target_arch = "x86_64")]

use crate::gemm::{MR, NR};
use core::arch::x86_64::{
    __m256d, _mm256_addsub_pd, _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd,
    _mm256_mul_pd, _mm256_permute_pd, _mm256_setzero_pd, _mm256_storeu_pd,
};
use omen_num::c64;

/// Reinterprets a `c64` slice pointer as its interleaved `f64` storage.
#[inline(always)]
fn as_f64(p: *const c64) -> *const f64 {
    p.cast::<f64>()
}

/// `MR×NR` microkernel: `acc[ii·NR + jj] = Σ_p ap[p·MR + ii] · bp[p·NR + jj]`
/// for `p < kc`, overwriting `acc`. `ap`/`bp` are the packed panels built
/// by `crate::gemm` (`MR`- and `NR`-interleaved, zero-padded at the
/// edges); α is already folded into `ap`.
///
/// The 4×4 `c64` block is computed as two 4×2 column halves, each a full
/// pass over the k-loop: 8 accumulator registers per half plus the `b`
/// vector, its swap, and the two broadcasts stay inside the 16 `ymm`
/// registers, and the 4 KiB B panel is re-read from L1 on the second pass.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, `ap` is valid for
/// `kc·MR` reads, and `bp` for `kc·NR` reads.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mk4x4(kc: usize, ap: *const c64, bp: *const c64, acc: &mut [c64; MR * NR]) {
    debug_assert_eq!((MR, NR), (4, 4), "kernel is hard-wired to 4x4");
    for half in 0..2usize {
        let bcol = 2 * half;
        // Split accumulators: acc1 holds Σ aᵣ·b, acc2 holds Σ aᵢ·bswap,
        // one pair per microkernel row, combined once after the k-loop.
        let mut acc1 = [_mm256_setzero_pd(); MR];
        let mut acc2 = [_mm256_setzero_pd(); MR];
        for p in 0..kc {
            let bv = _mm256_loadu_pd(as_f64(bp.add(p * NR + bcol)));
            let bs = _mm256_permute_pd::<0b0101>(bv);
            let arow = as_f64(ap.add(p * MR));
            for ii in 0..MR {
                let ar = _mm256_broadcast_sd(&*arow.add(2 * ii));
                let ai = _mm256_broadcast_sd(&*arow.add(2 * ii + 1));
                acc1[ii] = _mm256_fmadd_pd(ar, bv, acc1[ii]);
                acc2[ii] = _mm256_fmadd_pd(ai, bs, acc2[ii]);
            }
        }
        for ii in 0..MR {
            let combined: __m256d = _mm256_addsub_pd(acc1[ii], acc2[ii]);
            _mm256_storeu_pd(acc.as_mut_ptr().add(ii * NR + bcol).cast::<f64>(), combined);
        }
    }
}

/// AVX2 `y ← y + α·x`, same element order as the scalar loop (lane-local
/// arithmetic only — no accumulation across elements).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy(alpha: c64, x: &[c64], y: &mut [c64]) {
    let n = x.len();
    let ar = _mm256_broadcast_sd(&alpha.re);
    let ai = _mm256_broadcast_sd(&alpha.im);
    let pairs = n / 2;
    let xp = as_f64(x.as_ptr());
    let yp = y.as_mut_ptr().cast::<f64>();
    for q in 0..pairs {
        let xv = _mm256_loadu_pd(xp.add(4 * q));
        let xs = _mm256_permute_pd::<0b0101>(xv);
        let yv = _mm256_loadu_pd(yp.add(4 * q));
        // y + α·x = addsub(y + aᵣ·x, aᵢ·xswap): even lanes subtract the
        // aᵢ·xᵢ cross term, odd lanes add aᵢ·xᵣ.
        let t = _mm256_fmadd_pd(ar, xv, yv);
        let prod = _mm256_mul_pd(ai, xs);
        _mm256_storeu_pd(yp.add(4 * q), _mm256_addsub_pd(t, prod));
    }
    for i in 2 * pairs..n {
        y[i] += alpha * x[i];
    }
}

/// AVX2 conjugated inner product `Σ x̄ᵢ yᵢ`, split-accumulator form. The
/// two vector lanes accumulate independent partial sums (even/odd element
/// pairs) that are combined once at the end — a different summation order
/// from the scalar reference, covered by the cross-path tolerance
/// contract.
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
    use crate::threads;

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

    #[test]
    fn microkernel_matches_scalar_within_tolerance() {
        if !threads::simd_supported() {
            return; // nothing to test on this host
        }
        for kc in [1usize, 3, 63, 64, 65] {
            let ap = vals(kc * MR, 1);
            let bp = vals(kc * NR, 2);
            let mut acc = [c64::ZERO; MR * NR];
            // SAFETY: guarded by simd_supported() above.
            unsafe { mk4x4(kc, ap.as_ptr(), bp.as_ptr(), &mut acc) };
            for ii in 0..MR {
                for jj in 0..NR {
                    let want: c64 = (0..kc).map(|p| ap[p * MR + ii] * bp[p * NR + jj]).sum();
                    assert!(
                        (acc[ii * NR + jj] - want).abs() <= 1e-13 * (1.0 + want.abs()) * kc as f64,
                        "kc={kc} ({ii},{jj})"
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_and_dot_match_scalar_within_tolerance() {
        if !threads::simd_supported() {
            return;
        }
        for n in [0usize, 1, 2, 5, 17, 64] {
            let x = vals(n, 3);
            let mut y = vals(n, 4);
            let y0 = y.clone();
            let alpha = c64::new(0.7, -1.3);
            // SAFETY: guarded by simd_supported() above.
            unsafe { axpy(alpha, &x, &mut y) };
            for i in 0..n {
                let want = y0[i] + alpha * x[i];
                assert!(
                    (y[i] - want).abs() <= 1e-14 * (1.0 + want.abs()),
                    "n={n} i={i}"
                );
            }
            // SAFETY: guarded by simd_supported() above.
            let got = unsafe { dot(&x, &y) };
            let want: c64 = x.iter().zip(&y).map(|(&a, &b)| a.conj() * b).sum();
            assert!(
                (got - want).abs() <= 1e-13 * (1.0 + want.abs()) * (1 + n) as f64,
                "dot n={n}"
            );
        }
    }
}

//! BLAS-1 style operations on complex vectors.
//!
//! `axpy` and `dot` sit under the block-tridiagonal matvec and the LU row
//! updates, so they get the same per-process SIMD dispatch as
//! the GEMM microkernel ([`crate::threads::simd_path`], `OMEN_SIMD`): a
//! scalar reference loop and an AVX2+FMA variant in `crate::simd`. The
//! SIMD `axpy` is lane-local (element order unchanged); the SIMD `dot`
//! accumulates two interleaved partial sums, so like the GEMM microkernel
//! it matches the scalar path only to rounding, never bit-for-bit — the
//! per-path determinism contract of DESIGN.md §10 applies here too.
//! `reflector`, the crate's one Householder vector, is scalar: the
//! eigensolvers that call it do not dispatch.

use crate::flops::add_flops;
use crate::threads::{self, SimdPath};
use omen_num::c64;

/// Conjugated inner product `⟨x, y⟩ = Σ x̄ᵢ yᵢ` (linear in the second slot,
/// the physics convention).
pub fn dot(x: &[c64], y: &[c64]) -> c64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    add_flops(8 * x.len() as u64);
    match threads::simd_path() {
        SimdPath::Scalar => x.iter().zip(y).map(|(&a, &b)| a.conj() * b).sum(),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after feature detection.
        SimdPath::Avx2Fma => unsafe { crate::simd::dot(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2Fma => x.iter().zip(y).map(|(&a, &b)| a.conj() * b).sum(),
    }
}

/// `y ← y + α x`.
pub fn axpy(alpha: c64, x: &[c64], y: &mut [c64]) {
    add_flops(8 * x.len() as u64);
    axpy_on(threads::simd_path(), alpha, x, y);
}

/// [`axpy`] on an already-resolved dispatch path, reporting **no** flops
/// (the caller books them). `crate::lu` compiles its own row loops around
/// the two arms instead, and its tests hold those loops to the bits of
/// this entry.
#[inline]
pub(crate) fn axpy_on(path: SimdPath, alpha: c64, x: &[c64], y: &mut [c64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match path {
        SimdPath::Scalar => {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every caller passes the path `threads::simd_path`
        // resolved, which is `Avx2Fma` only after feature detection.
        SimdPath::Avx2Fma => unsafe { crate::simd::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2Fma => {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
    }
}

/// Householder reflector for `x` (LAPACK `zlarfg`'s job, EISPACK's
/// scaling): overwrites `x` with `v` and returns `(β, τ)` such that
/// `(I − τ v v†) x = β e₀` with `|β| = ‖x‖₂` and `β` opposite in phase to
/// `x[0]`, so forming `v[0] = x[0] − β` never cancels. The entries are
/// divided by their 1-norm first (`tred2`'s row scaling), so magnitudes
/// near the overflow and underflow thresholds neither overflow nor vanish
/// when squared; `v` is left in the scaled units, which `τ` absorbs.
/// Returns `None` for an exactly zero `x`: nothing to annihilate. The one
/// reflector of the crate — the Hermitian tridiagonalization in
/// `crate::eig` and the Hessenberg reduction in `crate::geig` both build
/// theirs here. Reports no flops; the callers book their whole reduction.
pub(crate) fn reflector(x: &mut [c64]) -> Option<(c64, f64)> {
    let scale: f64 = x.iter().map(|z| z.re.abs() + z.im.abs()).sum();
    if scale == 0.0 {
        return None;
    }
    let mut h = 0.0;
    for z in x.iter_mut() {
        *z = c64::new(z.re / scale, z.im / scale);
        h += z.norm_sqr();
    }
    let norm = h.sqrt();
    let alpha = x[0];
    let modulus = alpha.abs();
    let beta = if modulus > 0.0 {
        -alpha.scale(norm / modulus)
    } else {
        c64::real(-norm)
    };
    x[0] = alpha - beta;
    // τ = 2 / ‖v‖² with ‖v‖² = 2 (‖x‖² + |x₀| ‖x‖).
    Some((beta.scale(scale), 1.0 / (h + modulus * norm)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_is_conjugate_linear_in_first_slot() {
        let x = vec![c64::new(0.0, 1.0), c64::new(2.0, 0.0)];
        let y = vec![c64::new(1.0, 0.0), c64::new(0.0, 3.0)];
        // <x,y> = conj(i)*1 + conj(2)*3i = -i + 6i = 5i
        assert!((dot(&x, &y) - c64::imag(5.0)).abs() < 1e-15);
        // <x,x> is real nonnegative.
        let xx = dot(&x, &x);
        assert!(xx.im.abs() < 1e-15 && xx.re > 0.0);
    }

    #[test]
    fn dot_matches_scalar_reference_on_odd_lengths() {
        // Whatever path is dispatched, the result must sit within the
        // cross-path tolerance of the scalar reference, including the
        // odd-length remainder element.
        for n in [1usize, 2, 7, 33] {
            let x: Vec<c64> = (0..n)
                .map(|i| c64::new(0.3 * i as f64 - 1.0, 0.7 - 0.1 * i as f64))
                .collect();
            let y: Vec<c64> = (0..n)
                .map(|i| c64::new(1.0 - 0.2 * i as f64, 0.05 * i as f64))
                .collect();
            let want: c64 = x.iter().zip(&y).map(|(&a, &b)| a.conj() * b).sum();
            let got = dot(&x, &y);
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "n={n}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn axpy_basics() {
        let x = vec![c64::ONE, c64::I];
        let mut y = vec![c64::real(2.0), c64::real(-1.0)];
        axpy(c64::imag(1.0), &x, &mut y);
        assert_eq!(y[0], c64::new(2.0, 1.0));
        assert_eq!(y[1], c64::new(-2.0, 0.0));
    }

    #[test]
    fn axpy_matches_scalar_reference_on_odd_lengths() {
        let alpha = c64::new(-0.4, 0.9);
        for n in [1usize, 2, 5, 18] {
            let x: Vec<c64> = (0..n).map(|i| c64::new(i as f64, -0.5)).collect();
            let y0: Vec<c64> = (0..n).map(|i| c64::new(0.1, i as f64 * 0.2)).collect();
            let mut y = y0.clone();
            axpy(alpha, &x, &mut y);
            for i in 0..n {
                let want = y0[i] + alpha * x[i];
                assert!(
                    (y[i] - want).abs() <= 1e-13 * (1.0 + want.abs()),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn reflector_annihilates_the_tail_at_every_magnitude() {
        for scale in [1.0, 1e150, 1e-150] {
            let x: Vec<c64> = [(0.3, -0.4), (0.0, 0.0), (-1.2, 0.7), (0.05, 2.0)]
                .map(|(re, im)| c64::new(re, im).scale(scale))
                .to_vec();
            let mut v = x.clone();
            let (beta, tau) = reflector(&mut v).expect("nonzero input");
            // (I − τ v v†) x = β e₀, with β opposite in phase to x₀.
            let vx: c64 = v.iter().zip(&x).map(|(&a, &b)| a.conj() * b).sum();
            for (i, (&xi, &vi)) in x.iter().zip(&v).enumerate() {
                let want = if i == 0 { beta } else { c64::ZERO };
                assert!((xi - vi * vx.scale(tau) - want).abs() <= 1e-15 * scale);
            }
            assert!((beta * x[0].conj()).re < 0.0);
        }
        assert!(reflector(&mut [c64::ZERO; 3]).is_none());
    }
}

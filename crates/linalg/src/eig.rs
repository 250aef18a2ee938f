//! Hermitian eigensolver.
//!
//! `H v = λ v` for a complex Hermitian `H` is solved on the `n × n` matrix
//! itself, in three steps:
//!
//! 1. complex Householder reflections reduce `H` to a Hermitian tridiagonal
//!    matrix (the EISPACK `htridi` shape: one reflector per column from the
//!    crate's `reflector`, then a rank-2 update of the trailing block, on
//!    one stored triangle), and a running diagonal of unit phases `D` makes
//!    its subdiagonal real: `H = (Q D) T (Q D)†`;
//! 2. implicit-shift QL iteration (`tql2`) diagonalizes the real symmetric
//!    tridiagonal `T`;
//! 3. for eigenvectors, the QL rotations are applied to `Q D` as they are
//!    generated, so the result is unitary whatever the multiplicities —
//!    degenerate levels (Kramers pairs, the zero cluster of a contact
//!    broadening matrix) need no special handling.
//!
//! Nothing here dispatches on `OMEN_SIMD`: both legs run the same loops.

use crate::flops;
use crate::matrix::ZMat;
use crate::vec_ops::reflector;
use omen_num::c64;

/// Eigenvalues (ascending) and matching orthonormal eigenvectors.
pub struct EighResult {
    /// Ascending eigenvalues.
    pub values: Vec<f64>,
    /// `vectors.col(k)` is the eigenvector of `values[k]`; the matrix is
    /// unitary to working precision.
    pub vectors: ZMat,
}

/// Full eigendecomposition of a Hermitian matrix.
///
/// Panics when `h` is not square; the Hermiticity defect is not checked
/// (callers assemble Hamiltonians that are Hermitian by construction and
/// assert it in tests) — only the Hermitian part `(h + h†)/2` participates.
pub fn eigh(h: &ZMat) -> EighResult {
    let n = h.nrows();
    assert!(h.is_square(), "eigh needs a square matrix");
    if n == 0 {
        return EighResult {
            values: Vec::new(),
            vectors: ZMat::zeros(0, 0),
        };
    }
    flops::add_flops(flops::eigh_flops(n));

    let (mut d, mut e, mut qt) = tridiagonalize(h, true);
    tql2(&mut d, &mut e, Some(&mut qt));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    EighResult {
        values: order.iter().map(|&k| d[k]).collect(),
        // Row `k` of `qt` is the eigenvector of `d[k]`: sort and transpose
        // in one copy.
        vectors: ZMat::from_fn(n, n, |r, k| qt[(order[k], r)]),
    }
}

/// Eigenvalues only (skips eigenvector accumulation — about 4× fewer
/// flops; used by bandstructure sweeps).
pub fn eigh_values(h: &ZMat) -> Vec<f64> {
    let n = h.nrows();
    assert!(h.is_square(), "eigh needs a square matrix");
    if n == 0 {
        return Vec::new();
    }
    flops::add_flops(flops::eigh_values_flops(n));
    let (mut d, mut e, _) = tridiagonalize(h, false);
    tql2(&mut d, &mut e, None);
    d.sort_by(f64::total_cmp);
    d
}

/// Householder reduction of the Hermitian part of `h` to a real symmetric
/// tridiagonal matrix `T`, `H = (Q D) T (Q D)†` with `Q` the product of the
/// reflectors and `D` a diagonal of unit phases. Returns `(d, e, qt)`: `d`
/// the diagonal of `T`, `e[1..]` its subdiagonal (`e[i]` couples `i − 1`
/// and `i`, the convention [`tql2`] takes), and `qt = (Q D)ᵀ` when
/// `vectors` is set (an empty matrix otherwise) — transposed so that the
/// QL rotations act on contiguous rows.
fn tridiagonalize(h: &ZMat, vectors: bool) -> (Vec<f64>, Vec<f64>, ZMat) {
    let n = h.nrows();
    // Only the upper triangle is stored and updated. The Hermitian average
    // cancels tiny assembly asymmetries and makes the diagonal real.
    let mut a = ZMat::from_fn(n, n, |i, j| {
        if j < i {
            c64::ZERO
        } else {
            (h[(i, j)] + h[(j, i)].conj()).scale(0.5)
        }
    });
    let mut e = vec![0.0; n];
    let mut tau = vec![0.0; n];
    let mut phase = vec![c64::ONE; n];
    let mut v = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    for k in 0..n.saturating_sub(1) {
        // Column `k` below the diagonal, read off row `k` by symmetry.
        v.clear();
        v.extend(a.row(k)[k + 1..].iter().map(|z| z.conj()));
        // The last column is a single entry: nothing to annihilate. A
        // column that is already exactly zero needs no reflector either.
        let sub = if v.len() == 1 {
            v[0]
        } else if let Some((beta, t)) = reflector(&mut v) {
            reflect_trailing(&mut a, k + 1, &v, t, &mut w);
            a.row_mut(k)[k + 1..].copy_from_slice(&v);
            tau[k] = t;
            beta
        } else {
            c64::ZERO
        };
        e[k + 1] = sub.abs();
        phase[k + 1] = if e[k + 1] > 0.0 {
            phase[k] * c64::new(sub.re / e[k + 1], sub.im / e[k + 1])
        } else {
            phase[k]
        };
    }
    let d = (0..n).map(|i| a[(i, i)].re).collect();
    if !vectors {
        return (d, e, ZMat::zeros(0, 0));
    }

    // (Q D)ᵀ = D · Hᵀ_{n−3} ⋯ Hᵀ_0, applied right to left so that reflector
    // `k` (stored in row `k` of `a`, zero where none was needed) only
    // touches the trailing block it acts on.
    let mut qt = ZMat::from_diag(&phase);
    for k in (0..n.saturating_sub(2)).rev() {
        let v = &a.row(k)[k + 1..];
        for i in k + 1..n {
            let row = &mut qt.row_mut(i)[k + 1..];
            let dot: c64 = row.iter().zip(v).map(|(&x, &vj)| x * vj.conj()).sum();
            let f = dot.scale(tau[k]);
            for (x, &vj) in row.iter_mut().zip(v) {
                *x -= f * vj;
            }
        }
    }
    (d, e, qt)
}

/// `A₂₂ ← (I − τ v v†) A₂₂ (I − τ v v†)` on the trailing Hermitian block
/// that starts at `(k0, k0)`, upper triangle only: with `p = τ A₂₂ v` and
/// `w = p − (τ/2)(v†p) v` this is the rank-2 update `A₂₂ − v w† − w v†`.
/// `w` is scratch.
fn reflect_trailing(a: &mut ZMat, k0: usize, v: &[c64], tau: f64, w: &mut Vec<c64>) {
    let m = v.len();
    w.clear();
    w.resize(m, c64::ZERO);
    for i in 0..m {
        // One pass over the stored part of row `i` feeds both triangles.
        let row = &a.row(k0 + i)[k0 + i..];
        let mut acc = v[i].scale(row[0].re);
        for ((&aij, &vj), wj) in row[1..].iter().zip(&v[i + 1..]).zip(&mut w[i + 1..]) {
            acc += aij * vj;
            *wj += aij.conj() * v[i];
        }
        w[i] += acc;
    }
    // v†A₂₂v is real for a Hermitian block.
    let vav: c64 = v.iter().zip(&*w).map(|(&vi, &wi)| vi.conj() * wi).sum();
    let kappa = 0.5 * tau * tau * vav.re;
    for (wi, &vi) in w.iter_mut().zip(v) {
        *wi = wi.scale(tau) - vi.scale(kappa);
    }
    for i in 0..m {
        let (vi, wi) = (v[i], w[i]);
        let row = &mut a.row_mut(k0 + i)[k0 + i..];
        row[0] = c64::real(row[0].re - 2.0 * (vi * wi.conj()).re);
        for ((aij, &vj), &wj) in row[1..].iter_mut().zip(&v[i + 1..]).zip(&w[i + 1..]) {
            *aij -= vi * wj.conj() + wi * vj.conj();
        }
    }
}

#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix (EISPACK
/// `tql2`/NR `tqli`, 0-indexed). On return `d` holds eigenvalues (unsorted);
/// when `zt` is provided its rows — the columns of the transformation that
/// produced the tridiagonal — are rotated into the eigenvectors of the
/// original matrix.
fn tql2(d: &mut [f64], e: &mut [f64], mut zt: Option<&mut ZMat>) {
    let n = d.len();
    if n <= 1 {
        return;
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tql2 failed to converge after 50 iterations");
            // Form implicit shift.
            let g0 = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g0, 1.0);
            let sign_r = if g0 >= 0.0 { r } else { -r };
            let mut g = d[m] - d[l] + e[l] / (g0 + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut i = m as isize - 1;
            while i >= l as isize {
                let iu = i as usize;
                let f = s * e[iu];
                let b = c * e[iu];
                r = pythag(f, g);
                e[iu + 1] = r;
                if r == 0.0 {
                    d[iu + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[iu + 1] - p;
                r = (d[iu] - g) * s + 2.0 * c * b;
                p = s * r;
                d[iu + 1] = g + p;
                g = c * r - b;
                if let Some(zm) = zt.as_deref_mut() {
                    let (lo, hi) = zm.data_mut().split_at_mut((iu + 1) * n);
                    for (x, y) in lo[iu * n..].iter_mut().zip(&mut hi[..n]) {
                        let t = *y;
                        *y = x.scale(s) + t.scale(c);
                        *x = x.scale(c) - t.scale(s);
                    }
                }
                i -= 1;
            }
            if r == 0.0 && i >= l as isize {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn rand_hermitian(n: usize, seed: u64) -> ZMat {
        let mut s = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xBF58476D1CE4E5B9);
        let mut next = move || {
            s = s
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(0xBF58476D1CE4E5B9);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let a = ZMat::from_fn(n, n, |_, _| c64::new(next(), next()));
        a.hermitian_part()
    }

    fn check_decomposition(h: &ZMat, r: &EighResult, tol: f64) {
        let n = h.nrows();
        // H v = λ v for every pair.
        for k in 0..n {
            let v = r.vectors.col(k);
            let hv = h.matvec(&v);
            for i in 0..n {
                let lhs = hv[i];
                let rhs = v[i].scale(r.values[k]);
                assert!(
                    (lhs - rhs).abs() < tol,
                    "residual too large at eigenpair {k}: {} (λ={})",
                    (lhs - rhs).abs(),
                    r.values[k]
                );
            }
        }
        // Unitarity of the eigenvector matrix.
        let vhv = crate::gemm::matmul_h_n(&r.vectors, &r.vectors);
        assert!(
            (&vhv - &ZMat::eye(n)).max_abs() < tol,
            "eigenvectors not orthonormal"
        );
        // Ascending eigenvalues.
        for k in 1..n {
            assert!(r.values[k] >= r.values[k - 1] - 1e-12);
        }
    }

    #[test]
    fn diagonal_matrix() {
        let h = ZMat::from_diag(&[c64::real(3.0), c64::real(-1.0), c64::real(0.5)]);
        let r = eigh(&h);
        assert!((r.values[0] + 1.0).abs() < 1e-12);
        assert!((r.values[1] - 0.5).abs() < 1e-12);
        assert!((r.values[2] - 3.0).abs() < 1e-12);
        check_decomposition(&h, &r, 1e-10);
    }

    #[test]
    fn pauli_y_has_plus_minus_one() {
        // σ_y = [[0, -i], [i, 0]] — genuinely complex Hermitian.
        let h = ZMat::from_rows(&[
            vec![c64::ZERO, c64::new(0.0, -1.0)],
            vec![c64::new(0.0, 1.0), c64::ZERO],
        ]);
        let r = eigh(&h);
        assert!((r.values[0] + 1.0).abs() < 1e-12);
        assert!((r.values[1] - 1.0).abs() < 1e-12);
        check_decomposition(&h, &r, 1e-10);
    }

    #[test]
    fn random_hermitian_various_sizes() {
        for (n, seed) in [
            (1usize, 1u64),
            (2, 2),
            (3, 3),
            (5, 4),
            (8, 5),
            (13, 6),
            (24, 7),
        ] {
            let h = rand_hermitian(n, seed);
            let r = eigh(&h);
            check_decomposition(&h, &r, 1e-8);
            // Trace preserved.
            let tr: f64 = r.values.iter().sum();
            assert!((tr - h.trace().re).abs() < 1e-9 * (1.0 + tr.abs()));
        }
    }

    #[test]
    fn degenerate_spectrum() {
        // H = I ⊕ 2I has heavy degeneracy; vectors must still be orthonormal.
        let mut h = ZMat::eye(6);
        for i in 3..6 {
            h[(i, i)] = c64::real(2.0);
        }
        let r = eigh(&h);
        check_decomposition(&h, &r, 1e-10);
        assert!((r.values[2] - 1.0).abs() < 1e-12);
        assert!((r.values[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn values_only_matches_full() {
        let h = rand_hermitian(10, 42);
        let r = eigh(&h);
        let v = eigh_values(&h);
        for (k, (&rv, &vv)) in r.values.iter().zip(&v).enumerate() {
            assert!((rv - vv).abs() < 1e-9, "k={k}: {rv} vs {vv}");
        }
    }

    #[test]
    fn tight_binding_chain_analytic() {
        // 1D chain with onsite 0, hopping t: eigenvalues 2t cos(kπ/(n+1)).
        let n = 12;
        let t = -1.0;
        let h = ZMat::from_fn(n, n, |i, j| {
            if i.abs_diff(j) == 1 {
                c64::real(t)
            } else {
                c64::ZERO
            }
        });
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 * t * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = eigh_values(&h);
        for k in 0..n {
            assert!((got[k] - expect[k]).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn broadening_like_spectrum_with_huge_zero_cluster() {
        // Regression: a PSD matrix with a large (near-)zero cluster plus a
        // few split tiny eigenvalues and a handful of large ones — the
        // spectrum shape of a contact broadening matrix Γ. The cluster must
        // come back as orthonormal vectors with the large eigenvalues
        // intact.
        let n = 40;
        // Random unitary: a product of reflections I − 2uu†/‖u‖².
        let mut s = 0xABCDu64;
        let mut next = move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x1234567);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut q = ZMat::eye(n);
        for _ in 0..4 {
            let u: Vec<c64> = (0..n).map(|_| c64::new(next(), next())).collect();
            let uu: f64 = u.iter().map(|z| z.norm_sqr()).sum();
            let r = ZMat::from_fn(n, n, |i, j| {
                let delta = if i == j { c64::ONE } else { c64::ZERO };
                delta - (u[i] * u[j].conj()).scale(2.0 / uu)
            });
            q = matmul(&q, &r);
        }
        let mut diag = vec![0.0; n];
        diag[n - 1] = 84.0;
        diag[n - 2] = 22.0;
        diag[n - 3] = 3.5;
        diag[n - 4] = 3.2e-4;
        diag[n - 5] = 2.7e-4;
        // rest exactly zero
        let d = ZMat::from_diag(&diag.iter().map(|&v| c64::real(v)).collect::<Vec<_>>());
        let h = matmul(&matmul(&q, &d), &q.adjoint());
        let r = eigh(&h);
        check_decomposition(&h.hermitian_part(), &r, 1e-7);
        assert!(
            (r.values[n - 1] - 84.0).abs() < 1e-8,
            "top eigenvalue lost: {}",
            r.values[n - 1]
        );
        assert!((r.values[n - 2] - 22.0).abs() < 1e-8);
        assert!((r.values[n - 3] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn complex_phase_invariance() {
        // Unitary diagonal conjugation preserves the spectrum.
        let h = rand_hermitian(6, 99);
        let phases: Vec<c64> = (0..6)
            .map(|i| c64::from_polar(1.0, 0.7 * i as f64))
            .collect();
        let u = ZMat::from_diag(&phases);
        let hu = matmul(&crate::gemm::matmul(&u, &h), &u.adjoint());
        let a = eigh_values(&h);
        let b = eigh_values(&hu);
        for k in 0..6 {
            assert!((a[k] - b[k]).abs() < 1e-9);
        }
    }
}

//! General (non-Hermitian) complex eigenvalues.
//!
//! Francis-style implicitly shifted QR on the Hessenberg form, in complex
//! arithmetic with single (Wilkinson) shifts — the standard dense
//! eigenvalue workhorse for matrices without symmetry. Only eigenvalues are
//! computed; the transport code uses them for **complex band structure**
//! (Bloch factors `λ = e^{ikΔ}` of the lead transfer matrix, where
//! propagating modes have `|λ| = 1` and evanescent modes' `|ln|λ||/Δ` is
//! the tunneling decay constant).

use crate::flops;
use crate::matrix::ZMat;
use crate::vec_ops::reflector;
use omen_num::c64;

/// Eigenvalues of a general square complex matrix, in no particular order.
///
/// Panics when the QR iteration fails to deflate within `40·n` sweeps
/// (practically unreachable for finite matrices).
pub fn eig_values_general(a: &ZMat) -> Vec<c64> {
    assert!(a.is_square(), "eigenvalues of a non-square matrix");
    let n = a.nrows();
    if n == 0 {
        return Vec::new();
    }
    flops::add_flops(flops::geig_flops(n));
    let mut balanced = a.clone();
    balance(&mut balanced);
    let mut h = hessenberg(&balanced);
    let mut eigs = Vec::with_capacity(n);

    // Active trailing block is h[0..=hi][0..=hi].
    let mut hi = n - 1;
    let mut iters_since_deflation = 0;
    loop {
        // Deflate tiny subdiagonals.
        let mut l = hi;
        while l > 0 {
            let s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
            let s = if s == 0.0 { 1.0 } else { s };
            if h[(l, l - 1)].abs() <= f64::EPSILON * s {
                h[(l, l - 1)] = c64::ZERO;
                break;
            }
            l -= 1;
        }
        if l == hi {
            // 1×1 block converged.
            eigs.push(h[(hi, hi)]);
            if hi == 0 {
                break;
            }
            hi -= 1;
            iters_since_deflation = 0;
            continue;
        }
        iters_since_deflation += 1;
        assert!(
            iters_since_deflation <= 40,
            "QR iteration failed to converge on a {n}×{n} matrix"
        );

        // Wilkinson shift from the trailing 2×2 of the active block.
        let (a11, a12) = (h[(hi - 1, hi - 1)], h[(hi - 1, hi)]);
        let (a21, a22) = (h[(hi, hi - 1)], h[(hi, hi)]);
        let tr = a11 + a22;
        let det = a11 * a22 - a12 * a21;
        let disc = (tr * tr - 4.0 * det).sqrt();
        let r1 = (tr + disc).scale(0.5);
        let r2 = (tr - disc).scale(0.5);
        let shift = if (r1 - a22).abs() < (r2 - a22).abs() {
            r1
        } else {
            r2
        };
        // Exceptional shift every 12 stalls to break symmetry cycles.
        let shift = if iters_since_deflation % 12 == 0 {
            shift + c64::real(h[(hi, hi - 1)].abs())
        } else {
            shift
        };

        // One implicit single-shift QR sweep on rows/cols l..=hi via Givens
        // rotations chasing the bulge.
        let mut x = h[(l, l)] - shift;
        let mut y = h[(l + 1, l)];
        for k in l..hi {
            let (c, s) = givens(x, y);
            apply_givens_left(&mut h, k, k + 1, c, s, l.saturating_sub(1));
            apply_givens_right(&mut h, k, k + 1, c, s, (k + 2).min(hi) + 1);
            if k < hi.saturating_sub(1) && k + 1 < hi {
                x = h[(k + 1, k)];
                y = h[(k + 2, k)];
            }
        }
    }
    eigs
}

/// Parlett–Reinsch balancing: a diagonal similarity with powers of two that
/// equalizes row and column norms. Eigenvalues are exactly preserved (the
/// scaling is a similarity) while the matrix norm — and with it the QR
/// iteration's absolute error floor `eps·‖A‖` — can drop by many orders of
/// magnitude for badly scaled inputs such as companion matrices of
/// near-singular pencils.
fn balance(a: &mut ZMat) {
    let n = a.nrows();
    const RADIX: f64 = 2.0;
    loop {
        let mut converged = true;
        for i in 0..n {
            let mut r = 0.0;
            let mut c = 0.0;
            for j in 0..n {
                if j != i {
                    c += a[(j, i)].abs();
                    r += a[(i, j)].abs();
                }
            }
            if c == 0.0 || r == 0.0 {
                continue;
            }
            let mut f = 1.0;
            let mut cc = c;
            let s = c + r;
            while cc < r / RADIX {
                f *= RADIX;
                cc *= RADIX * RADIX;
            }
            while cc > r * RADIX {
                f /= RADIX;
                cc /= RADIX * RADIX;
            }
            if (c * f + r / f) < 0.95 * s {
                converged = false;
                let inv = 1.0 / f;
                for j in 0..n {
                    a[(i, j)] = a[(i, j)].scale(inv);
                }
                for j in 0..n {
                    a[(j, i)] = a[(j, i)].scale(f);
                }
            }
        }
        if converged {
            break;
        }
    }
}

/// Reduces `a` to upper Hessenberg form by Householder similarity (returns
/// the Hessenberg matrix; transformations are not accumulated).
fn hessenberg(a: &ZMat) -> ZMat {
    let n = a.nrows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector annihilating h[k+2.., k].
        let mut v: Vec<c64> = (k + 1..n).map(|i| h[(i, k)]).collect();
        let Some((beta, tau)) = reflector(&mut v) else {
            continue;
        };
        // H ← (I − τ v v†) H (I − τ v v†)
        // Left: for each column j, H[:,j] -= τ v (v† H[:,j])
        for j in 0..n {
            let mut dot = c64::ZERO;
            for (i, &vi) in (k + 1..n).zip(&v) {
                dot += vi.conj() * h[(i, j)];
            }
            let f = dot.scale(tau);
            for (i, &vi) in (k + 1..n).zip(&v) {
                h[(i, j)] -= vi * f;
            }
        }
        // Right: for each row i, H[i,:] -= τ (H[i,:] v) v†
        for i in 0..n {
            let row = &mut h.row_mut(i)[k + 1..];
            let dot: c64 = row.iter().zip(&v).map(|(&x, &vj)| x * vj).sum();
            let f = dot.scale(tau);
            for (x, &vj) in row.iter_mut().zip(&v) {
                *x -= f * vj.conj();
            }
        }
        h[(k + 1, k)] = beta;
        for i in k + 2..n {
            h[(i, k)] = c64::ZERO;
        }
    }
    h
}

/// Complex Givens rotation `(c real, s complex)` with
/// `[c, s; -s̄, c]·[x; y] = [r; 0]`.
fn givens(x: c64, y: c64) -> (f64, c64) {
    let xn = x.abs();
    let yn = y.abs();
    if yn == 0.0 {
        return (1.0, c64::ZERO);
    }
    let r = (xn * xn + yn * yn).sqrt();
    if xn == 0.0 {
        // Rotate y straight into the first slot.
        return (0.0, y.conj().scale(1.0 / yn));
    }
    let c = xn / r;
    // s = (x/|x|) * ȳ / r
    let s = x.scale(1.0 / xn) * y.conj().scale(1.0 / r);
    (c, s)
}

/// Applies the rotation to rows `p, q` from column `from_col` on.
fn apply_givens_left(h: &mut ZMat, p: usize, q: usize, c: f64, s: c64, from_col: usize) {
    let n = h.ncols();
    for j in from_col..n {
        let hp = h[(p, j)];
        let hq = h[(q, j)];
        h[(p, j)] = hp.scale(c) + s * hq;
        h[(q, j)] = -(s.conj()) * hp + hq.scale(c);
    }
}

/// Applies the conjugate rotation to columns `p, q` for rows `0..to_row`.
fn apply_givens_right(h: &mut ZMat, p: usize, q: usize, c: f64, s: c64, to_row: usize) {
    let m = h.nrows().min(to_row);
    for i in 0..m {
        let hp = h[(i, p)];
        let hq = h[(i, q)];
        h[(i, p)] = hp.scale(c) + hq * s.conj();
        h[(i, q)] = -s * hp + hq.scale(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectra_match(got: Vec<c64>, want: Vec<c64>, tol: f64) {
        assert_eq!(got.len(), want.len());
        // Greedy nearest-neighbor matching (robust to ordering ties).
        let mut remaining = want;
        for g in &got {
            let (k, d) = remaining
                .iter()
                .enumerate()
                .map(|(k, w)| (k, (*g - *w).abs()))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("nonempty");
            assert!(
                d < tol,
                "{g} has no partner within {tol} (closest {})",
                remaining[k]
            );
            remaining.swap_remove(k);
        }
    }

    #[test]
    fn triangular_matrix_eigenvalues_on_diagonal() {
        let n = 6;
        let a = ZMat::from_fn(n, n, |i, j| {
            if i <= j {
                c64::new((i + 2) as f64 * 0.7 - j as f64 * 0.1, i as f64 * 0.3)
            } else {
                c64::ZERO
            }
        });
        let want: Vec<c64> = (0..n).map(|i| a[(i, i)]).collect();
        assert_spectra_match(eig_values_general(&a), want, 1e-9);
    }

    #[test]
    fn known_2x2_complex() {
        // [[0, 1], [-1, 0]] has eigenvalues ±i.
        let a = ZMat::from_rows(&[vec![c64::ZERO, c64::ONE], vec![-c64::ONE, c64::ZERO]]);
        assert_spectra_match(
            eig_values_general(&a),
            vec![c64::imag(1.0), c64::imag(-1.0)],
            1e-12,
        );
    }

    #[test]
    fn matches_hermitian_solver_on_hermitian_input() {
        let mut s = 0x5A5Au64;
        let mut next = move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let a = ZMat::from_fn(8, 8, |_, _| c64::new(next(), next())).hermitian_part();
        let want: Vec<c64> = crate::eig::eigh_values(&a)
            .into_iter()
            .map(c64::real)
            .collect();
        assert_spectra_match(eig_values_general(&a), want, 1e-8);
    }

    #[test]
    fn companion_matrix_roots() {
        // Companion of z³ − 1: eigenvalues are the cube roots of unity.
        let a = ZMat::from_rows(&[
            vec![c64::ZERO, c64::ZERO, c64::ONE],
            vec![c64::ONE, c64::ZERO, c64::ZERO],
            vec![c64::ZERO, c64::ONE, c64::ZERO],
        ]);
        let w = vec![
            c64::ONE,
            c64::from_polar(1.0, 2.0 * std::f64::consts::PI / 3.0),
            c64::from_polar(1.0, -2.0 * std::f64::consts::PI / 3.0),
        ];
        assert_spectra_match(eig_values_general(&a), w, 1e-9);
    }

    #[test]
    fn trace_and_determinant_invariants_random() {
        let mut s = 0xC0FFEEu64;
        let mut next = move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(29);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [3usize, 5, 9, 14] {
            let a = ZMat::from_fn(n, n, |_, _| c64::new(next(), next()));
            let eigs = eig_values_general(&a);
            let sum: c64 = eigs.iter().copied().sum();
            assert!(
                (sum - a.trace()).abs() < 1e-8 * (1.0 + a.trace().abs()),
                "trace n={n}"
            );
            let prod = eigs.iter().fold(c64::ONE, |p, &e| p * e);
            let det = crate::lu::Lu::factor(&a).unwrap().det();
            assert!(
                (prod - det).abs() < 1e-7 * (1.0 + det.abs()),
                "det n={n}: {prod} vs {det}"
            );
        }
    }

    #[test]
    fn defective_jordan_block() {
        // Jordan block with eigenvalue 2 (algebraic multiplicity 3).
        let mut a = ZMat::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = c64::real(2.0);
            if i + 1 < 3 {
                a[(i, i + 1)] = c64::ONE;
            }
        }
        for e in eig_values_general(&a) {
            // Defective eigenvalues are only accurate to ~eps^(1/3).
            assert!((e - c64::real(2.0)).abs() < 1e-4, "{e}");
        }
    }
}

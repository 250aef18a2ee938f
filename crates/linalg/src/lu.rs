//! LU factorization with partial pivoting, solves and inverses.
//!
//! The recursive Green's function and the block-tridiagonal wave-function
//! solver spend nearly all their time in `PA = LU` factorizations of slab
//! blocks followed by multi-right-hand-side solves; this module is their
//! workhorse. Small matrices (`n ≤ NB`) use in-place Doolittle with row
//! pivoting; larger ones use a blocked **right-looking** factorization:
//! per `NB`-wide panel, (1) unblocked panel factor with partial pivoting
//! and immediate full-width row swaps, (2) unit-lower triangular solve for
//! the `U₁₂` block row, (3) trailing-matrix update
//! `A₂₂ ← A₂₂ − L₂₁·U₁₂` through the tiled multi-threaded GEMM — which is
//! where ~`1 − 1/NB` of the O(n³) work lands. The solves are blocked the
//! same way ([`Lu::solve_mat`]): a row-wise substitution inside each
//! `NB`-row diagonal block, one GEMM update between blocks.
//!
//! Every O(n³) step runs on the dispatched kernel path
//! (`crate::threads::simd_path`, `OMEN_SIMD`): the GEMM updates through
//! the register-blocked microkernel, and every row update
//! `row ← row − m·pivot_row` of the panel factor, of the `U₁₂` solve and
//! of the substitutions through the one AXPY entry
//! `crate::vec_ops::axpy_on`. Pivot candidates on the SIMD path are
//! therefore produced by FMA arithmetic: what holds is **per-path
//! determinism** — the panel and substitution phases are serial and
//! lane-local, the GEMM is bit-identical across thread counts for a fixed
//! path, so factors, pivots and solutions are too — **pivot equality
//! against an independent oracle on the conformance battery's matrices**
//! under both paths, and **cross-path agreement to rounding** of factors
//! and solutions (DESIGN.md §10). The scalar arm of the AXPY entry is the
//! plain loop, so the reference path's factors are unchanged by the
//! dispatch.

use crate::flops;
use crate::gemm::{gemm_core, Op};
use crate::matrix::ZMat;
use crate::threads::{self, SimdPath};
use crate::vec_ops::axpy_on;
use omen_num::c64;
use std::ops::Range;

/// Panel width of the blocked right-looking factorization; matrices up to
/// this size use the unblocked Doolittle path.
const NB: usize = 48;

/// An LU factorization `P·A = L·U` of a square complex matrix.
#[derive(Clone)]
pub struct Lu {
    /// Packed factors: strict lower triangle holds L (unit diagonal
    /// implicit), upper triangle holds U.
    lu: ZMat,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

/// Error raised when a pivot underflows — the matrix is singular to working
/// precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Singular {
    /// Index of the failing pivot.
    pub at: usize,
    /// Magnitude of the failing pivot.
    pub pivot: f64,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix singular to working precision at pivot {} (|p| = {:.3e})",
            self.at, self.pivot
        )
    }
}

impl std::error::Error for Singular {}

impl Singular {
    /// Promotes this kernel-level error to the stack-wide
    /// [`OmenError::SingularBlock`](omen_num::OmenError), attaching the
    /// block index known to the caller. The energy is filled in higher up
    /// via [`OmenError::with_energy`](omen_num::OmenError::with_energy).
    pub fn at_block(self, block: usize) -> omen_num::OmenError {
        omen_num::OmenError::SingularBlock {
            block,
            energy: omen_num::ENERGY_UNKNOWN,
            pivot: self.at,
            magnitude: self.pivot,
        }
    }
}

/// One unblocked Doolittle step set over columns `kk..k_hi`, updating only
/// columns `kk..upd_hi` (the panel in the blocked path, the whole trailing
/// matrix in the unblocked path). Pivots are searched over full columns
/// `j..n` and rows are swapped across the full width, so the permutation
/// matches the unblocked algorithm exactly. Each row update is one AXPY
/// on `path`.
fn panel_factor(
    lu: &mut ZMat,
    perm: &mut [usize],
    sign: &mut f64,
    kk: usize,
    k_hi: usize,
    upd_hi: usize,
    path: SimdPath,
) -> Result<(), Singular> {
    let n = lu.nrows();
    for j in kk..k_hi {
        // Pivot search in column j.
        let mut p = j;
        let mut pmax = lu[(j, j)].abs();
        for i in j + 1..n {
            let v = lu[(i, j)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax < 1e-300 {
            return Err(Singular { at: j, pivot: pmax });
        }
        if p != j {
            // Swap full rows (both L and U parts) and permutation.
            for c in 0..n {
                let t = lu[(j, c)];
                lu[(j, c)] = lu[(p, c)];
                lu[(p, c)] = t;
            }
            perm.swap(j, p);
            *sign = -*sign;
        }
        let inv_p = lu[(j, j)].inv();
        // Split rows j.. so we can read row j while updating rows below.
        let (upper, lower) = lu.data_mut().split_at_mut((j + 1) * n);
        let urow = &upper[j * n + j + 1..j * n + upd_hi];
        for row in lower.chunks_exact_mut(n) {
            let m = row[j] * inv_p;
            row[j] = m;
            if m == c64::ZERO {
                continue;
            }
            axpy_on(path, -m, urow, &mut row[j + 1..upd_hi]);
        }
    }
    Ok(())
}

/// `c ← c − a·b` through the tiled, multi-threaded GEMM core — uncounted:
/// the caller reported `lu_flops` / `trsm_flops` for the whole kernel.
fn subtract_product(c: &mut ZMat, a: &ZMat, b: &ZMat) {
    let work = a.nrows() as u64 * b.ncols() as u64 * a.ncols() as u64;
    gemm_core(
        -c64::ONE,
        a,
        Op::N,
        b,
        Op::N,
        c64::ONE,
        c,
        threads::auto_threads(work),
    );
}

/// `x[rows] ← x[rows] − lu[rows, cols]·x[cols]` for two disjoint row
/// ranges of the right-hand-side matrix `x`. The copy-out/copy-in is
/// O(n·nrhs) against the O(n·NB·nrhs) update it feeds.
fn sub_product(lu: &ZMat, x: &mut ZMat, rows: Range<usize>, cols: Range<usize>) {
    let nrhs = x.ncols();
    let a = lu.block(rows.start, cols.start, rows.len(), cols.len());
    let b = x.block(cols.start, 0, cols.len(), nrhs);
    let mut c = x.block(rows.start, 0, rows.len(), nrhs);
    subtract_product(&mut c, &a, &b);
    x.set_block(rows.start, 0, &c);
}

impl Lu {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// [`Singular`] when a pivot column is entirely below `1e-300` in
    /// magnitude. A NaN entry is not detected here (see [`non_finite`]).
    pub fn factor(a: &ZMat) -> Result<Lu, Singular> {
        assert!(a.is_square(), "LU of non-square matrix");
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        // One aggregate report covers panel, triangular-solve and trailing
        // GEMM work: the blocked path calls the *uncounted* GEMM core so
        // the total stays exactly `lu_flops(n)` per factorization.
        flops::add_flops(flops::lu_flops(n));

        let path = threads::simd_path();
        // Up to `NB` columns this is one panel: the unblocked Doolittle.
        for kk in (0..n).step_by(NB) {
            let k_hi = (kk + NB).min(n);
            // 1. Panel factor (updates within the panel only; the trailing
            //    columns were brought up to date by previous GEMM updates).
            panel_factor(&mut lu, &mut perm, &mut sign, kk, k_hi, k_hi, path)?;
            if k_hi == n {
                break;
            }
            // 2. Block row U12 ← L11⁻¹ · A12 (unit-lower forward solve,
            //    row-wise so each inner update is a contiguous AXPY).
            for i in kk + 1..k_hi {
                let (above, mine) = lu.data_mut().split_at_mut(i * n);
                let irow = &mut mine[..n];
                for p in kk..i {
                    let lip = irow[p];
                    if lip == c64::ZERO {
                        continue;
                    }
                    let prow = &above[p * n + k_hi..(p + 1) * n];
                    axpy_on(path, -lip, prow, &mut irow[k_hi..]);
                }
            }
            // 3. Trailing update A22 ← A22 − L21·U12 through the tiled,
            //    multi-threaded GEMM (copy-out/copy-in of the trailing
            //    block is O(n²) against the O(n²·NB) update it feeds).
            let nt = n - k_hi;
            let nb = k_hi - kk;
            let l21 = lu.block(k_hi, kk, nt, nb);
            let u12 = lu.block(kk, k_hi, nb, nt);
            let mut a22 = lu.block(k_hi, k_hi, nt, nt);
            subtract_product(&mut a22, &l21, &u12);
            lu.set_block(k_hi, k_hi, &a22);
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// Packed factors: strict lower triangle holds `L` (unit diagonal
    /// implicit), upper triangle holds `U`. Exposed for conformance
    /// testing against reference factorizations.
    pub fn packed(&self) -> &ZMat {
        &self.lu
    }

    /// Row permutation: `perm()[i]` is the original row now in position
    /// `i`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> c64 {
        let mut d = c64::real(self.sign);
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[c64]) -> Vec<c64> {
        assert_eq!(b.len(), self.n(), "rhs length mismatch");
        let x = self.solve_mat(&ZMat::from_vec(b.len(), 1, b.to_vec()));
        x.data().to_vec()
    }

    /// Solves `A X = B` for a matrix of right-hand sides.
    pub fn solve_mat(&self, b: &ZMat) -> ZMat {
        let n = self.n();
        assert_eq!(b.nrows(), n, "rhs row count mismatch");
        let nrhs = b.ncols();
        flops::add_flops(flops::trsm_flops(n, nrhs));
        // Permute rows of B.
        let mut x = ZMat::zeros(n, nrhs);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        self.substitute(&mut x);
        x
    }

    /// Explicit inverse `A⁻¹` (solves against the identity).
    pub fn inverse(&self) -> ZMat {
        let n = self.n();
        flops::add_flops(flops::trsm_flops(n, n));
        // P·I written in place of a materialized identity.
        let mut x = ZMat::zeros(n, n);
        for (i, &p) in self.perm.iter().enumerate() {
            x[(i, p)] = c64::ONE;
        }
        self.substitute(&mut x);
        x
    }

    /// `x ← U⁻¹ L⁻¹ x` for an already row-permuted right-hand side.
    ///
    /// Blocked like [`Lu::factor`]: per `NB`-row diagonal block a
    /// row-wise triangular solve (one AXPY per eliminated entry), and
    /// between blocks one off-diagonal update through the tiled GEMM.
    /// Matrices up to `NB` are a single block, i.e. the plain
    /// substitution.
    fn substitute(&self, x: &mut ZMat) {
        let n = self.n();
        let nrhs = x.ncols();
        let path = threads::simd_path();
        // Forward substitution L y = P b (unit diagonal), blocks ascending.
        for kk in (0..n).step_by(NB) {
            let k_hi = (kk + NB).min(n);
            for i in kk + 1..k_hi {
                let (done, rest) = x.data_mut().split_at_mut(i * nrhs);
                let xi = &mut rest[..nrhs];
                for j in kk..i {
                    let lij = self.lu[(i, j)];
                    if lij == c64::ZERO {
                        continue;
                    }
                    axpy_on(path, -lij, &done[j * nrhs..(j + 1) * nrhs], xi);
                }
            }
            if k_hi < n {
                sub_product(&self.lu, x, k_hi..n, kk..k_hi);
            }
        }
        // Back substitution U x = y, blocks descending.
        for kk in (0..n).step_by(NB).rev() {
            let k_hi = (kk + NB).min(n);
            if k_hi < n {
                sub_product(&self.lu, x, kk..k_hi, k_hi..n);
            }
            for i in (kk..k_hi).rev() {
                let (head, tail) = x.data_mut().split_at_mut((i + 1) * nrhs);
                let xi = &mut head[i * nrhs..];
                for j in i + 1..k_hi {
                    let uij = self.lu[(i, j)];
                    if uij == c64::ZERO {
                        continue;
                    }
                    axpy_on(path, -uij, &tail[(j - i - 1) * nrhs..(j - i) * nrhs], xi);
                }
                let d = self.lu[(i, i)].inv();
                for a in xi.iter_mut() {
                    *a *= d;
                }
            }
        }
    }
}

/// The first row of `a` holding a non-finite entry, as the failure a
/// factorization should have reported: [`Lu::factor`]'s pivot search
/// compares magnitudes, a NaN compares false, and so any pivot is silently
/// accepted and the NaN propagates through the solve. Callers that take
/// blocks from outside check here first.
pub fn non_finite(a: &ZMat) -> Option<Singular> {
    (0..a.nrows())
        .find(|&i| !a.row(i).iter().all(|z| z.is_finite()))
        .map(|at| Singular {
            at,
            pivot: f64::NAN,
        })
}

/// Maximum escalation steps [`factor_regularized`] attempts before giving
/// up: shifts of `i·eta`, `i·10·eta`, `i·100·eta`.
pub const MAX_REGULARIZE_RETRIES: usize = 3;

/// Factorizes `a`, recovering from singular pivots by retrying with a small
/// imaginary diagonal shift `+ i·eta` (escalated ×10 per attempt, up to
/// [`MAX_REGULARIZE_RETRIES`] times).
///
/// This is the standard NEGF regularization: the physical system matrix is
/// `(E + i·η)S − H − Σ`, so an extra `i·eta` with `eta` at the numerical
/// broadening scale moves the factorization off an exact eigenvalue without
/// perturbing observables beyond the broadening already present. Returns
/// the factorization and the number of retries spent (`0` = clean factor),
/// so callers can account recoveries in their sweep reports.
///
/// # Errors
///
/// [`Singular`] when `a` holds a non-finite entry, checked up front before
/// any factorization; otherwise the unshifted factorization's failure when
/// all [`MAX_REGULARIZE_RETRIES`] shifts are singular as well.
pub fn factor_regularized(a: &ZMat, eta: f64) -> Result<(Lu, usize), Singular> {
    debug_assert!(eta > 0.0, "regularization shift must be positive");
    // The shift recovery keeps a NaN: fail typed up front.
    if let Some(poisoned) = non_finite(a) {
        return Err(poisoned);
    }
    match Lu::factor(a) {
        Ok(f) => Ok((f, 0)),
        Err(first) => {
            let n = a.nrows();
            let mut shift = eta;
            for retry in 1..=MAX_REGULARIZE_RETRIES {
                let mut shifted = a.clone();
                for i in 0..n {
                    shifted[(i, i)] += c64::new(0.0, shift);
                }
                if let Ok(f) = Lu::factor(&shifted) {
                    return Ok((f, retry));
                }
                shift *= 10.0;
            }
            Err(first)
        }
    }
}

/// One-shot solve `A x = b`.
///
/// # Errors
///
/// [`Singular`] when [`Lu::factor`] finds a zero pivot column.
pub fn solve(a: &ZMat, b: &ZMat) -> Result<ZMat, Singular> {
    Ok(Lu::factor(a)?.solve_mat(b))
}

/// One-shot inverse.
///
/// # Errors
///
/// [`Singular`] when [`Lu::factor`] finds a zero pivot column.
pub fn inverse(a: &ZMat) -> Result<ZMat, Singular> {
    Ok(Lu::factor(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn randmat(n: usize, seed: u64) -> ZMat {
        let mut s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        ZMat::from_fn(n, n, |_, _| c64::new(next(), next()))
    }

    #[test]
    fn reconstructs_pa_eq_lu() {
        let n = 12;
        let a = randmat(n, 5);
        let f = Lu::factor(&a).unwrap();
        // Rebuild L and U, check L·U == P·A.
        let mut l = ZMat::eye(n);
        let mut u = ZMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = f.lu[(i, j)];
                } else {
                    u[(i, j)] = f.lu[(i, j)];
                }
            }
        }
        let pa = ZMat::from_fn(n, n, |i, j| a[(f.perm[i], j)]);
        assert!((&matmul(&l, &u) - &pa).max_abs() < 1e-12);
    }

    #[test]
    fn solve_vec_and_mat_agree() {
        let n = 9;
        let a = randmat(n, 17);
        let b = randmat(n, 18);
        let f = Lu::factor(&a).unwrap();
        let xm = f.solve_mat(&b);
        for j in 0..n {
            let xv = f.solve_vec(&b.col(j));
            for i in 0..n {
                assert!((xv[i] - xm[(i, j)]).abs() < 1e-11);
            }
        }
        // Residual check.
        assert!((&matmul(&a, &xm) - &b).max_abs() < 1e-10);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = randmat(15, 33);
        let inv = inverse(&a).unwrap();
        assert!((&matmul(&a, &inv) - &ZMat::eye(15)).max_abs() < 1e-10);
        assert!((&matmul(&inv, &a) - &ZMat::eye(15)).max_abs() < 1e-10);
    }

    #[test]
    fn determinant_of_known_matrix() {
        // det([[2, 1], [1, 3]]) = 5; complex scaling multiplies by i^2... use exact case.
        let a = ZMat::from_rows(&[
            vec![c64::real(2.0), c64::real(1.0)],
            vec![c64::real(1.0), c64::real(3.0)],
        ]);
        let d = Lu::factor(&a).unwrap().det();
        assert!((d - c64::real(5.0)).abs() < 1e-13);
        // Permutation sign: swapping rows flips sign.
        let b = ZMat::from_rows(&[
            vec![c64::real(0.0), c64::real(1.0)],
            vec![c64::real(1.0), c64::real(0.0)],
        ]);
        assert!((Lu::factor(&b).unwrap().det() + c64::ONE).abs() < 1e-15);
    }

    #[test]
    fn singular_detected() {
        let mut a = randmat(6, 44);
        // Make row 3 a copy of row 1.
        for j in 0..6 {
            let v = a[(1, j)];
            a[(3, j)] = v;
        }
        let r = Lu::factor(&a);
        match r {
            Err(_) => {}
            Ok(f) => assert!(f.det().abs() < 1e-10, "near-singular must have tiny det"),
        }
        let z = ZMat::zeros(4, 4);
        assert!(Lu::factor(&z).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = ZMat::from_rows(&[vec![c64::ZERO, c64::ONE], vec![c64::ONE, c64::ZERO]]);
        let f = Lu::factor(&a).unwrap();
        let x = f.solve_vec(&[c64::real(3.0), c64::real(7.0)]);
        assert!((x[0] - c64::real(7.0)).abs() < 1e-14);
        assert!((x[1] - c64::real(3.0)).abs() < 1e-14);
    }

    #[test]
    fn regularized_factor_recovers_singular_matrix() {
        // Exactly singular: rank-1 matrix. A clean factor fails, but the
        // i·eta shift makes it invertible and reports one retry.
        let a = ZMat::from_rows(&[
            vec![c64::real(1.0), c64::real(2.0)],
            vec![c64::real(2.0), c64::real(4.0)],
        ]);
        assert!(Lu::factor(&a).is_err());
        let (f, retries) = factor_regularized(&a, 1e-6).unwrap();
        assert!(retries >= 1, "recovery must be accounted");
        assert!(f.det().abs() > 0.0);
        // A healthy matrix costs no retries.
        let (_, r0) = factor_regularized(&ZMat::eye(3), 1e-6).unwrap();
        assert_eq!(r0, 0);
        // The all-NaN-proof hopeless case still errors out.
        let z = ZMat::zeros(3, 3);
        // Zero matrix + tiny i·eta·I is invertible, so it actually recovers:
        let (_, rz) = factor_regularized(&z, 1e-6).unwrap();
        assert!(rz >= 1);
    }

    #[test]
    fn singular_promotes_to_omen_error() {
        let e = Singular { at: 2, pivot: 0.0 }.at_block(5);
        match e {
            omen_num::OmenError::SingularBlock {
                block,
                energy,
                pivot,
                ..
            } => {
                assert_eq!(block, 5);
                assert_eq!(pivot, 2);
                assert!(energy.is_nan());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn diagonally_dominant_large_system() {
        let n = 60;
        let mut a = randmat(n, 7);
        for i in 0..n {
            a[(i, i)] += c64::real(n as f64);
        }
        let b = randmat(n, 8);
        let x = solve(&a, &b).unwrap();
        assert!((&matmul(&a, &x) - &b).max_abs() < 1e-9);
    }
}

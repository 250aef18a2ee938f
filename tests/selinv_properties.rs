//! Oracle battery for the selected-inversion engine.
//!
//! Two property families, bounds drawn from `TOLERANCES.toml`:
//!
//! 1. **Dense oracle** — on random well-conditioned block-tridiagonal
//!    systems the tree-selected inverse must reproduce the corresponding
//!    blocks of the dense full inverse (`selinv.vs_dense`), across a grid
//!    of block counts (including the degenerate single-block tree) and
//!    block sizes.
//! 2. **Fault paths** — a provably singular pivot is regularized and the
//!    recovery accounted; an unrecoverable NaN block fails with a typed
//!    `SingularBlock` naming the poisoned separator.

use omen::linalg::{lu, ZMat};
use omen::negf::selinv::selinv_solve;
use omen::num::tolerance::test_bound;
use omen::num::{c64, BoundKind, OmenError};
use omen::sparse::BlockTridiag;

/// Deterministic xorshift-ish stream for reproducible random systems.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }
    fn c(&mut self) -> c64 {
        c64::new(self.next(), self.next())
    }
}

/// Random diagonally dominant block-tridiagonal system: off-diagonal
/// entries O(1), diagonal blocks shifted by ±(bs + 4) so every Schur
/// pivot stays O(1)-conditioned under any elimination order.
fn random_system(nb: usize, bs: usize, seed: u64) -> BlockTridiag<ZMat> {
    let mut r = Rng(seed);
    let dom = c64::new(bs as f64 + 4.0, 1.0);
    let diag: Vec<ZMat> = (0..nb)
        .map(|_| {
            let mut m = ZMat::from_fn(bs, bs, |_, _| r.c());
            for i in 0..bs {
                m[(i, i)] += dom;
            }
            m
        })
        .collect();
    let lower: Vec<ZMat> = (0..nb.saturating_sub(1))
        .map(|_| ZMat::from_fn(bs, bs, |_, _| r.c()))
        .collect();
    let upper: Vec<ZMat> = (0..nb.saturating_sub(1))
        .map(|_| ZMat::from_fn(bs, bs, |_, _| r.c()))
        .collect();
    BlockTridiag::from_dense(diag, lower, upper)
}

/// Hermitian PSD stand-ins for the contact broadenings, so the Caroli
/// trace exercised by the solver is well-defined.
fn gammas(bs: usize, seed: u64) -> (ZMat, ZMat) {
    let mut r = Rng(seed);
    let mut make = || {
        let w = ZMat::from_fn(bs, bs, |_, _| r.c());
        // Γ = W W† is Hermitian PSD by construction.
        omen::linalg::matmul_n_h(&w, &w)
    };
    (make(), make())
}

#[test]
fn matches_dense_full_inverse_oracle() {
    let tol = test_bound("selinv.vs_dense", BoundKind::Relative)
        .expect("TOLERANCES.toml covers selinv.vs_dense");
    for (nb, bs) in [
        (1usize, 3usize),
        (2, 2),
        (3, 1),
        (5, 3),
        (8, 2),
        (11, 1),
        (6, 4),
    ] {
        let a = random_system(nb, bs, 0xA5EED ^ ((nb * 31 + bs) as u64));
        let (gl, gr) = gammas(bs, 0xBEEF ^ (nb as u64));
        let r = selinv_solve(&a, &gl, &gr)
            .unwrap_or_else(|e| panic!("nb={nb} bs={bs}: selinv failed: {e}"));
        let dense = lu::inverse(&a.to_dense()).expect("dominant system is invertible");
        let n = a.dim();
        let scale = dense.max_abs();
        for i in 0..nb {
            let off = a.offset(i);
            let di = dense.block(off, off, bs, bs);
            assert!(
                (&r.g_diag[i] - &di).max_abs() < tol * scale,
                "nb={nb} bs={bs} diag block {i}"
            );
            let c0 = dense.block(off, 0, bs, bs);
            assert!(
                (&r.g_col_left[i] - &c0).max_abs() < tol * scale,
                "nb={nb} bs={bs} left column block {i}"
            );
            let cn = dense.block(off, n - bs, bs, bs);
            assert!(
                (&r.g_col_right[i] - &cn).max_abs() < tol * scale,
                "nb={nb} bs={bs} right column block {i}"
            );
        }
    }
}

/// A both-sides-decoupled middle block makes its Schur pivot exactly the
/// bare on-site term under *any* elimination order: the tree must
/// regularize it and account the recovery in `retries`.
#[test]
fn singular_pivot_is_regularized_and_accounted() {
    let n = 5;
    let z = || ZMat::zeros(1, 1);
    let t = || ZMat::from_vec(1, 1, vec![c64::real(-1.0)]);
    let mut diag: Vec<ZMat> = (0..n).map(|_| ZMat::from_diag(&[c64::real(2.0)])).collect();
    diag[2] = z();
    let mut lower: Vec<ZMat> = (0..n - 1).map(|_| t()).collect();
    let mut upper: Vec<ZMat> = (0..n - 1).map(|_| t()).collect();
    for i in [1usize, 2] {
        lower[i] = z();
        upper[i] = z();
    }
    let a = BlockTridiag::from_dense(diag, lower, upper);
    let (gl, gr) = gammas(1, 0x51);

    let r = selinv_solve(&a, &gl, &gr).expect("regularization must recover the zero pivot");
    assert!(r.retries >= 1, "the recovery must be accounted");
}

/// A NaN-poisoned block defeats the shift-based regularization (the shift
/// keeps the NaN): the solve must fail with a typed `SingularBlock` naming
/// the poisoned separator.
#[test]
fn nan_block_fails_typed_at_the_poisoned_separator() {
    let n = 5;
    let t = || ZMat::from_vec(1, 1, vec![c64::real(-1.0)]);
    let mut diag: Vec<ZMat> = (0..n).map(|_| ZMat::from_diag(&[c64::real(2.0)])).collect();
    diag[2] = ZMat::from_diag(&[c64::new(f64::NAN, 0.0)]);
    let lower: Vec<ZMat> = (0..n - 1).map(|_| t()).collect();
    let upper: Vec<ZMat> = (0..n - 1).map(|_| t()).collect();
    let a = BlockTridiag::from_dense(diag, lower, upper);
    let (gl, gr) = gammas(1, 0x52);

    match selinv_solve(&a, &gl, &gr) {
        Err(OmenError::SingularBlock { block, .. }) => assert_eq!(block, 2),
        other => panic!("expected SingularBlock at the poisoned separator, got {other:?}"),
    }
}

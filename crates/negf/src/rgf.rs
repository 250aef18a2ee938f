//! Recursive Green's function over a block-tridiagonal device.
//!
//! Given `A(E) = (E + iη)·I − H − Σ_L − Σ_R` in block-tridiagonal form, the
//! solver computes exactly what the observables read and nothing wider:
//!
//! * all diagonal blocks `G_{i,i}` of the retarded Green's function —
//!   LDOS and charge;
//! * the first block column `G_{i,0}` and last block column `G_{i,N-1}`
//!   **on the support of the contact broadening** — `Γ_L`, `Γ_R` are
//!   identically zero outside the `s` orbitals the lead coupling touches,
//!   so `A_L = G Γ_L G†` and `A_R = G Γ_R G†` only ever read those `s`
//!   columns (`n × s` blocks, [`RgfResult::support_left`] /
//!   [`RgfResult::support_right`]);
//! * the Caroli transmission `T = Tr[Γ_L G_{0,N-1} Γ_R G_{0,N-1}†]`,
//!   evaluated on the `S_L × S_R` corner of `G_{0,N-1}`.
//!
//! **Forward sweep** (one factorization per slab): the left-connected
//! `gL_i = (A_ii − u_{i−1}·A_{i−1,i})⁻¹`, the product
//! `u_i = A_{i+1,i}·gL_i` it needs for the next slab anyway, and the
//! left-connected column `Z_{i+1} = A_{i+1,i}·gL_{i,0}[:,S_L] = −u_i·Z_i`
//! (`Z_1 = u_0[:,S_L]`).
//!
//! **Backward pass**: `t1 = gL_i·A_{i,i+1}` is formed once and serves both
//! `G_ii = gL_i + (t1·G_{i+1,i+1})·u_i` (accumulated over `gL_i` in place)
//! and the right column `G_{i,N−1}[:,S_R] = −t1·G_{i+1,N−1}[:,S_R]`; the
//! left column comes from the Dyson form `G_{i,0}[:,S_L] = −G_ii·Z_i`,
//! which needs the full `G_ii` the pass has just finished instead of a
//! second, right-connected factorization sweep.
//!
//! Cost per slab of size `n`: one LU + inverse (`16/3 n³ + 8 n³` flops) and
//! five `n³` GEMMs (`8 n³` each) — 6.67 GEMM equivalents — plus three
//! `n × n × s` column products and the `O(n·s²)` spectral diagonals of
//! [`crate::transport::package`]: `6.67 + 3·s/n + 2·(s/n)²`. This is the
//! `O(N·n³)` scaling the paper contrasts against its wave-function
//! algorithm; `tests/flop_counter_props.rs` pins the count to the flop.

use crate::sancho::ContactSelfEnergy;
use omen_linalg::{gemm, lu, matmul, matmul_n_h, Op, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::BlockTridiag;

/// Imaginary diagonal shift used to regularize a singular pivot block
/// before giving up on the point. Matches the numerical broadening scale
/// (see `omen_negf::DEFAULT_ETA`), so a recovered factorization stays
/// within the resolution the solve already accepted.
pub const REGULARIZATION_ETA: f64 = 1e-6;

/// Output of one RGF solve at a single (energy, momentum) point.
#[derive(Debug, Clone)]
pub struct RgfResult {
    /// Retarded diagonal blocks `G_{i,i}`.
    pub g_diag: Vec<ZMat>,
    /// First block column on `Γ_L`'s support, `G_{i,0}[:, S_L]`
    /// (`n_i × s_L`; left-contact spectral pathway).
    pub g_col_left: Vec<ZMat>,
    /// Last block column on `Γ_R`'s support, `G_{i,N-1}[:, S_R]`.
    pub g_col_right: Vec<ZMat>,
    /// `S_L`: the orbitals of slab 0 that `Γ_L` touches, ascending — the
    /// columns [`Self::g_col_left`] carries.
    pub support_left: Vec<usize>,
    /// `S_R`: the orbitals of slab `N−1` that `Γ_R` touches.
    pub support_right: Vec<usize>,
    /// Caroli transmission at this energy.
    pub transmission: f64,
    /// Pivot-regularization retries spent factoring the slabs
    /// (0 = every block factored cleanly).
    pub retries: usize,
}

impl RgfResult {
    /// Left-contact spectral function block `A_L,i = G_{i,0} Γ_L G_{i,0}†`.
    pub fn spectral_left(&self, gamma_l: &ZMat, i: usize) -> ZMat {
        let c = &self.g_col_left[i];
        matmul_n_h(&matmul(c, &gamma_l.principal(&self.support_left)), c)
    }

    /// Right-contact spectral function block `A_R,i = G_{i,N-1} Γ_R G_{i,N-1}†`.
    pub fn spectral_right(&self, gamma_r: &ZMat, i: usize) -> ZMat {
        let c = &self.g_col_right[i];
        matmul_n_h(&matmul(c, &gamma_r.principal(&self.support_right)), c)
    }

    /// Local density of states of slab `i`: `−Im Tr G_{i,i} / π`.
    pub fn ldos(&self, i: usize) -> f64 {
        -self.g_diag[i].trace().im / std::f64::consts::PI
    }
}

/// Caroli transmission `Tr[Γ_L G_{0,N−1} Γ_R G_{0,N−1}†]` from the
/// support-restricted right column block `x0 = G_{0,N−1}[:, S_R]`: only
/// its `S_L` rows meet `Γ_L`, so the trace runs on the `s_L × s_R` corner.
pub(crate) fn caroli(
    gamma_l: &ZMat,
    gamma_r: &ZMat,
    support_l: &[usize],
    support_r: &[usize],
    x0: &ZMat,
) -> f64 {
    let corner = x0.select_rows(support_l);
    let t = matmul(&gamma_l.principal(support_l), &corner);
    let t = matmul(&t, &gamma_r.principal(support_r));
    matmul_n_h(&t, &corner).trace().re
}

/// `−a·b`.
fn neg_product(a: &ZMat, b: &ZMat) -> ZMat {
    let mut out = ZMat::zeros(a.nrows(), b.ncols());
    gemm(-c64::ONE, a, Op::N, b, Op::N, c64::ZERO, &mut out);
    out
}

/// Builds `A = (E + iη) I − H − Σ_L − Σ_R` from the device Hamiltonian.
pub fn build_a_matrix(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> BlockTridiag {
    let nb = h.num_blocks();
    let ec = c64::new(e, eta);
    let mut diag: Vec<ZMat> = Vec::with_capacity(nb);
    for (i, d) in h.diag.iter().enumerate() {
        let n = d.nrows();
        let mut a = ZMat::from_diag(&vec![ec; n]);
        a -= d;
        if i == 0 {
            a -= &sigma_l.sigma;
        }
        if i == nb - 1 {
            a -= &sigma_r.sigma;
        }
        diag.push(a);
    }
    let lower: Vec<ZMat> = h.lower.iter().map(|b| -b).collect();
    let upper: Vec<ZMat> = h.upper.iter().map(|b| -b).collect();
    BlockTridiag::new(diag, lower, upper)
}

/// Runs the RGF recursion on a prebuilt `A` matrix with the contact
/// broadenings `Γ_L`, `Γ_R` (see the module docs for what is kept and
/// what is never formed).
///
/// A singular pivot block is first retried with the `i·eta` shift of
/// [`REGULARIZATION_ETA`] (recorded in [`RgfResult::retries`]).
///
/// # Errors
///
/// Only when regularization is exhausted does the point fail, with
/// [`OmenError::SingularBlock`](omen_num::OmenError) carrying the slab
/// index.
pub fn rgf_solve(a: &BlockTridiag, gamma_l: &ZMat, gamma_r: &ZMat) -> OmenResult<RgfResult> {
    let nb = a.num_blocks();
    let support_left = gamma_l.support();
    let support_right = gamma_r.support();
    let mut retries = 0usize;

    // Forward sweep. `g[i]` = gL_i, `u[i]` = A_{i+1,i}·gL_i and
    // `z[i]` = Z_{i+1}, the left-connected column entering slab i+1.
    let mut g: Vec<ZMat> = Vec::with_capacity(nb);
    let mut u: Vec<ZMat> = Vec::with_capacity(nb);
    let mut z: Vec<ZMat> = Vec::with_capacity(nb);
    for i in 0..nb {
        let mut m = a.diag[i].clone();
        if let Some(u_prev) = u.last() {
            // m -= (A[i,i-1] gL[i-1]) A[i-1,i], fused into the
            // accumulation (no temporary, one pass over m).
            gemm(
                -c64::ONE,
                u_prev,
                Op::N,
                &a.upper[i - 1],
                Op::N,
                c64::ONE,
                &mut m,
            );
        }
        let (f, r) = lu::factor_regularized(&m, REGULARIZATION_ETA).map_err(|s| s.at_block(i))?;
        retries += r;
        let gl = f.inverse();
        if i + 1 < nb {
            let ui = matmul(&a.lower[i], &gl);
            z.push(match z.last() {
                None => ui.select_cols(&support_left),
                Some(zi) => neg_product(&ui, zi),
            });
            u.push(ui);
        }
        g.push(gl);
    }

    // Backward pass from G_{N-1,N-1} = gL_{N-1}, slab i+1 finished before
    // slab i; both columns are collected last slab first.
    let mut x = g[nb - 1].select_cols(&support_right);
    let mut g_col_left: Vec<ZMat> = Vec::with_capacity(nb);
    let mut g_col_right: Vec<ZMat> = Vec::with_capacity(nb);
    for (i, (ui, z_next)) in u.into_iter().zip(z).enumerate().rev() {
        g_col_left.push(neg_product(&g[i + 1], &z_next));
        let t1 = matmul(&g[i], &a.upper[i]);
        let t2 = matmul(&t1, &g[i + 1]);
        // G_ii over gL_i in place: nothing later reads gL_i.
        gemm(c64::ONE, &t2, Op::N, &ui, Op::N, c64::ONE, &mut g[i]);
        let xi = neg_product(&t1, &x);
        g_col_right.push(std::mem::replace(&mut x, xi));
    }
    g_col_left.push(g[0].select_cols(&support_left));
    g_col_right.push(x);
    g_col_left.reverse();
    g_col_right.reverse();

    let transmission = caroli(
        gamma_l,
        gamma_r,
        &support_left,
        &support_right,
        &g_col_right[0],
    );

    Ok(RgfResult {
        g_diag: g,
        g_col_left,
        g_col_right,
        support_left,
        support_right,
        transmission,
        retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sancho::{ContactSelfEnergy, Side};

    /// Uniform 1-D chain cut into `nb` single-site blocks.
    fn chain(nb: usize, e0: f64, t: f64, barrier: &[f64]) -> BlockTridiag {
        let diag: Vec<ZMat> = (0..nb)
            .map(|i| ZMat::from_diag(&[c64::real(e0 + barrier.get(i).copied().unwrap_or(0.0))]))
            .collect();
        let off: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_diag(&[c64::real(t)]))
            .collect();
        BlockTridiag::new(diag, off.clone(), off)
    }

    fn chain_leads(e0: f64, t: f64, e: f64) -> (ContactSelfEnergy, ContactSelfEnergy) {
        let h00 = ZMat::from_diag(&[c64::real(e0)]);
        let h01 = ZMat::from_diag(&[c64::real(t)]);
        (
            ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Left).unwrap(),
            ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap(),
        )
    }

    #[test]
    fn clean_chain_transmits_unity_in_band() {
        let (e0, t) = (0.0, -1.0);
        let h = chain(8, e0, t, &[]);
        for &e in &[-1.7, -0.9, 0.05, 0.8, 1.6] {
            let (sl, sr) = chain_leads(e0, t, e);
            let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
            let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
            assert!(
                (r.transmission - 1.0).abs() < 1e-4,
                "E={e}: T={}",
                r.transmission
            );
        }
    }

    #[test]
    fn no_transmission_outside_band() {
        let (e0, t) = (0.0, -1.0);
        let h = chain(8, e0, t, &[]);
        for &e in &[-2.5, 2.5, 4.0] {
            let (sl, sr) = chain_leads(e0, t, e);
            let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
            let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
            assert!(r.transmission.abs() < 1e-6, "E={e}: T={}", r.transmission);
        }
    }

    #[test]
    fn single_site_barrier_matches_analytic() {
        // A single-site barrier of height U in a 1-D chain has the exact
        // transmission T = 4 t² sin²k / (4 t² sin²k + U²) with
        // E = e0 + 2t cos k... (standard s-matrix result for a δ-defect).
        let (e0, t, u) = (0.0, -1.0_f64, 0.8);
        let mut barrier = vec![0.0; 7];
        barrier[3] = u;
        let h = chain(7, e0, t, &barrier);
        for &e in &[-1.2_f64, -0.4, 0.3, 1.1] {
            let cosk = (e - e0) / (2.0 * t);
            let sink = (1.0 - cosk * cosk).sqrt();
            let expect = 1.0 / (1.0 + (u / (2.0 * t.abs() * sink)).powi(2));
            let (sl, sr) = chain_leads(e0, t, e);
            let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
            let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
            assert!(
                (r.transmission - expect).abs() < 1e-4,
                "E={e}: T={} vs analytic {expect}",
                r.transmission
            );
        }
    }

    #[test]
    fn spectral_sum_rule() {
        // Ballistic identity: i(G − G†) = A_L + A_R on every diagonal block.
        let (e0, t) = (0.1, -0.9);
        let mut barrier = vec![0.0; 6];
        barrier[2] = 0.3;
        barrier[3] = 0.3;
        let h = chain(6, e0, t, &barrier);
        let e = 0.5;
        let (sl, sr) = chain_leads(e0, t, e);
        let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
        let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        for i in 0..6 {
            let g = &r.g_diag[i];
            let spectral = g.gamma_of(); // i(G − G†)
            let al = r.spectral_left(&sl.gamma, i);
            let ar = r.spectral_right(&sr.gamma, i);
            let sum = &al + &ar;
            assert!(
                (&spectral - &sum).max_abs() < 1e-4,
                "sum rule violated at block {i}: {}",
                (&spectral - &sum).max_abs()
            );
        }
    }

    #[test]
    fn ldos_positive_in_band() {
        let (e0, t) = (0.0, -1.0);
        let h = chain(5, e0, t, &[]);
        let e = 0.4;
        let (sl, sr) = chain_leads(e0, t, e);
        let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
        let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        for i in 0..5 {
            assert!(
                r.ldos(i) > 0.0,
                "LDOS must be positive in band at block {i}"
            );
        }
        // Uniform chain: all sites share the same LDOS.
        for i in 1..5 {
            assert!((r.ldos(i) - r.ldos(0)).abs() < 1e-6);
        }
    }

    #[test]
    fn transmission_reciprocity() {
        // T computed from the left column must equal T from the right
        // column: Tr[Γ_L G_{0,N-1} Γ_R G†] = Tr[Γ_R G_{N-1,0} Γ_L G†].
        let (e0, t) = (0.0, -1.0);
        let mut barrier = vec![0.0; 6];
        barrier[1] = 0.5;
        barrier[4] = -0.2;
        let h = chain(6, e0, t, &barrier);
        let e = 0.7;
        let (sl, sr) = chain_leads(e0, t, e);
        let a = build_a_matrix(e, 1e-6, &h, &sl, &sr);
        let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        let gn0 = &r.g_col_left[5];
        let t1 = omen_linalg::matmul(&sr.gamma, gn0);
        let t2 = omen_linalg::matmul(&t1, &sl.gamma);
        let t3 = omen_linalg::matmul_n_h(&t2, gn0);
        let t_rl = t3.trace().re;
        assert!(
            (r.transmission - t_rl).abs() < 1e-6,
            "{} vs {t_rl}",
            r.transmission
        );
    }

    /// Deterministic uniform samples in [-1, 1).
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    /// Random non-Hermitian block-tridiagonal system, diagonally dominant
    /// so the dense oracle is well conditioned.
    fn random_system(nb: usize, bs: usize, seed: u64) -> BlockTridiag {
        let mut next = rng(seed);
        let mut block = |shift: f64| {
            let mut m = ZMat::from_fn(bs, bs, |_, _| c64::new(next(), next()));
            for k in 0..bs {
                m[(k, k)] += c64::real(shift);
            }
            m
        };
        let diag: Vec<ZMat> = (0..nb).map(|_| block(4.0 * bs as f64)).collect();
        let lower: Vec<ZMat> = (1..nb).map(|_| block(0.0)).collect();
        let upper: Vec<ZMat> = (1..nb).map(|_| block(0.0)).collect();
        BlockTridiag::new(diag, lower, upper)
    }

    /// Hermitian PSD broadening `W W†` that touches exactly `support`.
    fn gamma_on(bs: usize, support: &[usize], seed: u64) -> ZMat {
        let mut next = rng(seed);
        let mut w = ZMat::zeros(bs, bs);
        for &i in support {
            for j in 0..bs {
                w[(i, j)] = c64::new(next(), next());
            }
        }
        matmul_n_h(&w, &w)
    }

    #[test]
    fn matches_dense_inverse_on_sparse_and_full_supports() {
        use omen_num::tolerance::test_bound;
        use omen_num::BoundKind;
        let tol = test_bound("selinv.vs_dense", BoundKind::Relative).unwrap();
        let bs = 5;
        let all: Vec<usize> = (0..bs).collect();
        // nb = 1 is the single-block device: both columns come from G_00.
        for nb in [1usize, 2, 3, 8] {
            for (sup_l, sup_r) in [(vec![1, 3], vec![0, 2, 4]), (all.clone(), vec![2])] {
                let a = random_system(nb, bs, 0x5EED ^ nb as u64);
                let gl = gamma_on(bs, &sup_l, 0xA ^ nb as u64);
                let gr = gamma_on(bs, &sup_r, 0xB ^ nb as u64);
                let r = rgf_solve(&a, &gl, &gr).unwrap();
                assert_eq!(r.support_left, sup_l, "nb={nb}");
                assert_eq!(r.support_right, sup_r, "nb={nb}");

                let dense = lu::inverse(&a.to_dense()).unwrap();
                let scale = dense.max_abs();
                let last = a.offset(nb - 1);
                for i in 0..nb {
                    let off = a.offset(i);
                    let close = |got: &ZMat, want: ZMat, what: &str| {
                        assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
                        assert!(
                            (got - &want).max_abs() < tol * scale,
                            "nb={nb} block {i}: {what}"
                        );
                    };
                    close(&r.g_diag[i], dense.block(off, off, bs, bs), "diagonal");
                    close(
                        &r.g_col_left[i],
                        dense.block(off, 0, bs, bs).select_cols(&sup_l),
                        "left column",
                    );
                    close(
                        &r.g_col_right[i],
                        dense.block(off, last, bs, bs).select_cols(&sup_r),
                        "right column",
                    );
                }
                let g0n = dense.block(0, last, bs, bs);
                let t_dense = matmul_n_h(&matmul(&matmul(&gl, &g0n), &gr), &g0n)
                    .trace()
                    .re;
                assert!(
                    (r.transmission - t_dense).abs() < tol * (1.0 + t_dense.abs()),
                    "nb={nb}: T {} vs dense {t_dense}",
                    r.transmission
                );
            }
        }
    }
}

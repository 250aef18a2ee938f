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
//! **Couplings on their support.** In a nearest-neighbour tight-binding
//! device an off-diagonal block is non-zero on a few rows and columns only
//! (20 × 20 of 90 on the sp3s* wire, 8 × 7 of 32 on the single-band one),
//! so each one enters the recursion as `A_{i,i+1} = P_R·U_i·P_Cᵀ` and
//! `A_{i+1,i} = P_R′·L_i·P_C′ᵀ`: the row/column supports are read off the
//! block's exact zeros ([`ZMat::supports`]; rectangular, per link, upper
//! and lower independent), the cores `U_i`, `L_i` are the `r × c`
//! submatrices, and no product below takes an `n × n` off-diagonal block
//! as an operand. A dense coupling is its own core and costs what the
//! dense recursion costs, to the flop.
//!
//! **Forward sweep** (one factorization per slab): the left-connected
//! `gL_i = (A_ii − A_{i,i−1}·gL_{i−1}·A_{i−1,i})⁻¹`, where the Schur term
//! touches only `m[R′, C] −= u_{i−1}[:, R]·U_{i−1}`; the thin product
//! `u_i = L_i·gL_i[C′, :]` (`|R′| × n`; `A_{i+1,i}·gL_i = P_R′·u_i`) it
//! needs for the next slab anyway; and the left-connected column
//! `A_{i+1,i}·gL_{i,0}[:, S_L] = P_R′·Z_{i+1}` with
//! `Z_{i+1} = −u_i[:, R′_{i−1}]·Z_i` (`|R′| × s_L`; `Z_1 = u_0[:, S_L]`).
//!
//! **Backward pass**: `t1 = gL_i[:, R]·U_i` (`n × |C|`;
//! `gL_i·A_{i,i+1} = t1·P_Cᵀ`) is formed once and serves both
//! `G_ii = gL_i + (t1·G_{i+1,i+1}[C, R′])·u_i` (accumulated over `gL_i` in
//! place) and the right column
//! `G_{i,N−1}[:, S_R] = −t1·G_{i+1,N−1}[C, S_R]`; the left column comes
//! from the Dyson form `G_{i+1,0}[:, S_L] = −G_{i+1,i+1}[:, R′]·Z_{i+1}`,
//! which needs the full `G_{i+1,i+1}` the pass has just finished instead
//! of a second, right-connected factorization sweep.
//!
//! Cost per slab of size `n` with coupling supports of `s` orbitals: one
//! LU + inverse (`16/3 n³ + 16/3 n³` flops: the inverse's forward solve
//! skips the zeros of the identity) and `8(n²s + 5ns² + 2s³)` for the
//! eight thin products (at `s_L = s_R = s`), plus the `O(n·s²)` spectral
//! diagonals of [`crate::transport::package`] — `14.6 n³` at
//! `s/n = 20/90`, nearly three quarters of it the factorization, against
//! `10.7 n³ + 5·8 n³` and three `n × n × s` column products when the
//! coupling is dense (`s = n`). Still the `O(N·n³)` scaling the paper
//! contrasts against its wave-function algorithm;
//! `tests/flop_counter_props.rs` pins the count to the flop in both
//! regimes.

use crate::sancho::ContactSelfEnergy;
use crate::transport::{package, EnergyPointData};
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

/// One off-diagonal block on its support: `B = P_rows·core·P_colsᵀ`
/// exactly, `rows` / `cols` read off `B`'s zeros.
struct Coupling {
    rows: Vec<usize>,
    cols: Vec<usize>,
    core: ZMat,
}

impl Coupling {
    /// The couplings `sign·B` of a block list, `sign = −1` when `negate`
    /// (the blocks are `H`'s and `A = … − H`): the sign lands on the core.
    fn all(blocks: &[ZMat], negate: bool) -> Vec<Coupling> {
        blocks
            .iter()
            .map(|b| {
                let (rows, cols) = b.supports();
                let core = b.submatrix(&rows, &cols);
                Coupling {
                    core: if negate { -core } else { core },
                    rows,
                    cols,
                }
            })
            .collect()
    }
}

/// `m[rows, cols] −= p`.
fn sub_scatter(m: &mut ZMat, rows: &[usize], cols: &[usize], p: &ZMat) {
    for (k, &i) in rows.iter().enumerate() {
        let dst = m.row_mut(i);
        for (&j, &v) in cols.iter().zip(p.row(k)) {
            dst[j] -= v;
        }
    }
}

/// Diagonal blocks of `A = (E + iη) I − H − Σ_L − Σ_R`, each built when
/// the iterator reaches it.
fn a_diagonal<'a>(
    e: f64,
    eta: f64,
    h: &'a BlockTridiag,
    sigma_l: &'a ContactSelfEnergy,
    sigma_r: &'a ContactSelfEnergy,
) -> impl ExactSizeIterator<Item = ZMat> + 'a {
    let nb = h.num_blocks();
    let ec = c64::new(e, eta);
    h.diag.iter().enumerate().map(move |(i, d)| {
        let mut a = ZMat::from_diag(&vec![ec; d.nrows()]);
        a -= d;
        if i == 0 {
            a -= &sigma_l.sigma;
        }
        if i == nb - 1 {
            a -= &sigma_r.sigma;
        }
        a
    })
}

/// Builds `A = (E + iη) I − H − Σ_L − Σ_R` from the device Hamiltonian.
pub fn build_a_matrix(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> BlockTridiag {
    let diag = a_diagonal(e, eta, h, sigma_l, sigma_r).collect();
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
    recursion(
        a.diag.iter().cloned(),
        &Coupling::all(&a.lower, false),
        &Coupling::all(&a.upper, false),
        gamma_l,
        gamma_r,
    )
}

/// One energy point with RGF, from the contacts on: [`rgf_solve`] on
/// `A = (E + iη) I − H − Σ_L − Σ_R` without forming `A` — each diagonal
/// block is built as the sweep reaches it and consumed there, the
/// couplings are read from `H`'s off-diagonal blocks, negated on their
/// cores — packaged into the flat per-orbital data the integrator reads.
///
/// # Errors
///
/// [`rgf_solve`]'s [`OmenError::SingularBlock`](omen_num::OmenError),
/// stamped with the energy.
pub fn rgf_point(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> OmenResult<EnergyPointData> {
    let r = recursion(
        a_diagonal(e, eta, h, sigma_l, sigma_r),
        &Coupling::all(&h.lower, true),
        &Coupling::all(&h.upper, true),
        &sigma_l.gamma,
        &sigma_r.gamma,
    )
    .map_err(|err| err.with_energy(e))?;
    Ok(package(e, h, &r, sigma_l, sigma_r))
}

/// The recursion of the module docs over `A`'s diagonal blocks (owned, in
/// slab order) and its couplings `lower[i] = A_{i+1,i}`,
/// `upper[i] = A_{i,i+1}`.
fn recursion(
    diag: impl ExactSizeIterator<Item = ZMat>,
    lower: &[Coupling],
    upper: &[Coupling],
    gamma_l: &ZMat,
    gamma_r: &ZMat,
) -> OmenResult<RgfResult> {
    let nb = diag.len();
    let support_left = gamma_l.support();
    let support_right = gamma_r.support();
    let mut retries = 0usize;

    // Forward sweep. `g[i]` = gL_i, `u[i]` = L_i·gL_i[C′,:] and
    // `z[i]` = Z_{i+1}, the left-connected column entering slab i+1 on the
    // rows R′ of its lower coupling.
    let mut g: Vec<ZMat> = Vec::with_capacity(nb);
    let mut u: Vec<ZMat> = Vec::with_capacity(nb);
    let mut z: Vec<ZMat> = Vec::with_capacity(nb);
    for (i, mut m) in diag.enumerate() {
        if let Some(u_prev) = u.last() {
            let (lo, up) = (&lower[i - 1], &upper[i - 1]);
            let schur = matmul(&u_prev.select_cols(&up.rows), &up.core);
            sub_scatter(&mut m, &lo.rows, &up.cols, &schur);
        }
        let (f, r) = lu::factor_regularized(&m, REGULARIZATION_ETA).map_err(|s| s.at_block(i))?;
        retries += r;
        let gl = f.inverse();
        if i + 1 < nb {
            let ui = matmul(&lower[i].core, &gl.select_rows(&lower[i].cols));
            z.push(match z.last() {
                None => ui.select_cols(&support_left),
                Some(zi) => neg_product(&ui.select_cols(&lower[i - 1].rows), zi),
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
        let (lo, up) = (&lower[i], &upper[i]);
        let g_next = g[i + 1].select_cols(&lo.rows);
        g_col_left.push(neg_product(&g_next, &z_next));
        let t1 = matmul(&g[i].select_cols(&up.rows), &up.core);
        let t2 = matmul(&t1, &g_next.select_rows(&up.cols));
        // G_ii over gL_i in place: nothing later reads gL_i.
        gemm(c64::ONE, &t2, Op::N, &ui, Op::N, c64::ONE, &mut g[i]);
        let xi = neg_product(&t1, &x.select_rows(&up.cols));
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

    /// `(rows, cols)` a coupling block is confined to.
    type Pattern = (Vec<usize>, Vec<usize>);

    /// Random non-Hermitian block-tridiagonal system with block sizes
    /// `sizes`, diagonally dominant so the dense oracle is well
    /// conditioned. `lower[i]` / `upper[i]` say where the couplings of link
    /// `i` are non-zero (`None`: everywhere), each on its own.
    fn patterned_system(
        sizes: &[usize],
        lower: &[Option<Pattern>],
        upper: &[Option<Pattern>],
        seed: u64,
    ) -> BlockTridiag {
        let mut next = rng(seed);
        let mut block = |nr: usize, nc: usize, pattern: Option<&Pattern>| {
            let mut m = ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()));
            if let Some((rows, cols)) = pattern {
                m = ZMat::from_fn(nr, nc, |i, j| {
                    if rows.contains(&i) && cols.contains(&j) {
                        m[(i, j)]
                    } else {
                        c64::ZERO
                    }
                });
            }
            m
        };
        let diag: Vec<ZMat> = sizes
            .iter()
            .map(|&n| {
                let mut m = block(n, n, None);
                for k in 0..n {
                    m[(k, k)] += c64::real(4.0 * n as f64);
                }
                m
            })
            .collect();
        let links = sizes.len() - 1;
        let lower: Vec<ZMat> = (0..links)
            .map(|i| block(sizes[i + 1], sizes[i], lower[i].as_ref()))
            .collect();
        let upper: Vec<ZMat> = (0..links)
            .map(|i| block(sizes[i], sizes[i + 1], upper[i].as_ref()))
            .collect();
        BlockTridiag::new(diag, lower, upper)
    }

    /// Uniform blocks, dense couplings.
    fn random_system(nb: usize, bs: usize, seed: u64) -> BlockTridiag {
        let dense = vec![None; nb - 1];
        patterned_system(&vec![bs; nb], &dense, &dense, seed)
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

    /// Solves `a` with broadenings on `sup_l` / `sup_r` and holds every
    /// block of the result, and the transmission, against the dense
    /// inverse within `selinv.vs_dense`.
    fn solve_against_dense(
        a: &BlockTridiag,
        sup_l: &[usize],
        sup_r: &[usize],
        what: &str,
    ) -> RgfResult {
        use omen_num::tolerance::test_bound;
        use omen_num::BoundKind;
        let tol = test_bound("selinv.vs_dense", BoundKind::Relative).unwrap();
        let nb = a.num_blocks();
        let (n0, nn) = (a.block_size(0), a.block_size(nb - 1));
        let gl = gamma_on(n0, sup_l, 0xA ^ nb as u64);
        let gr = gamma_on(nn, sup_r, 0xB ^ nb as u64);
        let r = rgf_solve(a, &gl, &gr).unwrap();
        assert_eq!(r.support_left, sup_l, "{what}");
        assert_eq!(r.support_right, sup_r, "{what}");

        let dense = lu::inverse(&a.to_dense()).unwrap();
        let scale = dense.max_abs();
        let last = a.offset(nb - 1);
        for i in 0..nb {
            let (off, n) = (a.offset(i), a.block_size(i));
            let close = |got: &ZMat, want: ZMat, part: &str| {
                assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
                assert!(
                    (got - &want).max_abs() < tol * scale,
                    "{what} block {i}: {part}"
                );
            };
            close(&r.g_diag[i], dense.block(off, off, n, n), "diagonal");
            close(
                &r.g_col_left[i],
                dense.block(off, 0, n, n0).select_cols(sup_l),
                "left column",
            );
            close(
                &r.g_col_right[i],
                dense.block(off, last, n, nn).select_cols(sup_r),
                "right column",
            );
        }
        let g0n = dense.block(0, last, n0, nn);
        let t_dense = matmul_n_h(&matmul(&matmul(&gl, &g0n), &gr), &g0n)
            .trace()
            .re;
        assert!(
            (r.transmission - t_dense).abs() < tol * (1.0 + t_dense.abs()),
            "{what}: T {} vs dense {t_dense}",
            r.transmission
        );
        r
    }

    #[test]
    fn matches_dense_inverse_on_sparse_and_full_supports() {
        let bs = 5;
        let all: Vec<usize> = (0..bs).collect();
        // Dense couplings. nb = 1 is the single-block device: both columns
        // come from G_00.
        for nb in [1usize, 2, 3, 8] {
            for (sup_l, sup_r) in [(vec![1, 3], vec![0, 2, 4]), (all.clone(), vec![2])] {
                let a = random_system(nb, bs, 0x5EED ^ nb as u64);
                solve_against_dense(&a, &sup_l, &sup_r, &format!("dense nb={nb}"));
            }
        }

        // Couplings on supports: rectangular (|R| ≠ |C|), different on
        // every link, the lower block's pattern not the adjoint of the
        // upper's (and one of each dense), unequal block sizes.
        let on = |rows: &[usize], cols: &[usize]| Some((rows.to_vec(), cols.to_vec()));
        let sizes = [4usize, 6, 3, 5, 5];
        let lower = [
            on(&[0, 5], &[1]),
            on(&[1, 2], &[0, 3, 4, 5]),
            None,
            on(&[2], &[0, 1, 3]),
        ];
        let upper = [
            on(&[0, 2, 3], &[1, 4]),
            on(&[5], &[0, 1, 2]),
            on(&[0, 1], &[0, 2, 3, 4]),
            None,
        ];
        let a = patterned_system(&sizes, &lower, &upper, 0xC0DE);
        solve_against_dense(&a, &[0, 3], &[1, 2, 4], "patterned");
        solve_against_dense(&a, &[0, 1, 2, 3], &[], "patterned, dead right lead");

        // A severed chain through the new shapes: link 1 carries no
        // coupling at all, so `u` is 0 × n there, nothing crosses it and
        // the transmission is an exact zero, not a small number.
        let none = on(&[], &[]);
        let lower = [on(&[0, 5], &[1]), none.clone(), None, on(&[2], &[0, 1, 3])];
        let upper = [on(&[0, 2, 3], &[1, 4]), none, None, on(&[1], &[4])];
        let a = patterned_system(&sizes, &lower, &upper, 0x5E7E);
        let r = solve_against_dense(&a, &[0, 3], &[1, 2, 4], "severed");
        assert_eq!(r.transmission, 0.0);
        assert!((0..sizes.len()).all(|i| r.ldos(i).is_finite()));
        assert_eq!(r.g_col_right[1], ZMat::zeros(6, 3));
        assert_eq!(r.g_col_left[2], ZMat::zeros(3, 2));

        // A NaN in a coupling is in that coupling's support, reaches the
        // next slab's pivot block and fails typed there.
        for poison_upper in [true, false] {
            let mut a = random_system(4, bs, 0xBAD);
            let block = if poison_upper {
                &mut a.upper[1]
            } else {
                &mut a.lower[1]
            };
            block[(2, 3)] = c64::new(f64::NAN, 0.0);
            let err = rgf_solve(&a, &gamma_on(bs, &[1], 1), &gamma_on(bs, &[2], 2)).unwrap_err();
            assert!(
                matches!(err, omen_num::OmenError::SingularBlock { block: 2, .. }),
                "{err:?}"
            );
        }
    }
}

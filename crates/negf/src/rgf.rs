//! Recursive Green's function over a block-tridiagonal device.
//!
//! Given `A(E) = (E + iη)·I − H − Σ_L − Σ_R` in block-tridiagonal form, the
//! solver computes exactly what the observables read and nothing wider:
//!
//! * the diagonal of every diagonal block `G_{i,i}` of the retarded
//!   Green's function — its trace is the LDOS;
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
//! and [`BlockTridiag`] stores each one that way: `A_{i,i+1} = P_R·U_i·P_Cᵀ`
//! and `A_{i+1,i} = P_R′·L_i·P_C′ᵀ`, an [`omen_sparse::Coupling`] whose
//! supports were observed once, at assembly (rectangular, per link, upper
//! and lower independent) — the form the wave-function engine's
//! eliminations take too. The recursion reads the stored cores `U_i`,
//! `L_i` (negated for `A = … − H`) and no product below takes an `n × n`
//! off-diagonal block as an operand. A dense coupling is its own core and
//! costs what the dense recursion costs.
//!
//! **Forward sweep** (one factorization per slab): the left-connected
//! `gL_i = (A_ii − A_{i,i−1}·gL_{i−1}·A_{i−1,i})⁻¹`, where the Schur term
//! touches only `m[R′, C] −= u_{i−1}[:, R]·U_{i−1}`; the thin product
//! `u_i = L_i·gL_i[C′, :]` (`|R′| × n`; `A_{i+1,i}·gL_i = P_R′·u_i`) it
//! needs for the next slab anyway; and the left-connected column
//! `A_{i+1,i}·gL_{i,0}[:, S_L] = P_R′·Z_{i+1}` with
//! `Z_{i+1} = −u_i[:, R′_{i−1}]·Z_i` (`|R′| × s_L`; `Z_1 = u_0[:, S_L]`).
//!
//! **What is kept** of each `gL_i` once `u_i` is formed: its two faces and
//! its diagonal. `R_i` is the row support of `A_{i,i+1}` (`S_R` on the
//! last slab), the columns `t1` below reads; `K_i` is the row support `R′`
//! of `A_{i,i−1}` (`S_L` on slab 0), the columns of `G_ii` the next
//! backward step and the left column read. So a slab stores
//! `gL_i[:, R_i]`, `gL_i[:, K_i]`, `diag(gL_i)` and the thin `u_i`, `Z_i`;
//! at `s/n = 20/90` the faces and the diagonal are under half of the dense
//! `gL_i` (3 690 of 8 100 entries).
//! [`rgf_solve`] runs the same recursion keeping every column as `K_i`,
//! and so returns each whole `G_ii`.
//!
//! **Backward pass**: `t1 = gL_i[:, R]·U_i` (`n × |C|`;
//! `gL_i·A_{i,i+1} = t1·P_Cᵀ`) is formed once and serves both
//! `G_ii = gL_i + t2·u_i`, `t2 = t1·G_{i+1,i+1}[C, R′]` — accumulated in
//! place over the kept columns `K_i` of `gL_i` and, in `4 × 4` diagonal
//! tiles of `t2·u_i`, over its diagonal — and the right column
//! `G_{i,N−1}[:, S_R] = −t1·G_{i+1,N−1}[C, S_R]`; the left column comes
//! from the Dyson form `G_{i+1,0}[:, S_L] = −G_{i+1,i+1}[:, R′]·Z_{i+1}`,
//! which reads the face `K_{i+1} = R′` the pass has just finished instead
//! of a second, right-connected factorization sweep. Each GEMM entry gets
//! the same products in the same order whatever the product's shape, so
//! the face columns and the diagonal tiles carry the bits of the whole
//! `G_ii`. [`rgf_point`] hands each slab to the point's flat data (LDOS
//! and spectral diagonals, as [`crate::transport::package`] forms them)
//! as soon as it is finished, so no `n × s` column block outlives its
//! slab.
//!
//! Cost per slab of size `n` with coupling supports of `s` orbitals: one
//! LU + inverse (`16/3 n³ + 16/3 n³` flops: the inverse's forward solve
//! skips the zeros of the identity), `8(6ns² + 2s³)` for the eight thin
//! products (at `s_L = s_R = s`) and `≈ 32ns` for the diagonal tiles, plus
//! the `O(n·s²)` spectral diagonals — `14.1 n³` counted on the sp3s* wire
//! (`s/n = 20/90`), three quarters of it the factorization, where updating
//! each `G_ii` whole cost `15.4 n³`. A dense coupling (`s = n`) keeps
//! every column, so its `G_ii` update is the full `n × n × n` product.
//! Still the `O(N·n³)` scaling the paper contrasts against its
//! wave-function algorithm; `tests/flop_counter_props.rs` pins the count
//! to the flop in both regimes.

use crate::sancho::ContactSelfEnergy;
use crate::transport::{EnergyPointData, PointAssembly};
use omen_linalg::{gemm, lu, matmul, matmul_n_h, Op, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::{BlockTridiag, Coupling};
use std::ops::Neg;

/// Imaginary diagonal shift used to regularize a singular pivot block
/// before giving up on the point. Matches the numerical broadening scale
/// (see `omen_negf::DEFAULT_ETA`), so a recovered factorization stays
/// within the resolution the solve already accepted.
pub const REGULARIZATION_ETA: f64 = 1e-6;

/// Output of one RGF solve at a single (energy, momentum) point, with
/// every diagonal block whole: the surface the oracle batteries and
/// selected inversion hold an engine against. [`rgf_point`] keeps only
/// faces and hands each slab straight to its [`EnergyPointData`].
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

/// `−B` for every coupling `B` of `blocks`: `A = … − H` takes `H`'s
/// couplings with the sign on their cores.
pub fn negated(blocks: &[Coupling]) -> Vec<Coupling> {
    blocks.iter().map(Neg::neg).collect()
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
/// the iterator reaches it. With `H`'s couplings negated on their cores,
/// this is all of `A` an engine takes: no copy of `H` is made.
pub fn a_diagonal<'a>(
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

/// Builds `A = (E + iη) I − H − Σ_L − Σ_R` from the device Hamiltonian:
/// a negated copy of all of `H`, for selected inversion and the tests that
/// hold an engine against it. [`rgf_point`] takes [`a_diagonal`] and
/// `H`'s couplings instead.
pub(crate) fn build_a_matrix(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> BlockTridiag {
    let diag = a_diagonal(e, eta, h, sigma_l, sigma_r).collect();
    BlockTridiag::new(diag, negated(&h.lower), negated(&h.upper))
}

/// Runs the RGF recursion on a prebuilt `A` matrix with the contact
/// broadenings `Γ_L`, `Γ_R`, keeping every column of each `G_ii` (see the
/// module docs for what is kept and what is never formed). This is the
/// full result surface the oracle batteries and selected inversion hold
/// an engine against; [`rgf_point`] runs the same recursion on the faces.
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
    let (support_left, support_right) = (gamma_l.support(), gamma_r.support());
    let nb = a.num_blocks();
    let mut g_diag = vec![ZMat::zeros(0, 0); nb];
    let mut g_col_left = g_diag.clone();
    let mut g_col_right = g_diag.clone();
    let retries = recursion(
        a.diag.iter().cloned(),
        (&a.lower, &a.upper),
        (&support_left, &support_right),
        Keep::All,
        |i, slab| {
            g_diag[i] = slab.g;
            g_col_left[i] = slab.left;
            g_col_right[i] = slab.right;
        },
    )?;
    let transmission = caroli(
        gamma_l,
        gamma_r,
        &support_left,
        &support_right,
        &g_col_right[0],
    );
    Ok(RgfResult {
        g_diag,
        g_col_left,
        g_col_right,
        support_left,
        support_right,
        transmission,
        retries,
    })
}

/// One energy point with RGF, from the contacts on: the recursion of
/// [`rgf_solve`] on `A = (E + iη) I − H − Σ_L − Σ_R` without forming `A` —
/// each diagonal block is built as the sweep reaches it and consumed
/// there, the couplings are `H`'s stored ones, negated on their cores —
/// keeping only the faces of each `gL_i` and handing each slab to the
/// flat per-orbital data the integrator reads as soon as the backward
/// pass finishes it. Bit for bit [`crate::transport::package`] of
/// [`rgf_solve`].
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
    let (gamma_l, gamma_r) = (&sigma_l.gamma, &sigma_r.gamma);
    let (support_left, support_right) = (gamma_l.support(), gamma_r.support());
    let mut point = PointAssembly::new(h, gamma_l, gamma_r, &support_left, &support_right);
    let mut transmission = 0.0;
    let retries = recursion(
        a_diagonal(e, eta, h, sigma_l, sigma_r),
        (&negated(&h.lower), &negated(&h.upper)),
        (&support_left, &support_right),
        Keep::Faces,
        |i, slab| {
            if i == 0 {
                transmission = caroli(gamma_l, gamma_r, &support_left, &support_right, &slab.right);
            }
            point.slab(i, slab.diag.iter().sum(), &slab.left, &slab.right);
        },
    )
    .map_err(|err| err.with_energy(e))?;
    Ok(point.finish(e, transmission, retries + sigma_l.retries + sigma_r.retries))
}

/// Which columns of each `G_ii` the recursion keeps: the face `K_i` the
/// backward pass reads ([`rgf_point`]), or every column ([`rgf_solve`]).
#[derive(Clone, Copy)]
enum Keep {
    Faces,
    All,
}

/// What the forward sweep keeps of one `gL_i`; the backward pass turns
/// `g` and `diag` into the same parts of `G_ii` in place.
struct Stored {
    /// `gL_i[:, R_i]`, read once, by `t1`.
    right: ZMat,
    /// `gL_i` on the kept columns, then `G_ii` on them.
    g: ZMat,
    /// The kept columns: `K_i`, or all of them.
    cols: Vec<usize>,
    /// Where `K_i` sits among `cols`.
    k_at: Vec<usize>,
    /// `diag(gL_i)`, then `diag(G_ii)`.
    diag: Vec<c64>,
}

impl Stored {
    /// Keeps the `k` face (or all, under `Keep::All`), the `r` face and
    /// the diagonal of `gl`.
    fn new(gl: &ZMat, k: &[usize], r: &[usize], keep: Keep) -> Stored {
        let (cols, k_at) = match keep {
            Keep::Faces => (k.to_vec(), (0..k.len()).collect()),
            Keep::All => ((0..gl.ncols()).collect(), k.to_vec()),
        };
        Stored {
            right: gl.select_cols(r),
            g: gl.select_cols(&cols),
            diag: (0..gl.nrows()).map(|j| gl[(j, j)]).collect(),
            cols,
            k_at,
        }
    }
}

/// One slab as the backward pass finishes it.
struct Finished {
    /// `G_ii` on the kept columns.
    g: ZMat,
    /// `diag(G_ii)`.
    diag: Vec<c64>,
    /// `G_{i,0}[:, S_L]`.
    left: ZMat,
    /// `G_{i,N−1}[:, S_R]`.
    right: ZMat,
}

/// Side of the diagonal tiles `add_diagonal` forms: one microkernel
/// block of the GEMM (`MR × NR`).
const TILE: usize = 4;

/// `d[k] += (a·b)[k, k]` for every `k`, from the `TILE × TILE` diagonal
/// tiles of the product, each accumulated over `d`'s entries. Every C
/// entry of a GEMM gets the same products in the same order whatever the
/// product's shape (`omen_linalg::gemm`'s module docs), so each `d[k]`
/// carries the bits it has in `d + a·b` formed whole.
fn add_diagonal(d: &mut [c64], a: &ZMat, b: &ZMat) {
    let k = a.ncols();
    for k0 in (0..d.len()).step_by(TILE) {
        let t = TILE.min(d.len() - k0);
        let tile = &mut d[k0..k0 + t];
        let mut c = ZMat::from_diag(tile);
        let (rows, cols) = (a.block(k0, 0, t, k), b.block(0, k0, k, t));
        gemm(c64::ONE, &rows, Op::N, &cols, Op::N, c64::ONE, &mut c);
        for (j, v) in tile.iter_mut().enumerate() {
            *v = c[(j, j)];
        }
    }
}

/// The recursion of the module docs over `A`'s diagonal blocks (owned, in
/// slab order) and its couplings `lower[i] = A_{i+1,i}`,
/// `upper[i] = A_{i,i+1}`, with the broadenings on `S_L` / `S_R`. Hands
/// each slab to `finish` as the backward pass completes it, last slab
/// first, and returns the pivot-regularization retries.
fn recursion(
    diag: impl ExactSizeIterator<Item = ZMat>,
    (lower, upper): (&[Coupling], &[Coupling]),
    (support_left, support_right): (&[usize], &[usize]),
    keep: Keep,
    mut finish: impl FnMut(usize, Finished),
) -> OmenResult<usize> {
    let nb = diag.len();
    // The faces of gL_i: K_i the columns of G_ii the next backward step
    // (and slab 0's left column) reads, R_i the ones t1 reads.
    let k_face = |i: usize| {
        if i == 0 {
            support_left
        } else {
            &lower[i - 1].rows[..]
        }
    };
    let r_face = |i: usize| {
        if i + 1 == nb {
            support_right
        } else {
            &upper[i].rows[..]
        }
    };
    let mut retries = 0usize;

    // Forward sweep. `u[i]` = L_i·gL_i[C′,:] and `z[i]` = Z_{i+1}, the
    // left-connected column entering slab i+1 on the rows R′ of its lower
    // coupling; of gL_i itself only its faces and diagonal stay.
    let mut stored: Vec<Stored> = Vec::with_capacity(nb);
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
                None => ui.select_cols(support_left),
                Some(zi) => neg_product(&ui.select_cols(&lower[i - 1].rows), zi),
            });
            u.push(ui);
        }
        stored.push(Stored::new(&gl, k_face(i), r_face(i), keep));
    }

    // Backward pass from G_{N-1,N-1} = gL_{N-1}: step i finishes slab i+1
    // and carries G_ii on the kept columns and the diagonal.
    let mut slabs = stored.into_iter().rev();
    let Some(mut next) = slabs.next() else {
        return Ok(retries);
    };
    let mut x = next.right.clone();
    for ((i, (ui, z_next)), mut cur) in u.into_iter().zip(z).enumerate().rev().zip(slabs) {
        let up = &upper[i];
        // G_{i+1,i+1}[:, R′]: K_{i+1} is R′.
        let g_next = next.g.select_cols(&next.k_at);
        let left = neg_product(&g_next, &z_next);
        let t1 = matmul(&cur.right, &up.core);
        let t2 = matmul(&t1, &g_next.select_rows(&up.cols));
        gemm(
            c64::ONE,
            &t2,
            Op::N,
            &ui.select_cols(&cur.cols),
            Op::N,
            c64::ONE,
            &mut cur.g,
        );
        add_diagonal(&mut cur.diag, &t2, &ui);
        let xi = neg_product(&t1, &x.select_rows(&up.cols));
        finish(
            i + 1,
            Finished {
                g: next.g,
                diag: next.diag,
                left,
                right: std::mem::replace(&mut x, xi),
            },
        );
        next = cur;
    }
    let left = next.g.select_cols(&next.k_at);
    finish(
        0,
        Finished {
            g: next.g,
            diag: next.diag,
            left,
            right: x,
        },
    );
    Ok(retries)
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
        BlockTridiag::from_dense(diag, off.clone(), off)
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

    /// Uniform blocks, dense couplings.
    fn random_system(nb: usize, bs: usize, seed: u64) -> BlockTridiag {
        let dense = vec![None; nb - 1];
        BlockTridiag::patterned(&vec![bs; nb], &dense, &dense, seed)
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

    /// A contact whose broadening is `gamma`: `Σ = −(i/2)·Γ`.
    fn contact(side: Side, gamma: ZMat, retries: usize) -> ContactSelfEnergy {
        ContactSelfEnergy {
            side,
            sigma: gamma.scaled(c64::new(0.0, -0.5)),
            gamma,
            retries,
        }
    }

    /// `rgf_point`'s faces against `package` of `rgf_solve`'s full blocks,
    /// on every bit of the point.
    fn thin_is_full(
        h: &BlockTridiag,
        sup_l: &[usize],
        sup_r: &[usize],
        e: f64,
        what: &str,
    ) -> EnergyPointData {
        use crate::transport::package;
        let nb = h.num_blocks();
        let (n0, nn) = (h.block_size(0), h.block_size(nb - 1));
        let sl = contact(Side::Left, gamma_on(n0, sup_l, 0x1 ^ nb as u64), 1);
        let sr = contact(Side::Right, gamma_on(nn, sup_r, 0x2 ^ nb as u64), 2);
        let eta = 1e-3;
        let thin = rgf_point(e, eta, h, &sl, &sr).unwrap();
        let a = build_a_matrix(e, eta, h, &sl, &sr);
        let full = package(
            e,
            h,
            &rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap(),
            &sl,
            &sr,
        );
        let bits = |p: &EnergyPointData| {
            let raw = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                p.energy.to_bits(),
                p.transmission.to_bits(),
                raw(&p.ldos),
                raw(&p.spectral_left_diag),
                raw(&p.spectral_right_diag),
                p.retries,
            )
        };
        assert_eq!(bits(&thin), bits(&full), "{what}");
        assert!(thin.retries >= 3, "{what}: the contacts' retries are added");
        thin
    }

    #[test]
    fn faces_give_the_full_blocks_bits() {
        let bs = 5;
        let all: Vec<usize> = (0..bs).collect();
        // Dense couplings, so every face is all of the block (s = n), and
        // broadenings dense or on random supports.
        for nb in [1usize, 2, 3, 6] {
            let h = random_system(nb, bs, 0xFACE ^ nb as u64);
            for (sup_l, sup_r) in [
                (all.clone(), all.clone()),
                (vec![1, 3], vec![0, 2, 4]),
                (vec![4], all.clone()),
            ] {
                thin_is_full(&h, &sup_l, &sup_r, 0.3, &format!("dense nb={nb}"));
            }
        }

        // Faces on supports: R_i (upper rows) and K_{i+1} (lower rows)
        // differ on every link, blocks of unequal sizes, one dense link.
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
        let h = BlockTridiag::patterned(&sizes, &lower, &upper, 0xFACE5);
        thin_is_full(&h, &[0, 3], &[1, 2, 4], -0.2, "patterned");
        thin_is_full(&h, &[], &[0, 1, 2, 3, 4], -0.2, "patterned, dead left lead");
        let h = BlockTridiag::patterned(&sizes[..2], &lower[..1], &upper[..1], 0xFACE2);
        thin_is_full(&h, &[2], &[0, 1, 5], 0.7, "patterned nb=2");

        // A severed link (0 × n thin products) and a slab whose pivot is
        // exactly singular at E, recovered by regularization.
        let e = 0.25;
        let severed = [on(&[], &[]), on(&[0], &[0])];
        let mut h = BlockTridiag::patterned(&[1, 1, 1], &severed, &severed, 0x5E7);
        h.diag[1] = ZMat::from_diag(&[c64::new(e, 1e-3)]);
        let p = thin_is_full(&h, &[0], &[0], e, "severed, singular pivot");
        assert!(p.retries > 3, "the singular pivot is regularized");
        assert_eq!(p.transmission, 0.0);
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
        let a = BlockTridiag::patterned(&sizes, &lower, &upper, 0xC0DE);
        solve_against_dense(&a, &[0, 3], &[1, 2, 4], "patterned");
        solve_against_dense(&a, &[0, 1, 2, 3], &[], "patterned, dead right lead");

        // A severed chain through the new shapes: link 1 carries no
        // coupling at all, so `u` is 0 × n there, nothing crosses it and
        // the transmission is an exact zero, not a small number.
        let none = on(&[], &[]);
        let lower = [on(&[0, 5], &[1]), none.clone(), None, on(&[2], &[0, 1, 3])];
        let upper = [on(&[0, 2, 3], &[1, 4]), none, None, on(&[1], &[4])];
        let a = BlockTridiag::patterned(&sizes, &lower, &upper, 0x5E7E);
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
            // A dense coupling is its own core.
            block.core[(2, 3)] = c64::new(f64::NAN, 0.0);
            let err = rgf_solve(&a, &gamma_on(bs, &[1], 1), &gamma_on(bs, &[2], 2)).unwrap_err();
            assert!(
                matches!(err, omen_num::OmenError::SingularBlock { block: 2, .. }),
                "{err:?}"
            );
        }
    }
}

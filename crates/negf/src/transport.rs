//! What one (E, k) point hands the upper layers, and the dense reference.
//!
//! A point is contacts, then an engine. The contacts come from
//! [`crate::contacts`] (`local_contacts`, or `distributed_contacts` on a
//! communicator); the engines — [`crate::rgf::rgf_point`],
//! [`crate::selinv::selinv_point`] and `omen_wf::wf_point` — take the
//! `(Σ_L, Σ_R)` pair and return an [`EnergyPointData`].
//! `omen_core::ballistic::solve_point` is the composition.

use crate::contacts::local_contacts;
use crate::rgf::RgfResult;
use crate::sancho::ContactSelfEnergy;
use omen_linalg::{dot, lu, matmul, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::BlockTridiag;

/// Everything the upper layers need from one (E, k) transport point.
pub struct EnergyPointData {
    /// Energy (eV).
    pub energy: f64,
    /// Transmission from left to right contact.
    pub transmission: f64,
    /// Per-slab LDOS `−Im Tr G_ii / π`.
    pub ldos: Vec<f64>,
    /// Per-orbital diagonal of the left-injected spectral function.
    pub spectral_left_diag: Vec<f64>,
    /// Per-orbital diagonal of the right-injected spectral function.
    pub spectral_right_diag: Vec<f64>,
    /// Recovery attempts spent solving this point (lead energy nudges +
    /// pivot regularizations); 0 = clean solve.
    pub retries: usize,
}

/// Default numerical broadening (eV) used by the transport engines.
pub const DEFAULT_ETA: f64 = 2e-6;

/// Packages an [`RgfResult`] into the flat per-orbital data the density
/// integrator consumes; `retries` adds the contacts' lead nudges to the
/// solve's pivot regularizations. Only the *diagonals* of the contact
/// spectral functions are read downstream, so they are taken as row dots
/// of `C·Γ[S,S]` with `C` on the support-restricted column blocks —
/// `O(n·s²)` per slab, never the `n × n` product `G Γ G†`.
pub fn package(
    e: f64,
    h: &BlockTridiag,
    r: &RgfResult,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
) -> EnergyPointData {
    let nb = h.num_blocks();
    let gl = sigma_l.gamma.principal(&r.support_left);
    let gr = sigma_r.gamma.principal(&r.support_right);
    let mut ldos = Vec::with_capacity(nb);
    let mut al = Vec::with_capacity(h.dim());
    let mut ar = Vec::with_capacity(h.dim());
    for i in 0..nb {
        ldos.push(r.ldos(i));
        push_spectral_diag(&mut al, &r.g_col_left[i], &gl);
        push_spectral_diag(&mut ar, &r.g_col_right[i], &gr);
    }
    EnergyPointData {
        energy: e,
        transmission: r.transmission,
        ldos,
        spectral_left_diag: al,
        spectral_right_diag: ar,
        retries: r.retries + sigma_l.retries + sigma_r.retries,
    }
}

/// Appends `diag(C·γ·C†)`: entry `k` is row `k` of `C·γ` against the
/// conjugate of row `k` of `C`.
fn push_spectral_diag(out: &mut Vec<f64>, c: &ZMat, gamma_s: &ZMat) {
    let t = matmul(c, gamma_s);
    out.extend((0..c.nrows()).map(|k| dot(c.row(k), t.row(k)).re));
}

/// Dense reference: inverts the full `A` matrix and evaluates the Caroli
/// formula directly. O(dim³) — tests and small devices only.
///
/// # Errors
///
/// A non-converged lead ([`omen_num::OmenError::LeadNotConverged`]) or a
/// singular `A` matrix ([`omen_num::OmenError::SingularBlock`]), stamped
/// with the energy.
pub fn transmission_dense_reference(
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<f64> {
    let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r)?;
    let n = h.dim();
    let nb = h.num_blocks();
    let mut a = ZMat::from_diag(&vec![c64::new(e, DEFAULT_ETA); n]);
    let hd = h.to_dense();
    a -= &hd;
    let n0 = h.block_size(0);
    let nn = h.block_size(nb - 1);
    let off_r = h.offset(nb - 1);
    // Subtract self-energies on the corner blocks.
    for i in 0..n0 {
        for j in 0..n0 {
            a[(i, j)] -= sl.sigma[(i, j)];
        }
    }
    for i in 0..nn {
        for j in 0..nn {
            a[(off_r + i, off_r + j)] -= sr.sigma[(i, j)];
        }
    }
    let g = lu::Lu::factor(&a)
        .map_err(|s| s.at_block(0).with_energy(e))?
        .inverse();
    let g0n = g.block(0, off_r, n0, nn);
    let t1 = omen_linalg::matmul(&sl.gamma, &g0n);
    let t2 = omen_linalg::matmul(&t1, &sr.gamma);
    let t3 = omen_linalg::matmul_n_h(&t2, &g0n);
    Ok(t3.trace().re)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgf::{build_a_matrix, rgf_point, rgf_solve};
    use crate::selinv::selinv_point;
    use omen_lattice::{Crystal, Device};
    use omen_num::A_SI;
    use omen_tb::{DeviceHamiltonian, Material, TbParams};

    fn si_wire_system(material: Material, slabs: usize, w: f64) -> (BlockTridiag, ZMat, ZMat) {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, slabs, w, w);
        let p = TbParams::of(material);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let pot = vec![0.0; dev.num_atoms()];
        let bt = ham.assemble(&pot, 0.0);
        let (h00, h01) = ham.lead_blocks(0.0, 0.0);
        (bt, h00, h01)
    }

    /// The RGF point as `omen_core::ballistic::solve_point` composes it.
    fn rgf_at(
        e: f64,
        h: &BlockTridiag,
        lead_l: (&ZMat, &ZMat),
        lead_r: (&ZMat, &ZMat),
    ) -> EnergyPointData {
        let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
        rgf_point(e, DEFAULT_ETA, h, &sl, &sr).unwrap()
    }

    #[test]
    fn rgf_matches_dense_reference_single_band_wire() {
        let (bt, h00, h01) = si_wire_system(Material::SingleBand { t_mev: 800 }, 4, 0.8);
        for &e in &[-2.03_f64, -0.51, 0.33, 1.48] {
            let t_rgf = rgf_at(e, &bt, (&h00, &h01), (&h00, &h01)).transmission;
            let t_ref = transmission_dense_reference(e, &bt, (&h00, &h01), (&h00, &h01)).unwrap();
            assert!(
                (t_rgf - t_ref).abs() < 1e-6 * (1.0 + t_ref.abs()),
                "E={e}: RGF {t_rgf} vs dense {t_ref}"
            );
        }
    }

    #[test]
    fn clean_wire_transmission_is_integer_mode_count() {
        // In a pristine wire T(E) equals the number of subbands at E.
        let (bt, h00, h01) = si_wire_system(Material::SingleBand { t_mev: 1000 }, 3, 0.8);
        let thetas = omen_num::linspace(-std::f64::consts::PI, std::f64::consts::PI, 101);
        let bands = omen_tb::bands::wire_bands(&h00, &h01, &thetas);
        for &e in &[-3.03_f64, -1.52, 0.07, 1.04] {
            let modes = bands[0].len();
            let count: usize = (0..modes)
                .filter(|&b| {
                    let lo = bands.iter().map(|k| k[b]).fold(f64::INFINITY, f64::min);
                    let hi = bands.iter().map(|k| k[b]).fold(f64::NEG_INFINITY, f64::max);
                    lo < e && e < hi
                })
                .count();
            let t = rgf_at(e, &bt, (&h00, &h01), (&h00, &h01)).transmission;
            assert!(
                (t - count as f64).abs() < 1e-3,
                "E={e}: T={t} vs band count {count}"
            );
        }
    }

    #[test]
    fn sp3s_wire_rgf_vs_dense() {
        // Full 5-orbital Si wire: engines must agree to numerical precision.
        let (bt, h00, h01) = si_wire_system(Material::SiSp3s, 3, 0.8);
        for &e in &[1.6_f64, 2.2] {
            let t_rgf = rgf_at(e, &bt, (&h00, &h01), (&h00, &h01)).transmission;
            let t_ref = transmission_dense_reference(e, &bt, (&h00, &h01), (&h00, &h01)).unwrap();
            assert!(
                (t_rgf - t_ref).abs() < 1e-6 * (1.0 + t_ref.abs()),
                "E={e}: RGF {t_rgf} vs dense {t_ref}"
            );
        }
    }

    #[test]
    fn transmission_zero_in_gap() {
        let (bt, h00, h01) = si_wire_system(Material::SiSp3s, 3, 0.8);
        // Mid-gap of the confined wire (bulk gap ~1.1, confined larger).
        let t = rgf_at(0.6, &bt, (&h00, &h01), (&h00, &h01)).transmission;
        assert!(t.abs() < 1e-6, "mid-gap transmission {t}");
    }

    #[test]
    fn decoupled_lead_has_empty_support_and_injects_nothing() {
        // A lead with H01 = 0 has Σ = 0 and Γ = 0 exactly: the support is
        // empty, the column blocks are n × 0, and every observable that
        // lead feeds is an exact zero rather than a panic.
        let (bt, h00, h01) = si_wire_system(Material::SingleBand { t_mev: 800 }, 3, 0.8);
        let dead = ZMat::zeros(h01.nrows(), h01.ncols());
        let n = bt.block_size(0);
        let e = -0.51;

        let (sl, sr) = local_contacts(e, DEFAULT_ETA, (&h00, &dead), (&h00, &h01)).unwrap();
        let a = build_a_matrix(e, DEFAULT_ETA, &bt, &sl, &sr);
        let r = rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        assert!(r.support_left.is_empty() && !r.support_right.is_empty());
        for c in &r.g_col_left {
            assert_eq!((c.nrows(), c.ncols()), (n, 0));
        }
        assert_eq!(r.spectral_left(&sl.gamma, 1), ZMat::zeros(n, n));

        let one_dead = rgf_point(e, DEFAULT_ETA, &bt, &sl, &sr).unwrap();
        assert_eq!(one_dead.transmission, 0.0);
        assert_eq!(one_dead.spectral_left_diag, vec![0.0; bt.dim()]);
        assert!(one_dead.spectral_right_diag.iter().any(|&v| v > 0.0));

        // The tree engine carries the same n × 0 columns into `package`.
        let si = selinv_point(e, DEFAULT_ETA, &bt, &sl, &sr).unwrap();
        assert_eq!(si.transmission, 0.0);
        assert_eq!(si.spectral_left_diag, vec![0.0; bt.dim()]);

        let both_dead = rgf_at(e, &bt, (&h00, &dead), (&h00, &dead));
        assert_eq!(both_dead.transmission, 0.0);
        assert_eq!(both_dead.spectral_left_diag, vec![0.0; bt.dim()]);
        assert_eq!(both_dead.spectral_right_diag, vec![0.0; bt.dim()]);
        assert!(both_dead.ldos.iter().all(|v| v.is_finite()));
    }
}

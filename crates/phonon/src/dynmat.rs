//! Mass-weighted dynamical matrices in slab-ordered block form.
//!
//! `D = Φ/m` (converted so eigenvalues are `ω²` in (rad/ps)²) takes exactly
//! the block-tridiagonal structure of the electronic Hamiltonian: Keating
//! interactions reach at most one slab over (bond pairs share an atom whose
//! neighbors span ≤ half a slab in x).
//!
//! End handling differs from the electronic case: the force-constant
//! diagonal depends on the *number of attached bonds* (acoustic sum rule),
//! so a device's terminal slabs — which miss their outward bonds — are not
//! congruent with the interior. [`PhononSystem::build`] therefore carves
//! the transport region out of the device's **interior** slabs and takes
//! the lead principal layers from fully-coordinated interior blocks.

use crate::vff::{KeatingModel, VffSystem};
use omen_lattice::Device;
use omen_linalg::{eigh_values, ZMat};
use omen_num::c64;
use omen_sparse::{BlockTridiag, DiagBlock, SlabAssembly};
use std::collections::BTreeMap;

/// Conversion: (eV/nm²)/amu → (rad/ps)².
pub const EV_NM2_AMU_TO_RADPS2: f64 = 96.485_332;

/// A phonon transport problem: the interior device dynamical matrix and
/// the lead principal-layer blocks.
pub struct PhononSystem {
    /// Block-tridiagonal dynamical matrix over the interior slabs
    /// ((rad/ps)² units).
    pub d: BlockTridiag,
    /// Lead principal-layer diagonal block.
    pub d00: ZMat,
    /// Lead inter-layer coupling (toward +x).
    pub d01: ZMat,
    /// Largest phonon frequency of the lead (rad/ps), for grid selection.
    pub omega_max: f64,
}

impl PhononSystem {
    /// Builds the phonon system from a uniform wire of ≥ 4 slabs: the
    /// force constants are computed on the full geometry, the transport
    /// region uses slabs `1..n−1` (terminal slabs only supply the bonds
    /// that anchor the interior to the leads), and the lead blocks come
    /// from interior slabs 1 and 2.
    pub fn build(device: &Device, model: KeatingModel) -> PhononSystem {
        assert!(device.num_slabs >= 4, "phonon leads need ≥ 4 slabs");
        let sys = VffSystem::new(device, model);
        let phi_raw = sys.force_constants();

        // Exact symmetrization: the finite-difference Hessian carries ~1e-5
        // relative asymmetry; store S_ij = (Φ_ij + Φ_jiᵀ)/2 so the matrix is
        // Hermitian *by construction*, then rebuild the diagonal blocks from
        // the acoustic sum rule and symmetrize them as well (the residual
        // sum-rule defect is the FD noise, ≪ any phonon scale).
        let n = device.num_atoms();
        let mut phi: BTreeMap<(usize, usize), [[f64; 3]; 3]> = BTreeMap::new();
        for (&(i, j), blk) in &phi_raw {
            if i == j {
                continue;
            }
            let tr = phi_raw.get(&(j, i));
            let mut s = [[0.0; 3]; 3];
            for a in 0..3 {
                for b in 0..3 {
                    let other = tr.map(|t| t[b][a]).unwrap_or(blk[a][b]);
                    s[a][b] = 0.5 * (blk[a][b] + other);
                }
            }
            phi.insert((i, j), s);
        }
        for i in 0..n {
            // Row i holds its off-diagonal blocks only, in column order.
            let mut diag = [[0.0; 3]; 3];
            for (_, blk) in phi.range((i, 0)..(i + 1, 0)) {
                for a in 0..3 {
                    for b in 0..3 {
                        diag[a][b] -= blk[a][b];
                    }
                }
            }
            // Symmetrize the diagonal block.
            let mut sym = [[0.0; 3]; 3];
            for a in 0..3 {
                for b in 0..3 {
                    sym[a][b] = 0.5 * (diag[a][b] + diag[b][a]);
                }
            }
            phi.insert((i, i), sym);
        }

        // Assemble the full 3N × 3N matrix in slab-block form.
        let offsets: Vec<usize> = device.slab_offsets().iter().map(|&o| 3 * o).collect();
        let mut asm = SlabAssembly::new(&offsets);
        let w = EV_NM2_AMU_TO_RADPS2 / model.mass_amu;
        for (&(i, j), blk) in &phi {
            for (a, row) in blk.iter().enumerate() {
                for (b, &fc) in row.iter().enumerate() {
                    asm.push(3 * i + a, 3 * j + b, c64::real(fc * w));
                }
            }
        }
        let full = asm
            .finish()
            .expect("nearest-neighbor force constants stay inside the slab partition");

        let nb = full.num_blocks();
        // Interior transport region: slabs 1..nb-1.
        let d = BlockTridiag::new(
            full.diag[1..nb - 1].to_vec(),
            full.lower[1..nb - 2].to_vec(),
            full.upper[1..nb - 2].to_vec(),
        );
        let d00 = full.diag[1].to_dense();
        let d01 = full.upper_dense(1);

        // Congruence sanity: interior diagonal blocks must match.
        debug_assert!(
            (&d00 - &full.diag[2].to_dense()).max_abs() < 1e-6 * d00.max_abs().max(1.0),
            "interior slabs must be congruent"
        );

        let omega_max = {
            let probe = bloch_dyn(&d00, &d01, 0.0);
            let top = eigh_values(&probe).last().copied().unwrap_or(0.0);
            let probe_pi = bloch_dyn(&d00, &d01, std::f64::consts::PI);
            let top_pi = eigh_values(&probe_pi).last().copied().unwrap_or(0.0);
            top.max(top_pi).max(0.0).sqrt() * 1.05
        };
        PhononSystem {
            d,
            d00,
            d01,
            omega_max,
        }
    }
}

fn bloch_dyn(d00: &ZMat, d01: &ZMat, q: f64) -> ZMat {
    let n = d00.nrows();
    let ph = c64::from_polar(1.0, q);
    let mut m = d00.clone();
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] += d01[(i, j)] * ph + d01[(j, i)].conj() * ph.conj();
        }
    }
    m
}

/// Phonon dispersion of the lead: for each `q·Δ` in `qs`, the sorted mode
/// frequencies `ω` (rad/ps); tiny negative `ω²` from rounding are clipped
/// to zero.
pub fn phonon_dispersion(d00: &ZMat, d01: &ZMat, qs: &[f64]) -> Vec<Vec<f64>> {
    qs.iter()
        .map(|&q| {
            eigh_values(&bloch_dyn(d00, d01, q))
                .into_iter()
                .map(|w2| w2.max(0.0).sqrt())
                .collect()
        })
        .collect()
}

/// Convenience re-export of the lead blocks for external analyses.
pub fn lead_dynamical_blocks(sys: &PhononSystem) -> (&ZMat, &ZMat) {
    (&sys.d00, &sys.d01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_lattice::Crystal;
    use omen_num::A_SI;

    fn system() -> PhononSystem {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 5, 0.8, 0.8);
        PhononSystem::build(&dev, KeatingModel::silicon())
    }

    #[test]
    fn dynamical_matrix_is_hermitian_and_blocks_consistent() {
        let sys = system();
        assert!(sys.d.is_hermitian(1e-6), "D must be Hermitian");
        assert!(sys.d00.is_hermitian(1e-6));
        assert_eq!(sys.d.num_blocks(), 3, "5 slabs → 3 interior blocks");
    }

    #[test]
    fn build_is_reproducible_bit_for_bit() {
        let bits = |m: &ZMat| -> Vec<(u64, u64)> {
            m.data()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let all = |s: &PhononSystem| {
            let d = &s.d;
            let couplings = d.lower.iter().chain(&d.upper);
            let supports: Vec<_> = couplings
                .clone()
                .map(|c| (c.rows.clone(), c.cols.clone()))
                .collect();
            let blocks: Vec<_> = (d.diag.iter().map(DiagBlock::to_dense))
                .chain(couplings.map(|c| c.core.clone()))
                .chain([s.d00.clone(), s.d01.clone()])
                .map(|m| bits(&m))
                .collect();
            (blocks, supports)
        };
        assert_eq!(all(&system()), all(&system()));
    }

    #[test]
    fn acoustic_modes_vanish_at_gamma() {
        let sys = system();
        let bands = phonon_dispersion(&sys.d00, &sys.d01, &[0.0]);
        let w = &bands[0];
        // A free-standing wire has 4 zero modes at q = 0: three rigid
        // translations and the axial torsion.
        for (k, &wk) in w.iter().enumerate().take(3) {
            assert!(wk < 0.5, "acoustic mode {k} must vanish at Γ: ω = {wk}");
        }
        assert!(
            w[4] > 1.0,
            "optical-like modes must be gapped at Γ: {}",
            w[4]
        );
        // All frequencies real (ω² ≥ −tiny).
        assert!(w.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn acoustic_branches_near_gamma() {
        // A wire has two *flexural* branches (ω ∝ q², may round to 0 at
        // tiny q) plus torsional and longitudinal branches (ω ∝ q). Probe
        // the linear ones by index 2/3 of the sorted spectrum.
        let sys = system();
        let qs = [0.05, 0.10];
        let bands = phonon_dispersion(&sys.d00, &sys.d01, &qs);
        let r = bands[1][3] / bands[0][3];
        assert!((r - 2.0).abs() < 0.4, "linear acoustic branch: ratio {r}");
        // Sound velocity of the stiffest acoustic branch: v = ω·Δ/(qΔ)
        // (nm/ps = km/s). Si LA is ~8.4 km/s in bulk; thin wires land in
        // the same decade.
        let delta = A_SI;
        let v = bands[0][3] * delta / qs[0];
        assert!(
            (2.0..14.0).contains(&v),
            "sound velocity {v} km/s out of range"
        );
        // Flexural branches: sublinear (quadratic) scaling.
        if bands[0][0] > 1e-6 {
            let rf = bands[1][0] / bands[0][0];
            assert!(rf > 2.5, "flexural branch must be superlinear in q: {rf}");
        }
    }

    #[test]
    fn omega_max_in_silicon_range() {
        let sys = system();
        // Bulk Si tops out near 2π × 15.6 THz ≈ 98 rad/ps; a thin Keating
        // wire lands in the same decade.
        assert!(
            sys.omega_max > 40.0 && sys.omega_max < 150.0,
            "ω_max = {} rad/ps",
            sys.omega_max
        );
    }
}

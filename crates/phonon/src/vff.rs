//! Keating valence force field: energy, analytic forces, force constants.
//!
//! The two-parameter Keating model for tetrahedral semiconductors:
//!
//! ```text
//! E = Σ_bonds (3α/8d²) (r_ij·r_ij − d²)²
//!   + Σ_angles (3β/8d²) (r_ij·r_ik + d²/3)²
//! ```
//!
//! where the angle sum runs over pairs of bonds sharing atom `i` and
//! `cos θ₀ = −1/3` is the ideal tetrahedral angle. The energy depends only
//! on interatomic differences, so momentum conservation (the acoustic sum
//! rule) is built in; surfaces are free (suspended-wire boundary
//! conditions, matching the suspended-nanowire experiments this extension
//! mirrors).
//!
//! Force constants `Φ_{iα,jβ} = ∂²E/∂u_iα∂u_jβ` come from central finite
//! differences of the *analytic* forces — O(3N) force evaluations, exact
//! locality, and the sum rule enforced exactly on the diagonal blocks
//! afterwards.

use omen_lattice::{Device, Vec3};
use std::collections::BTreeMap;

/// Keating parameters for one material.
#[derive(Debug, Clone, Copy)]
pub struct KeatingModel {
    /// Bond-stretching constant α (eV/nm²).
    pub alpha: f64,
    /// Bond-bending constant β (eV/nm²).
    pub beta: f64,
    /// Equilibrium bond length d (nm).
    pub d0: f64,
    /// Atomic mass (amu) — one species (elemental or averaged).
    pub mass_amu: f64,
}

impl KeatingModel {
    /// Silicon: α = 48.5 N/m, β = 13.8 N/m (classic Keating fit),
    /// d = 0.2352 nm, m = 28.0855 amu. 1 N/m = 6.2415 eV/nm².
    pub fn silicon() -> KeatingModel {
        const N_PER_M_TO_EV_PER_NM2: f64 = 6.241_509;
        KeatingModel {
            alpha: 48.5 * N_PER_M_TO_EV_PER_NM2,
            beta: 13.8 * N_PER_M_TO_EV_PER_NM2,
            d0: 0.235_2,
            mass_amu: 28.085_5,
        }
    }

    /// Germanium: α = 38.7 N/m, β = 11.4 N/m, d = 0.2450 nm, m = 72.63 amu.
    pub fn germanium() -> KeatingModel {
        const N_PER_M_TO_EV_PER_NM2: f64 = 6.241_509;
        KeatingModel {
            alpha: 38.7 * N_PER_M_TO_EV_PER_NM2,
            beta: 11.4 * N_PER_M_TO_EV_PER_NM2,
            d0: 0.245_0,
            mass_amu: 72.63,
        }
    }
}

/// The bonded topology of a device plus the Keating model: provides energy
/// and analytic forces as functions of per-atom displacements.
pub struct VffSystem<'d> {
    device: &'d Device,
    model: KeatingModel,
    /// Adjacency: bonds attached to each atom as (neighbor, equilibrium Δ).
    neighbors: Vec<Vec<(usize, Vec3)>>,
}

impl<'d> VffSystem<'d> {
    /// Builds the bonded topology from the device's neighbor list.
    pub fn new(device: &'d Device, model: KeatingModel) -> Self {
        let mut neighbors = vec![Vec::new(); device.num_atoms()];
        for b in &device.bonds {
            neighbors[b.i].push((b.j, b.delta));
            neighbors[b.j].push((b.i, -b.delta));
        }
        VffSystem {
            device,
            model,
            neighbors,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// The Keating parameters.
    pub fn model(&self) -> &KeatingModel {
        &self.model
    }

    /// Bond vector `r_ij` at displacement field `u` (per-atom Vec3).
    #[inline]
    fn bond_vec(&self, i: usize, j: usize, delta0: Vec3, u: &[Vec3]) -> Vec3 {
        delta0 + u[j] - u[i]
    }

    /// Total Keating energy at displacements `u` (eV).
    pub fn energy(&self, u: &[Vec3]) -> f64 {
        assert_eq!(u.len(), self.device.num_atoms());
        let d2 = self.model.d0 * self.model.d0;
        let ka = 3.0 * self.model.alpha / (8.0 * d2);
        let kb = 3.0 * self.model.beta / (8.0 * d2);
        let mut e = 0.0;
        // Bond stretch: each bond once.
        for b in &self.device.bonds {
            let r = self.bond_vec(b.i, b.j, b.delta, u);
            let s = r.dot(r) - d2;
            e += ka * s * s;
        }
        // Bond bending: pairs of bonds sharing an atom.
        for (i, nbrs) in self.neighbors.iter().enumerate() {
            for a in 0..nbrs.len() {
                for b in a + 1..nbrs.len() {
                    let r1 = self.bond_vec(i, nbrs[a].0, nbrs[a].1, u);
                    let r2 = self.bond_vec(i, nbrs[b].0, nbrs[b].1, u);
                    let s = r1.dot(r2) + d2 / 3.0;
                    e += kb * s * s;
                }
            }
        }
        e
    }

    /// Analytic forces `F = −∂E/∂u` at displacements `u` (eV/nm).
    pub fn forces(&self, u: &[Vec3]) -> Vec<Vec3> {
        assert_eq!(u.len(), self.device.num_atoms());
        let d2 = self.model.d0 * self.model.d0;
        let ka = 3.0 * self.model.alpha / (8.0 * d2);
        let kb = 3.0 * self.model.beta / (8.0 * d2);
        let mut f = vec![Vec3::ZERO; u.len()];
        // Bond stretch: dE/dr = 2 ka s · 2r = 4 ka s r  (acting on r_ij =
        // r_j − r_i + Δ: +grad on j, −grad on i).
        for b in &self.device.bonds {
            let r = self.bond_vec(b.i, b.j, b.delta, u);
            let s = r.dot(r) - d2;
            let g = r * (4.0 * ka * s);
            f[b.j] = f[b.j] - g;
            f[b.i] += g;
        }
        // Bond bending: term kb (r1·r2 + d²/3)², with r1 = r_j − r_i, r2 =
        // r_k − r_i. ∂/∂r1 = 2 kb s r2 (chain: +j, −i), ∂/∂r2 = 2 kb s r1.
        for (i, nbrs) in self.neighbors.iter().enumerate() {
            for a in 0..nbrs.len() {
                for b in a + 1..nbrs.len() {
                    let (ja, d_a) = nbrs[a];
                    let (jb, d_b) = nbrs[b];
                    let r1 = self.bond_vec(i, ja, d_a, u);
                    let r2 = self.bond_vec(i, jb, d_b, u);
                    let s = r1.dot(r2) + d2 / 3.0;
                    let g1 = r2 * (2.0 * kb * s);
                    let g2 = r1 * (2.0 * kb * s);
                    f[ja] = f[ja] - g1;
                    f[jb] = f[jb] - g2;
                    f[i] = f[i] + g1 + g2;
                }
            }
        }
        f
    }

    /// Force-constant blocks `Φ_ij` (3×3, eV/nm²) for all interacting atom
    /// pairs, from central differences of the analytic forces. The acoustic
    /// sum rule `Σ_j Φ_ij = 0` is enforced exactly by rebuilding the
    /// diagonal blocks from the off-diagonal sums, each row summed in
    /// column order.
    pub fn force_constants(&self) -> BTreeMap<(usize, usize), [[f64; 3]; 3]> {
        let n = self.device.num_atoms();
        let h = 1e-5; // nm
        let mut u = vec![Vec3::ZERO; n];
        let mut phi: BTreeMap<(usize, usize), [[f64; 3]; 3]> = BTreeMap::new();

        for i in 0..n {
            for (alpha, setter) in [(0usize, 0), (1, 1), (2, 2)] {
                let _ = setter;
                let mut disp = Vec3::ZERO;
                match alpha {
                    0 => disp.x = h,
                    1 => disp.y = h,
                    _ => disp.z = h,
                }
                u[i] = disp;
                let f_plus = self.forces(&u);
                u[i] = -disp;
                let f_minus = self.forces(&u);
                u[i] = Vec3::ZERO;
                for j in 0..n {
                    let df = (f_plus[j] - f_minus[j]) * (1.0 / (2.0 * h));
                    // Φ_{jβ,iα} = −∂F_jβ/∂u_iα
                    let col = [-df.x, -df.y, -df.z];
                    if col.iter().any(|v| v.abs() > 1e-9) {
                        let blk = phi.entry((j, i)).or_insert([[0.0; 3]; 3]);
                        for (beta, &v) in col.iter().enumerate() {
                            blk[beta][alpha] = v;
                        }
                    }
                }
            }
        }
        // Acoustic sum rule: Φ_ii = −Σ_{j≠i} Φ_ij exactly.
        for i in 0..n {
            let mut diag = [[0.0; 3]; 3];
            for (_, blk) in phi.range((i, 0)..(i + 1, 0)).filter(|((_, c), _)| *c != i) {
                for a in 0..3 {
                    for b in 0..3 {
                        diag[a][b] -= blk[a][b];
                    }
                }
            }
            phi.insert((i, i), diag);
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_lattice::Crystal;
    use omen_num::A_SI;

    fn wire() -> Device {
        Device::nanowire(Crystal::Zincblende { a: A_SI }, 3, 0.9, 0.9)
    }

    #[test]
    fn equilibrium_energy_small_and_forces_balanced() {
        // The ideal lattice is the Keating minimum (bond lengths = d0 only
        // if d0 matches the geometry; A_SI·√3/4 = 0.23516 vs model 0.2352 —
        // a 2e-4 residual strain, fine). Forces must still sum to zero
        // (momentum conservation) and be tiny per atom.
        let dev = wire();
        let sys = VffSystem::new(&dev, KeatingModel::silicon());
        let u = vec![Vec3::ZERO; dev.num_atoms()];
        let f = sys.forces(&u);
        let total = f.iter().fold(Vec3::ZERO, |a, &b| a + b);
        assert!(total.norm() < 1e-9, "net force must vanish: {total:?}");
        let e0 = sys.energy(&u);
        assert!((0.0..0.1).contains(&e0), "near-equilibrium energy: {e0}");
    }

    #[test]
    fn forces_match_numerical_gradient() {
        let dev = wire();
        let sys = VffSystem::new(&dev, KeatingModel::silicon());
        // A random-ish displacement field.
        let mut u: Vec<Vec3> = (0..dev.num_atoms())
            .map(|i| {
                let s = (i as f64 * 0.7).sin();
                Vec3::new(0.003 * s, -0.002 * s * s, 0.001 * (i as f64 * 1.3).cos())
            })
            .collect();
        let f = sys.forces(&u);
        let h = 1e-6;
        for &i in &[0usize, 5, dev.num_atoms() / 2] {
            for axis in 0..3 {
                let mut d = Vec3::ZERO;
                match axis {
                    0 => d.x = h,
                    1 => d.y = h,
                    _ => d.z = h,
                }
                let orig = u[i];
                u[i] = orig + d;
                let ep = sys.energy(&u);
                u[i] = orig - d;
                let em = sys.energy(&u);
                u[i] = orig;
                let fd = -(ep - em) / (2.0 * h);
                let an = match axis {
                    0 => f[i].x,
                    1 => f[i].y,
                    _ => f[i].z,
                };
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "atom {i} axis {axis}: numeric {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn translation_invariance_of_energy() {
        let dev = wire();
        let sys = VffSystem::new(&dev, KeatingModel::silicon());
        let u0 = vec![Vec3::ZERO; dev.num_atoms()];
        let shift = Vec3::new(0.013, -0.007, 0.002);
        let u1: Vec<Vec3> = u0.iter().map(|_| shift).collect();
        assert!(
            (sys.energy(&u0) - sys.energy(&u1)).abs() < 1e-12,
            "rigid translation must not change the energy"
        );
    }

    #[test]
    fn force_constants_symmetric_and_sum_rule() {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 2, 0.8, 0.8);
        let sys = VffSystem::new(&dev, KeatingModel::silicon());
        let phi = sys.force_constants();
        // Sum rule holds exactly by construction.
        for i in 0..dev.num_atoms() {
            let mut sum = [[0.0; 3]; 3];
            for ((r, _c), blk) in phi.iter().filter(|((r, _), _)| *r == i) {
                let _ = r;
                for a in 0..3 {
                    for b in 0..3 {
                        sum[a][b] += blk[a][b];
                    }
                }
            }
            for row in sum {
                for v in row {
                    assert!(v.abs() < 1e-10, "acoustic sum rule violated: {v}");
                }
            }
        }
        // Hessian symmetry: Φ_ij = Φ_jiᵀ (within FD error).
        for (&(i, j), blk) in &phi {
            if let Some(t) = phi.get(&(j, i)) {
                for a in 0..3 {
                    for b in 0..3 {
                        assert!(
                            (blk[a][b] - t[b][a]).abs() < 1e-3,
                            "Φ symmetry ({i},{j})[{a}{b}]: {} vs {}",
                            blk[a][b],
                            t[b][a]
                        );
                    }
                }
            }
        }
        // Range: interactions extend at most two bonds (Keating locality).
        let offsets = dev.slab_offsets();
        let slab_of = |atom: usize| dev.atoms[atom].slab;
        for &(i, j) in phi.keys() {
            assert!(
                slab_of(i).abs_diff(slab_of(j)) <= 1,
                "force constants must stay within adjacent slabs ({i},{j})"
            );
        }
        let _ = offsets;
    }
}

//! Crystal structures: diamond/zincblende and honeycomb generators.

use crate::vec3::Vec3;

/// Which of the two sublattices an atom sits on.
///
/// For zincblende materials `A` is the cation site (Ga, In) and `B` the
/// anion site (As); for diamond materials both carry the same species; for
/// graphene these are the two honeycomb sublattices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sublattice {
    /// Cation / first honeycomb sublattice.
    A,
    /// Anion / second honeycomb sublattice.
    B,
}

/// A crystal generator: produces atom positions inside an axis-aligned box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crystal {
    /// Diamond or zincblende with conventional-cell lattice constant `a`
    /// (nm); transport axis x is \[100\].
    Zincblende {
        /// Conventional cubic lattice constant in nm.
        a: f64,
    },
    /// Honeycomb (graphene) sheet in the x–y plane with carbon–carbon bond
    /// length `acc` (nm); transport axis x is the armchair direction.
    Honeycomb {
        /// Carbon–carbon bond length in nm.
        acc: f64,
    },
}

impl Crystal {
    /// Nearest-neighbor bond length.
    pub fn bond_length(&self) -> f64 {
        match *self {
            Crystal::Zincblende { a } => a * 3.0_f64.sqrt() / 4.0,
            Crystal::Honeycomb { acc } => acc,
        }
    }

    /// Neighbor-search cutoff that captures first neighbors only: halfway
    /// between the first- and second-neighbor distances.
    pub fn nn_cutoff(&self) -> f64 {
        match *self {
            // 2nd neighbor at a/√2 ≈ 0.707a vs 1st at 0.433a.
            Crystal::Zincblende { a } => a * 0.55,
            // 2nd neighbor at √3·acc ≈ 1.732·acc.
            Crystal::Honeycomb { acc } => acc * 1.3,
        }
    }

    /// Ideal coordination number (bonds per bulk atom).
    pub fn coordination(&self) -> usize {
        match self {
            Crystal::Zincblende { .. } => 4,
            Crystal::Honeycomb { .. } => 3,
        }
    }

    /// Periodicity of the structure along the transport axis x — the
    /// principal-layer (slab) thickness used for lead construction.
    pub fn transport_period(&self) -> f64 {
        match *self {
            Crystal::Zincblende { a } => a,
            // Armchair direction repeats after a1 + a2 = (3 acc, 0, 0).
            Crystal::Honeycomb { acc } => 3.0 * acc,
        }
    }

    /// Generates all atoms `(position, sublattice)` with positions inside
    /// `[0, lx) × [y0, y1) × [z0, z1)`, on an exact crystal lattice anchored
    /// at the origin. A small epsilon pulls boundary atoms inward
    /// deterministically.
    pub fn generate(
        &self,
        lx: f64,
        (y0, y1): (f64, f64),
        (z0, z1): (f64, f64),
    ) -> Vec<(Vec3, Sublattice)> {
        const EPS: f64 = 1e-9;
        let mut atoms = Vec::new();
        match *self {
            Crystal::Zincblende { a } => {
                // Conventional cell: 4 fcc sites (cation) + 4 offset by (¼,¼,¼) (anion).
                let fcc = [
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(0.0, 0.5, 0.5),
                    Vec3::new(0.5, 0.0, 0.5),
                    Vec3::new(0.5, 0.5, 0.0),
                ];
                let off = Vec3::new(0.25, 0.25, 0.25);
                let (i0, i1) = cell_range(0.0, lx, a);
                let (j0, j1) = cell_range(y0, y1, a);
                let (k0, k1) = cell_range(z0, z1, a);
                for i in i0..=i1 {
                    for j in j0..=j1 {
                        for k in k0..=k1 {
                            let corner = Vec3::new(i as f64, j as f64, k as f64) * a;
                            for &f in &fcc {
                                for (basis, sub) in
                                    [(Vec3::ZERO, Sublattice::A), (off, Sublattice::B)]
                                {
                                    let p = corner + (f + basis) * a;
                                    if p.x >= -EPS
                                        && p.x < lx - EPS
                                        && p.y >= y0 - EPS
                                        && p.y < y1 - EPS
                                        && p.z >= z0 - EPS
                                        && p.z < z1 - EPS
                                    {
                                        atoms.push((p, sub));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Crystal::Honeycomb { acc } => {
                // Lattice vectors chosen so x is the armchair direction:
                // a1 = (3acc/2, +√3acc/2), a2 = (3acc/2, -√3acc/2);
                // basis: A at (0,0), B at (acc, 0).
                let a1 = Vec3::new(1.5 * acc, 3.0_f64.sqrt() * 0.5 * acc, 0.0);
                let a2 = Vec3::new(1.5 * acc, -(3.0_f64.sqrt()) * 0.5 * acc, 0.0);
                let b = Vec3::new(acc, 0.0, 0.0);
                // Generous index bounds covering the box.
                let max_ext = lx.abs() + y1.abs() + y0.abs() + 10.0 * acc;
                let nmax = (max_ext / acc) as i64 + 4;
                for i in -nmax..=nmax {
                    for j in -nmax..=nmax {
                        let cell = a1 * i as f64 + a2 * j as f64;
                        for (basis, sub) in [(Vec3::ZERO, Sublattice::A), (b, Sublattice::B)] {
                            let p = cell + basis;
                            if p.x >= -EPS && p.x < lx - EPS && p.y >= y0 - EPS && p.y < y1 - EPS {
                                atoms.push((Vec3::new(p.x, p.y, 0.0), sub));
                            }
                        }
                    }
                }
            }
        }
        // Deterministic order: sort by (x, y, z).
        atoms.sort_by(|l, r| {
            (l.0.x, l.0.y, l.0.z)
                .partial_cmp(&(r.0.x, r.0.y, r.0.z))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        atoms
    }
}

/// Cell index range `[i0, i1]` such that cells outside cannot contribute
/// atoms inside `[lo, hi)`.
fn cell_range(lo: f64, hi: f64, a: f64) -> (i64, i64) {
    (((lo / a).floor() as i64) - 1, ((hi / a).ceil() as i64) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_cell_count() {
        // One conventional cell: 8 atoms.
        let c = Crystal::Zincblende { a: 0.5431 };
        let atoms = c.generate(0.5431, (0.0, 0.5431), (0.0, 0.5431));
        assert_eq!(atoms.len(), 8);
        let na = atoms.iter().filter(|(_, s)| *s == Sublattice::A).count();
        assert_eq!(na, 4, "4 cation + 4 anion per cell");
    }

    #[test]
    fn diamond_two_cells_along_x() {
        let a = 0.5431;
        let c = Crystal::Zincblende { a };
        let atoms = c.generate(2.0 * a, (0.0, a), (0.0, a));
        assert_eq!(atoms.len(), 16);
        // Second half is the first half shifted by a.
        let first: Vec<Vec3> = atoms
            .iter()
            .filter(|(p, _)| p.x < a - 1e-6)
            .map(|(p, _)| *p)
            .collect();
        let second: Vec<Vec3> = atoms
            .iter()
            .filter(|(p, _)| p.x >= a - 1e-6)
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(first.len(), second.len());
        for (p1, p2) in first.iter().zip(&second) {
            let d = *p2 - *p1;
            assert!((d.x - a).abs() < 1e-9 && d.y.abs() < 1e-9 && d.z.abs() < 1e-9);
        }
    }

    #[test]
    fn bond_length_and_cutoff_separate_shells() {
        let a = 0.5431;
        let c = Crystal::Zincblende { a };
        let b = c.bond_length();
        assert!((b - a * 0.43301).abs() < 1e-4);
        assert!(c.nn_cutoff() > b);
        assert!(
            c.nn_cutoff() < a / 2.0_f64.sqrt(),
            "cutoff below 2nd-neighbor shell"
        );
    }

    #[test]
    fn honeycomb_counts_and_bonds() {
        let acc = 0.142;
        let c = Crystal::Honeycomb { acc };
        // One armchair period (3 acc long) of a ribbon ~1 nm wide.
        let atoms = c.generate(3.0 * acc, (-0.5, 0.5), (0.0, 0.0));
        assert!(!atoms.is_empty());
        // All z = 0.
        assert!(atoms.iter().all(|(p, _)| p.z == 0.0));
        // Equal sublattice population for a periodic ribbon segment.
        let na = atoms.iter().filter(|(_, s)| *s == Sublattice::A).count();
        assert_eq!(2 * na, atoms.len());
        // Every atom has a neighbor at distance acc.
        for (p, _) in &atoms {
            let has_nn = atoms.iter().any(|(q, _)| {
                let d = (*q - *p).norm();
                (d - acc).abs() < 1e-9
            });
            assert!(
                has_nn || p.x < acc || p.x > 2.0 * acc,
                "interior atom missing NN at {p:?}"
            );
        }
    }

    #[test]
    fn transport_periodicity_honeycomb() {
        let acc = 0.142;
        let c = Crystal::Honeycomb { acc };
        let period = c.transport_period();
        let atoms1 = c.generate(period, (-0.4, 0.4), (0.0, 0.0));
        let atoms2 = c.generate(2.0 * period, (-0.4, 0.4), (0.0, 0.0));
        assert_eq!(
            atoms2.len(),
            2 * atoms1.len(),
            "doubling length doubles atoms"
        );
    }
}

//! Assembly and solution of the nonlinear Poisson equation.

use crate::charge::Semiconductor;
use crate::grid::Grid3;
use omen_num::EPS0;
use omen_sparse::{cg_solve, CsrR};

/// What occupies one grid node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// Semiconductor with net doping `N_D − N_A` (e/nm³).
    Semiconductor {
        /// Net doping in e/nm³ (1e-3 ↔ 1e18 cm⁻³).
        doping: f64,
    },
    /// Insulator with relative permittivity `eps_r`.
    Oxide {
        /// Relative permittivity.
        eps_r: f64,
    },
    /// Electrode at fixed potential (V).
    Dirichlet {
        /// Electrode potential in volts.
        v: f64,
    },
}

/// A Poisson problem: grid + per-node material map + semiconductor constants.
pub struct PoissonProblem {
    /// The grid.
    pub grid: Grid3,
    /// One [`CellKind`] per node.
    pub cells: Vec<CellKind>,
    /// Dielectric constants of the semiconductor nodes.
    pub semi: Semiconductor,
}

/// Converged solution of a nonlinear Poisson solve.
pub struct PoissonSolution {
    /// Node potentials (V), including electrode nodes.
    pub v: Vec<f64>,
    /// Outer (Gummel) iterations used.
    pub iterations: usize,
    /// Final max-norm potential update (V).
    pub residual: f64,
    /// Whether the outer loop converged.
    pub converged: bool,
}

impl PoissonProblem {
    /// Creates a problem; `cells.len()` must equal the grid size.
    pub fn new(grid: Grid3, cells: Vec<CellKind>, semi: Semiconductor) -> Self {
        assert_eq!(cells.len(), grid.len(), "one cell kind per node");
        PoissonProblem { grid, cells, semi }
    }

    fn eps_at(&self, n: usize) -> Option<f64> {
        match self.cells[n] {
            CellKind::Semiconductor { .. } => Some(self.semi.eps_r),
            CellKind::Oxide { eps_r } => Some(eps_r),
            CellKind::Dirichlet { .. } => None, // metal: face takes the dielectric side
        }
    }

    /// Face permittivity between two nodes: harmonic mean of the dielectric
    /// sides; an electrode face takes the dielectric's ε (no gap).
    fn face_eps(&self, a: usize, b: usize) -> f64 {
        match (self.eps_at(a), self.eps_at(b)) {
            (Some(e1), Some(e2)) => 2.0 * e1 * e2 / (e1 + e2),
            (Some(e), None) | (None, Some(e)) => e,
            (None, None) => 1.0,
        }
    }

    /// Neighbors of flat node `n` (6-point stencil, Neumann at the domain
    /// boundary — absent neighbors are simply skipped).
    fn neighbors(&self, n: usize) -> Vec<usize> {
        let g = &self.grid;
        let (i, j, k) = g.coords(n);
        let mut out = Vec::with_capacity(6);
        if i > 0 {
            out.push(g.idx(i - 1, j, k));
        }
        if i + 1 < g.nx {
            out.push(g.idx(i + 1, j, k));
        }
        if j > 0 {
            out.push(g.idx(i, j - 1, k));
        }
        if j + 1 < g.ny {
            out.push(g.idx(i, j + 1, k));
        }
        if k > 0 {
            out.push(g.idx(i, j, k - 1));
        }
        if k + 1 < g.nz {
            out.push(g.idx(i, j, k + 1));
        }
        out
    }

    /// Solves the *linear* problem `−∇·(ε_r∇V) = ρ/ε₀` for a fixed charge
    /// density `rho` (e/nm³ per node). Dirichlet nodes keep their electrode
    /// potential.
    pub fn solve_linear(&self, rho: &[f64]) -> Vec<f64> {
        self.solve_nonlinear(|n, _v| (rho[n], 0.0), None, 1e-10, 1)
            .v
    }

    /// Solves the nonlinear problem with a caller-supplied mobile-charge
    /// model: `charge(n, v)` returns `(ρ, ∂ρ/∂V)` at node `n` and potential
    /// `v`. Damped Gummel–Newton with a CG inner solver.
    pub fn solve_nonlinear<F>(
        &self,
        charge: F,
        v0: Option<&[f64]>,
        tol: f64,
        max_outer: usize,
    ) -> PoissonSolution
    where
        F: Fn(usize, f64) -> (f64, f64),
    {
        let g = &self.grid;
        let n_nodes = g.len();
        let h2 = g.h * g.h;

        // Unknown numbering over non-Dirichlet nodes.
        let mut unknown_of = vec![usize::MAX; n_nodes];
        let mut nodes_of = Vec::new();
        for (n, slot) in unknown_of.iter_mut().enumerate() {
            if !matches!(self.cells[n], CellKind::Dirichlet { .. }) {
                *slot = nodes_of.len();
                nodes_of.push(n);
            }
        }
        let n_unknowns = nodes_of.len();

        // Initial potential.
        let mut v: Vec<f64> = match v0 {
            Some(v0) => {
                assert_eq!(v0.len(), n_nodes);
                v0.to_vec()
            }
            None => vec![0.0; n_nodes],
        };
        for (vn, cell) in v.iter_mut().zip(&self.cells) {
            if let CellKind::Dirichlet { v: vd } = cell {
                *vn = *vd;
            }
        }

        // The Laplacian L (constant across Gummel iterations), assembled
        // once, row by row, with the place of each diagonal entry in its
        // values: the Jacobian A = L + diag(−∂ρ/∂V / ε0) has L's sparsity
        // pattern.
        let lap_rows = nodes_of.iter().enumerate().map(|(u, &n)| {
            let mut diag = 0.0;
            let mut row = Vec::with_capacity(7);
            for nb in self.neighbors(n) {
                let ef = self.face_eps(n, nb);
                diag += ef / h2;
                if unknown_of[nb] != usize::MAX {
                    row.push((unknown_of[nb], -ef / h2));
                }
            }
            row.push((u, diag));
            row
        });
        let mut a = CsrR::from_rows(n_unknowns, lap_rows);
        let lap_values = a.values_mut().to_vec();
        let diag_at: Vec<usize> = (0..n_unknowns)
            .map(|u| a.position(u, u).expect("L stores every diagonal entry"))
            .collect();

        let mut last_update = f64::INFINITY;
        let mut cg_x0: Option<Vec<f64>> = None;
        for outer in 1..=max_outer {
            // A = L + diag(−∂ρ/∂V / ε0), each diagonal entry L's plus one
            // term, and the Newton RHS.
            a.values_mut().copy_from_slice(&lap_values);
            let mut rhs = vec![0.0; n_unknowns];
            for (u, &n) in nodes_of.iter().enumerate() {
                let (rho, drho) = charge(n, v[n]);
                assert!(drho <= 0.0, "charge model must be non-increasing in V");
                a.values_mut()[diag_at[u]] += -drho / EPS0;
                // Residual: L·v − ρ/ε0 − (Dirichlet couplings); Newton RHS is
                // its negative. Compute L·v on the fly including Dirichlet
                // neighbors.
                let mut lv = 0.0;
                for nb in self.neighbors(n) {
                    let ef = self.face_eps(n, nb);
                    lv += ef * (v[n] - v[nb]) / h2;
                }
                rhs[u] = -(lv - rho / EPS0);
            }
            let (delta, rep) = cg_solve(&a, &rhs, cg_x0.as_deref(), 1e-10, 20 * n_unknowns);
            assert!(rep.converged, "inner CG failed: {rep:?}");

            // Damped update: scale the whole Newton step uniformly when it
            // is huge (preserves the step direction, so a genuinely linear
            // problem still converges in one iteration when the step is
            // moderate). Damping only engages for multi-iteration solves.
            let raw_max = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            let scale = if max_outer > 1 && raw_max > 0.5 {
                0.5 / raw_max
            } else {
                1.0
            };
            for (u, &n) in nodes_of.iter().enumerate() {
                v[n] += scale * delta[u];
            }
            let upd = raw_max * scale;
            last_update = upd;
            cg_x0 = Some(vec![0.0; n_unknowns]);
            if upd < tol {
                return PoissonSolution {
                    v,
                    iterations: outer,
                    residual: upd,
                    converged: true,
                };
            }
        }
        PoissonSolution {
            v,
            iterations: max_outer,
            residual: last_update,
            converged: last_update < tol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_lattice::Vec3;

    /// 1-D-like bar: nx long, 2×2 in y/z, Dirichlet plates at the x ends.
    fn bar(nx: usize, v_left: f64, v_right: f64, eps: f64) -> PoissonProblem {
        let h = 0.5;
        let grid = Grid3 {
            nx,
            ny: 2,
            nz: 2,
            h,
            origin: Vec3::ZERO,
        };
        let mut cells = vec![CellKind::Oxide { eps_r: eps }; grid.len()];
        for j in 0..2 {
            for k in 0..2 {
                cells[grid.idx(0, j, k)] = CellKind::Dirichlet { v: v_left };
                cells[grid.idx(nx - 1, j, k)] = CellKind::Dirichlet { v: v_right };
            }
        }
        PoissonProblem::new(grid, cells, Semiconductor::silicon())
    }

    #[test]
    fn capacitor_is_linear() {
        let p = bar(11, 0.0, 1.0, 3.9);
        let v = p.solve_linear(&vec![0.0; p.grid.len()]);
        for i in 0..11 {
            let expect = i as f64 / 10.0;
            let got = v[p.grid.idx(i, 0, 0)];
            assert!((got - expect).abs() < 1e-7, "node {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn uniform_charge_gives_parabola() {
        // −ε∇²V = ρ/ε₀ with grounded ends: V(x) = ρ x (L−x) / (2 ε ε₀).
        let p = bar(21, 0.0, 0.0, 1.0);
        let rho0 = 1e-4;
        let v = p.solve_linear(&vec![rho0; p.grid.len()]);
        let l = 20.0 * p.grid.h;
        for i in 0..21 {
            let x = i as f64 * p.grid.h;
            let expect = rho0 * x * (l - x) / (2.0 * EPS0);
            let got = v[p.grid.idx(i, 1, 1)];
            assert!(
                (got - expect).abs() < 1e-3 * expect.max(1e-6),
                "node {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn dielectric_interface_field_ratio() {
        // Two dielectrics in series: E1/E2 = ε2/ε1; potential drop splits
        // inversely to permittivity.
        let nx = 21;
        let mut p = bar(nx, 0.0, 1.0, 1.0);
        // Left half ε=1, right half ε=4 (interface mid-bar).
        for n in 0..p.grid.len() {
            let (i, _, _) = p.grid.coords(n);
            if matches!(p.cells[n], CellKind::Oxide { .. }) && i >= nx / 2 {
                p.cells[n] = CellKind::Oxide { eps_r: 4.0 };
            }
        }
        let v = p.solve_linear(&vec![0.0; p.grid.len()]);
        // Field in left region vs right region.
        let e_left = v[p.grid.idx(3, 0, 0)] - v[p.grid.idx(2, 0, 0)];
        let e_right = v[p.grid.idx(17, 0, 0)] - v[p.grid.idx(16, 0, 0)];
        assert!(
            (e_left / e_right - 4.0).abs() < 0.05,
            "ratio {}",
            e_left / e_right
        );
    }

    #[test]
    fn gated_bar_depletes() {
        // An n-doped bar, neutral at V = 0 under the exponential mobile
        // charge the SCF predictor supplies, with a low gate on the far x
        // end: the damped outer loop must converge to a monotonic
        // potential drop toward the gate.
        let (doping, kt) = (5e-4, omen_num::KT_ROOM);
        let nx = 17;
        let grid = Grid3 {
            nx,
            ny: 2,
            nz: 2,
            h: 0.5,
            origin: Vec3::ZERO,
        };
        let mut cells = vec![CellKind::Semiconductor { doping }; grid.len()];
        for j in 0..2 {
            for k in 0..2 {
                cells[grid.idx(0, j, k)] = CellKind::Dirichlet { v: 0.0 };
                cells[grid.idx(nx - 1, j, k)] = CellKind::Dirichlet { v: -0.8 };
            }
        }
        let p = PoissonProblem::new(grid, cells, Semiconductor::silicon());
        let sol = p.solve_nonlinear(
            |_, v| {
                let n = doping * (v / kt).exp();
                (doping - n, -n / kt)
            },
            None,
            1e-7,
            80,
        );
        assert!(sol.converged);
        // Monotone decrease along the bar (no oscillation).
        for i in 1..nx {
            let a = sol.v[p.grid.idx(i - 1, 0, 0)];
            let b = sol.v[p.grid.idx(i, 0, 0)];
            assert!(b <= a + 1e-6, "potential must fall toward the gate at {i}");
        }
    }
}

//! Self-consistent Schrödinger–Poisson loop.
//!
//! The classic quantum-transport SCF with the exponential charge predictor:
//! after each transport solve the quantum electron/hole densities are
//! deposited on the Poisson grid, and the nonlinear Poisson solve uses
//! `n(V) = n_q · exp(+(V−V_old)/kT)`, `p(V) = p_q · exp(−(V−V_old)/kT)` as
//! the mobile-charge model. The predictor's correct sign of `∂ρ/∂V`
//! stabilizes the outer loop far better than plain potential mixing — the
//! same device-simulation trick the original code relies on to converge
//! I–V points in a handful of outer iterations.

use crate::ballistic::{ballistic_solve_k, BallisticResult, Engine};
use crate::spec::{Bias, NanoTransistor};

/// SCF control parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScfOptions {
    /// Transport engine.
    pub engine: Engine,
    /// Energy points per transport solve.
    pub n_energy: usize,
    /// Convergence threshold on the max atom-potential update (V).
    pub tol_v: f64,
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Under-relaxation on the predictor potential update (1 = full step).
    pub mixing: f64,
    /// Use the exponential charge predictor (the production setting). When
    /// false the quantum charge is frozen between Poisson solves — plain
    /// damped mixing, kept for the ablation study.
    pub predictor: bool,
    /// Transverse k-points per transport solve (UTB devices; 1 elsewhere).
    pub n_k: usize,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            engine: Engine::WfThomas,
            n_energy: 41,
            tol_v: 2e-3,
            max_iter: 25,
            mixing: 0.8,
            predictor: true,
            n_k: 1,
        }
    }
}

/// Output of a converged (or halted) SCF solve.
pub struct ScfResult {
    /// Node potentials (V) on the Poisson grid.
    pub v_grid: Vec<f64>,
    /// Potential at the atoms (V).
    pub v_atoms: Vec<f64>,
    /// Final transport solution.
    pub transport: BallisticResult,
    /// Outer iterations used.
    pub iterations: usize,
    /// Final max potential update (V).
    pub residual: f64,
    /// Whether `tol_v` was met.
    pub converged: bool,
}

/// Runs the Schrödinger–Poisson loop at one bias point.
///
/// `v_init` warm-starts the potential (e.g. from the previous bias in a
/// sweep); otherwise a linear Poisson solve on the doping charge alone
/// seeds the loop.
pub fn self_consistent(
    tr: &mut NanoTransistor,
    bias: &Bias,
    opts: &ScfOptions,
    v_init: Option<&[f64]>,
) -> ScfResult {
    // First log line of a run names the kernel dispatch (once per process),
    // so every convergence trace is attributable to a SIMD path.
    crate::log::emit_kernel_dispatch();
    tr.set_gate(bias.v_gate);
    let grid_len = tr.poisson.grid.len();
    let kt = tr.kt;

    // Fixed ionized doping density on the grid.
    let rho_doping = tr
        .poisson
        .grid
        .deposit(&tr.atom_positions, &tr.doping_per_atom);

    // Initial potential.
    let mut v_grid: Vec<f64> = match v_init {
        Some(v) => {
            assert_eq!(v.len(), grid_len);
            v.to_vec()
        }
        None => {
            // Linear-Poisson seed with doping only: cheap and robust for
            // the predictor to start from.
            tr.poisson.solve_linear(&rho_doping)
        }
    };

    let solve = |tr: &NanoTransistor, v_atoms: &[f64]| {
        ballistic_solve_k(tr, v_atoms, bias, opts.engine, opts.n_energy, opts.n_k)
    };

    let mut last_transport: Option<BallisticResult> = None;
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    for outer in 1..=opts.max_iter {
        iters = outer;
        let v_atoms = tr.poisson.grid.sample(&v_grid, &tr.atom_positions);
        let result = solve(tr, &v_atoms);

        // Deposit quantum carrier densities (per atom, in e) on the grid.
        let rho_n = tr
            .poisson
            .grid
            .deposit(&tr.atom_positions, &result.electron_density);
        let rho_p = tr
            .poisson
            .grid
            .deposit(&tr.atom_positions, &result.hole_density);

        // Nonlinear Poisson with the exponential predictor around v_grid.
        let v_old = v_grid.clone();
        let sol = if opts.predictor {
            tr.poisson.solve_nonlinear(
                |node, v| {
                    let x = ((v - v_old[node]) / kt).clamp(-25.0, 25.0);
                    let n = rho_n[node] * x.exp();
                    let p = rho_p[node] * (-x).exp();
                    let rho = p - n + rho_doping[node];
                    let drho = -(n + p) / kt;
                    (rho, drho.min(0.0))
                },
                Some(&v_old),
                1e-6,
                60,
            )
        } else {
            // Frozen quantum charge: a single linear Poisson solve per outer
            // iteration (the naive scheme the predictor replaces).
            tr.poisson.solve_nonlinear(
                |node, _v| (rho_p[node] - rho_n[node] + rho_doping[node], 0.0),
                Some(&v_old),
                1e-6,
                1,
            )
        };

        // Under-relaxed acceptance of the predictor potential.
        residual = 0.0;
        for (vg, &vs) in v_grid.iter_mut().zip(&sol.v) {
            let d = opts.mixing * (vs - *vg);
            *vg += d;
            residual = residual.max(d.abs());
        }
        last_transport = Some(result);
        if residual < opts.tol_v {
            break;
        }
    }

    let v_atoms = tr.poisson.grid.sample(&v_grid, &tr.atom_positions);
    // Final transport on the converged potential.
    let transport = if residual < opts.tol_v {
        last_transport.expect("at least one transport solve")
    } else {
        solve(tr, &v_atoms)
    };
    crate::log::emit(&format!(
        "scf V_G={:+.3} V_DS={:+.3}: {} in {iters} iters (residual {residual:.2e}), \
         I={:.4e} µA, energies: {}",
        bias.v_gate,
        bias.v_ds,
        if residual < opts.tol_v {
            "converged"
        } else {
            "UNCONVERGED"
        },
        transport.current_ua,
        transport.report,
    ));
    ScfResult {
        v_grid,
        v_atoms,
        transport,
        iterations: iters,
        residual,
        converged: residual < opts.tol_v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TransistorSpec;
    use omen_tb::Material;

    fn quick_opts() -> ScfOptions {
        ScfOptions {
            engine: Engine::WfThomas,
            n_energy: 21,
            tol_v: 5e-3,
            max_iter: 15,
            mixing: 0.8,
            predictor: true,
            n_k: 1,
        }
    }

    #[test]
    fn scf_converges_on_small_single_band_fet() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 2e-3;
        let mut tr = spec.build();
        let bias = Bias {
            v_gate: 0.1,
            v_ds: 0.1,
            mu_source: -3.2,
        };
        let r = self_consistent(&mut tr, &bias, &quick_opts(), None);
        assert!(
            r.converged,
            "SCF stalled: residual {} after {}",
            r.residual, r.iterations
        );
        assert!(r.iterations <= 15);
        assert!(r.transport.current_ua.is_finite());
        // Gate bias must appear in the atom potential (nonzero field).
        let vmax = r.v_atoms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let vmin = r.v_atoms.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(vmax - vmin > 1e-4, "potential profile must not be flat");
    }

    #[test]
    fn warm_start_converges_faster_or_equal() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 2e-3;
        let mut tr = spec.build();
        let bias1 = Bias {
            v_gate: 0.10,
            v_ds: 0.1,
            mu_source: -3.2,
        };
        let r1 = self_consistent(&mut tr, &bias1, &quick_opts(), None);
        assert!(r1.converged);
        let bias2 = Bias {
            v_gate: 0.12,
            v_ds: 0.1,
            mu_source: -3.2,
        };
        let warm = self_consistent(&mut tr, &bias2, &quick_opts(), Some(&r1.v_grid));
        let cold = self_consistent(&mut tr, &bias2, &quick_opts(), None);
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations + 1,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn gate_modulates_current() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 2e-3;
        let mut tr = spec.build();
        let opts = quick_opts();
        let off = Bias {
            v_gate: -0.4,
            v_ds: 0.2,
            mu_source: -3.2,
        };
        let on = Bias {
            v_gate: 0.4,
            v_ds: 0.2,
            mu_source: -3.2,
        };
        let i_off = self_consistent(&mut tr, &off, &opts, None)
            .transport
            .current_ua;
        let i_on = self_consistent(&mut tr, &on, &opts, None)
            .transport
            .current_ua;
        assert!(
            i_on > 5.0 * i_off.max(1e-12),
            "transistor action required: Ion {i_on} vs Ioff {i_off}"
        );
    }
}

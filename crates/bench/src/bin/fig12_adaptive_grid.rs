//! fig12_adaptive_grid — adaptive vs uniform energy integration (extension).
//!
//! Production transport codes refine the energy grid where the integrand
//! is rough (subband onsets, resonances) instead of paying for a uniformly
//! fine grid at every bias point. This experiment measures the cost/
//! accuracy tradeoff: current error vs solved energy points for uniform
//! grids against the adaptive refinement driver, on the same device.
//!
//! Expected shape: the adaptive curve reaches a given accuracy with a
//! fraction of the energy points — each of which is a full O(N·n³) solve,
//! so the saving multiplies into every level of the parallel hierarchy.

use omen_bench::print_table;
use omen_core::ballistic::{ballistic_solve, ballistic_solve_adaptive, Engine};
use omen_core::{Bias, ContactTable, TransistorSpec};
use omen_tb::Material;

fn main() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let v = vec![0.0; tr.device.num_atoms()];
    let bias = Bias {
        v_gate: 0.0,
        v_ds: 0.25,
        mu_source: -3.4,
    };

    // One device, one bias: every solve below reads the one table.
    let mut table = ContactTable::default();
    let mut uniform_solve = |n| {
        ballistic_solve(
            &tr,
            &v,
            &bias,
            Engine::WfThomas,
            n,
            &[(0.0, 1.0)],
            &mut table,
        )
        .current_ua
    };
    // Ground truth: dense uniform grid.
    let truth = uniform_solve(401);
    println!("reference current (401 uniform points): {truth:.6} µA");

    let mut rows = Vec::new();
    let percent_off = |i: f64| 100.0 * (i - truth).abs() / truth;
    let mut uniform = Vec::new();
    for &n in &[11usize, 21, 41, 81] {
        let err = percent_off(uniform_solve(n));
        uniform.push((n, err));
        rows.push(vec![
            format!("uniform {n}"),
            format!("{n}"),
            format!("{err:.4}%"),
        ]);
    }
    for &(n0, tol) in &[(11usize, 2e-2), (11, 5e-3), (15, 1e-3)] {
        let r = ballistic_solve_adaptive(
            &tr,
            &v,
            &bias,
            Engine::WfThomas,
            n0,
            200,
            tol,
            0.0,
            &mut table,
        );
        let (points, err) = (r.energies.len(), percent_off(r.current_ua));
        // The headline: fewer points for the same accuracy, so the adaptive
        // grid beats the largest uniform grid it does not outnumber.
        let &(n, err_uniform) = uniform
            .iter()
            .filter(|&&(n, _)| n <= points)
            .max_by_key(|&&(n, _)| n)
            .expect("every adaptive grid holds at least the smallest uniform grid's points");
        assert!(
            err < err_uniform,
            "adaptive n0={n0} tol={tol:.0e}: {err:.4}% at {points} points, uniform {n}: {err_uniform:.4}%"
        );
        rows.push(vec![
            format!("adaptive n0={n0} tol={tol:.0e}"),
            format!("{points}"),
            format!("{err:.4}%"),
        ]);
    }
    print_table(
        "fig12: current error vs solved energy points",
        &["grid", "points", "error vs reference"],
        &rows,
    );
    println!(
        "\nexpected shape: the adaptive rows sit below the uniform rows of \
         equal point count — grid points concentrate at the subband onsets \
         where the Landauer integrand is kinked."
    );
}

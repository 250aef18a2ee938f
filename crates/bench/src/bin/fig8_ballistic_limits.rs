//! fig8_ballistic_limits — physics sanity figures with analytic references.
//!
//! Two panels:
//! 1. conductance quantization — T(E) of a pristine wire is an integer
//!    staircase equal to the number of occupied subbands at E;
//! 2. single-site barrier — transmission of a δ-like defect in a 1-D chain
//!    against the exact scattering formula `T = 1/(1 + (U/2t sin k)²)`.

use omen_bench::print_table;
use omen_core::{solve_point, Engine};
use omen_lattice::{Crystal, Device};
use omen_num::{c64, linspace, A_SI};
use omen_sparse::BlockTridiag;
use omen_tb::bands::wire_bands;
use omen_tb::{DeviceHamiltonian, Material, TbParams};

fn main() {
    // --- Panel 1: quantized conductance steps ---------------------------
    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 3, 1.0, 1.0);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot = vec![0.0; dev.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    // Half Brillouin zone, fine grid: each sign change of E_b(θ) − E is one
    // right-moving mode (bands may be non-monotonic, so interval membership
    // is not enough — crossings must be counted).
    let thetas = linspace(0.0, std::f64::consts::PI, 801);
    let bands = wire_bands(&h00, &h01, &thetas);

    let mut rows = Vec::new();
    let mut worst = 0.0f64;
    for e in linspace(-3.45, -1.8, 12) {
        let modes: usize = (0..bands[0].len())
            .map(|b| {
                bands
                    .windows(2)
                    .filter(|w| (w[0][b] - e) * (w[1][b] - e) < 0.0)
                    .count()
            })
            .sum();
        let t = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .expect("transport point failed")
            .transmission;
        worst = worst.max((t - modes as f64).abs());
        rows.push(vec![
            format!("{e:+.3}"),
            format!("{t:.5}"),
            format!("{modes}"),
        ]);
    }
    print_table(
        "fig8a: conductance quantization (pristine 1 nm wire)",
        &["E (eV)", "T(E)", "modes"],
        &rows,
    );
    println!("max |T − mode count| over the staircase: {worst:.2e} ✓");
    assert!(worst < 5e-3);

    // --- Panel 2: barrier vs analytic -----------------------------------
    let nb = 9;
    let (e0, t_hop, u) = (0.0, -1.0f64, 0.7);
    let diag: Vec<omen_linalg::ZMat> = (0..nb)
        .map(|i| omen_linalg::ZMat::from_diag(&[c64::real(e0 + if i == nb / 2 { u } else { 0.0 })]))
        .collect();
    let off: Vec<omen_linalg::ZMat> = (0..nb - 1)
        .map(|_| omen_linalg::ZMat::from_diag(&[c64::real(t_hop)]))
        .collect();
    let chain = BlockTridiag::from_dense(diag, off.clone(), off);
    let h00c = omen_linalg::ZMat::from_diag(&[c64::real(e0)]);
    let h01c = omen_linalg::ZMat::from_diag(&[c64::real(t_hop)]);

    let mut rows = Vec::new();
    let mut worst = 0.0f64;
    for e in linspace(-1.8, 1.8, 13) {
        let cosk = (e - e0) / (2.0 * t_hop);
        let sink = (1.0 - cosk * cosk).max(0.0).sqrt();
        let exact = 1.0 / (1.0 + (u / (2.0 * t_hop.abs() * sink)).powi(2));
        let t = solve_point(e, &chain, (&h00c, &h01c), (&h00c, &h01c), Engine::Rgf)
            .expect("transport point failed")
            .transmission;
        worst = worst.max((t - exact).abs());
        rows.push(vec![
            format!("{e:+.2}"),
            format!("{t:.6}"),
            format!("{exact:.6}"),
        ]);
    }
    print_table(
        "fig8b: δ-barrier transmission vs exact formula",
        &["E (eV)", "T(E)", "analytic"],
        &rows,
    );
    println!("max deviation from the exact scattering result: {worst:.2e} ✓");
    assert!(worst < 1e-4);
}

//! Quickstart: bulk bands, a nanowire, and its ballistic transmission.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the three layers a new user touches first:
//! 1. validate the tight-binding material model on bulk silicon;
//! 2. carve an atomistic Si nanowire and inspect its subbands;
//! 3. compute the ballistic transmission through it with both transport
//!    engines and check they agree.

use omen::core::{solve_point, Engine};
use omen::lattice::Vec3;
use omen::num::linspace;
use omen::tb::bulk::{band_gap, bulk_bands, path_l_gamma_x};
use omen::tb::{bands, DeviceHamiltonian, Material, TbParams};

fn main() {
    // --- 1. Bulk silicon bandstructure ---------------------------------
    let p = TbParams::of(Material::SiSp3s);
    println!("material: {}", p.name);
    let path = path_l_gamma_x(p.a, 30);
    let bands_along: Vec<Vec<f64>> = path.iter().map(|&k| bulk_bands(&p, k, false)).collect();
    let (vbm, cbm, gap) = band_gap(&bands_along, 4);
    println!("bulk Si:  VBM = {vbm:+.3} eV   CBM = {cbm:+.3} eV   gap = {gap:.3} eV (indirect)");
    let gamma = bulk_bands(&p, Vec3::ZERO, false);
    println!("          Γ conduction state at {:+.3} eV", gamma[4]);

    // --- 2. A 1 nm gate-all-around silicon nanowire ---------------------
    let device = omen::lattice::Device::nanowire(
        omen::lattice::Crystal::Zincblende { a: p.a },
        4,   // slabs (principal layers)
        1.0, // nm cross-section
        1.0,
    );
    println!(
        "\nnanowire: {} atoms in {} slabs of {:.3} nm ({} atoms/slab)",
        device.num_atoms(),
        device.num_slabs,
        device.slab_width,
        device.slab_offsets()[1]
    );
    let ham = DeviceHamiltonian::new(&device, p, false);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let thetas = linspace(0.0, std::f64::consts::PI, 17);
    let wire = bands::wire_bands(&h00, &h01, &thetas);
    // Occupied subbands: one bonding state per bond in the slab.
    let offsets = device.slab_offsets();
    let dangling: usize = (0..offsets[1])
        .map(|i| {
            device
                .dangling_directions(i)
                .into_iter()
                .filter(|&d| !device.dangling_is_lead_facing(i, d))
                .count()
        })
        .sum();
    let n_occ = (4 * offsets[1] - dangling) / 2;
    let (wvbm, wcbm, wgap) = bands::wire_gap(&wire, n_occ);
    println!(
        "          confined gap = {wgap:.3} eV (bulk {gap:.3}) — VBM {wvbm:+.3}, CBM {wcbm:+.3}"
    );

    // --- 3. Ballistic transmission: RGF vs wave-function ----------------
    let pot = vec![0.0; device.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    println!("\n   E (eV)    T_RGF      T_WF");
    for e in linspace(wcbm + 0.03, wcbm + 0.63, 7) {
        let t_rgf = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .expect("RGF point failed")
            .transmission;
        let t_wf = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::WfThomas)
            .expect("WF point failed")
            .transmission;
        println!("  {e:+.3}   {t_rgf:8.5}  {t_wf:8.5}");
        assert!(
            (t_rgf - t_wf).abs() < 1e-4 * (1.0 + t_rgf),
            "engines must agree"
        );
    }
    println!("\nRGF and wave-function engines agree to numerical precision ✓");
}

//! fig7_petascale — sustained performance vs core count on the Jaguar model.
//!
//! Reproduces the headline figure's *shape*: sustained double-precision
//! performance of a production workload against core count, up to the full
//! 224,256-core Cray XT5 partition, peaking near 1.44 PFlop/s.
//!
//! What is measured vs modeled (see DESIGN.md §2):
//! * **measured** — the solver flop constant `α` in
//!   `flops/energy-point = α·N_slabs·n³`, fitted from instrumented runs at
//!   two real block sizes (boundary self-energies excluded — the paper's
//!   production mode amortizes open-boundary conditions separately);
//! * **modeled** — the Jaguar per-core sustained GEMM rate (82% of the
//!   10.4 GFlop/s peak), a per-level parallel-efficiency model
//!   (embarrassing levels: load-balance only; spatial level:
//!   `η_s = 0.94^log₂(s)`, the cyclic-reduction tree overhead), and a
//!   LogGP allreduce term. The spatial constant is calibrated so the full
//!   partition lands in the paper's sustained regime; the *shape* (near
//!   linear to O(100k) cores, ~60% of peak at the end) is the reproduced
//!   observable.

use omen_bench::print_table;
use omen_lattice::{Crystal, Device};
use omen_linalg::{flop_count, reset_flops};
use omen_num::A_SI;
use omen_parsim::machine::{CommVolume, MachineModel};
use omen_tb::{DeviceHamiltonian, Material, TbParams};

/// Measures solver-only flops per energy point for a wire of width `w`.
fn measure_alpha(w: f64, slabs: usize) -> (f64, usize, usize) {
    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, slabs, w, w);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot = vec![0.0; dev.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    let lead = ham.lead_blocks(0.0, 0.0);
    let n = h.block_size(1);
    let e = -3.2;
    let lead = (&lead.0, &lead.1);
    let (sl, sr) =
        omen_negf::contacts::local_contacts(e, 2e-6, lead, lead).expect("lead decimation failed");
    // Solver-only measurement: injected-mode solve on the prebuilt system.
    let (a, b, _) = omen_wf::transport::assemble(e, 2e-6, &h, &[], &sl, &sr);
    reset_flops();
    let _ = omen_wf::thomas_solve(&a, &b).expect("Thomas solve failed");
    let flops = flop_count();
    let alpha = flops as f64 / (slabs as f64 * (n as f64).powi(3));
    (alpha, n, slabs)
}

fn main() {
    // --- Measured: fit α at two block sizes ------------------------------
    let (a1, n1, s1) = measure_alpha(1.2, 8);
    let (a2, n2, s2) = measure_alpha(1.6, 8);
    let alpha = 0.5 * (a1 + a2);
    println!("measured solver constant: α = {a1:.1} (n={n1}, N={s1}), {a2:.1} (n={n2}, N={s2}) → α = {alpha:.1} flops/(slab·n³)");

    // --- Production workload ---------------------------------------------
    // Paper-class device: full-band (10-orbital) cross-section of ~4000
    // rows, 130 slabs; full I–V: 13 bias × 21 k-points × 1000 energies.
    let (n_prod, slabs_prod) = (4000.0_f64, 130.0);
    let per_point = alpha * slabs_prod * n_prod.powi(3);
    let points = 13.0 * 21.0 * 1000.0;
    let total_flops = per_point * points;
    println!("production: {per_point:.2e} flops/point × {points} points = {total_flops:.3e} flops");

    // --- Modeled: Jaguar projection --------------------------------------
    let mut m = MachineModel::jaguar_xt5();
    m.gemm_efficiency = 0.82;
    let bytes_per_block = n_prod * n_prod * 16.0;
    let mut rows = Vec::new();
    for &cores in &[1024usize, 4096, 16384, 65536, 131072, 224_256] {
        // Spatial ranks grow with machine size (memory per node forces it).
        let spatial = ((cores as f64).log2() / 2.5).round().max(1.0) as usize;
        let groups = cores / spatial;
        let points_per_group = (points / groups as f64).ceil();
        // Level efficiencies.
        let eta_load = points / (groups as f64 * points_per_group);
        let eta_spatial = 0.94_f64.powf((spatial as f64).log2());
        let flops_per_rank = per_point * points_per_group / (spatial as f64 * eta_spatial);
        let comm = CommVolume {
            p2p_messages: points_per_group * 2.0 * (spatial as f64).log2().max(1.0),
            p2p_bytes: points_per_group * 2.0 * (spatial as f64).log2().max(1.0) * bytes_per_block
                / (spatial as f64),
            collectives: points_per_group,
            collective_bytes: 1000.0 * 8.0,
        };
        let t = m.project_phase(flops_per_rank, comm, cores) / eta_load;
        let sustained = total_flops / t;
        rows.push(vec![
            format!("{cores}"),
            format!("{spatial}"),
            format!("{:.2e}", t),
            format!("{:.3}", sustained / 1e15),
            format!(
                "{:.1}%",
                100.0 * sustained / (cores as f64 * m.peak_flops_per_core)
            ),
        ]);
    }
    print_table(
        "fig7: projected sustained performance on Cray XT5 Jaguar",
        &["cores", "spatial ranks", "time (s)", "PFlop/s", "% peak"],
        &rows,
    );
    println!(
        "\nexpected shape: near-linear sustained growth to O(100k) cores, \
         ~60% of peak at the full partition — the ~1.44 PFlop/s headline \
         operating regime of the paper."
    );
}

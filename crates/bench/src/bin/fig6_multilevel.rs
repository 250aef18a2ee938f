//! fig6_multilevel — efficiency of the hierarchical parallel levels.
//!
//! Fixes the total rank budget and sweeps how it is allocated between the
//! energy level (embarrassingly parallel) and the spatial level (SplitSolve,
//! communication- and overhead-bound): the same transmission sweep is
//! executed under each allocation, and the *measured* arithmetic and
//! communication totals are projected onto the Jaguar model. Host
//! wall-clock is reported alongside (meaningful only when the host has
//! enough cores).
//!
//! Expected shape: allocations favoring the energy level are the most
//! efficient (no extra arithmetic, no block traffic); moving ranks to the
//! spatial level costs the cyclic-reduction arithmetic premium plus block
//! exchanges — exactly why the paper parallelizes bias/momentum/energy
//! first and reserves spatial decomposition for memory-bound devices.

use omen_bench::{print_table, timed};
use omen_core::ballistic::solve_sweep;
use omen_core::contacts::ContactTable;
use omen_core::parallel::{
    frozen_system, parallel_transmission, split_levels, LevelConfig, Schedule,
};
use omen_core::{Engine, TransistorSpec};
use omen_linalg::{flop_count, reset_flops};
use omen_num::linspace;
use omen_parsim::{run_ranks, MachineModel};
use omen_tb::Material;

fn main() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.2, 16);
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let v = vec![0.0; tr.device.num_atoms()];
    let (h, h00, h01) = frozen_system(&tr, &v, 0.0);
    let energies = linspace(-3.45, -2.4, 16);
    let host_cores = omen_linalg::threads::budget();
    println!(
        "workload: {} energies × ({} slabs, block {}); host parallelism {host_cores}",
        energies.len(),
        h.num_blocks(),
        h.block_size(1)
    );

    // Sequential reference for correctness + projection baseline.
    reset_flops();
    let (reference, t_seq) = timed(|| {
        let (lead, mut table) = ((&h00, &h01), ContactTable::default());
        let (_, points, report) =
            solve_sweep(&energies, &h, lead, lead, Engine::WfThomas, &mut table);
        assert!(
            report.failed.is_empty(),
            "sequential sweep failed: {report}"
        );
        points.iter().map(|p| p.transmission).collect::<Vec<_>>()
    });
    let seq_flops = flop_count();
    let m = MachineModel::jaguar_xt5();
    let t_seq_proj = m.compute_time(seq_flops as f64);
    println!(
        "sequential: {t_seq:.3} s host, {:.3e} flops ({t_seq_proj:.3} s on one Jaguar core)",
        seq_flops as f64
    );

    let configs = [
        LevelConfig {
            bias: 1,
            momentum: 1,
            energy: 4,
            spatial: 1,
        },
        LevelConfig {
            bias: 1,
            momentum: 1,
            energy: 2,
            spatial: 2,
        },
        LevelConfig {
            bias: 1,
            momentum: 1,
            energy: 1,
            spatial: 4,
        },
    ];
    let mut rows = Vec::new();
    for cfg in &configs {
        reset_flops();
        let ((res, stats), wall) = timed(|| {
            let out = run_ranks(cfg.total(), |ctx| {
                let comms = split_levels(ctx, cfg)?;
                parallel_transmission(
                    &comms,
                    cfg,
                    &h,
                    (&h00, &h01),
                    (&h00, &h01),
                    &energies,
                    Schedule::Static,
                )
                .map(|s| s.transmission)
            })
            .flattened();
            let stats = out.total_stats();
            (out.unwrap_all(), stats)
        });
        let total_flops = flop_count();
        for (a, b) in res[0].iter().zip(&reference) {
            assert!(
                (a - b).abs() < 1e-7 * (1.0 + b.abs()),
                "distributed result must match"
            );
        }
        // Jaguar projection: balanced split of the executed arithmetic plus
        // the executed traffic.
        let t_comp = m.compute_time(total_flops as f64 / cfg.total() as f64);
        let t_comm = stats.messages_sent as f64 / cfg.total() as f64 * m.latency
            + stats.bytes_sent as f64 / cfg.total() as f64 / m.bandwidth;
        let t_proj = t_comp + t_comm;
        rows.push(vec![
            format!("E={} × S={}", cfg.energy, cfg.spatial),
            format!("{:.3e}", total_flops as f64),
            format!("{}", stats.messages_sent),
            format!("{:.2e}", stats.bytes_sent as f64),
            format!("{:.3}", t_proj),
            format!("{:.2}", t_seq_proj / t_proj),
            format!("{:.1}%", 100.0 * t_seq_proj / (t_proj * cfg.total() as f64)),
            format!("{wall:.3}"),
        ]);
    }
    print_table(
        "fig6: 4 ranks allocated across energy × spatial levels (Jaguar projection)",
        &[
            "allocation",
            "flops",
            "msgs",
            "bytes",
            "t_jaguar (s)",
            "speedup",
            "efficiency",
            "t_host (s)",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: the energy allocation approaches ideal efficiency; \
         each rank moved to the spatial level pays the BCR arithmetic \
         premium plus block traffic — matching the paper's communicator \
         design priorities."
    );
}

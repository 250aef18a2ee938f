//! fig5_solver_scaling — SplitSolve strong scaling vs ranks.
//!
//! The spatial parallel level in isolation: the rank-distributed block
//! cyclic reduction solve of one block-tridiagonal system at growing rank
//! counts. For every rank count the *executed* quantities are measured —
//! total arithmetic (instrumented flops) and communication (messages,
//! bytes) — and converted to time on the Jaguar machine model; wall-clock
//! on this host is also reported (meaningful only when the host has at
//! least as many cores as ranks — the runtime prints the host parallelism
//! so the two are never confused).
//!
//! Expected shape: near-linear projected speedup while slabs/ranks ≫ 1,
//! bending over as the log₂(N) reduction tree serializes the tail; the
//! 1-rank column carries the cyclic-reduction arithmetic premium over
//! block-Thomas (counted flops: 2.26× at these 64 slabs; 1.8–2.0× at the
//! 8–16 slabs of `tab2_flops`' BCR/Thomas column).

use omen_bench::{print_table, timed};
use omen_linalg::{flop_count, reset_flops, ZMat};
use omen_num::c64;
use omen_parsim::{run_ranks, Comm, MachineModel};
use omen_sparse::BlockTridiag;
use omen_wf::{splitsolve_parallel, thomas_solve};

fn system(nb: usize, bs: usize, nrhs: usize) -> (BlockTridiag, Vec<ZMat>) {
    let mut s = 0x1234_5678u64;
    let mut next = move || {
        s = s.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut rnd = |r: usize, c: usize| ZMat::from_fn(r, c, |_, _| c64::new(next(), next()));
    let diag: Vec<ZMat> = (0..nb)
        .map(|_| {
            let mut d = rnd(bs, bs);
            for i in 0..bs {
                d[(i, i)] += c64::real(8.0);
            }
            d
        })
        .collect();
    let lower = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
    let upper = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
    let b = (0..nb).map(|_| rnd(bs, nrhs)).collect();
    (BlockTridiag::new(diag, lower, upper), b)
}

fn main() {
    let (nb, bs, nrhs) = (64usize, 64usize, 8usize);
    let (a, b) = system(nb, bs, nrhs);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "system: {nb} slabs × block {bs}, {nrhs} RHS columns (host parallelism: {host_cores})"
    );

    // Sequential baseline: flops and wall-clock of block-Thomas.
    reset_flops();
    let (x_ref, t_thomas) = timed(|| thomas_solve(&a, &b).expect("Thomas solve failed"));
    let thomas_flops = flop_count();
    println!(
        "block-Thomas baseline: {t_thomas:.3} s, {:.3e} flops",
        thomas_flops as f64
    );

    let m = MachineModel::jaguar_xt5();
    let mut rows = Vec::new();
    let mut t1_proj = 0.0;
    for &ranks in &[1usize, 2, 4, 8, 16] {
        reset_flops();
        let ((results, stats), wall) = timed(|| {
            let out = run_ranks(ranks, |ctx| {
                let comm = Comm::world(ctx);
                splitsolve_parallel(&comm, &a, &b)
            })
            .flattened();
            let stats = out.total_stats();
            (out.unwrap_all(), stats)
        });
        let total_flops = flop_count();
        for (x, y) in results[0].iter().zip(&x_ref) {
            assert!((x - y).max_abs() < 1e-7, "SplitSolve must match Thomas");
        }
        // Projection: balanced critical path = flops/ranks on one Jaguar
        // core + the executed message traffic through the link model.
        let t_comp = m.compute_time(total_flops as f64 / ranks as f64);
        let msgs = stats.messages_sent as f64 / ranks as f64;
        let bytes = stats.bytes_sent as f64 / ranks as f64;
        let t_proj = t_comp + msgs * m.latency + bytes / m.bandwidth;
        if ranks == 1 {
            t1_proj = t_proj;
        }
        rows.push(vec![
            format!("{ranks}"),
            format!("{:.3e}", total_flops as f64),
            format!("{}", stats.messages_sent),
            format!("{:.2e}", stats.bytes_sent as f64),
            format!("{:.4}", t_proj),
            format!("{:.2}", t1_proj / t_proj),
            format!("{:.1}%", 100.0 * t1_proj / (t_proj * ranks as f64)),
            format!("{wall:.3}"),
        ]);
    }
    print_table(
        "fig5: SplitSolve strong scaling (measured flops+comm → Jaguar projection)",
        &[
            "ranks",
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
        "\n1-rank BCR arithmetic premium over Thomas: {:.2}× (the price of the \
         parallel elimination tree). Host wall-clock only reflects speedup \
         when host cores ≥ ranks (this host: {host_cores}).",
        t1_proj / m.compute_time(thomas_flops as f64)
    );
}

//! tab2_flops — measured operation counts per energy point, RGF vs WF.
//!
//! The paper's central algorithmic claim quantified: counted
//! double-precision flops (Gordon-Bell convention) for one transmission
//! evaluation, recursive Green's function vs wave-function, as the device
//! cross-section (block size n) and length (slab count N) grow.
//!
//! Expected shape: both scale as N·n³, and both engines take every slab
//! coupling on its support — 20–30 % of the slab's orbitals on these
//! wires. RGF then pays one LU + explicit inverse per slab plus thin
//! products; block Thomas one LU, an `n × |C|` solve for `D̃⁻¹·U` and thin
//! patches, plus its right-hand sides. No explicit inverse is WF's
//! structural advantage: RGF/WF reads 1.8–2.0 on these wires. The binary
//! exits non-zero when any row reads RGF/WF ≤ 1, so `ci.sh` gates the
//! paper's premise on both dispatch legs.
//!
//! `--json` additionally times the two stages of a point as the library
//! runs them — `local_contacts`, then `rgf_point` / `wf_point` on its
//! output — and merges `contacts_point` / `rgf_energy_point` /
//! `wf_energy_point` throughput records (counted Gflop/s at the slab-block
//! size) into the repo-root `BENCH_kernels.json` baseline; `--smoke`
//! restricts the sweep to the smallest device and writes the ledger's
//! smoke twin, which `ci.sh` runs on both dispatch legs.

use omen_bench::records::{publish, KernelRecord};
use omen_bench::{print_table, timed};
use omen_lattice::{Crystal, Device};
use omen_linalg::{threads, FlopScope};
use omen_num::A_SI;
use omen_tb::{DeviceHamiltonian, Material, TbParams};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");
    omen_core::log::emit_kernel_dispatch();
    let simd = threads::simd_path() == threads::SimdPath::Avx2Fma;
    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let mut rows = Vec::new();
    let mut wf_not_cheaper = Vec::new();
    let mut records: Vec<KernelRecord> = Vec::new();
    let (mut ratio_lo, mut ratio_hi) = (f64::INFINITY, 0.0f64);
    let (mut premium_lo, mut premium_hi) = (f64::INFINITY, 0.0f64);
    let configs: &[(f64, usize)] = if smoke {
        &[(0.8, 8)]
    } else {
        &[(0.8, 8), (0.8, 16), (1.2, 8), (1.6, 8), (2.0, 8)]
    };
    for &(w, slabs) in configs {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, slabs, w, w);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let pot = vec![0.0; dev.num_atoms()];
        let h = ham.assemble(&pot, 0.0);
        let lead = ham.lead_blocks(0.0, 0.0);
        let block = h.block_size(1);
        let e = -3.2; // inside the band

        // The contacts are one stage, shared by both engines (equal
        // leads: one pair decimation, not two). Warm, then measure.
        let lead_ref = (&lead.0, &lead.1);
        let contacts = || {
            omen_negf::contacts::local_contacts(e, 2e-6, lead_ref, lead_ref)
                .expect("lead decimation failed")
        };
        contacts();
        let scope = FlopScope::new();
        let ((sl, sr), sigma_s) = timed(contacts);
        let sigma_flops = scope.take();

        // Each engine on those contacts, as `solve_point` runs it.
        let scope = FlopScope::new();
        let (r, rgf_s) =
            timed(|| omen_negf::rgf_point(e, 2e-6, &h, &sl, &sr).expect("RGF solve failed"));
        let rgf_flops = scope.take();

        let scope = FlopScope::new();
        let (wf, wf_s) = timed(|| {
            omen_wf::wf_point(e, 2e-6, &h, &sl, &sr, omen_wf::Solver::Thomas)
                .expect("WF solve failed")
        });
        let wf_flops = scope.take();

        assert!((r.transmission - wf.transmission).abs() < 1e-4 * (1.0 + r.transmission));

        // What cyclic reduction — serial, or SplitSolve's schedule of it —
        // pays over Thomas for its log-depth tree: the block solve alone.
        let (a, b, _) = omen_wf::transport::assemble(e, 2e-6, &h, &sl, &sr);
        let scope = FlopScope::new();
        a.clone().thomas(b.clone()).expect("Thomas solve failed");
        let thomas_flops = scope.take();
        let scope = FlopScope::new();
        a.bcr(b).expect("BCR solve failed");
        let premium = scope.take() as f64 / thomas_flops as f64;
        premium_lo = premium_lo.min(premium);
        premium_hi = premium_hi.max(premium);
        if json {
            let t = threads::configured_threads();
            for (kernel, flops, secs) in [
                ("contacts_point", sigma_flops, sigma_s),
                ("rgf_energy_point", rgf_flops, rgf_s),
                ("wf_energy_point", wf_flops, wf_s),
            ] {
                records.push(KernelRecord {
                    kernel: kernel.into(),
                    n: block,
                    threads: t,
                    simd,
                    median_s: secs,
                    min_s: secs,
                    gflops: flops as f64 / secs / 1e9,
                });
            }
        }
        let ratio = rgf_flops as f64 / wf_flops as f64;
        if ratio <= 1.0 {
            wf_not_cheaper.push(format!("{w:.1}×{w:.1}, {slabs} slabs: RGF/WF {ratio:.2}"));
        }
        ratio_lo = ratio_lo.min(ratio);
        ratio_hi = ratio_hi.max(ratio);
        rows.push(vec![
            format!("{w:.1}×{w:.1}"),
            format!("{slabs}"),
            format!("{block}"),
            format!("{:.3e}", rgf_flops as f64),
            format!("{:.3e}", wf_flops as f64),
            format!("{ratio:.2}"),
            format!("{premium:.2}"),
            format!("{:.3e}", sigma_flops as f64),
        ]);
    }
    print_table(
        "tab2: flops per energy point (single-band wire)",
        &[
            "cross",
            "slabs",
            "block n",
            "RGF",
            "WF",
            "RGF/WF",
            "BCR/Thomas",
            "Σ (shared)",
        ],
        &rows,
    );
    println!(
        "\nmeasured: RGF/WF {ratio_lo:.2}–{ratio_hi:.2}. expected shape: above 1 — both engines \
         multiply by each coupling's core only, RGF pays LU + explicit inverse per slab, \
         block-Thomas LU + an n × |C| solve. BCR/Thomas {premium_lo:.2}–{premium_hi:.2}: the \
         block solve alone, what the cyclic-reduction tree (serial or SplitSolve) costs over \
         Thomas."
    );
    if json {
        let path = publish(smoke, &records).expect("publish transport records");
        println!(
            "wrote {} transport records -> {}",
            records.len(),
            path.display()
        );
    }
    if !wf_not_cheaper.is_empty() {
        eprintln!(
            "tab2_flops: the wave-function engine is not the cheaper ballistic engine on: {}",
            wf_not_cheaper.join("; ")
        );
        std::process::exit(1);
    }
}

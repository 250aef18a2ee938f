//! Exact pins of the I–V paths a request runs: every current of four
//! curves as `to_bits`, with each point's SCF iteration count and the
//! counts of its `SweepReport`. A refactor of the bias loop, the k-average
//! or the contact table must leave every bit where it is; a change that
//! moves bits on purpose re-records these constants and says why.
//!
//! The curves are the seed-0 `idvg-scf-wf` request (the README nanowire,
//! self-consistent), the seed-0 `idvg-frozen-sp3s-rgf` request (the sp3s*
//! wire, frozen field) and two two-k UTB SCF sweeps (the k-average), one
//! stopping at `max_iter` and one converging. The bits depend on the kernel dispatch path, so each path keeps its own
//! set; the 256- and 512-bit SIMD kernels give the same bits.

use omen::core::iv::{frozen_field_sweep_observed, gate_sweep_observed, PointProgress};
use omen::core::ScfOptions;
use omen::linalg::threads::{simd_path, SimdPath};
use omen::serve::{Mode, SweepRequest};

/// One swept point: current bits, SCF iterations, and the report's
/// `(solved, retried, recovered, failed)`.
type Pin = (u64, usize, [usize; 4]);

/// The request text of `idvg-scf-wf` at seed 0.
const SCF_WF: &str = "material = single_band_1000\ngeometry = nanowire\nwidth = 1.0\n\
    slabs = 8\ndoping_sd = 2e-3\nmode = scf\nengine = wf\nn_energy = 31\nvds = 0.2\n\
    mu_source = -3.4\nvg_start = -0.4\nvg_stop = -0.1\nvg_points = 4\n";

/// The request text of `idvg-frozen-sp3s-rgf` at seed 0.
const FROZEN_SP3S: &str = "material = si_sp3s\ngeometry = nanowire\nwidth = 0.8\n\
    slabs = 128\ndoping_sd = 2e-3\nmode = frozen\nengine = rgf\nn_energy = 3\nvds = 0.2\n\
    mu_source = 1.6\nvg_start = -0.2\nvg_stop = 0.0\nvg_points = 2\n";

/// A two-k UTB SCF sweep: the k-average under the SCF loop.
const UTB_K2: &str = "geometry = utb\nmode = scf\nslabs = 6\nn_energy = 11\nn_k = 2\n\
    vg_points = 2\nvg_start = 0.0\nvg_stop = 0.1\nmu_source = -3.2\n";

/// The same film swept where the loop converges, so the k-average's
/// accepted-transport path is pinned too.
const UTB_K2_CONVERGING: &str = "geometry = utb\nmode = scf\nslabs = 6\nn_energy = 11\nn_k = 2\n\
    vg_points = 2\nvg_start = -0.2\nvg_stop = -0.1\nmu_source = -3.2\n";

/// Runs `text` the way the daemon's executor does and returns its pins.
fn curve(text: &str) -> Vec<Pin> {
    let req = SweepRequest::parse(text).expect("request parses");
    let mut tr = req.device_spec().expect("spec").build();
    let engine = req.engine_kind().expect("engine");
    let mut reports = Vec::new();
    let mut observe = |p: PointProgress<'_>| {
        let r = p.report;
        reports.push([r.solved, r.retried, r.recovered, r.failed.len()]);
    };
    let (vgs, vds, mu) = (req.v_gates(), req.vds, req.mu_source);
    let points = match req.mode {
        Mode::Frozen => {
            frozen_field_sweep_observed(&tr, &vgs, vds, mu, engine, req.n_energy, &mut observe)
        }
        Mode::Scf => {
            let opts: ScfOptions = req.scf_options().expect("options");
            assert_eq!(opts.engine, engine);
            gate_sweep_observed(&mut tr, &vgs, vds, mu, &opts, &mut observe)
        }
    };
    assert_eq!(reports.len(), points.len());
    (points.iter().zip(reports))
        .map(|(p, r)| (p.current_ua.to_bits(), p.scf_iterations, r))
        .collect()
}

fn check(name: &str, text: &str, scalar: &[Pin], simd: &[Pin]) {
    let want = match simd_path() {
        SimdPath::Scalar => scalar,
        SimdPath::Avx2Fma => simd,
    };
    let got = curve(text);
    let shown: Vec<String> = (got.iter())
        .map(|(i, n, r)| format!("({i:#018x}, {n}, {r:?}) = {} µA", f64::from_bits(*i)))
        .collect();
    assert_eq!(got, want, "{name} on {:?}: {shown:#?}", simd_path());
}

#[test]
fn scf_wf_request_keeps_its_bits() {
    let r = [31, 0, 0, 0];
    check(
        "idvg-scf-wf seed 0",
        SCF_WF,
        &[
            (0x3f0b64f8b024246f, 1, r),
            (0x3f668c6c1e880f3a, 4, r),
            (0x3fb7f61e645f3bef, 4, r),
            (0x3fe73d820db893c2, 5, r),
        ],
        &[
            (0x3f0b64f8b0242471, 1, r),
            (0x3f668c6c1e880c92, 4, r),
            (0x3fb7f61e645f2a7f, 4, r),
            (0x3fe73d820db89121, 5, r),
        ],
    );
}

#[test]
fn frozen_sp3s_request_keeps_its_bits() {
    let r = [3, 0, 0, 0];
    check(
        "idvg-frozen-sp3s-rgf seed 0",
        FROZEN_SP3S,
        &[(0x3f080ac0ad3ac203, 0, r), (0x401560b31987bb4b, 0, r)],
        &[(0x3f080ac0ad3aaf2a, 0, r), (0x401560b31987b87e, 0, r)],
    );
}

#[test]
fn two_k_utb_scf_sweep_keeps_its_bits() {
    // Both points stop at `max_iter`; each report merges the two k's grids.
    let r = [22, 0, 0, 0];
    check(
        "two-k UTB SCF sweep",
        UTB_K2,
        &[(0x4016ec3fbd56d084, 25, r), (0x4018dd414b881d68, 25, r)],
        &[(0x4016ec3fbd56d051, 25, r), (0x4018dd414b881d81, 25, r)],
    );
}

#[test]
fn converging_two_k_utb_scf_sweep_keeps_its_bits() {
    // Both points meet `tol_v` (17 and 8 iterations): the final transport
    // is the last iteration's accepted k-average, not a repeat solve.
    let r = [22, 0, 0, 0];
    check(
        "converging two-k UTB SCF sweep",
        UTB_K2_CONVERGING,
        &[(0x400967eb1992a67b, 17, r), (0x4011a2fd2a02ff8f, 8, r)],
        &[(0x400967eb19929d65, 17, r), (0x4011a2fd2a02ffd3, 8, r)],
    );
}

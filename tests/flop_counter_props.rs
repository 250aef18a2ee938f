//! Properties of the global flop counter: totals are *exact* — not
//! approximate — for GEMM and LU on every shape and path, the booked counts
//! of the Hermitian eigensolver and of the explicit inverse follow an
//! independent tally of their algorithms, a frozen sweep's later gate
//! points and a repeated solve cost exactly their engine solves (bands
//! and contacts, failures included, come from the curve's contact table),
//! and concurrent reporting from many threads loses nothing.
//!
//! The counter backs the paper-reproduction harness (tab2/fig7 derive
//! sustained-performance numbers from measured counts), so "roughly right"
//! is not good enough: a blocked kernel that double-counted its trailing
//! updates or dropped increments under contention would silently corrupt
//! every downstream figure. The tests serialize on a local mutex because
//! the counter is process-global.

use omen::linalg::flops::{flop_count, gemm_flops, inverse_flops, lu_flops, trsm_flops};
use omen::linalg::{gemm, lu::Lu, FlopScope, Op, ZMat};
use omen::num::c64;
use omen::sparse::BlockTridiag;
use std::sync::Mutex;

/// Serializes counter-delta measurements within this test binary.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn randmat(nr: usize, nc: usize, seed: u64) -> ZMat {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
    let mut next = move || {
        s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()))
}

/// Diagonally dominant so `Lu::factor` can never fail mid-measurement.
fn dd_mat(n: usize, seed: u64) -> ZMat {
    let mut a = randmat(n, n, seed);
    for i in 0..n {
        a[(i, i)] += c64::real(n as f64);
    }
    a
}

#[test]
fn gemm_total_is_exact_across_shapes_and_ops() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // Mixed shapes and ops; the count must be 8·m·n·k per call, once —
    // independent of tiling, packing or transposition copies.
    let cases = [(3usize, 4usize, 5usize), (13, 67, 9), (70, 70, 70)];
    let stored = |op: Op, r: usize, c: usize, seed: u64| {
        if op == Op::N {
            randmat(r, c, seed)
        } else {
            randmat(c, r, seed)
        }
    };
    for (opa, opb) in [(Op::N, Op::N), (Op::H, Op::N), (Op::N, Op::T)] {
        let scope = FlopScope::new();
        let mut expected = 0u64;
        for &(m, k, n) in &cases {
            let a = stored(opa, m, k, 1);
            let b = stored(opb, k, n, 2);
            let mut c = ZMat::zeros(m, n);
            gemm(c64::ONE, &a, opa, &b, opb, c64::ZERO, &mut c);
            expected += gemm_flops(m, n, k);
        }
        assert_eq!(scope.take(), expected, "{opa:?}{opb:?}");
    }
}

#[test]
fn lu_total_is_exact_for_unblocked_and_blocked_paths() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // The blocked paths route their trailing and off-diagonal updates
    // through the *uncounted* GEMM core, and every row update of the panel
    // factor and the triangular solves through the *uncounted* AXPY entry;
    // a regression that switched either to the public, counting entry
    // point would double-count and fail these exact equalities.
    for &n in &[5usize, 32, 48, 60, 90, 97] {
        let a = dd_mat(n, 11 + n as u64);
        let scope = FlopScope::new();
        let f = Lu::factor(&a).expect("diagonally dominant");
        assert_eq!(scope.take(), lu_flops(n), "factor n={n}");
        for nrhs in [1usize, 3, n] {
            let b = randmat(n, nrhs, 5);
            let scope = FlopScope::new();
            let _ = f.solve_mat(&b);
            assert_eq!(scope.take(), trsm_flops(n, nrhs), "solve n={n} nrhs={nrhs}");
        }
        let scope = FlopScope::new();
        let _ = f.solve_vec(&randmat(n, 1, 6).col(0));
        assert_eq!(scope.take(), trsm_flops(n, 1), "solve_vec n={n}");
        let scope = FlopScope::new();
        let _ = f.inverse();
        assert_eq!(scope.take(), inverse_flops(n), "inverse n={n}");
    }
}

/// The explicit inverse run the plain way from `f`'s packed factors,
/// tallying the real flops of every loop where they happen (complex
/// multiply-add = 8, complex multiply = 6): the forward solve `L·Y = I`
/// on the identity's lower triangle (row `i` of `L⁻¹` lives on columns
/// `0..=i`), the back substitution `U·X = Y` on the dense `Y`, then
/// `A⁻¹ = X·P`. Reads none of `omen::linalg::flops`' formulas.
fn tallied_inverse(f: &Lu) -> (ZMat, u64) {
    let (n, lu) = (f.n(), f.packed());
    let mut tally = 0u64;
    let mut y = ZMat::eye(n);
    for i in 0..n {
        for j in 0..i {
            let l = lu[(i, j)];
            for c in 0..=j {
                let yjc = y[(j, c)];
                y[(i, c)] -= l * yjc;
                tally += 8;
            }
        }
    }
    for i in (0..n).rev() {
        for j in i + 1..n {
            let u = lu[(i, j)];
            for c in 0..n {
                let yjc = y[(j, c)];
                y[(i, c)] -= u * yjc;
                tally += 8;
            }
        }
        let d = lu[(i, i)].inv();
        for c in 0..n {
            y[(i, c)] *= d;
            tally += 6;
        }
    }
    let inv = ZMat::from_fn(n, n, |r, c| {
        let i = f
            .perm()
            .iter()
            .position(|&p| p == c)
            .expect("a permutation");
        y[(r, i)]
    });
    (inv, tally)
}

#[test]
fn inverse_books_what_the_algorithm_runs() {
    use omen::num::{tolerance::test_bound, BoundKind};
    let _guard = COUNTER_LOCK.lock().unwrap();
    let tol = test_bound("lu.vs_oracle", BoundKind::Relative).expect("policy entry");
    for n in [5usize, 16, 32, 33, 48, 60, 90, 97] {
        let f = Lu::factor(&dd_mat(n, 70 + n as u64)).expect("diagonally dominant");
        let (want, tally) = tallied_inverse(&f);
        let scope = FlopScope::new();
        let got = f.inverse();
        let booked = scope.take();
        // The tally ran the algorithm: same inverse.
        let off = (&got - &want).max_abs();
        assert!(off <= tol * want.max_abs(), "n={n}: off by {off}");
        // The ledger books the two solves' cubic terms, (4/3)n³ + 4n³; what
        // it leaves out — the diagonal scaling and the solves' quadratic
        // terms — is 2n² − 4n/3 here.
        let nn = (n * n) as u64;
        assert!(
            booked <= tally && tally - booked <= 2 * nn,
            "n={n}: tallied {tally}, booked {booked}"
        );
    }
}

/// Counted flops of `diag(a·b)` for `n × k` by `k × n` operands formed in
/// the `4 × 4` diagonal tiles of the product (a ragged last one).
fn diagonal_tiles(n: usize, k: usize) -> u64 {
    (0..n)
        .step_by(4)
        .map(|k0| {
            let t = (n - k0).min(4);
            gemm_flops(t, t, k)
        })
        .sum()
}

/// Counted flops of one RGF energy point after its contacts, for `nb`
/// slabs of size `n` whose broadenings touch `sl` / `sr` orbitals and
/// whose couplings `A_{i,i+1}` / `A_{i+1,i}` are non-zero on `upper` /
/// `lower` = (rows, columns) — the operation list of `omen::negf::rgf` and
/// `transport::package`, term by term.
fn rgf_point_flops(
    nb: usize,
    n: usize,
    (sl, sr): (usize, usize),
    (ru, cu): (usize, usize),
    (rl, cl): (usize, usize),
) -> u64 {
    let links = nb as u64 - 1;
    // Per slab: one LU and its explicit inverse.
    nb as u64 * (lu_flops(n) + inverse_flops(n))
        // Per link, forward: u_i = L_i·gL_i[C′,:] and the Schur update
        // u_i[:,R]·U_i on m[R′,C].
        + links * (gemm_flops(rl, n, cl) + gemm_flops(rl, cu, ru))
        // Per link, backward: t1 = gL_i[:,R]·U_i, t2 = t1·G_{i+1}[C,R′], and
        // t2·u_i accumulated into G_ii on its diagonal, in 4 × 4 tiles …
        + links * (gemm_flops(n, cu, ru) + gemm_flops(n, rl, cu) + diagonal_tiles(n, rl))
        // … and on its face K_i, the columns the next step reads: S_L on
        // slab 0, R′ of the link before on the others.
        + links.min(1) * gemm_flops(n, sl, rl)
        + links.saturating_sub(1) * gemm_flops(n, rl, rl)
        // Per link: the left (Dyson) and right column blocks on the supports.
        + links * (gemm_flops(n, sl, rl) + gemm_flops(n, sr, cu))
        // Z_{i+1} = −u_i[:,R′]·Z_i from the second link on (Z_1 is a column copy).
        + links.saturating_sub(1) * gemm_flops(rl, sl, rl)
        // Caroli trace on the s_L × s_R corner.
        + gemm_flops(sl, sr, sl)
        + gemm_flops(sl, sr, sr)
        + gemm_flops(sl, sl, sr)
        // Spectral diagonals: C·Γ[S,S] and one row dot per orbital.
        + nb as u64 * (gemm_flops(n, sl, sl) + gemm_flops(n, sr, sr) + 8 * (n * (sl + sr)) as u64)
}

#[test]
fn rgf_energy_point_count_is_the_closed_form() {
    use omen::negf::contacts::local_contacts;
    use omen::negf::transport::DEFAULT_ETA;
    let _guard = COUNTER_LOCK.lock().unwrap();
    // A redundant product — a second factorization sweep, a full-width
    // column, a full G·Γ·G†, a product against a coupling's zeros — shows
    // up here as an exact surplus.
    let n = 6usize;
    let hermitian = |seed: u64| {
        let m = randmat(n, n, seed);
        &m + &m.adjoint()
    };
    // A tight-binding coupling: rows {0, 1, 2, 4} × columns {3, 5} only.
    let (rows, cols) = ([0usize, 1, 2, 4], [3usize, 5]);
    let on_pattern = |seed: u64| {
        let full = randmat(n, n, seed);
        let mut m = ZMat::zeros(n, n);
        for &i in &rows {
            for &j in &cols {
                m[(i, j)] = full[(i, j)];
            }
        }
        m
    };
    // As the lead coupling it puts Γ_L = i(Σ_L − Σ_L†), Σ_L = H01†·g·H01,
    // on the 2 columns and Γ_R (Σ_R = H01·g·H01†) on the 4 rows.
    let h01 = on_pattern(31).scaled(c64::real(0.3));
    let h00 = hermitian(30);
    let lead = (&h00, &h01);
    let touched = |gamma: &ZMat| {
        (0..n)
            .filter(|&i| gamma.row(i).iter().any(|&v| v != c64::ZERO))
            .count()
    };
    // Device couplings: dense (every product at full width — the count the
    // recursion had before it read supports) and on the pattern (the
    // lower block is the adjoint: 2 rows × 4 columns).
    let regimes = [
        (false, (n, n), (n, n)),
        (true, (rows.len(), cols.len()), (cols.len(), rows.len())),
    ];
    for (on_support, upper_rc, lower_rc) in regimes {
        for nb in [1usize, 2, 5] {
            let diag: Vec<ZMat> = (0..nb).map(|i| hermitian(40 + i as u64)).collect();
            let upper: Vec<ZMat> = (1..nb)
                .map(|i| {
                    if on_support {
                        on_pattern(50 + i as u64)
                    } else {
                        randmat(n, n, 50 + i as u64)
                    }
                })
                .collect();
            let lower: Vec<ZMat> = upper.iter().map(ZMat::adjoint).collect();
            let h = BlockTridiag::from_dense(diag, lower, upper);
            let e = 0.1;

            let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead, lead).expect("contacts");
            let (s_l, s_r) = (touched(&sl.gamma), touched(&sr.gamma));
            assert_eq!((s_l, s_r), (cols.len(), rows.len()));

            // The engine alone: one that decimates a lead again fails this.
            let scope = FlopScope::new();
            omen::negf::rgf_point(e, DEFAULT_ETA, &h, &[], &sl, &sr).expect("RGF point");
            assert_eq!(
                scope.take(),
                rgf_point_flops(nb, n, (s_l, s_r), upper_rc, lower_rc),
                "couplings on their support: {on_support}, nb={nb}"
            );
        }
    }
}

/// Counted flops of block Thomas on `nb` slabs of size `n` with `m`
/// right-hand sides, every `A_{i,i+1}` / `A_{i+1,i}` non-zero on
/// `upper` / `lower` = (rows, columns) — the operation list of
/// `omen::wf::solver`, term by term.
fn thomas_flops(
    nb: usize,
    n: usize,
    m: usize,
    (_, cu): (usize, usize),
    (rl, cl): (usize, usize),
) -> u64 {
    let links = nb as u64 - 1;
    // Per slab: the pivot's LU and y_i = D̃_i⁻¹·r_i.
    nb as u64 * (lu_flops(n) + trsm_flops(n, m))
        // Per link: w_i = D̃_i⁻¹·A_{i,i+1} (an n × |C| solve), the |R′| × |C|
        // patch of D̃_{i+1}, the |R′| rows of r_{i+1}, and x_i −= w_i·x_{i+1}[C].
        + links * (trsm_flops(n, cu) + gemm_flops(rl, cu, cl) + gemm_flops(rl, m, cl) + gemm_flops(n, m, cu))
}

/// Counted flops of the block cyclic reduction on the same system, walked
/// level by level: an eliminated block's LU and its three solves (`D⁻¹U`
/// only where a survivor lies to its right), each survivor's patches of
/// its diagonal and right-hand side and the fill-in coupling (on the
/// coupling's rows and the bundle's columns), the root, and the back
/// substitution.
fn bcr_flops(
    nb: usize,
    n: usize,
    m: usize,
    (ru, cu): (usize, usize),
    (rl, cl): (usize, usize),
) -> u64 {
    let mut total = lu_flops(n) + trsm_flops(n, m);
    let mut s = 1;
    while s < nb {
        for g in (s..nb).step_by(2 * s) {
            let right = g + s < nb;
            total += lu_flops(n) + trsm_flops(n, m) + trsm_flops(n, cl);
            total += gemm_flops(n, m, cl);
            if right {
                total += trsm_flops(n, cu) + gemm_flops(n, m, cu);
            }
        }
        for g in (0..nb).step_by(2 * s) {
            if g + s < nb {
                total += gemm_flops(ru, cl, cu) + gemm_flops(ru, m, cu);
                if g + 2 * s < nb {
                    total += gemm_flops(ru, cu, cu);
                }
            }
            if g >= s {
                total += gemm_flops(rl, cu, cl) + gemm_flops(rl, m, cl) + gemm_flops(rl, cl, cl);
            }
        }
        s *= 2;
    }
    total
}

#[test]
fn thin_thomas_and_bcr_counts_are_the_closed_form() {
    use omen::wf::{bcr_solve, thomas_solve};
    let _guard = COUNTER_LOCK.lock().unwrap();
    // A product against a coupling's zeros, or a solve wider than the
    // coupling's column support, shows up here as an exact surplus. A dense
    // coupling is its own core: at (n, n) the two forms are the dense
    // eliminations' operation lists (an n × n solve per link, n × n × n
    // Schur products), the count before the engines read supports.
    let (n, m) = (7usize, 3usize);
    let on = |rows: &[usize], cols: &[usize]| Some((rows.to_vec(), cols.to_vec()));
    let regimes = [
        (None, None, (n, n), (n, n)),
        (
            on(&[0, 2, 5], &[1, 6]),
            on(&[3], &[0, 2, 4, 5]),
            (3, 2),
            (1, 4),
        ),
    ];
    for (up, lo, upper_rc, lower_rc) in regimes {
        for nb in [1usize, 2, 5, 8, 13] {
            let a = BlockTridiag::patterned(
                &vec![n; nb],
                &vec![lo.clone(); nb - 1],
                &vec![up.clone(); nb - 1],
                0xF10 + nb as u64,
            );
            let b: Vec<ZMat> = (0..nb).map(|i| randmat(n, m, 90 + i as u64)).collect();
            let scope = FlopScope::new();
            thomas_solve(&a, &b).expect("Thomas");
            assert_eq!(
                scope.take(),
                thomas_flops(nb, n, m, upper_rc, lower_rc),
                "Thomas, nb={nb}, supports {upper_rc:?} / {lower_rc:?}"
            );
            let scope = FlopScope::new();
            bcr_solve(&a, &b).expect("BCR");
            assert_eq!(
                scope.take(),
                bcr_flops(nb, n, m, upper_rc, lower_rc),
                "BCR, nb={nb}, supports {upper_rc:?} / {lower_rc:?}"
            );
        }
    }
}

#[test]
fn wf_energy_point_is_the_point_less_its_contacts() {
    use omen::core::{solve_point, Engine};
    use omen::lattice::{Crystal, Device};
    use omen::negf::contacts::local_contacts;
    use omen::negf::transport::DEFAULT_ETA;
    use omen::tb::{DeviceHamiltonian, Material, TbParams};
    use omen::wf::{wf_point, Solver};
    let _guard = COUNTER_LOCK.lock().unwrap();
    // The README wire: the two stages of a point add up to the point, so
    // neither the WF engine nor the composition runs a decimation twice.
    let dev = Device::nanowire(Crystal::Zincblende { a: omen::num::A_SI }, 4, 1.0, 1.0);
    let ham = DeviceHamiltonian::new(
        &dev,
        TbParams::of(Material::SingleBand { t_mev: 1000 }),
        false,
    );
    let h = ham.assemble(&vec![0.0; dev.num_atoms()], 0.0);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let (lead, e) = ((&h00, &h01), -3.0);

    let scope = FlopScope::new();
    solve_point(e, &h, lead, lead, Engine::WfThomas).expect("WF point");
    let point = scope.take();
    let scope = FlopScope::new();
    let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead, lead).expect("contacts");
    let contacts = scope.take();
    let scope = FlopScope::new();
    wf_point(e, DEFAULT_ETA, &h, &[], &sl, &sr, Solver::Thomas).expect("WF engine");
    assert_eq!(scope.take(), point - contacts);
}

/// The flops of one grid of engine points per momentum of
/// `ballistic_solve(tr, v_atoms, .., ks)`: each k's device and leads as the
/// solve builds them, its grid from a cold one-k solve, and its contacts
/// computed outside the count.
fn engine_points_flops(
    tr: &omen::core::NanoTransistor,
    v_atoms: &[f64],
    bias: &omen::core::Bias,
    n_energy: usize,
    ks: &[(f64, f64)],
) -> u64 {
    use omen::core::parallel::frozen_system;
    use omen::core::{ballistic_solve, engine_point, ContactTable, Engine};
    use omen::negf::contacts::local_contacts;
    use omen::negf::transport::DEFAULT_ETA;
    let drain = tr.slab_mean_potential(v_atoms, tr.device.num_slabs - 1);
    let mut engine = 0;
    for &(ky, _) in ks {
        let mut cold = ContactTable::default();
        let one_k = [(ky, 1.0)];
        let grid =
            ballistic_solve(tr, v_atoms, bias, Engine::Rgf, n_energy, &one_k, &mut cold).energies;
        assert_eq!(grid.len(), n_energy);
        let (h, h00, h01) = frozen_system(tr, v_atoms, ky);
        let (d00, d01) = tr.hamiltonian().lead_blocks(-drain, ky);
        for e in grid {
            let (sl, sr) =
                local_contacts(e, DEFAULT_ETA, (&h00, &h01), (&d00, &d01)).expect("contacts");
            let scope = FlopScope::new();
            engine_point(e, &h, &[], &sl, &sr, Engine::Rgf).expect("RGF point");
            engine += scope.take();
        }
    }
    engine
}

#[test]
fn a_frozen_gate_point_costs_one_grid_of_engine_points() {
    use omen::core::iv::{frozen_field_sweep, frozen_potential};
    use omen::core::{ballistic_solve, momentum_grid, Bias, ContactTable, Engine, Geometry};
    use omen::core::{NanoTransistor, TransistorSpec};
    use omen::tb::Material;
    let _guard = COUNTER_LOCK.lock().unwrap();
    // The README wire: a gate point after the first finds its lead bands
    // and every contact of the shared grid remembered, so what it adds to
    // the sweep is its engine solves — no decimation, no band.
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let (vgs, v_ds, mu_source, n_energy) = ([-0.1, 0.0, 0.1], 0.15, -3.45, 9);
    let sweep = |gates: &[f64]| {
        let scope = FlopScope::new();
        frozen_field_sweep(&tr, gates, v_ds, mu_source, Engine::Rgf, n_energy);
        scope.take()
    };
    let last = sweep(&vgs) - sweep(&vgs[..2]);
    let bias = |v_gate| Bias {
        v_gate,
        v_ds,
        mu_source,
    };
    let gamma = [(0.0, 1.0)];
    let at_last_gate = frozen_potential(&tr, vgs[2]);
    let engine = engine_points_flops(&tr, &at_last_gate, &bias(vgs[2]), n_energy, &gamma);
    assert_eq!(last, engine);

    // A solve repeated at one potential on the curve's table costs its
    // engine points alone, in the two shapes where one remembered lead per
    // table is not enough: (a) unequal leads, here the drain extension at
    // the drain's potential, whose two leads' bands are both kept; (b) two
    // momenta on a UTB film, each on its own slot.
    let repeat = |tr: &NanoTransistor, v_atoms: &[f64], bias: &Bias, ks: &[(f64, f64)]| {
        let mut table = ContactTable::default();
        ballistic_solve(tr, v_atoms, bias, Engine::Rgf, n_energy, ks, &mut table);
        let scope = FlopScope::new();
        ballistic_solve(tr, v_atoms, bias, Engine::Rgf, n_energy, ks, &mut table);
        let flops = scope.take();
        assert_eq!(table.take_tally().reused, ks.len() * n_energy);
        flops
    };
    let drain = tr.spec.num_slabs - tr.spec.drain_slabs;
    let biased: Vec<f64> = (tr.device.atoms.iter().zip(frozen_potential(&tr, 0.05)))
        .map(|(a, v)| if a.slab >= drain { v_ds } else { v })
        .collect();
    let want = engine_points_flops(&tr, &biased, &bias(0.05), n_energy, &gamma);
    assert_eq!(
        repeat(&tr, &biased, &bias(0.05), &gamma),
        want,
        "unequal leads"
    );

    spec.geometry = Geometry::Utb { cells: 1, h: 1.0 };
    let film = spec.build();
    let (flat, ks) = (vec![0.0; film.device.num_atoms()], momentum_grid(&film, 2));
    let want = engine_points_flops(&film, &flat, &bias(0.0), n_energy, &ks);
    assert_eq!(repeat(&film, &flat, &bias(0.0), &ks), want, "two momenta");
}

/// A 1 × 1 chain lead (hopping −1) widened by decoupled trap orbitals at
/// `E_trap + iη` and at every energy the nudge ladder tries after it: each
/// trap cancels the decimation's broadening, so the first resolvent is
/// exactly singular at `E_trap` and at each nudge — the lead fails there,
/// typed, and converges everywhere else. Returns the lead and a device of
/// `nb` slabs on the same orbitals (traps at a regular 5 eV, the chain
/// orbital at `v` on the inner slabs).
fn trapped_lead_and_device(e_trap: f64, nb: usize, v: f64) -> ((ZMat, ZMat), BlockTridiag) {
    use omen::negf::sancho::{LEAD_NUDGE_FLOOR, MAX_LEAD_RETRIES};
    use omen::negf::transport::DEFAULT_ETA;
    let step = (4.0 * DEFAULT_ETA).max(LEAD_NUDGE_FLOOR);
    let ladder = (0..=MAX_LEAD_RETRIES).map(|r| {
        let sign = if r % 2 == 1 { 1.0 } else { -1.0 };
        e_trap + sign * r.div_ceil(2) as f64 * step
    });
    let traps: Vec<c64> = ladder.map(|level| c64::new(level, DEFAULT_ETA)).collect();
    let n = 1 + traps.len();
    let lead_00 = ZMat::from_diag(&[&[c64::ZERO], &traps[..]].concat());
    let hop = ZMat::from_fn(n, n, |i, j| c64::real(if i + j == 0 { -1.0 } else { 0.0 }));
    let slab = |onsite: f64| {
        ZMat::from_fn(n, n, |i, j| match (i, j) {
            (0, 0) => c64::real(onsite),
            _ if i == j => c64::real(5.0),
            _ => c64::ZERO,
        })
    };
    let diag = (0..nb)
        .map(|i| slab(if i == 0 || i == nb - 1 { 0.0 } else { v }))
        .collect();
    let device =
        BlockTridiag::from_dense(diag, vec![hop.clone(); nb - 1], vec![hop.clone(); nb - 1]);
    ((lead_00, hop), device)
}

#[test]
fn a_remembered_lead_failure_is_reported_alike_and_decimated_once() {
    use omen::core::ballistic::solve_sweep;
    use omen::core::contacts::ContactTable;
    use omen::core::{engine_point, Engine};
    use omen::negf::contacts::local_contacts;
    use omen::negf::transport::DEFAULT_ETA;
    use omen::num::OmenError;
    let _guard = COUNTER_LOCK.lock().unwrap();
    // Three "gate points" over one lead pair and one grid through one table:
    // each point's report is the cold sweep's — the same failed energy with
    // the same typed error — and after the first, the table decimates nothing
    // (no contact flops: the point costs its engine solves, the failed
    // energy nothing).
    let energies = omen::num::linspace(-0.5, 0.5, 5);
    let mut table = ContactTable::default();
    for (gate, v) in [-0.1, 0.0, 0.1].into_iter().enumerate() {
        let ((h00, h01), h) = trapped_lead_and_device(0.0, 4, v);
        let lead = (&h00, &h01);
        let (_, _, cold) = solve_sweep(
            &energies,
            &h,
            lead,
            lead,
            Engine::Rgf,
            &mut ContactTable::default(),
        );
        assert_eq!(cold.failed.len(), 1);
        assert_eq!(cold.failed[0].energy, 0.0);
        assert!(matches!(
            cold.failed[0].error,
            OmenError::SingularBlock { .. }
        ));

        let scope = FlopScope::new();
        let (_, _, warm) = solve_sweep(&energies, &h, lead, lead, Engine::Rgf, &mut table);
        let counted = scope.take();
        assert_eq!(warm, cold, "gate point {gate}");
        let tally = table.take_tally();
        let fresh = if gate == 0 { energies.len() } else { 0 };
        assert_eq!(
            (tally.decimated, tally.reused),
            (fresh, energies.len() - fresh)
        );
        if gate > 0 {
            let mut engine = 0;
            for &e in energies.iter().filter(|&&e| e != 0.0) {
                let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead, lead).expect("contacts");
                let scope = FlopScope::new();
                engine_point(e, &h, &[], &sl, &sr, Engine::Rgf).expect("RGF point");
                engine += scope.take();
            }
            assert_eq!(counted, engine, "gate point {gate}: contact flops");
        }
    }

    // A NaN entry never compares equal, so a poisoned lead never hits: each
    // sweep's fill decimates its every point and fails typed, as cold.
    let h00 = ZMat::from_diag(&[c64::new(f64::NAN, 0.0)]);
    let h01 = ZMat::from_diag(&[c64::real(-1.0)]);
    let h = BlockTridiag::from_dense(
        vec![h01.scaled(c64::ZERO); 3],
        vec![h01.clone(); 2],
        vec![h01.clone(); 2],
    );
    let lead = (&h00, &h01);
    for _ in 0..2 {
        let (_, _, cold) = solve_sweep(
            &energies,
            &h,
            lead,
            lead,
            Engine::Rgf,
            &mut ContactTable::default(),
        );
        let (_, _, warm) = solve_sweep(&energies, &h, lead, lead, Engine::Rgf, &mut table);
        assert_eq!(cold.failed.len(), energies.len());
        assert_eq!(warm, cold);
        let tally = table.take_tally();
        assert_eq!((tally.decimated, tally.reused), (energies.len(), 0));
    }
}

#[test]
fn pair_decimation_counts_one_decimation_and_one_inverse() {
    use omen::lattice::{Crystal, Device};
    use omen::negf::contacts::local_contacts;
    use omen::negf::sancho::surface_green_function_pair;
    use omen::negf::{surface_green_function, ContactSelfEnergy, Side};
    use omen::tb::{DeviceHamiltonian, Material, TbParams};
    let _guard = COUNTER_LOCK.lock().unwrap();
    // The README wire's lead. The pair runs the single decimation's loop
    // (the mirror surface ε costs uncounted adds) plus one LU and one
    // explicit inverse at the exit — exactly, on either dispatch path.
    let dev = Device::nanowire(Crystal::Zincblende { a: omen::num::A_SI }, 4, 1.0, 1.0);
    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let (h00, h01) = DeviceHamiltonian::new(&dev, p, false).lead_blocks(0.0, 0.0);
    let n = h00.nrows();
    assert_eq!(n, 32);
    let eta = omen::negf::transport::DEFAULT_ETA;
    for e in [-3.3, -3.0, -2.4] {
        let counted = |f: &dyn Fn()| {
            let scope = FlopScope::new();
            f();
            scope.take()
        };
        let single = counted(&|| {
            surface_green_function(e, eta, &h00, &h01, Side::Right).expect("right lead");
        });
        let pair = counted(&|| {
            surface_green_function_pair(e, eta, &h00, &h01).expect("lead pair");
        });
        assert_eq!(pair, single + lu_flops(n) + inverse_flops(n), "E={e}");

        // What the engines call: both contacts of an equal-lead device for
        // barely more than one of the two standalone computations.
        let two_singles = counted(&|| {
            for side in [Side::Left, Side::Right] {
                ContactSelfEnergy::compute(e, eta, &h00, &h01, side).expect("one lead");
            }
        });
        let contacts = counted(&|| {
            local_contacts(e, eta, (&h00, &h01), (&h00, &h01)).expect("contacts");
        });
        assert!(
            100 * contacts <= 52 * two_singles,
            "E={e}: pair {contacts} flops vs two singles {two_singles}"
        );
    }
}

/// The Hermitian eigensolver's algorithm run the plain way, tallying the
/// real flops of every loop where they happen (complex multiply-add = 8):
/// Householder tridiagonalization with the rank-2 update on one stored
/// triangle, then QL on `(d, e)`. The eigenvector work is tallied where it
/// would happen, not performed — each reflector of length `m` applied to
/// the `m` trailing rows of the unitary, each QL rotation to two of its
/// complex rows. Reads none of `omen::linalg::flops`' formulas. Returns the
/// ascending eigenvalues and the tallies `(eigenvalues only, with
/// eigenvectors)`.
fn tallied_eigh(h: &ZMat) -> (Vec<f64>, u64, u64) {
    let n = h.nrows();
    let (mut values, mut vectors) = (0u64, 0u64);
    let mut a = h.clone();
    let mut e = vec![0.0; n];
    for k in 0..n - 1 {
        let m = n - k - 1;
        let mut v: Vec<c64> = (k + 1..n).map(|j| a[(k, j)].conj()).collect();
        let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        e[k] = norm;
        if m == 1 || norm <= 0.0 {
            continue;
        }
        let alpha = v[0];
        let phase = if alpha.abs() > 0.0 {
            alpha.scale(1.0 / alpha.abs())
        } else {
            c64::ONE
        };
        v[0] = alpha + phase.scale(norm);
        let tau = 2.0 / v.iter().map(|z| z.norm_sqr()).sum::<f64>();
        let mut w = vec![c64::ZERO; m];
        for i in 0..m {
            for j in i..m {
                let aij = a[(k + 1 + i, k + 1 + j)];
                w[i] += aij * v[j];
                values += 8;
                if j > i {
                    w[j] += aij.conj() * v[i];
                    values += 8;
                }
            }
        }
        let vav: c64 = v.iter().zip(&w).map(|(&x, &y)| x.conj() * y).sum();
        for (wi, &vi) in w.iter_mut().zip(&v) {
            *wi = wi.scale(tau) - vi.scale(0.5 * tau * tau * vav.re);
        }
        values += 16 * m as u64;
        for i in 0..m {
            for j in i..m {
                a[(k + 1 + i, k + 1 + j)] -= v[i] * w[j].conj() + w[i] * v[j].conj();
                values += 16;
            }
        }
        // Accumulation: a dot product and an update per trailing row.
        vectors += 16 * (m * m) as u64;
    }
    // QL with implicit shifts on (d, e); `e[k]` couples k and k + 1.
    let mut d: Vec<f64> = (0..n).map(|i| a[(i, i)].re).collect();
    for l in 0..n {
        loop {
            let m = (l..n - 1)
                .find(|&m| e[m].abs() <= f64::EPSILON * (d[m].abs() + d[m + 1].abs()))
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            let g0 = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut g = d[m] - d[l] + e[l] / (g0 + g0.hypot(1.0).copysign(g0));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            for i in (l..m).rev() {
                let (f, b) = (s * e[i], c * e[i]);
                let r = f.hypot(g);
                e[i + 1] = r;
                (s, c) = (f / r, g / r);
                g = d[i + 1] - p;
                let t = (d[i] - g) * s + 2.0 * c * b;
                p = s * t;
                d[i + 1] = g + p;
                g = c * t - b;
                values += 18;
                // Two rows of n complex entries, each a pair of real
                // scalings and an add.
                vectors += 12 * n as u64;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(f64::total_cmp);
    (d, values, values + vectors)
}

#[test]
fn eigh_books_what_the_algorithm_runs() {
    use omen::linalg::{eigh, eigh_values};
    use omen::num::{tolerance::test_bound, BoundKind};
    let _guard = COUNTER_LOCK.lock().unwrap();
    let slack = test_bound("eigh.value_order", BoundKind::Absolute).expect("policy entry");
    for n in [8usize, 20, 32, 64, 90, 113] {
        let h = randmat(n, n, 40 + n as u64).hermitian_part();
        let (want, tally_values, tally_vectors) = tallied_eigh(&h);
        let scope = FlopScope::new();
        let got = eigh_values(&h);
        let booked_values = scope.take();
        let scope = FlopScope::new();
        let _ = eigh(&h);
        let booked_vectors = scope.take();
        // The tally ran the algorithm: same spectrum.
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() <= slack, "n={n}: {a} vs {b}");
        }
        // Eigenvalues only: the ledger books the reduction's cubic term,
        // (16/3)n³; what it leaves out — the linear terms of the rank-2
        // update and the QL sweeps on (d, e) — is O(n²), 25n² measured.
        let nn = (n * n) as u64;
        assert!(
            booked_values <= tally_values && tally_values - booked_values <= 30 * nn,
            "n={n}: tallied {tally_values}, booked {booked_values}"
        );
        // With eigenvectors the QL rotation count depends on the spectrum,
        // so the booked 25n³ is nominal: 24.6–27.5 n³ tallied here.
        assert!(
            20 * tally_vectors.abs_diff(booked_vectors) <= 3 * booked_vectors,
            "n={n}: tallied {tally_vectors}, booked {booked_vectors}"
        );
    }
}

#[test]
fn counter_is_race_free_under_concurrent_kernels() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // 8 threads hammer the counter with interleaved GEMMs and LUs; the
    // global delta must equal the exact sum of every kernel's report —
    // any lost update (a non-atomic read-modify-write) shows up as a
    // deficit here.
    const WORKERS: usize = 8;
    const REPS: usize = 10;
    let (m, k, n) = (17usize, 23usize, 13usize);
    let lu_n = 50usize; // blocked path, so its internal GEMM runs too
    let before = flop_count();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                let a = randmat(m, k, w as u64);
                let b = randmat(k, n, 100 + w as u64);
                let d = dd_mat(lu_n, 200 + w as u64);
                for _ in 0..REPS {
                    let mut c = ZMat::zeros(m, n);
                    gemm(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c);
                    let _ = Lu::factor(&d).expect("diagonally dominant");
                }
            });
        }
    });
    let delta = flop_count().wrapping_sub(before);
    let expected = (WORKERS * REPS) as u64 * (gemm_flops(m, n, k) + lu_flops(lu_n));
    assert_eq!(delta, expected);
}

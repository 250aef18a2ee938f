//! Voltage sweeps and figure-of-merit extraction.
//!
//! Every sweep owns one [`ContactTable`] for its curve: its leads' bands
//! and contacts and the device's `H₀` per momentum. The SCF sweeps solve
//! their bias points one after another, each warm-started from the last;
//! the frozen sweep hands all its gate points to `ballistic`'s one sweep
//! body as one problem each (one fill, one fan-out over `(gate, E)`) and
//! records each point, in gate order, as soon as its last energy is in.
//! Either way each point is numbered, logged and handed to the observer in
//! bias order.

use crate::ballistic::{ballistic_points, BallisticResult, Engine};
use crate::contacts::{ContactTable, ContactTally};
use crate::log::SweepSeq;
use crate::scf::{self_consistent, ScfOptions};
use crate::spec::{Bias, NanoTransistor};
use omen_num::SweepReport;

/// One point of an I–V characteristic.
#[derive(Debug, Clone, Copy)]
pub struct IvPoint {
    /// Gate voltage (V).
    pub v_gate: f64,
    /// Drain voltage (V).
    pub v_ds: f64,
    /// Drain current (µA).
    pub current_ua: f64,
    /// SCF iterations spent on this point.
    pub scf_iterations: usize,
    /// Whether the point converged.
    pub converged: bool,
}

/// One per-point progress observation streamed out of a sweep driver —
/// the same data the `OMEN_LOG` progress line of that point carries, in
/// typed form, so a service front-end (`omen-serve`) can forward it as a
/// progress frame that is cross-checkable against the log.
#[derive(Debug)]
pub struct PointProgress<'a> {
    /// Monotonic per-sweep sequence number (gapless from 0; failed points
    /// draw a number like any other — see [`SweepSeq`]).
    pub seq: u64,
    /// Canonical index of the bias point in the requested grid.
    pub index: usize,
    /// Total bias points in the sweep.
    pub total: usize,
    /// The solved point.
    pub point: &'a IvPoint,
    /// Energy-sweep fault ledger of this bias point (failed energy points
    /// surface here, not as a missing sequence number).
    pub report: &'a SweepReport,
    /// Contact pairs this point's solves decimated and reused from the
    /// curve's table.
    pub contacts: ContactTally,
}

/// Formats the `OMEN_LOG` progress line of one swept bias point. Shared by
/// the gate/drain/frozen drivers so every line carries the sequence number
/// in the same `seq=<n>/<total>` shape the streamed progress frames use.
fn point_line(kind: &str, prog: &PointProgress<'_>) -> String {
    format!(
        "iv {kind} point seq={}/{} V_G={:+.3} V_DS={:+.3}: I={:.4e} µA \
         ({} SCF iters, {}), energies: {}, contacts: {}",
        prog.seq,
        prog.total,
        prog.point.v_gate,
        prog.point.v_ds,
        prog.point.current_ua,
        prog.point.scf_iterations,
        if prog.point.converged {
            "converged"
        } else {
            "stalled"
        },
        prog.report,
        prog.contacts,
    )
}

/// What every sweep does with its solved bias points, in bias order:
/// numbers each, logs it with the contact tally of its solves and hands it
/// to the observer.
struct Curve<'a> {
    kind: &'a str,
    total: usize,
    seq: SweepSeq,
    observer: &'a mut dyn FnMut(PointProgress<'_>),
    points: Vec<IvPoint>,
}

impl<'a> Curve<'a> {
    fn new(kind: &'a str, total: usize, observer: &'a mut dyn FnMut(PointProgress<'_>)) -> Self {
        Curve {
            kind,
            total,
            seq: SweepSeq::new(),
            observer,
            points: Vec::with_capacity(total),
        }
    }

    /// The next bias point: its final transport, SCF iterations, whether
    /// it converged and the contacts its solves decimated and reused.
    fn record(
        &mut self,
        bias: &Bias,
        r: &BallisticResult,
        iters: usize,
        converged: bool,
        contacts: ContactTally,
    ) {
        let point = IvPoint {
            v_gate: bias.v_gate,
            v_ds: bias.v_ds,
            current_ua: r.current_ua,
            scf_iterations: iters,
            converged,
        };
        let prog = PointProgress {
            seq: self.seq.draw(),
            index: self.points.len(),
            total: self.total,
            point: &point,
            report: &r.report,
            contacts,
        };
        crate::log::emit(&point_line(self.kind, &prog));
        (self.observer)(prog);
        self.points.push(point);
    }
}

/// The SCF sweeps' bias loop: solves `biases` in order on the curve's one
/// [`ContactTable`], each point warm-started from the previous one's
/// potential, and records each point.
fn scf_sweep(
    kind: &str,
    tr: &mut NanoTransistor,
    biases: &[Bias],
    opts: &ScfOptions,
    observer: &mut dyn FnMut(PointProgress<'_>),
) -> Vec<IvPoint> {
    let mut table = ContactTable::default();
    let mut curve = Curve::new(kind, biases.len(), observer);
    let mut warm: Option<Vec<f64>> = None;
    for bias in biases {
        let r = self_consistent(tr, bias, opts, warm.as_deref(), &mut table);
        let tally = table.take_tally();
        curve.record(bias, &r.transport, r.iterations, r.converged, tally);
        warm = Some(r.v_grid);
    }
    curve.points
}

/// Sweeps the gate at fixed `v_ds`, warm-starting each point from the
/// previous one (the standard way a full Id–Vg is produced).
pub fn gate_sweep(
    tr: &mut NanoTransistor,
    v_gates: &[f64],
    v_ds: f64,
    mu_source: f64,
    opts: &ScfOptions,
) -> Vec<IvPoint> {
    gate_sweep_observed(tr, v_gates, v_ds, mu_source, opts, &mut |_| {})
}

/// [`gate_sweep`] with a per-point observer: after each bias point the
/// observer receives the [`PointProgress`] the driver also logs. The
/// observer runs on the solving thread, so it should hand the data off
/// (e.g. into a channel) rather than compute.
pub fn gate_sweep_observed(
    tr: &mut NanoTransistor,
    v_gates: &[f64],
    v_ds: f64,
    mu_source: f64,
    opts: &ScfOptions,
    observer: &mut dyn FnMut(PointProgress<'_>),
) -> Vec<IvPoint> {
    let biases = biases(v_gates, &[v_ds], mu_source);
    scf_sweep("gate", tr, &biases, opts, observer)
}

/// The bias points `v_gates × v_dss`, gate-major; every sweep holds one of
/// the two voltages fixed.
fn biases(v_gates: &[f64], v_dss: &[f64], mu_source: f64) -> Vec<Bias> {
    let at = |v_gate, v_ds| Bias {
        v_gate,
        v_ds,
        mu_source,
    };
    let pairs = |&v_gate: &f64| v_dss.iter().map(move |&v_ds| at(v_gate, v_ds));
    v_gates.iter().flat_map(pairs).collect()
}

/// Sweeps the drain at fixed `v_gate` (output characteristic).
pub fn drain_sweep(
    tr: &mut NanoTransistor,
    v_gate: f64,
    v_dss: &[f64],
    mu_source: f64,
    opts: &ScfOptions,
) -> Vec<IvPoint> {
    let biases = biases(&[v_gate], v_dss, mu_source);
    scf_sweep("drain", tr, &biases, opts, &mut |_| {})
}

/// Minimum subthreshold swing (mV/dec) over a transfer curve: the smallest
/// `ΔV_G / Δlog₁₀(I)` over adjacent points with increasing current.
pub fn subthreshold_swing(points: &[IvPoint]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.current_ua <= 0.0 || b.current_ua <= a.current_ua {
            continue;
        }
        let decades = (b.current_ua / a.current_ua).log10();
        if decades <= 1e-12 {
            continue;
        }
        let ss = (b.v_gate - a.v_gate) * 1e3 / decades;
        best = Some(match best {
            Some(v) => v.min(ss),
            None => ss,
        });
    }
    best
}

/// On/off current ratio over a sweep (max / min of positive currents).
pub fn on_off_ratio(points: &[IvPoint]) -> Option<f64> {
    let pos: Vec<f64> = points
        .iter()
        .map(|p| p.current_ua)
        .filter(|&i| i > 0.0)
        .collect();
    if pos.len() < 2 {
        return None;
    }
    let lo = pos.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = pos.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Some(hi / lo)
}

/// The frozen-field potential: the gate value on the channel atoms, zero on
/// the source/drain extensions.
pub fn frozen_potential(tr: &NanoTransistor, v_gate: f64) -> Vec<f64> {
    let lg_lo = tr.spec.source_slabs;
    let lg_hi = tr.spec.num_slabs - tr.spec.drain_slabs;
    tr.device
        .atoms
        .iter()
        .map(|a| {
            if a.slab >= lg_lo && a.slab < lg_hi {
                v_gate
            } else {
                0.0
            }
        })
        .collect()
}

/// A non-self-consistent transfer sweep: the gate directly shifts the
/// channel potential (frozen electrostatics). It is the daemon's
/// `mode = frozen` driver, and the cheap end of the tests and benches.
pub fn frozen_field_sweep(
    tr: &NanoTransistor,
    v_gates: &[f64],
    v_ds: f64,
    mu_source: f64,
    engine: Engine,
    n_energy: usize,
) -> Vec<IvPoint> {
    frozen_field_sweep_observed(tr, v_gates, v_ds, mu_source, engine, n_energy, &mut |_| {})
}

/// [`frozen_field_sweep`] with a per-point observer (see
/// [`gate_sweep_observed`] for the contract). This is the driver the
/// `omen-serve` daemon runs for `mode = frozen` jobs: each bias point is
/// logged with its sequence number and handed to the observer for
/// progress streaming. The source/drain extensions sit at zero potential
/// at every gate point, so the curve's table diagonalises the lead once,
/// assembles `H₀` once and decimates each energy of the shared grid once,
/// and every `(gate, E)` of the sweep is one unit of a single fan-out: each
/// gate point is one problem of `ballistic`'s sweep body, on slot 0. Each
/// point is integrated, logged and observed, in gate order, as soon as its
/// last energy is in; every point is the one-k
/// [`crate::ballistic::ballistic_solve`] bit for bit.
pub fn frozen_field_sweep_observed(
    tr: &NanoTransistor,
    v_gates: &[f64],
    v_ds: f64,
    mu_source: f64,
    engine: Engine,
    n_energy: usize,
    observer: &mut dyn FnMut(PointProgress<'_>),
) -> Vec<IvPoint> {
    let biases = biases(v_gates, &[v_ds], mu_source);
    let potentials: Vec<Vec<f64>> = (biases.iter())
        .map(|bias| frozen_potential(tr, bias.v_gate))
        .collect();
    let points: Vec<_> = (potentials.iter().zip(&biases))
        .map(|(v, bias)| (&v[..], bias, (0, 0.0)))
        .collect();
    let mut curve = Curve::new("frozen", biases.len(), observer);
    let table = &mut ContactTable::default();
    ballistic_points(tr, &points, engine, n_energy, table, |i, r, tally| {
        curve.record(&biases[i], &r, 0, true, tally)
    });
    curve.points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballistic::cold;
    use crate::spec::TransistorSpec;
    use omen_num::linspace;
    use omen_tb::Material;

    #[test]
    fn frozen_sweep_shows_transistor_action() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        // Wire band bottom is −3.53; μ = −3.45 puts the device slightly on
        // at V_G = 0 and the sweep straddles the off/on transition.
        let vgs = linspace(-0.2, 0.2, 9);
        let pts = frozen_field_sweep(&tr, &vgs, 0.15, -3.45, Engine::WfThomas, 41);
        let ratio = on_off_ratio(&pts).unwrap();
        assert!(ratio > 30.0, "on/off ratio {ratio}");
        let ss = subthreshold_swing(&pts).unwrap();
        assert!(
            ss > 40.0 && ss < 400.0,
            "SS {ss} mV/dec out of physical range"
        );
        // Current grows from the off end to the on end.
        assert!(pts.last().unwrap().current_ua > pts[0].current_ua);
    }

    #[test]
    fn frozen_sweep_observer_sequence_is_gapless() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let vgs = linspace(-0.1, 0.1, 5);
        let mut seen: Vec<(u64, usize, usize)> = Vec::new();
        let mut attempted = 0usize;
        let mut failed = 0usize;
        let pts = frozen_field_sweep_observed(
            &tr,
            &vgs,
            0.15,
            -3.45,
            Engine::WfThomas,
            21,
            &mut |prog| {
                seen.push((prog.seq, prog.index, prog.total));
                attempted += prog.report.attempted();
                failed += prog.report.failed.len();
            },
        );
        assert_eq!(pts.len(), vgs.len());
        // Sequence numbers are gapless from 0 and track the point index;
        // every observation reports the full sweep size.
        for (i, &(seq, index, total)) in seen.iter().enumerate() {
            assert_eq!(seq, i as u64);
            assert_eq!(index, i);
            assert_eq!(total, vgs.len());
        }
        assert_eq!(seen.len(), vgs.len());
        // A clean sweep attempts every energy point and fails none, so a
        // failed point would show in the ledger, not as a missing seq.
        assert!(attempted >= vgs.len() * 21);
        assert_eq!(failed, 0);
    }

    #[test]
    fn frozen_sweep_points_are_the_ballistic_solves() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let vgs = linspace(-0.1, 0.1, 3);
        let mut reports = Vec::new();
        let pts =
            frozen_field_sweep_observed(&tr, &vgs, 0.15, -3.45, Engine::Rgf, 21, &mut |prog| {
                reports.push(prog.report.clone())
            });
        for ((p, report), &vg) in pts.iter().zip(&reports).zip(&vgs) {
            let bias = Bias {
                v_gate: vg,
                v_ds: 0.15,
                mu_source: -3.45,
            };
            let want = cold(&tr, &frozen_potential(&tr, vg), &bias, Engine::Rgf, 21, 0.0);
            assert_eq!(p.current_ua.to_bits(), want.current_ua.to_bits());
            assert_eq!(report, &want.report);
        }

        // The report a point carries is `solve_sweep`'s, untouched. A
        // transistor's Hermitian H + iη is never exactly singular, so the
        // failed-entry order is pinned one level down, on a chain with two
        // provably singular grid energies: sites 2 and 4 are cut off from
        // both neighbours with levels ∓0.25.
        let (h, h00, h01) =
            crate::ballistic::severed_chain(7, &[(2, -0.25), (4, 0.25)], &[1, 2, 3, 4]);
        let energies = linspace(-0.5, 0.5, 5);
        let (kept, _, report) = crate::ballistic::solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::WfThomas,
            &mut ContactTable::default(),
        );
        assert_eq!(kept, vec![-0.5, 0.0, 0.5]);
        let failed: Vec<f64> = report.failed.iter().map(|f| f.energy).collect();
        assert_eq!(failed, vec![-0.25, 0.25], "failures in grid order");
    }

    /// The README wire: the single-band 1 nm nanowire, 8 slabs, undoped.
    fn readme_wire() -> NanoTransistor {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        spec.build()
    }

    #[test]
    fn a_frozen_sweep_is_its_gate_points_solved_cold_at_every_budget() {
        use omen_linalg::threads::with_budget;
        // Three gate points, each the one-k solve on a fresh table to the
        // bit — current and report — numbered in gate order. The README
        // wire's extensions keep their potential, so its points share the
        // leads: the first decimates the shared grid and the others reuse
        // it. A three-slab wire has no extension (the channel reaches both
        // terminal slabs), so each point brings its own leads and grid.
        // The fan-out's width is the budget (capped by the units), so
        // budgets 1–3 are widths 1–3.
        let mut short =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 3);
        short.doping_sd = 0.0;
        assert_eq!((short.source_slabs, short.drain_slabs), (0, 0));
        let (vgs, v_ds, mu, n_energy) = (linspace(-0.1, 0.1, 3), 0.15, -3.45, 21);
        let first = ContactTally {
            decimated: n_energy,
            reused: 0,
        };
        let later = ContactTally {
            decimated: 0,
            reused: n_energy,
        };
        for (tr, shared) in [(readme_wire(), true), (short.build(), false)] {
            for engine in [Engine::Rgf, Engine::WfThomas, Engine::WfBcr] {
                let want: Vec<_> = (vgs.iter().enumerate())
                    .map(|(i, &v_gate)| {
                        let bias = Bias {
                            v_gate,
                            v_ds,
                            mu_source: mu,
                        };
                        let v = frozen_potential(&tr, v_gate);
                        let r = cold(&tr, &v, &bias, engine, n_energy, 0.0);
                        let tally = if i == 0 || !shared { first } else { later };
                        (i as u64, i, r.current_ua.to_bits(), r.report, tally)
                    })
                    .collect();
                for cores in 1..=3 {
                    let mut seen = Vec::new();
                    let pts = with_budget(cores, || {
                        frozen_field_sweep_observed(
                            &tr,
                            &vgs,
                            v_ds,
                            mu,
                            engine,
                            n_energy,
                            &mut |p| {
                                let current = p.point.current_ua.to_bits();
                                seen.push((p.seq, p.index, current, p.report.clone(), p.contacts));
                            },
                        )
                    });
                    let what = format!("{engine:?} on budget {cores}, shared leads {shared}");
                    assert_eq!(seen, want, "{what}");
                    let currents: Vec<u64> = pts.iter().map(|p| p.current_ua.to_bits()).collect();
                    let want_currents: Vec<u64> = want.iter().map(|w| w.2).collect();
                    assert_eq!(currents, want_currents, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_curve_assembles_h_once_per_momentum_and_fans_its_gate_points_out_once() {
        use omen_linalg::threads::{fan_out_spawned, with_budget};
        use omen_tb::hamiltonian::assembled;
        // At budget 2 a frozen sweep of three gate points starts one worker
        // for the lead bands beside H₀, one for the fill of the shared grid
        // and one for all 3 × 21 (gate, E) units, where a loop over the
        // gate points would start one per point for its energies.
        let tr = readme_wire();
        let vgs = linspace(-0.1, 0.1, 3);
        let before = fan_out_spawned();
        with_budget(2, || {
            frozen_field_sweep(&tr, &vgs, 0.15, -3.45, Engine::Rgf, 21)
        });
        assert_eq!(fan_out_spawned() - before, 3);

        // At budget 1 everything runs on this thread, where the assemblies
        // are counted: one H₀ for the frozen curve ...
        let before = assembled();
        with_budget(1, || {
            frozen_field_sweep(&tr, &vgs, 0.15, -3.45, Engine::Rgf, 21)
        });
        assert_eq!(assembled() - before, 1, "frozen");

        // ... and one per momentum for an SCF curve, whatever its
        // iterations: the UTB film at n_k = 2 over two gate points.
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.geometry = crate::spec::Geometry::Utb { cells: 1, h: 1.0 };
        spec.doping_sd = 2e-3;
        let opts = ScfOptions {
            n_energy: 11,
            n_k: 2,
            max_iter: 4,
            ..ScfOptions::default()
        };
        let before = assembled();
        let pts = with_budget(1, || {
            gate_sweep(&mut spec.build(), &[0.0, 0.1], 0.2, -3.2, &opts)
        });
        assert!(
            pts.iter().map(|p| p.scf_iterations).sum::<usize>() > 2,
            "{pts:?}"
        );
        assert_eq!(assembled() - before, 2, "SCF, two momenta");

        // A bias point's momenta are one fill and one fan-out too: on the
        // UTB film at n_k = 2 and 3, budget 2 starts one worker per k for
        // its lead bands beside H₀, one for the fill and one for every
        // (k, E), and every budget gives the per-k cold solves folded in k
        // order, bit for bit.
        use crate::ballistic::{ballistic_solve, momentum_grid};
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.geometry = crate::spec::Geometry::Utb { cells: 1, h: 1.0 };
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let v = frozen_potential(&tr, 0.05);
        let bias = Bias {
            v_gate: 0.05,
            v_ds: 0.2,
            mu_source: -3.2,
        };
        let (engine, n_energy) = (Engine::WfThomas, 11);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fingerprint = |r: &BallisticResult| {
            let fields = [&r.energies, &r.transmission];
            let densities = [&r.electron_density, &r.hole_density];
            let all = fields.into_iter().chain(densities).map(|x| bits(x));
            (
                r.current_ua.to_bits(),
                all.collect::<Vec<_>>(),
                r.report.clone(),
            )
        };
        for n_k in [2, 3] {
            let ks = momentum_grid(&tr, n_k);
            let colds: Vec<BallisticResult> = (ks.iter())
                .map(|&(ky, _)| cold(&tr, &v, &bias, engine, n_energy, ky))
                .collect();
            let weighted = |field: fn(&BallisticResult) -> &Vec<f64>| -> Vec<f64> {
                (0..field(&colds[0]).len())
                    .map(|i| {
                        (ks.iter().zip(&colds))
                            .map(|(&(_, w), r)| w * field(r)[i])
                            .sum()
                    })
                    .collect()
            };
            let mut report = colds[0].report.clone();
            for r in &colds[1..] {
                report.merge(&r.report);
            }
            // The windows follow the k-resolved subbands, so T(E) is the
            // first k's trace on its grid.
            assert_ne!(colds[0].energies, colds[1].energies);
            let want = fingerprint(&BallisticResult {
                energies: colds[0].energies.clone(),
                transmission: colds[0].transmission.clone(),
                current_ua: (ks.iter().zip(&colds))
                    .map(|(&(_, w), r)| w * r.current_ua)
                    .sum(),
                electron_density: weighted(|r| &r.electron_density),
                hole_density: weighted(|r| &r.hole_density),
                report,
            });
            for cores in 1..=3 {
                let spawned = fan_out_spawned();
                let got = with_budget(cores, || {
                    let mut table = ContactTable::default();
                    ballistic_solve(&tr, &v, &bias, engine, n_energy, &ks, &mut table)
                });
                assert_eq!(fingerprint(&got), want, "n_k = {n_k}, budget {cores}");
                if cores == 2 {
                    let workers = fan_out_spawned() - spawned;
                    assert_eq!(workers, n_k + 2, "n_k = {n_k}: bands, one fill, one points");
                }
            }
        }
    }

    #[test]
    fn drain_sweep_on_the_flat_wire() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.doping_sd = 0.0;
        let opts = ScfOptions {
            n_energy: 15,
            tol_v: 5e-3,
            ..ScfOptions::default()
        };
        let v_dss = [0.0, 0.1, 0.2];
        let pts = drain_sweep(&mut spec.clone().build(), 0.0, &v_dss, -3.2, &opts);
        assert_eq!(pts.len(), v_dss.len());
        assert!(pts.iter().all(|p| p.converged), "{pts:?}");
        assert!(pts[0].current_ua.abs() < 1e-10, "I(V_DS = 0) = {pts:?}");
        assert!(
            pts.windows(2).all(|w| w[1].current_ua >= w[0].current_ua),
            "current must not fall with V_DS: {pts:?}"
        );

        // The drain sweep is the gate sweep's loop on other biases: the
        // same points (checked on a prefix, which warm-starts identically)
        // and log lines numbered `seq=0/N`, `seq=1/N`, … without a gap.
        let biases: Vec<Bias> = v_dss[..2]
            .iter()
            .map(|&v_ds| Bias {
                v_gate: 0.0,
                v_ds,
                mu_source: -3.2,
            })
            .collect();
        let mut lines = Vec::new();
        let again = scf_sweep("drain", &mut spec.build(), &biases, &opts, &mut |prog| {
            lines.push(point_line("drain", &prog))
        });
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("iv drain point seq={i}/2 ")),
                "{line}"
            );
        }
        for (a, b) in pts.iter().zip(&again) {
            assert_eq!(a.current_ua.to_bits(), b.current_ua.to_bits());
        }
    }

    #[test]
    fn a_point_reports_the_contacts_its_solves_decimated() {
        // SCF: the leads float with the potential, so every solve of every
        // point decimates its whole grid and nothing is reused.
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.doping_sd = 0.0;
        let opts = ScfOptions {
            n_energy: 15,
            tol_v: 5e-3,
            ..ScfOptions::default()
        };
        let mut tallies = Vec::new();
        let pts = gate_sweep_observed(&mut spec.build(), &[0.0, 0.1], 0.1, -3.2, &opts, &mut |p| {
            tallies.push(p.contacts)
        });
        assert_eq!(tallies.len(), 2);
        for (p, tally) in pts.iter().zip(&tallies) {
            assert!(p.converged && p.scf_iterations > 1, "{p:?}");
            let decimated = p.scf_iterations * opts.n_energy;
            assert_eq!(
                *tally,
                ContactTally {
                    decimated,
                    reused: 0
                }
            );
        }

        // Frozen: the gate points share their leads and their grid, so the
        // points after the first decimate nothing.
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        let (vgs, n_energy) = (linspace(-0.1, 0.1, 3), 21);
        let mut tallies = Vec::new();
        let tr = spec.build();
        frozen_field_sweep_observed(&tr, &vgs, 0.15, -3.45, Engine::Rgf, n_energy, &mut |p| {
            tallies.push(p.contacts)
        });
        let first = ContactTally {
            decimated: n_energy,
            reused: 0,
        };
        let later = ContactTally {
            decimated: 0,
            reused: n_energy,
        };
        assert_eq!(tallies, [first, later, later]);

        // The daemon's k-grid request (a UTB film, 11 energies): its first
        // point stalls at `max_iter` and ends on one more solve, so the
        // second point starts by repeating that solve — same potential,
        // same leads — and finds every k's grid in that k's slot. At
        // n_k = 2 the second point reads 550 decimated / 22 reused.
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.geometry = crate::spec::Geometry::Utb { cells: 1, h: 1.0 };
        spec.doping_sd = 2e-3;
        for n_k in [1, 2] {
            let opts = ScfOptions {
                n_energy: 11,
                n_k,
                ..ScfOptions::default()
            };
            let mut tallies = Vec::new();
            let pts =
                gate_sweep_observed(&mut spec.build(), &[0.0, 0.1], 0.2, -3.2, &opts, &mut |p| {
                    tallies.push(p.contacts)
                });
            assert!(!pts[0].converged, "{pts:?}");
            let grid = n_k * opts.n_energy;
            let pairs = |p: &IvPoint| (p.scf_iterations + usize::from(!p.converged)) * grid;
            let want = [
                ContactTally {
                    decimated: pairs(&pts[0]),
                    reused: 0,
                },
                ContactTally {
                    decimated: pairs(&pts[1]) - grid,
                    reused: grid,
                },
            ];
            assert_eq!(tallies, want, "n_k = {n_k}: {pts:?}");
        }
    }

    #[test]
    fn subthreshold_swing_of_ideal_thermionic_curve() {
        // I ∝ exp(V/kT): SS must be ≈ 59.6 mV/dec at 300 K.
        let kt = omen_num::KT_ROOM;
        let pts: Vec<IvPoint> = (0..10)
            .map(|i| {
                let v = i as f64 * 0.02;
                IvPoint {
                    v_gate: v,
                    v_ds: 0.1,
                    current_ua: (v / kt).exp(),
                    scf_iterations: 0,
                    converged: true,
                }
            })
            .collect();
        let ss = subthreshold_swing(&pts).unwrap();
        assert!((ss - 59.6).abs() < 0.5, "SS {ss}");
    }

    #[test]
    fn swing_none_for_flat_curve() {
        let pts: Vec<IvPoint> = (0..5)
            .map(|i| IvPoint {
                v_gate: i as f64 * 0.1,
                v_ds: 0.1,
                current_ua: 1.0,
                scf_iterations: 0,
                converged: true,
            })
            .collect();
        assert!(subthreshold_swing(&pts).is_none());
    }
}

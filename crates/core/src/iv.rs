//! Voltage sweeps and figure-of-merit extraction.

use crate::ballistic::{ballistic_solve_remembering, Engine};
use crate::energy::{ContactMemo, LeadBandsMemo};
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
}

/// Formats the `OMEN_LOG` progress line of one swept bias point. Shared by
/// the gate/drain/frozen drivers so every line carries the sequence number
/// in the same `seq=<n>/<total>` shape the streamed progress frames use.
fn point_line(kind: &str, prog: &PointProgress<'_>) -> String {
    format!(
        "iv {kind} point seq={}/{} V_G={:+.3} V_DS={:+.3}: I={:.4e} µA \
         ({} SCF iters, {}), energies: {}",
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
    )
}

/// The SCF bias loop behind the gate and drain sweeps: solves `biases` in
/// order, warm-starting each point from the previous one's potential, and
/// logs every point before handing it to the observer.
fn scf_sweep(
    kind: &str,
    tr: &mut NanoTransistor,
    biases: &[Bias],
    opts: &ScfOptions,
    observer: &mut dyn FnMut(PointProgress<'_>),
) -> Vec<IvPoint> {
    let mut out = Vec::with_capacity(biases.len());
    let mut warm: Option<Vec<f64>> = None;
    let mut seq = SweepSeq::new();
    for (index, bias) in biases.iter().enumerate() {
        let r = self_consistent(tr, bias, opts, warm.as_deref());
        let point = IvPoint {
            v_gate: bias.v_gate,
            v_ds: bias.v_ds,
            current_ua: r.transport.current_ua,
            scf_iterations: r.iterations,
            converged: r.converged,
        };
        let prog = PointProgress {
            seq: seq.draw(),
            index,
            total: biases.len(),
            point: &point,
            report: &r.transport.report,
        };
        crate::log::emit(&point_line(kind, &prog));
        observer(prog);
        out.push(point);
        warm = Some(r.v_grid);
    }
    out
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
    let biases: Vec<Bias> = v_gates
        .iter()
        .map(|&v_gate| Bias {
            v_gate,
            v_ds,
            mu_source,
        })
        .collect();
    scf_sweep("gate", tr, &biases, opts, observer)
}

/// Sweeps the drain at fixed `v_gate` (output characteristic).
pub fn drain_sweep(
    tr: &mut NanoTransistor,
    v_gate: f64,
    v_dss: &[f64],
    mu_source: f64,
    opts: &ScfOptions,
) -> Vec<IvPoint> {
    let biases: Vec<Bias> = v_dss
        .iter()
        .map(|&v_ds| Bias {
            v_gate,
            v_ds,
            mu_source,
        })
        .collect();
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

/// A cheap non-self-consistent transfer sweep: the gate directly shifts the
/// channel potential (frozen electrostatics). Used by unit tests and as a
/// fast preview mode.
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
/// progress streaming.
pub fn frozen_field_sweep_observed(
    tr: &NanoTransistor,
    v_gates: &[f64],
    v_ds: f64,
    mu_source: f64,
    engine: Engine,
    n_energy: usize,
    observer: &mut dyn FnMut(PointProgress<'_>),
) -> Vec<IvPoint> {
    let mut seq = SweepSeq::new();
    let mut out = Vec::with_capacity(v_gates.len());
    // The source/drain extensions sit at zero potential at every gate
    // point: one set of lead blocks, one band diagonalisation per sweep,
    // one decimation per energy of the shared grid.
    let mut bands = LeadBandsMemo::default();
    let mut contacts = ContactMemo::default();
    for (index, &vg) in v_gates.iter().enumerate() {
        let v_atoms = frozen_potential(tr, vg);
        let bias = Bias {
            v_gate: vg,
            v_ds,
            mu_source,
        };
        let r = ballistic_solve_remembering(
            tr,
            &v_atoms,
            &bias,
            engine,
            n_energy,
            0.0,
            &mut bands,
            Some(&mut contacts),
        );
        let point = IvPoint {
            v_gate: vg,
            v_ds,
            current_ua: r.current_ua,
            scf_iterations: 0,
            converged: true,
        };
        let prog = PointProgress {
            seq: seq.draw(),
            index,
            total: v_gates.len(),
            point: &point,
            report: &r.report,
        };
        crate::log::emit(&format!(
            "{}, contacts: {}",
            point_line("frozen", &prog),
            contacts.take_tally()
        ));
        observer(prog);
        out.push(point);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballistic::ballistic_solve;
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
            let want =
                ballistic_solve(&tr, &frozen_potential(&tr, vg), &bias, Engine::Rgf, 21, 0.0);
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
            None,
        );
        assert_eq!(kept, vec![-0.5, 0.0, 0.5]);
        let failed: Vec<f64> = report.failed.iter().map(|f| f.energy).collect();
        assert_eq!(failed, vec![-0.25, 0.25], "failures in grid order");
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

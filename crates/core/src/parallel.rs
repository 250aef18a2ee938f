//! Hierarchical rank decomposition: bias × momentum × energy × space.
//!
//! Mirrors the communicator layout that carried the original simulator to
//! 221k cores: the world communicator splits into bias groups, each bias
//! group into momentum (k-point) groups, each of those into energy groups,
//! and the ranks inside one energy group cooperate on the *spatial* solve
//! of each energy point through the SplitSolve backend. All data movement
//! — result reductions across levels included — runs over `omen-parsim`
//! and is therefore measured, not modeled.

use crate::ballistic::Engine;
use crate::spec::NanoTransistor;
use omen_linalg::ZMat;
use omen_negf::distributed_contacts;
use omen_negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen_num::{FailedPoint, OmenError, OmenResult, SweepReport};
use omen_parsim::{Comm, RankCtx};
use omen_sched::{
    dynamic_sweep, proto, CostModel, ModelBank, SchedOptions, SchedStats, SweepOutcome,
};
use omen_sparse::BlockTridiag;
use omen_wf::Solver;

/// Rank counts per parallel level; the product must equal the world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Independent bias-point groups.
    pub bias: usize,
    /// Momentum (transverse k) groups per bias group.
    pub momentum: usize,
    /// Energy groups per momentum group.
    pub energy: usize,
    /// Ranks per energy group cooperating spatially (SplitSolve).
    pub spatial: usize,
}

impl LevelConfig {
    /// Total ranks required.
    pub fn total(&self) -> usize {
        self.bias * self.momentum * self.energy * self.spatial
    }
}

/// The communicator stack of one rank.
pub struct LevelComms<'a> {
    /// Peers sharing my bias point (all levels below bias).
    pub bias_group: Comm<'a>,
    /// Peers sharing my k-point.
    pub momentum_group: Comm<'a>,
    /// Peers sharing my energy subset (spatial collaborators).
    pub spatial_group: Comm<'a>,
    /// My bias-group index.
    pub bias_index: usize,
    /// My momentum-group index within the bias group.
    pub momentum_index: usize,
    /// My energy-group index within the momentum group.
    pub energy_index: usize,
}

/// Splits the world communicator according to `cfg`.
///
/// # Errors
///
/// Propagates the communicator-split collective failures: a rank whose
/// split schedule diverged returns [`omen_num::OmenError::ScheduleDivergence`],
/// a dead peer surfaces as [`omen_num::OmenError::RecvTimeout`].
pub fn split_levels<'a>(ctx: &'a RankCtx, cfg: &LevelConfig) -> OmenResult<LevelComms<'a>> {
    assert_eq!(
        ctx.size(),
        cfg.total(),
        "world size must match the level product"
    );
    let world = Comm::world(ctx);
    let r = ctx.rank();
    let per_bias = cfg.momentum * cfg.energy * cfg.spatial;
    let per_mom = cfg.energy * cfg.spatial;
    let per_energy = cfg.spatial;

    let bias_index = r / per_bias;
    let bias_group = world.split(bias_index as u64, r as u64)?;
    let momentum_index = (r % per_bias) / per_mom;
    let momentum_group = bias_group.split(momentum_index as u64, r as u64)?;
    let energy_index = (r % per_mom) / per_energy;
    let spatial_group = momentum_group.split(energy_index as u64, r as u64)?;
    Ok(LevelComms {
        bias_group,
        momentum_group,
        spatial_group,
        bias_index,
        momentum_index,
        energy_index,
    })
}

/// Round-robin assignment of `n_items` over `n_groups`; returns the item
/// indices of `group`.
pub fn assign(n_items: usize, n_groups: usize, group: usize) -> Vec<usize> {
    (0..n_items).filter(|i| i % n_groups == group).collect()
}

/// Which distribution strategy drives a distributed sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Schedule {
    /// The fixed round-robin partition via [`assign`]: zero scheduling
    /// traffic, but one slow point idles its whole group.
    #[default]
    Static,
    /// Pull-based self-scheduling through `omen-sched`: a coordinator
    /// hands out cost-ordered chunks on demand, reclaims what a dead
    /// worker held, and merges results in canonical order — values
    /// bit-identical to [`Schedule::Static`].
    Dynamic(SchedOptions),
}

/// The full result of a distributed transmission sweep, identical on every
/// participating rank.
#[derive(Debug, Clone)]
pub struct TransmissionSweep {
    /// `T(E)` on the complete energy grid; abandoned points hold `0.0`
    /// (their typed errors live in `report.failed`).
    pub transmission: Vec<f64>,
    /// Per-point solve/retry/failure accounting, failures in grid order.
    pub report: SweepReport,
    /// Scheduler diagnostics when the sweep ran dynamically.
    pub sched: Option<SchedStats>,
}

/// Whether an error is a communicator/runtime fault that must propagate
/// (the SPMD schedule can no longer be trusted), as opposed to a per-point
/// solver failure that the sweep isolates.
fn is_comm_fault(e: &OmenError) -> bool {
    matches!(
        e,
        OmenError::RecvTimeout { .. }
            | OmenError::ChannelClosed { .. }
            | OmenError::ScheduleDivergence { .. }
            | OmenError::RankFailed { .. }
            | OmenError::Deserialize { .. }
    )
}

/// Exchanges per-group failure lists over `comm` so every member returns
/// the identical ledger: one allgather of the contributors' blobs, merged
/// in rank order and sorted by energy on every member. The collective runs
/// unconditionally — only the *payload* depends on `contribute` — so the
/// SPMD schedule never diverges.
fn exchange_failures(
    comm: &Comm<'_>,
    contribute: bool,
    local: &[FailedPoint],
) -> OmenResult<Vec<FailedPoint>> {
    let payload = if contribute {
        proto::encode_failures(local, comm.global_rank(comm.rank()))
    } else {
        Vec::new()
    };
    let mut all = Vec::new();
    for blob in comm.allgather(payload)?.iter().filter(|b| !b.is_empty()) {
        all.extend(proto::decode_failures(blob)?);
    }
    all.sort_by(|a, b| a.energy.total_cmp(&b.energy));
    Ok(all)
}

/// Reduces one level's partial sweep over `comm` so every member returns
/// the identical result. One allreduce carries the transmission and the
/// integer counters; only `contribute` members add their values (the rest
/// add exact zeros), so each point is counted exactly once and the sum is
/// exact — with a single contributor per point the reduced vector is
/// bit-identical to the serial sweep. The failure ledgers follow through
/// [`exchange_failures`].
fn reduce_level(
    comm: &Comm<'_>,
    contribute: bool,
    partial: Vec<f64>,
    local: &SweepReport,
    sched: Option<SchedStats>,
) -> OmenResult<TransmissionSweep> {
    let n = partial.len();
    let mut v = if contribute { partial } else { vec![0.0; n] };
    for c in [local.solved, local.retried, local.recovered] {
        v.push(if contribute { c as f64 } else { 0.0 });
    }
    let red = comm.allreduce_sum(&v)?;
    let failed = exchange_failures(comm, contribute, &local.failed)?;
    let mut report = SweepReport {
        solved: red[n].round() as usize,
        retried: red[n + 1].round() as usize,
        recovered: red[n + 2].round() as usize,
        failed: Vec::new(),
    };
    for f in failed {
        report.record_failed(f.energy, f.error);
    }
    Ok(TransmissionSweep {
        transmission: red[..n].to_vec(),
        report,
        sched,
    })
}

/// Rebuilds the static-schedule view of the contiguous unit range `units`
/// from a dynamic outcome. Payloads are `[T, solver retries]`, so the
/// report counts solver retries like the static leg (the scheduler's own
/// report counts *re-issues*); an unresolved unit takes its typed ledger
/// entry, which the scheduler records in ascending unit order.
fn sweep_from_outcome(outcome: &SweepOutcome, units: std::ops::Range<usize>) -> TransmissionSweep {
    let mut next_fail = outcome.values[..units.start]
        .iter()
        .filter(|slot| slot.is_none())
        .count();
    let mut transmission = vec![0.0; units.len()];
    let mut report = SweepReport::default();
    for (t, slot) in transmission.iter_mut().zip(&outcome.values[units]) {
        match slot {
            Some(p) => {
                *t = p[0];
                report.record_solved(p[1] as usize);
            }
            None => {
                let f = &outcome.report.failed[next_fail];
                report.record_failed(f.energy, f.error.clone());
                next_fail += 1;
            }
        }
    }
    TransmissionSweep {
        transmission,
        report,
        sched: None,
    }
}

/// Distributed transmission sweep over one bias point: the energy groups of
/// this momentum group split the grid (statically via [`assign`] or
/// dynamically via `omen-sched` per `schedule`), each energy point is
/// solved with SplitSolve across the spatial group, and the full `T(E)`
/// vector is reduced over the momentum group. Every rank returns the
/// complete result.
///
/// A point whose solve fails with a typed solver error is *isolated*: its
/// transmission stays `0.0` and the failure is recorded in the returned
/// report on every rank, instead of aborting the group. SplitSolve's
/// per-level status exchange guarantees the error is identical on every
/// rank of the spatial group, so the SPMD control flow (including the
/// reductions below) never diverges.
///
/// [`Schedule::Dynamic`] requires `spatial == 1` (each worker must solve a
/// point alone); other layouts log a note and fall back to the static
/// schedule.
///
/// # Errors
///
/// Returns a communicator fault
/// ([`omen_num::OmenError::ScheduleDivergence`],
/// [`omen_num::OmenError::RecvTimeout`], [`omen_num::OmenError::RankFailed`])
/// from the collectives or the scheduler protocol.
pub fn parallel_transmission(
    comms: &LevelComms<'_>,
    cfg: &LevelConfig,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    energies: &[f64],
    schedule: Schedule,
) -> OmenResult<TransmissionSweep> {
    if let Schedule::Dynamic(opts) = schedule {
        if cfg.spatial == 1 {
            return dynamic_transmission(comms, h, lead_l, lead_r, energies, &opts);
        }
        crate::log::emit(&format!(
            "sched: dynamic schedule requires spatial == 1 (got {}), \
             falling back to static",
            cfg.spatial
        ));
    }
    static_transmission(comms, cfg, h, lead_l, lead_r, energies)
}

fn static_transmission(
    comms: &LevelComms<'_>,
    cfg: &LevelConfig,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    energies: &[f64],
) -> OmenResult<TransmissionSweep> {
    let n = energies.len();
    let mine = assign(n, cfg.energy, comms.energy_index);
    let mut partial = vec![0.0; n];
    let mut local = SweepReport::default();
    for &ie in &mine {
        match rank_point(comms, energies[ie], h, lead_l, lead_r) {
            Ok(d) => {
                local.record_solved(d.retries);
                partial[ie] = d.transmission;
            }
            Err(e) if is_comm_fault(&e) => return Err(e),
            Err(e) => local.record_failed(energies[ie], e),
        }
    }
    // Only the spatial root of each energy group contributes, so there is
    // no 1/spatial scaling error.
    let sroot = comms.spatial_group.rank() == 0;
    reduce_level(&comms.momentum_group, sroot, partial, &local, None)
}

/// One energy point on this rank's spatial group — the rank-parallel twin
/// of [`crate::ballistic::solve_point`]: each distinct lead decimated once
/// across the group, then the wave-function engine over SplitSolve. All
/// members of the group call collectively and return the same value, which
/// is `solve_point(.., Engine::WfBcr)` bit for bit at every group size.
fn rank_point(
    comms: &LevelComms<'_>,
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<EnergyPointData> {
    let group = &comms.spatial_group;
    let (sigma_l, sigma_r) = distributed_contacts(group, e, DEFAULT_ETA, lead_l, lead_r)?;
    let solver = Solver::SplitSolve(group);
    omen_wf::wf_point(e, DEFAULT_ETA, h, &sigma_l, &sigma_r, solver)
}

/// One scheduler unit: the point the static leg runs, as the
/// `[T, solver retries]` payload [`sweep_from_outcome`] reads back.
fn solve_unit(
    comms: &LevelComms<'_>,
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<Vec<f64>> {
    let d = rank_point(comms, e, h, lead_l, lead_r)?;
    Ok(vec![d.transmission, d.retries as f64])
}

fn dynamic_transmission(
    comms: &LevelComms<'_>,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    energies: &[f64],
    opts: &SchedOptions,
) -> OmenResult<TransmissionSweep> {
    let comm = &comms.momentum_group;
    let mut model = CostModel::band_edge(energies.len(), 2.0);
    let outcome = dynamic_sweep(comm, energies, &mut model, opts, |id| {
        solve_unit(comms, energies[id], h, lead_l, lead_r)
    })?;
    if comm.rank() == 0 {
        crate::log::emit(&format!(
            "sched dynamic sweep: {} units in {} chunks, reclaimed {}, \
             {} stale msgs, imbalance {:.2}",
            outcome.stats.units,
            outcome.stats.chunks,
            outcome.stats.reissued_failed,
            outcome.stats.stale_msgs,
            outcome.stats.imbalance(),
        ));
    }
    let mut sweep = sweep_from_outcome(&outcome, 0..energies.len());
    sweep.sched = Some(outcome.stats);
    Ok(sweep)
}

/// One unified dynamic dataflow across every momentum group of a bias
/// point: a single [`dynamic_sweep`] over the bias group brokers the full
/// `k × E` unit grid, so a rank whose k-group drains early steals units
/// from a loaded one instead of idling at the gather barrier, and the
/// coordinator rank solves units between brokering rounds.
///
/// Bit-identity with the static nested split is by construction: the
/// solve closure is the *same* pure per-(k, E) splitsolve the static leg
/// runs, the canonical-order merge hands every member the identical
/// value table, and each rank then rebuilds exactly the per-k curves its
/// momentum group would have produced (the static leg's momentum-level
/// allreduce is a bit-exact identity: one non-zero contributor per
/// energy plus exact zeros) before replaying the static leg's bias-group
/// reduction and failure exchange verbatim.
#[allow(clippy::too_many_arguments)]
fn whole_curve_dynamic(
    comms: &LevelComms<'_>,
    system_of: &impl Fn(f64) -> (BlockTridiag, ZMat, ZMat),
    kys: &[(f64, f64)],
    energies: &[f64],
    opts: &SchedOptions,
    bank: &mut ModelBank,
    bias_step: usize,
    mine: &[usize],
) -> OmenResult<(Vec<TransmissionSweep>, Option<SchedStats>)> {
    let n_e = energies.len();
    let nk = kys.len();
    // Sweep-lifetime cost model: one ledger over the unit grid
    // `id = ik * n_e + ie`, checked out of the bank (hit → warm →
    // band-edge seed).
    let mut model = bank.checkout(bias_step, nk * n_e, || {
        CostModel::band_edge_grid(nk, n_e, 2.0)
    });
    let stamps: Vec<f64> = (0..nk * n_e).map(|id| energies[id % n_e]).collect();
    // One k-point system per rank, rebuilt whenever the next unit belongs
    // to another k. LPT order interleaves k, so that is most units (76–82
    // rebuilds per 96-unit sweep on 2 ranks); k-coherent hand-outs are
    // ROADMAP item 6(c).
    let mut cached: Option<(usize, (BlockTridiag, ZMat, ZMat))> = None;
    let outcome = dynamic_sweep(&comms.bias_group, &stamps, &mut model, opts, |id| {
        let ik = id / n_e;
        if cached.as_ref().map(|c| c.0) != Some(ik) {
            cached = Some((ik, system_of(kys[ik].0)));
        }
        let (_, (h, h00, h01)) = cached.as_ref().expect("cached above");
        solve_unit(comms, energies[id % n_e], h, (h00, h01), (h00, h01))
    })?;
    bank.commit(bias_step, model);
    // Rebuild the per-k sweeps my momentum group owns, exactly as the
    // static leg's momentum-level reduction would have produced them.
    let sweeps = mine
        .iter()
        .map(|&ik| sweep_from_outcome(&outcome, ik * n_e..(ik + 1) * n_e))
        .collect();
    if comms.bias_group.rank() == 0 {
        crate::log::emit(&format!(
            "sched iv sweep: {} k × {} E units in {} chunks, coordinator solved {}, \
             reclaimed {}, imbalance {:.2}",
            nk,
            n_e,
            outcome.stats.chunks,
            outcome.stats.coordinator_units,
            outcome.stats.reissued_failed,
            outcome.stats.imbalance(),
        ));
    }
    Ok((sweeps, Some(outcome.stats)))
}

/// Momentum-resolved distributed sweep: the momentum groups of this bias
/// group split the `(k_y, weight)` list statically and the weighted
/// k-average of `T(E)` is reduced over the bias group. Under
/// [`Schedule::Static`] (or whenever `cfg.spatial > 1`) each group runs a
/// per-k [`parallel_transmission`] energy sweep; under
/// [`Schedule::Dynamic`] with `cfg.spatial == 1` the whole `k × E` grid
/// becomes one bias-group-wide dataflow (`whole_curve_dynamic`) with
/// cross-momentum work stealing and a solving coordinator, bit-identical
/// to the static nested split.
///
/// **Momentum-level fault isolation**: a k-point whose *entire* energy
/// sweep failed contributes one recorded [`FailedPoint`] (stamped with
/// `k_y` in the energy field) and is excluded from the bias-group
/// reduction; partially failed k-points keep their per-energy entries.
/// Neither case fails the bias group.
///
/// **Cost-model persistence**: the dynamic dataflow checks the bias step's
/// cost model out of `bank` before the sweep and commits the measured
/// ledger back afterwards. Pass the same bank across SCF outer iterations
/// and bias points (`bias_step` is the bank's bias key, e.g. the I–V point
/// index) so from the second step onward every sweep is LPT-scheduled over
/// *measured* costs instead of band-edge seeds; a one-off sweep passes a
/// fresh bank. The bank never changes values — only execution order.
///
/// # Errors
///
/// Returns communicator faults from the collectives or the scheduler
/// protocol; per-point and per-k solver failures are isolated into the
/// report instead.
#[allow(clippy::too_many_arguments)]
pub fn parallel_transmission_k_banked(
    comms: &LevelComms<'_>,
    cfg: &LevelConfig,
    system_of: impl Fn(f64) -> (BlockTridiag, ZMat, ZMat),
    kys: &[(f64, f64)],
    energies: &[f64],
    schedule: Schedule,
    bank: &mut ModelBank,
    bias_step: usize,
) -> OmenResult<TransmissionSweep> {
    let n = energies.len();
    let mine = assign(kys.len(), cfg.momentum, comms.momentum_index);
    // Per-k full curves (and per-k reports) for *my* momentum group's
    // k-points: either the per-k static/fallback loop, or one unified
    // dynamic sweep spanning every momentum group of the bias point.
    let (k_sweeps, sched) = match schedule {
        Schedule::Dynamic(opts) if cfg.spatial == 1 && !kys.is_empty() && n > 0 => {
            whole_curve_dynamic(
                comms, &system_of, kys, energies, &opts, bank, bias_step, &mine,
            )?
        }
        _ => {
            let mut sweeps = Vec::with_capacity(mine.len());
            let mut sched: Option<SchedStats> = None;
            for &ik in &mine {
                let (ky, _) = kys[ik];
                let (h, h00, h01) = system_of(ky);
                let sweep = parallel_transmission(
                    comms,
                    cfg,
                    &h,
                    (&h00, &h01),
                    (&h00, &h01),
                    energies,
                    schedule,
                )?;
                if let Some(s) = &sweep.sched {
                    match &mut sched {
                        Some(acc) => acc.absorb(s),
                        None => sched = Some(s.clone()),
                    }
                }
                sweeps.push(sweep);
            }
            (sweeps, sched)
        }
    };
    let mut t_acc = vec![0.0; n];
    let mut local = SweepReport::default();
    for (&ik, sweep) in mine.iter().zip(&k_sweeps) {
        let (ky, w) = kys[ik];
        if sweep.report.solved == 0 && !sweep.report.failed.is_empty() {
            // The whole k-point is lost: one typed entry, zero contribution.
            local.record_failed(ky, sweep.report.failed[0].error.clone());
            continue;
        }
        for (t, s) in t_acc.iter_mut().zip(&sweep.transmission) {
            *t += w * s;
        }
        local.merge(&sweep.report);
    }
    // Bias-group reduction: the local rank 0 of each momentum group
    // contributes its group's weighted sum (everyone else adds exact
    // zeros), so each k-point is counted exactly once.
    let mroot = comms.momentum_group.rank() == 0;
    reduce_level(&comms.bias_group, mroot, t_acc, &local, sched)
}

/// Sequential reference used by the equivalence tests and benches.
///
/// # Errors
///
/// Returns the first energy point's typed solver failure.
pub fn sequential_transmission(
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    energies: &[f64],
    engine: Engine,
) -> OmenResult<Vec<f64>> {
    energies
        .iter()
        .map(|&e| {
            crate::ballistic::solve_point(e, h, lead_l, lead_r, engine).map(|p| p.transmission)
        })
        .collect()
}

/// Prepares the transport system of a transistor at a frozen potential —
/// the shared setup for the distributed experiments.
pub fn frozen_system(tr: &NanoTransistor, v_atoms: &[f64], ky: f64) -> (BlockTridiag, ZMat, ZMat) {
    let ham = tr.hamiltonian();
    let pot: Vec<f64> = v_atoms.iter().map(|&v| -v).collect();
    let h = ham.assemble(&pot, ky);
    let (h00, h01) = ham.lead_blocks(-tr.slab_mean_potential(v_atoms, 0), ky);
    (h, h00, h01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TransistorSpec;
    use omen_num::linspace;
    use omen_parsim::run_ranks;
    use omen_sched::BankCounts;
    use omen_tb::Material;

    #[test]
    fn level_config_arithmetic() {
        let cfg = LevelConfig {
            bias: 2,
            momentum: 3,
            energy: 4,
            spatial: 5,
        };
        assert_eq!(cfg.total(), 120);
        assert_eq!(assign(10, 4, 1), vec![1, 5, 9]);
        assert_eq!(assign(3, 4, 3), Vec::<usize>::new());
    }

    #[test]
    fn split_levels_shapes() {
        let cfg = LevelConfig {
            bias: 2,
            momentum: 1,
            energy: 2,
            spatial: 2,
        };
        let out = run_ranks(8, |ctx| {
            let c = split_levels(ctx, &cfg).unwrap();
            (
                c.bias_group.size(),
                c.momentum_group.size(),
                c.spatial_group.size(),
                c.bias_index,
                c.energy_index,
            )
        });
        for (r, &(bg, mg, sg, bi, ei)) in out.unwrap_all().iter().enumerate() {
            assert_eq!(bg, 4, "rank {r}");
            assert_eq!(mg, 4);
            assert_eq!(sg, 2);
            assert_eq!(bi, r / 4);
            assert_eq!(ei, (r % 4) / 2);
        }
    }

    #[test]
    fn assign_covers_every_item_exactly_once() {
        for &(n_items, n_groups) in &[
            (0usize, 1usize),
            (0, 4),
            (1, 1),
            (3, 4),
            (4, 4),
            (10, 3),
            (17, 5),
            (100, 7),
        ] {
            let groups: Vec<Vec<usize>> = (0..n_groups)
                .map(|g| assign(n_items, n_groups, g))
                .collect();
            // Every item appears exactly once across the groups.
            let mut seen = vec![0usize; n_items];
            for g in &groups {
                for &i in g {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "({n_items}, {n_groups}): items must be covered exactly once"
            );
            // Group sizes differ by at most one.
            let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
            let (lo, hi) = (
                *sizes.iter().min().unwrap_or(&0),
                *sizes.iter().max().unwrap_or(&0),
            );
            assert!(
                hi - lo <= 1,
                "({n_items}, {n_groups}): sizes {sizes:?} differ by more than 1"
            );
            // Indices stay sorted and in range.
            for g in &groups {
                assert!(g.windows(2).all(|w| w[0] < w[1]));
                assert!(g.iter().all(|&i| i < n_items));
            }
        }
        // Degenerate: more groups than items leaves the tail groups empty.
        assert_eq!(assign(3, 4, 3), Vec::<usize>::new());
        assert_eq!(assign(0, 3, 0), Vec::<usize>::new());
    }

    #[test]
    fn distributed_transmission_matches_sequential() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let v = vec![0.0; tr.device.num_atoms()];
        let (h, h00, h01) = frozen_system(&tr, &v, 0.0);
        let energies = linspace(-3.4, -2.6, 7);
        let sequential = |engine| {
            sequential_transmission(&h, (&h00, &h01), (&h00, &h01), &energies, engine).unwrap()
        };
        // The serial cyclic reduction is the rank path's bit reference;
        // Thomas differs from both by its elimination order.
        let reference: Vec<u64> = sequential(Engine::WfBcr)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let thomas = sequential(Engine::WfThomas);

        for spatial in [1, 2] {
            let cfg = LevelConfig {
                bias: 1,
                momentum: 1,
                energy: 2,
                spatial,
            };
            let out = run_ranks(2 * spatial, |ctx| {
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
            })
            .flattened();
            let stats = out.total_stats();
            let results = out.unwrap_all();
            for (rank, res) in results.iter().enumerate() {
                assert!(res.report.is_clean(), "rank {rank}: {:?}", res.report);
                assert!(res.sched.is_none());
                let bits: Vec<u64> = res.transmission.iter().map(|t| t.to_bits()).collect();
                assert_eq!(bits, reference, "spatial {spatial}, rank {rank}");
                for (i, (a, b)) in res.transmission.iter().zip(&thomas).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-8 * (1.0 + b.abs()),
                        "rank {rank} energy {i}: {a} vs {b}"
                    );
                }
            }
            // The distributed run must actually communicate.
            assert!(stats.messages_sent > 0);
        }
    }

    #[test]
    fn dynamic_schedule_is_bit_identical_to_static() {
        // The engine-equivalence device case: same system, same grid, once
        // under the fixed round-robin partition and once self-scheduled.
        // Both paths evaluate each point through the identical SplitSolve
        // call (spatial == 1), and both reductions add each value to exact
        // zeros, so the results must agree to the bit. An empty grid is an
        // empty sweep under either schedule, not an error.
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let v = vec![0.0; tr.device.num_atoms()];
        let (h, h00, h01) = frozen_system(&tr, &v, 0.0);
        let cfg = LevelConfig {
            bias: 1,
            momentum: 1,
            energy: 4,
            spatial: 1,
        };
        for energies in [linspace(-3.4, -2.6, 9), Vec::new()] {
            let run = |schedule: Schedule| {
                run_ranks(4, |ctx| {
                    let comms = split_levels(ctx, &cfg)?;
                    parallel_transmission(
                        &comms,
                        &cfg,
                        &h,
                        (&h00, &h01),
                        (&h00, &h01),
                        &energies,
                        schedule,
                    )
                })
                .flattened()
                .unwrap_all()
            };
            let stat = run(Schedule::Static);
            let dyns = run(Schedule::Dynamic(SchedOptions::default()));
            for (rank, (s, d)) in stat.iter().zip(&dyns).enumerate() {
                assert!(s.report.is_clean() && d.report.is_clean());
                assert_eq!(s.report.solved, energies.len());
                assert_eq!(d.report.solved, energies.len());
                assert_eq!(d.transmission.len(), energies.len());
                let stats = d.sched.as_ref().expect("dynamic run reports stats");
                assert_eq!(stats.units, energies.len());
                for (i, (a, b)) in s.transmission.iter().zip(&d.transmission).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "rank {rank} energy {i}: static {a} vs dynamic {b}"
                    );
                }
            }
        }
    }

    /// Middle site cut off from *both* neighbors: every direct solver —
    /// any elimination order — hits a provably singular pivot at E = 0.
    fn singular_at_zero_system() -> (BlockTridiag, ZMat, ZMat) {
        crate::ballistic::severed_chain(5, &[(2, 0.0)], &[1, 2])
    }

    /// A uniform healthy 1×1-block chain: every energy solves.
    fn healthy_chain() -> (BlockTridiag, ZMat, ZMat) {
        crate::ballistic::severed_chain(5, &[], &[])
    }

    #[test]
    fn failed_point_is_isolated_not_group_fatal() {
        let (h, h00, h01) = singular_at_zero_system();
        // −0.5, −0.25, 0, 0.25, 0.5: the middle point is provably singular.
        let energies = linspace(-0.5, 0.5, 5);
        let cfg = LevelConfig {
            bias: 1,
            momentum: 1,
            energy: 3,
            spatial: 1,
        };
        for schedule in [Schedule::Static, Schedule::Dynamic(SchedOptions::default())] {
            let out = run_ranks(3, |ctx| {
                let comms = split_levels(ctx, &cfg)?;
                parallel_transmission(
                    &comms,
                    &cfg,
                    &h,
                    (&h00, &h01),
                    (&h00, &h01),
                    &energies,
                    schedule,
                )
            })
            .flattened();
            let total = out.total_stats();
            for res in out.unwrap_all() {
                assert_eq!(res.report.solved, 4, "{schedule:?}");
                assert_eq!(res.report.failed.len(), 1);
                assert_eq!(res.report.failed[0].energy, 0.0);
                assert!(matches!(
                    res.report.failed[0].error,
                    OmenError::SingularBlock { .. }
                ));
                assert_eq!(res.transmission[2], 0.0, "failed point zeroed");
                // The severed chain carries no current, but its healthy
                // points *solved*: values are present (exact zeros), not
                // failure entries.
                assert_eq!(res.report.attempted(), energies.len());
            }
            if let Schedule::Dynamic(_) = schedule {
                // A typed failure is final on its first attempt: nothing
                // was re-issued, and CommStats says so.
                assert_eq!(total.sched_reissues, 0);
            }
        }
    }

    #[test]
    fn failed_k_point_is_excluded_from_bias_reduction() {
        // Two k-points: k = 0 is the provably singular chain evaluated at
        // exactly its singular energy (the whole sweep fails), k = 1 is a
        // healthy chain. The k-level reduction must isolate the dead
        // k-point as one typed report entry and keep the healthy one.
        let energies = vec![0.0];
        let kys = [(0.0, 0.5), (1.0, 0.5)];
        let cfg = LevelConfig {
            bias: 1,
            momentum: 2,
            energy: 1,
            spatial: 1,
        };
        let reference = {
            let (h, h00, h01) = healthy_chain();
            sequential_transmission(&h, (&h00, &h01), (&h00, &h01), &energies, Engine::WfThomas)
                .unwrap()
        };
        for schedule in [Schedule::Static, Schedule::Dynamic(SchedOptions::default())] {
            let out = run_ranks(2, |ctx| {
                let comms = split_levels(ctx, &cfg)?;
                parallel_transmission_k_banked(
                    &comms,
                    &cfg,
                    |ky| {
                        if ky == 0.0 {
                            singular_at_zero_system()
                        } else {
                            healthy_chain()
                        }
                    },
                    &kys,
                    &energies,
                    schedule,
                    &mut ModelBank::new(),
                    0,
                )
            })
            .flattened();
            for res in out.unwrap_all() {
                // The healthy k-point solved; the dead one is a single typed
                // entry stamped with its k value, not a group-wide failure.
                assert_eq!(res.report.solved, 1, "{schedule:?}");
                assert_eq!(res.report.failed.len(), 1);
                assert_eq!(res.report.failed[0].energy, 0.0, "stamped with k_y");
                assert!(matches!(
                    res.report.failed[0].error,
                    OmenError::SingularBlock { .. }
                ));
                // Only the healthy k-point's weighted transmission contributes.
                let want = 0.5 * reference[0];
                assert!(
                    (res.transmission[0] - want).abs() < 1e-8 * (1.0 + want.abs()),
                    "{} vs {want}",
                    res.transmission[0]
                );
            }
        }
    }

    #[test]
    fn whole_curve_dynamic_is_bit_identical_to_static_at_any_rank_count() {
        // Mixed-health k × E grid: k = 0 is the singular chain (its E = 0
        // point fails), k = 1 is healthy. The one-dataflow dynamic sweep —
        // cross-momentum stealing plus the solving coordinator — must
        // reproduce the static nested split to the bit at every rank count
        // and level shape: transmission, counters, AND the fault ledger.
        let energies = linspace(-0.5, 0.5, 5);
        let kys = [(0.0, 0.5), (1.0, 0.5)];
        let system = |ky: f64| {
            if ky == 0.0 {
                singular_at_zero_system()
            } else {
                healthy_chain()
            }
        };
        let shapes = [
            (1, 1usize, 1usize),
            (2, 2, 1),
            (2, 1, 2), // both k-points in one momentum group: replay must
            // keep the static weighted accumulation order
            (4, 2, 2),
        ];
        for (ranks, momentum, energy) in shapes {
            let cfg = LevelConfig {
                bias: 1,
                momentum,
                energy,
                spatial: 1,
            };
            let run = |schedule: Schedule| {
                run_ranks(ranks, |ctx| {
                    let comms = split_levels(ctx, &cfg)?;
                    parallel_transmission_k_banked(
                        &comms,
                        &cfg,
                        system,
                        &kys,
                        &energies,
                        schedule,
                        &mut ModelBank::new(),
                        0,
                    )
                })
                .flattened()
                .unwrap_all()
            };
            let stat = run(Schedule::Static);
            let dynr = run(Schedule::Dynamic(SchedOptions::default()));
            for (rank, (s, d)) in stat.iter().zip(&dynr).enumerate() {
                let at = format!("{ranks} ranks ({momentum}×{energy}), rank {rank}");
                for (i, (a, b)) in s.transmission.iter().zip(&d.transmission).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{at} energy {i}: static {a} vs dynamic {b}"
                    );
                }
                assert_eq!(d.report.solved, s.report.solved, "{at}");
                assert_eq!(d.report.retried, s.report.retried, "{at}");
                assert_eq!(d.report.recovered, s.report.recovered, "{at}");
                assert_eq!(d.report.failed.len(), s.report.failed.len(), "{at}");
                for (fs, fd) in s.report.failed.iter().zip(&d.report.failed) {
                    assert_eq!(fs.energy.to_bits(), fd.energy.to_bits(), "{at}");
                    assert!(matches!(fd.error, OmenError::SingularBlock { .. }), "{at}");
                }
                // The unified grid spans every momentum group's units.
                let stats = d.sched.as_ref().expect("dynamic stats");
                assert_eq!(stats.units, kys.len() * energies.len(), "{at}");
            }
        }
    }

    #[test]
    fn bank_is_consulted_once_per_sweep_and_never_changes_values() {
        // One bank across bias steps 0, 1 and 1 again (the SCF re-solve):
        // the first sweep seeds, the next warms from it, the repeat hits —
        // one checkout per sweep however many k-points it brokers — and
        // every sweep stays bit-identical to the static split.
        let energies = linspace(-0.5, 0.5, 5);
        let kys = [(0.0, 0.5), (1.0, 0.5)];
        let cfg = LevelConfig {
            bias: 1,
            momentum: 2,
            energy: 1,
            spatial: 1,
        };
        let run = |schedule: Schedule| {
            run_ranks(2, |ctx| {
                let comms = split_levels(ctx, &cfg)?;
                let mut bank = ModelBank::new();
                let mut steps = Vec::new();
                for bias_step in [0, 1, 1] {
                    let sweep = parallel_transmission_k_banked(
                        &comms,
                        &cfg,
                        |_| healthy_chain(),
                        &kys,
                        &energies,
                        schedule,
                        &mut bank,
                        bias_step,
                    )?;
                    steps.push((sweep.transmission, bank.lifetime_counts()));
                }
                Ok(steps)
            })
            .flattened()
            .unwrap_all()
        };
        let stat = run(Schedule::Static);
        let dynr = run(Schedule::Dynamic(SchedOptions::default()));
        let counts = |hits, warmed, seeded| BankCounts {
            hits,
            warmed,
            seeded,
        };
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (s, d) in stat.iter().zip(&dynr) {
            let seen: Vec<BankCounts> = d.iter().map(|step| step.1).collect();
            assert_eq!(seen, [counts(0, 0, 1), counts(0, 1, 1), counts(1, 1, 1)]);
            for ((ts, _), (td, _)) in s.iter().zip(d) {
                assert_eq!(bits(ts), bits(td));
            }
        }
    }
}

//! Hierarchical rank decomposition: bias × momentum × energy × space.
//!
//! Mirrors the communicator layout that carried the original simulator to
//! 221k cores: the world communicator splits into bias groups, each bias
//! group into momentum (k-point) groups, each of those into energy groups,
//! and the ranks inside one energy group cooperate on the *spatial* solve
//! of each energy point through the SplitSolve backend. The unit of work
//! is one energy point at one k-point; a bias group solves its `k × E`
//! grid of them under a [`Schedule`], which only decides who solves what.
//! All data movement runs over `omen-parsim` and is therefore measured,
//! not modeled.

use crate::contacts::{ContactTable, ContactTally};
use crate::spec::NanoTransistor;
use omen_linalg::ZMat;
use omen_negf::transport::DEFAULT_ETA;
use omen_num::{FailedPoint, OmenError, OmenResult, SweepReport};
use omen_parsim::{Comm, RankCtx};
use omen_sched::{
    dynamic_sweep, proto, CostModel, ModelBank, SchedOptions, SchedStats, SweepOutcome,
};
use omen_sparse::BlockTridiag;
use omen_wf::Solver;
use std::borrow::Cow;

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
    /// The `(k, E)` contact pairs this call decimated across its group and
    /// those its contact table already held.
    pub contacts: ContactTally,
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

/// Reads the contiguous unit range `units` of a grid outcome as one
/// momentum's sweep. Payloads are `[T, solver retries]`, so the report
/// counts solver retries (a dynamic outcome's own report counts
/// *re-issues*); an unresolved unit takes its typed ledger entry, which
/// the outcome records in ascending unit order.
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
        contacts: ContactTally::default(),
    }
}

/// Distributed transmission sweep over one bias point: the one-k grid of
/// the bias group. Its ranks first decimate the contacts of the whole
/// energy grid once ([`ContactTable::fill`]: the energies split
/// round-robin over them, one allgather). Then the grid's energy points
/// are solved under `schedule`: each reads its contacts from the table and
/// is solved with SplitSolve across a spatial group. Every rank returns
/// the complete result.
///
/// A point whose solve fails with a typed solver error is *isolated*: its
/// transmission stays `0.0` and the failure is recorded in the returned
/// report on every rank, instead of aborting the group. The table holds
/// the same lead outcome on every rank, and SplitSolve's per-level status
/// exchange makes an engine error identical on every rank of the spatial
/// group, so the SPMD control flow (including the closing exchange) never
/// diverges.
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
    let mut table = ContactTable::default();
    let lead = [lead_l.0, lead_l.1, lead_r.0, lead_r.1];
    table.fill(&comms.bias_group, &[lead], energies)?;
    let contacts = table.take_tally();
    let (device, bank) = (|_| Cow::Borrowed(h), (&mut ModelBank::new(), 0));
    let (grid, sched) = solve_grid(comms, cfg, device, &table, 1, energies, schedule, bank)?;
    Ok(TransmissionSweep {
        sched,
        contacts,
        ..sweep_from_outcome(&grid, 0..energies.len())
    })
}

/// One energy point of momentum `k` on this rank's spatial group, as the
/// `[T, solver retries]` payload [`sweep_from_outcome`] reads back: the
/// contacts from the table, then the wave-function engine over SplitSolve.
/// All members of the group call collectively and return the same value,
/// which is `solve_point(.., Engine::WfBcr)` bit for bit at every group
/// size.
fn solve_unit(
    comms: &LevelComms<'_>,
    e: f64,
    h: &BlockTridiag,
    table: &ContactTable,
    k: usize,
) -> OmenResult<[f64; 2]> {
    let (sigma_l, sigma_r) = table.contacts(k, e)?;
    let solver = Solver::SplitSolve(&comms.spatial_group);
    let d = omen_wf::wf_point(e, DEFAULT_ETA, h, &[], &sigma_l, &sigma_r, solver)?;
    Ok([d.transmission, d.retries as f64])
}

/// Solves the `k × E` unit grid of this bias group (`id = ik · n_e + ie`,
/// momentum `ik`'s device built by `device`, its contacts read from
/// `table`) under `schedule`. Every member returns the same outcome: one
/// `[T, solver retries]` payload per solved unit, the failed units stamped
/// with their energies in unit order, and the scheduler's diagnostics when
/// the dynamic leg ran.
///
/// - **Dynamic** (`spatial == 1`): one [`dynamic_sweep`] over the bias
///   group brokers the whole grid, so a rank whose momentum group drains
///   early steals units from a loaded one, and the coordinator rank solves
///   units between brokering rounds. The cost model is bias step
///   `bias_step`'s, checked out of `bank` (hit → warm → band-edge seed)
///   and committed back.
/// - **Static**: the round-robin partition of [`assign`], k over the
///   momentum groups and E over the energy groups, each unit solved by its
///   spatial group. One allreduce of the payloads follows, to which only
///   spatial roots add, so each unit has one contributor beside exact zeros
///   and the sum is exact; then one allgather of the failed units' typed
///   errors.
///
/// A unit is the same pure SplitSolve on the same contacts under either
/// leg, so the two outcomes agree to the bit.
#[allow(clippy::too_many_arguments)]
fn solve_grid<'h>(
    comms: &LevelComms<'_>,
    cfg: &LevelConfig,
    device: impl Fn(usize) -> Cow<'h, BlockTridiag>,
    table: &ContactTable,
    n_k: usize,
    energies: &[f64],
    schedule: Schedule,
    (bank, bias_step): (&mut ModelBank, usize),
) -> OmenResult<(SweepOutcome, Option<SchedStats>)> {
    let n_e = energies.len();
    let stamps: Vec<f64> = (0..n_k * n_e).map(|id| energies[id % n_e]).collect();
    let group = &comms.bias_group;
    let coordinator = group.rank() == 0;
    let root = comms.spatial_group.rank() == 0;
    if let Schedule::Dynamic(opts) = schedule {
        if cfg.spatial == 1 {
            let mut model = bank.checkout(bias_step, stamps.len(), || {
                CostModel::band_edge_grid(n_k, n_e, 2.0)
            });
            // One k-point device per rank, rebuilt whenever the next unit
            // belongs to another k. LPT order interleaves k, so that is most
            // units; k-coherent hand-outs are ROADMAP item 6(c).
            let mut cached: Option<(usize, Cow<'h, BlockTridiag>)> = None;
            let outcome = dynamic_sweep(group, &stamps, &mut model, &opts, |id| {
                let ik = id / n_e;
                if cached.as_ref().map(|c| c.0) != Some(ik) {
                    cached = Some((ik, device(ik)));
                }
                let (_, h) = cached.as_ref().expect("cached above");
                solve_unit(comms, energies[id % n_e], h, table, ik).map(Vec::from)
            })?;
            bank.commit(bias_step, model);
            if coordinator {
                crate::log::emit(&format!(
                    "sched iv sweep: {n_k} k × {n_e} E units in {} chunks, \
                     coordinator solved {}, reclaimed {}, imbalance {:.2}",
                    outcome.stats.chunks,
                    outcome.stats.coordinator_units,
                    outcome.stats.reissued_failed,
                    outcome.stats.imbalance(),
                ));
            }
            let stats = outcome.stats.clone();
            return Ok((outcome, Some(stats)));
        }
        crate::log::emit(&format!(
            "sched: dynamic schedule requires spatial == 1 (got {}), \
             falling back to static",
            cfg.spatial
        ));
    }
    let mut payloads = vec![0.0; 2 * stamps.len()];
    let mut failed = Vec::new();
    for ik in assign(n_k, cfg.momentum, comms.momentum_index) {
        let h = device(ik);
        for ie in assign(n_e, cfg.energy, comms.energy_index) {
            let id = ik * n_e + ie;
            match solve_unit(comms, energies[ie], &h, table, ik) {
                Err(e) if is_comm_fault(&e) => return Err(e),
                _ if !root => {}
                Ok(p) => payloads[2 * id..2 * id + 2].copy_from_slice(&p),
                Err(error) => failed.push(FailedPoint {
                    energy: id as f64,
                    error,
                }),
            }
        }
    }
    let sums = group.allreduce_sum(&payloads)?;
    let records = proto::encode_failures(&failed, group.global_rank(group.rank()));
    let errors = unit_errors(&group.allgather(records)?, stamps.len())?;
    let mut outcome = SweepOutcome {
        values: Vec::with_capacity(stamps.len()),
        report: SweepReport::default(),
        stats: SchedStats::default(),
    };
    for (id, error) in errors.into_iter().enumerate() {
        outcome.values.push(match error {
            Some(e) => {
                outcome.report.record_failed(stamps[id], e);
                None
            }
            None => {
                outcome.report.record_solved(0);
                Some(sums[2 * id..2 * id + 2].to_vec())
            }
        });
    }
    Ok((outcome, None))
}

/// The failed units of the static leg's allgather, one slot per unit of an
/// `n`-unit grid. Each member sends a [`proto::encode_failures`] list whose
/// records are stamped with the unit id instead of an energy.
///
/// # Errors
///
/// [`OmenError::Deserialize`] when a list is malformed, or a stamp is not
/// the id of a grid unit that no earlier record claimed.
fn unit_errors(lists: &[Vec<u8>], n: usize) -> OmenResult<Vec<Option<OmenError>>> {
    let mut errors = vec![None; n];
    for list in lists {
        for f in proto::decode_failures(list)? {
            let id = f.energy as usize;
            match errors.get_mut(id) {
                Some(slot @ None) if (id as f64).to_bits() == f.energy.to_bits() => {
                    *slot = Some(f.error);
                }
                _ => {
                    return Err(OmenError::Deserialize {
                        context: "rank-path failed-unit records",
                    })
                }
            }
        }
    }
    Ok(errors)
}

/// Momentum-resolved distributed sweep over one bias point: the bias
/// group solves the `k × E` grid of the `(k_y, weight)` list under
/// `schedule` — the static round-robin split, or one dynamic dataflow with
/// cross-momentum work stealing and a solving coordinator, bit-identical
/// to it — and every rank returns the weighted k-average of `T(E)`.
///
/// **Contacts once per curve**: before either leg, the bias group fills
/// one [`ContactTable`] over the whole `k × E` grid — the `(k, E)` pairs
/// it lacks split round-robin over every rank of the bias group, one
/// allgather — and the units only read it. The table lives in `bank`
/// between calls: a later bias point whose k-point keeps its lead blocks
/// (compared entry for entry) decimates nothing for it, and a k-point
/// whose lead changed re-decimates its own pairs only.
///
/// **Momentum-level fault isolation**: a k-point whose *entire* energy
/// sweep failed contributes one recorded [`FailedPoint`] (stamped with
/// `k_y` in the energy field) and is excluded from the average; partially
/// failed k-points keep their per-energy entries. Neither case fails the
/// bias group.
///
/// **Cost-model persistence**: the dynamic dataflow checks the bias step's
/// cost model out of `bank` before the sweep and commits the measured
/// ledger back afterwards. Pass the same bank across SCF outer iterations
/// and bias points (`bias_step` is the bank's bias key, e.g. the I–V point
/// index) so from the second step onward every sweep is LPT-scheduled over
/// *measured* costs instead of band-edge seeds, and its contacts come from
/// the table; a one-off sweep passes a fresh bank. The bank never changes
/// values — only execution order and how often a contact is decimated.
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
    let mut table: ContactTable = bank.take_contacts();
    let contacts = {
        let leads: Vec<(ZMat, ZMat)> = kys
            .iter()
            .map(|&(ky, _)| {
                let (_, h00, h01) = system_of(ky);
                (h00, h01)
            })
            .collect();
        let keys: Vec<_> = leads
            .iter()
            .map(|(h00, h01)| [h00, h01, h00, h01])
            .collect();
        table.fill(&comms.bias_group, &keys, energies)?;
        table.take_tally()
    };
    let device = |ik: usize| Cow::Owned(system_of(kys[ik].0).0);
    let (n_k, banked) = (kys.len(), (&mut *bank, bias_step));
    let (grid, sched) = solve_grid(comms, cfg, device, &table, n_k, energies, schedule, banked)?;
    bank.put_contacts(table);

    // The weighted average is summed per momentum group in k order, then
    // over the groups in group order, as groups that each add up their own
    // k-points would: the curve's bits depend on the layout, never on the
    // schedule.
    let n = energies.len();
    let mut transmission = vec![0.0; n];
    let mut report = SweepReport::default();
    for group in 0..cfg.momentum {
        let mut partial = vec![0.0; n];
        for ik in assign(n_k, cfg.momentum, group) {
            let (ky, w) = kys[ik];
            let k = sweep_from_outcome(&grid, ik * n..(ik + 1) * n);
            if k.report.solved == 0 && !k.report.failed.is_empty() {
                // The whole k-point is lost: one typed entry, zero contribution.
                report.record_failed(ky, k.report.failed[0].error.clone());
                continue;
            }
            for (t, s) in partial.iter_mut().zip(&k.transmission) {
                *t += w * s;
            }
            report.merge(&k.report);
        }
        for (t, p) in transmission.iter_mut().zip(partial) {
            *t += p;
        }
    }
    // By stamp: an energy, or `k_y` for a lost k-point.
    report.failed.sort_by(|a, b| a.energy.total_cmp(&b.energy));
    Ok(TransmissionSweep {
        transmission,
        report,
        sched,
        contacts,
    })
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
    use crate::ballistic::{solve_sweep, Engine};
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
            let lead = (&h00, &h01);
            let mut table = ContactTable::default();
            let (_, points, report) = solve_sweep(&energies, &h, lead, lead, engine, &mut table);
            assert!(report.failed.is_empty(), "{report:?}");
            points.iter().map(|p| p.transmission).collect::<Vec<_>>()
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
                if let Schedule::Dynamic(_) = schedule {
                    // A typed failure is final on its first attempt:
                    // nothing was re-issued, and the sweep's SchedStats
                    // says so.
                    assert_eq!(res.sched.map(|s| s.reissued_failed), Some(0));
                }
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
            let (lead, mut table) = ((&h00, &h01), ContactTable::default());
            let engine = Engine::WfThomas;
            let (_, points, report) = solve_sweep(&energies, &h, lead, lead, engine, &mut table);
            assert!(report.failed.is_empty(), "{report:?}");
            points.iter().map(|p| p.transmission).collect::<Vec<_>>()
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

    /// The layouts the table tests run, as `(momentum, energy, spatial)`:
    /// one rank; two split by momentum; three split by momentum and by
    /// energy; two cooperating spatially.
    const TABLE_LAYOUTS: [(usize, usize, usize); 5] =
        [(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 3, 1), (1, 1, 2)];

    fn layout((momentum, energy, spatial): (usize, usize, usize)) -> LevelConfig {
        LevelConfig {
            bias: 1,
            momentum,
            energy,
            spatial,
        }
    }

    /// A point's `to_bits` transmission and its report.
    fn sweep_bits(s: &TransmissionSweep) -> (Vec<u64>, SweepReport) {
        let t = s.transmission.iter().map(|t| t.to_bits()).collect();
        (t, s.report.clone())
    }

    /// The `ranks2-utb-k3` film, grid and gate points: block n = 32 (the
    /// contacts' support is 8 orbitals), 3 k-points × 32 energies, the
    /// channel at −0.1 and 0.0 V and both leads at zero potential, so the
    /// bias points share every lead.
    struct Ranks2 {
        tr: NanoTransistor,
        kys: Vec<(f64, f64)>,
        energies: Vec<f64>,
        /// Per gate point, the potential on every atom.
        biases: Vec<Vec<f64>>,
    }

    fn ranks2_inputs() -> Ranks2 {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 16);
        spec.geometry = crate::spec::Geometry::Utb { cells: 2, h: 1.0 };
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let (lo, hi) = (spec.source_slabs, spec.num_slabs - spec.drain_slabs);
        let biases = [-0.1, 0.0]
            .iter()
            .map(|&v_gate| {
                let on_channel = |slab| {
                    if (lo..hi).contains(&slab) {
                        v_gate
                    } else {
                        0.0
                    }
                };
                tr.device.atoms.iter().map(|a| on_channel(a.slab)).collect()
            })
            .collect();
        let kys = crate::ballistic::momentum_grid(&tr, 3);
        Ranks2 {
            tr,
            kys,
            energies: linspace(-3.75, -2.95, 32),
            biases,
        }
    }

    #[test]
    fn contact_table_decimates_each_pair_once_per_curve_bit_for_bit() {
        // Three steps through one bank: the two gate points of the
        // benchmark curve, then the second again with k = 1's lead shifted.
        // Against a cold run of each step (a fresh bank), every rank must
        // hold the same bits and the same report, and the table must have
        // decimated 96 pairs for the curve, none for the repeat of its
        // leads, and 32 — k = 1's own — for the shifted lead.
        let Ranks2 {
            tr,
            kys,
            energies,
            biases,
        } = ranks2_inputs();
        let shifted_k = kys[1].0;
        let system = |step: usize, ky: f64| {
            let (h, h00, h01) = frozen_system(&tr, &biases[step.min(1)], ky);
            if step == 2 && ky == shifted_k {
                let (s00, s01) = tr.hamiltonian().lead_blocks(0.01, ky);
                return (h, s00, s01);
            }
            (h, h00, h01)
        };
        let tally = |decimated, reused| ContactTally { decimated, reused };
        let want = [tally(96, 0), tally(0, 96), tally(32, 64)];
        for shape in TABLE_LAYOUTS {
            let cfg = layout(shape);
            for schedule in [Schedule::Static, Schedule::Dynamic(SchedOptions::default())] {
                let out = run_ranks(cfg.total(), |ctx| {
                    let comms = split_levels(ctx, &cfg)?;
                    let mut bank = ModelBank::new();
                    let mut steps = Vec::new();
                    for step in 0..3 {
                        let run = |bank: &mut ModelBank| {
                            parallel_transmission_k_banked(
                                &comms,
                                &cfg,
                                |ky| system(step, ky),
                                &kys,
                                &energies,
                                schedule,
                                bank,
                                step,
                            )
                        };
                        let warm = run(&mut bank)?;
                        let cold = run(&mut ModelBank::new())?;
                        steps.push((warm, cold));
                    }
                    Ok(steps)
                })
                .flattened()
                .unwrap_all();
                let at = format!("{shape:?} {schedule:?}");
                for (rank, steps) in out.iter().enumerate() {
                    for (step, (warm, cold)) in steps.iter().enumerate() {
                        let at = format!("{at}, rank {rank}, step {step}");
                        assert_eq!(warm.contacts, want[step], "{at}");
                        assert_eq!(cold.contacts, tally(96, 0), "{at}");
                        assert_eq!(sweep_bits(warm), sweep_bits(cold), "{at}");
                        assert_eq!(sweep_bits(warm), sweep_bits(&out[0][step].0), "{at}");
                        assert!(warm.report.is_clean(), "{at}");
                    }
                }
            }
        }
    }

    /// A lead whose every decimation fails at `E = 0`: its surface block
    /// holds a level, shifted by `+iη`, at `E = 0` and at every energy of
    /// the nudge ladder the recovery tries, beside a hopping orbital. The
    /// device is four uncoupled levels around that orbital.
    fn trapped_lead_system() -> (BlockTridiag, ZMat, ZMat) {
        use omen_negf::sancho::{LEAD_NUDGE_FLOOR, MAX_LEAD_RETRIES};
        use omen_num::c64;
        let step = (4.0 * DEFAULT_ETA).max(LEAD_NUDGE_FLOOR);
        let traps: Vec<c64> = (0..=MAX_LEAD_RETRIES)
            .map(|r| {
                let sign = if r % 2 == 1 { 1.0 } else { -1.0 };
                c64::new(sign * r.div_ceil(2) as f64 * step, DEFAULT_ETA)
            })
            .collect();
        let n = 1 + traps.len();
        let h00 = ZMat::from_diag(&[&[c64::ZERO], &traps[..]].concat());
        let hop = ZMat::from_fn(n, n, |i, j| c64::real(if i + j == 0 { -1.0 } else { 0.0 }));
        let slab = ZMat::from_fn(n, n, |i, j| match (i, j) {
            (0, 0) => c64::ZERO,
            _ if i == j => c64::real(5.0),
            _ => c64::ZERO,
        });
        let h = BlockTridiag::from_dense(vec![slab; 4], vec![hop.clone(); 3], vec![hop.clone(); 3]);
        (h, h00, hop)
    }

    /// [`healthy_chain`] behind a lead whose surface block is NaN: no
    /// decimation converges, at any energy.
    fn poisoned_lead_system() -> (BlockTridiag, ZMat, ZMat) {
        let (h, h00, h01) = healthy_chain();
        let nan = ZMat::from_fn(h00.nrows(), h00.ncols(), |_, _| {
            omen_num::c64::new(f64::NAN, 0.0)
        });
        (h, nan, h01)
    }

    #[test]
    fn a_failing_lead_fails_alike_on_every_rank_and_is_remembered() {
        // k = 0's lead fails; k = 1 is a healthy chain. Over two steps
        // through one bank, each rank reports the cold run's typed failure.
        // The trapped lead fails at E = 0 only, and its second step
        // decimates nothing: the failure is served from the table like any
        // other outcome. The NaN lead fails at every energy, so k = 0 is
        // lost as a whole; it never compares equal to itself, so each step
        // decimates its pairs again, and no read may find them missing.
        let energies = linspace(-0.5, 0.5, 5);
        let kys = [(0.0, 0.5), (1.0, 0.5)];
        let n_e = energies.len();
        let trapped: fn() -> _ = trapped_lead_system;
        let poisoned: fn() -> _ = poisoned_lead_system;
        let singular: fn(&OmenError) -> bool = |e| matches!(e, OmenError::SingularBlock { .. });
        let unconverged: fn(&OmenError) -> bool =
            |e| matches!(e, OmenError::LeadNotConverged { .. });
        let cases = [
            (trapped, 0, 0.0, singular),
            (poisoned, n_e, kys[0].0, unconverged),
        ];
        for (failing, redecimated, fails_at, typed) in cases {
            let system = |ky: f64| {
                if ky == 0.0 {
                    failing()
                } else {
                    healthy_chain()
                }
            };
            for shape in TABLE_LAYOUTS {
                let cfg = layout(shape);
                for schedule in [Schedule::Static, Schedule::Dynamic(SchedOptions::default())] {
                    let out = run_ranks(cfg.total(), |ctx| {
                        let comms = split_levels(ctx, &cfg)?;
                        let run = |bank: &mut ModelBank, step| {
                            parallel_transmission_k_banked(
                                &comms, &cfg, system, &kys, &energies, schedule, bank, step,
                            )
                        };
                        let mut bank = ModelBank::new();
                        let warm = [run(&mut bank, 0)?, run(&mut bank, 1)?];
                        Ok((warm, run(&mut ModelBank::new(), 1)?))
                    })
                    .flattened()
                    .unwrap_all();
                    let at = format!("{shape:?} {schedule:?}, redecimated {redecimated}");
                    for (rank, ([first, second], cold)) in out.iter().enumerate() {
                        let at = format!("{at}, rank {rank}");
                        assert_eq!(first.contacts.decimated, kys.len() * n_e, "{at}");
                        assert_eq!(second.contacts.decimated, redecimated, "{at}");
                        assert_eq!(sweep_bits(first), sweep_bits(cold), "{at}");
                        assert_eq!(sweep_bits(second), sweep_bits(cold), "{at}");
                        assert_eq!(sweep_bits(second), sweep_bits(&out[0].0[1]), "{at}");
                        let failed = &second.report.failed;
                        assert_eq!(failed.len(), 1, "{at}");
                        assert_eq!(failed[0].energy, fails_at, "{at}");
                        assert!(typed(&failed[0].error), "{at}: {:?}", failed[0].error);
                    }
                }
            }
        }
    }

    #[test]
    fn a_static_curve_sends_as_many_messages_for_three_k_points_as_for_one() {
        // Two ranks split every k-point's energies. The k-points are rows
        // of one unit grid, so the static leg closes with one allreduce and
        // one allgather over the bias group however many rows it holds.
        let energies = linspace(-0.5, 0.5, 5);
        let kys = [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)];
        let cfg = layout((1, 2, 1));
        let messages = |n_k: usize| {
            let out = run_ranks(cfg.total(), |ctx| {
                let comms = split_levels(ctx, &cfg)?;
                parallel_transmission_k_banked(
                    &comms,
                    &cfg,
                    |_| healthy_chain(),
                    &kys[..n_k],
                    &energies,
                    Schedule::Static,
                    &mut ModelBank::new(),
                    0,
                )
            })
            .flattened();
            let sent = out.total_stats().messages_sent;
            for res in out.unwrap_all() {
                assert_eq!(res.report.solved, n_k * energies.len());
            }
            sent
        };
        assert_eq!(messages(3), messages(1));
    }

    #[test]
    fn a_failed_unit_record_outside_the_grid_is_a_deserialize_error() {
        let list = |ids: &[f64]| {
            let failed: Vec<FailedPoint> = ids
                .iter()
                .map(|&energy| FailedPoint {
                    energy,
                    error: OmenError::SingularBlock {
                        block: 2,
                        energy: 0.0,
                        pivot: 0,
                        magnitude: 0.0,
                    },
                })
                .collect();
            proto::encode_failures(&failed, 0)
        };
        // Unit 4 of a six-unit grid lands in its own slot.
        let errors = unit_errors(&[list(&[]), list(&[4.0])], 6).unwrap();
        assert!(errors
            .iter()
            .enumerate()
            .all(|(id, e)| e.is_some() == (id == 4)));
        // An id past the grid, one that is not a whole number, one claimed
        // twice and a truncated list are each a typed error, never an index
        // out of bounds or a failure dropped.
        let truncated = list(&[1.0])[..12].to_vec();
        for lists in [
            vec![list(&[6.0])],
            vec![list(&[2.5])],
            vec![list(&[-1.0])],
            vec![list(&[f64::NAN])],
            vec![list(&[1.0]), list(&[1.0])],
            vec![truncated],
        ] {
            assert!(matches!(
                unit_errors(&lists, 6),
                Err(OmenError::Deserialize { .. })
            ));
        }
    }
}

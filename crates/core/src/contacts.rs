//! What a curve keeps of its leads: what depends on the leads (and the
//! energy) alone — their bands and their contact self-energies — computed
//! once and read back as often as asked for; and, beside them, what does
//! not depend on the potential at all: the device's `H₀ = H(V = 0)` per
//! momentum, assembled by the first band request of that `k_y` (in one
//! fan-out with the bands when both are missing) and read by every sweep
//! of the curve, which hands the engines the potential separately.
//!
//! [`ContactTable`] is the one place a sweep gets its contacts and a window
//! its lead bands: one lead pair per momentum index `k`, its bands beside
//! its outcomes per `(k, E)`. A fill takes a list of `(slot, lead pair,
//! grid)` entries, keys each slot on its lead pair, lists the pairs it
//! lacks, decimates them and inserts them, and tallies each entry as if
//! the entries had been filled one after the other; only the decimation
//! differs between its two callers. The serial sweep body
//! (`ballistic::solve_problems`, one entry per problem) decimates every
//! missing pair on the calling thread and the idle cores of its budget
//! (`omen_linalg::threads::fan_out`: each thread claims the next pair,
//! outcomes go back in entry order, so every width gives the same table);
//! the rank path ([`ContactTable::fill`], one entry per momentum over one
//! grid) splits them round-robin over a communicator, decimates each
//! member's share the same way, and inserts them on every member with one
//! allgather, so every member holds the same table. The points of a sweep
//! only read it.
//!
//! A slot keys its lead pair on the exact blocks: blocks that do not
//! compare equal entry for entry (a NaN entry never does) drop the pair's
//! bands and outcomes together. A table keys a slot once per fill entry
//! and once per band request, so a NaN lead's bands and outcomes last for
//! that window's or that fill's reads and are computed again by the next.
//! A failure is remembered too: the same lead fails at the same energy the
//! same way, so the nudge ladder is not climbed twice. Each Σ is kept on
//! its support ([`PackedContact`]); a read scatters it back into zeros and
//! rebuilds Γ with [`ZMat::gamma_of`], as the decimation built it. That is
//! a cold `local_contacts`' bits, retries included: the decimation's
//! products leave the zeros off the support as `+0.0`, the value the
//! scatter writes (`to_bits`-pinned on the README wire's lead by
//! `core::ballistic`'s `frozen_sweep_contacts_are_reusable_across_gate_points`
//! and on the UTB film's by `core::parallel`'s table tests).
//!
//! Each table has one owner, and on both paths it is one curve: the
//! serial I–V sweeps' bias loop keeps one across every solve of the curve
//! (the frozen sweep's gate points; the SCF sweeps' iterations and bias
//! points, where the floating leads rarely hit), the i-th momentum of a
//! bias point on slot i, and a rank keeps one in its `ModelBank` across
//! the bias points of one curve, whose fills never ask for bands. Nothing
//! shares one across curves or requests (a shared cache would need an
//! eviction policy — `ci.sh` keeps this module free of process-wide
//! state).

use crate::energy::LeadBands;
use crate::parallel::assign;
use omen_linalg::threads::{fan_out, fan_out_width};
use omen_linalg::ZMat;
use omen_negf::serialize::{allgather_block_records, bytes_to_mat, mat_to_bytes};
use omen_negf::transport::DEFAULT_ETA;
use omen_negf::{local_sigmas, ContactSelfEnergy, Side};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;
use omen_tb::DeviceHamiltonian;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;

/// One contact kept on its support `S` ([`ZMat::support`]): `Σ =
/// P·Σ[S,S]·Pᵀ` exactly, so the `s × s` core, `S` and the order `n` are
/// all of `Σ`, and `Γ` follows from it.
#[derive(Debug)]
pub struct PackedContact {
    side: Side,
    n: usize,
    support: Vec<usize>,
    core: ZMat,
    retries: usize,
}

impl PackedContact {
    /// The contact of `side` with self-energy `sigma`, on its support. `Γ`
    /// is not asked for: [`PackedContact::unpack`] rebuilds it from `Σ`.
    pub fn pack(side: Side, sigma: &ZMat, retries: usize) -> Self {
        let support = sigma.support();
        PackedContact {
            side,
            n: sigma.nrows(),
            core: sigma.principal(&support),
            support,
            retries,
        }
    }

    /// The contact [`PackedContact::pack`] was given, bit for bit, with
    /// `Γ = i(Σ − Σ†)` built as the decimation builds it.
    pub fn unpack(&self) -> ContactSelfEnergy {
        let mut sigma = ZMat::zeros(self.n, self.n);
        for (k, &i) in self.support.iter().enumerate() {
            for (l, &j) in self.support.iter().enumerate() {
                sigma[(i, j)] = self.core[(k, l)];
            }
        }
        ContactSelfEnergy {
            side: self.side,
            gamma: sigma.gamma_of(),
            sigma,
            retries: self.retries,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u8(match self.side {
            Side::Left => 0,
            Side::Right => 1,
        });
        e.usize(self.n);
        e.usize(self.retries);
        e.usize(self.support.len());
        for &i in &self.support {
            e.usize(i);
        }
        e.bytes(&mat_to_bytes(&self.core));
    }

    fn decode(d: &mut Dec<'_>) -> OmenResult<Self> {
        let side = match d.u8()? {
            0 => Side::Left,
            1 => Side::Right,
            s => return Err(d.invalid(format_args!("unknown contact side {s}"))),
        };
        let (n, retries) = (d.usize()?, d.usize()?);
        let support = (0..d.count(8)?)
            .map(|_| d.usize())
            .collect::<OmenResult<Vec<_>>>()?;
        let core = bytes_to_mat(d.bytes()?)?;
        let s = support.len();
        let ascending = support.windows(2).all(|w| w[0] < w[1]);
        if core.nrows() != s || core.ncols() != s || !ascending || support.last() >= Some(&n) {
            return Err(d.invalid("support disagrees with its core or order"));
        }
        Ok(PackedContact {
            side,
            n,
            support,
            core,
            retries,
        })
    }
}

/// Outcome of one `local_contacts` call, each Σ on its support.
pub type PackedOutcome = OmenResult<[PackedContact; 2]>;

const ENTRY_OK: u8 = 0;
const ENTRY_ERR: u8 = 1;

/// Serializes one `(k, E)` outcome for [`ContactTable::fill`]'s
/// allgather: `[0]` and both packed contacts, or `[1]` and the typed lead
/// failure attributed to global rank `origin_rank`.
pub fn encode_entry(origin_rank: usize, outcome: &PackedOutcome) -> Vec<u8> {
    let mut e = Enc::new();
    match outcome {
        Ok(pair) => {
            e.u8(ENTRY_OK);
            for c in pair {
                c.encode(&mut e);
            }
        }
        Err(err) => {
            e.u8(ENTRY_ERR);
            e.error(err, origin_rank);
        }
    }
    e.finish()
}

/// Inverse of [`encode_entry`]: the decimating rank's outcome, its lead
/// failure included.
///
/// # Errors
///
/// [`OmenError::Deserialize`] when the payload is malformed; the
/// transported lead failure is the *inner* result.
pub fn decode_entry(b: &[u8]) -> OmenResult<PackedOutcome> {
    let mut d = Dec::new(b, "contact table entry");
    let outcome = match d.u8()? {
        ENTRY_OK => Ok([
            PackedContact::decode(&mut d)?,
            PackedContact::decode(&mut d)?,
        ]),
        ENTRY_ERR => Err(d.error()?),
        kind => return Err(d.invalid(format_args!("unknown entry kind {kind}"))),
    };
    d.finish()?;
    Ok(outcome)
}

/// How many contact pairs a [`ContactTable`] decimated and how many it
/// served from memory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContactTally {
    /// Pairs decimated (misses).
    pub decimated: usize,
    /// Pairs served from memory (hits).
    pub reused: usize,
}

impl fmt::Display for ContactTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} decimated, {} reused", self.decimated, self.reused)
    }
}

/// `(lead_l, lead_r)` as the four blocks a slot is keyed on.
pub type LeadKey<'a> = [&'a ZMat; 4];

/// One entry of a fill: momentum slot `k`, the lead pair it is keyed on
/// and the energies it needs.
pub(crate) type FillEntry<'a> = (usize, LeadKey<'a>, &'a [f64]);

/// What one slot knows of its lead pair: the blocks it is keyed on (the
/// left lead's, and the right lead's only where they differ), the bands of
/// each of those leads once a window has asked for them, and the outcomes
/// keyed on `E`'s bits.
#[derive(Debug)]
struct Leads {
    blocks: Vec<ZMat>,
    bands: Option<Vec<LeadBands>>,
    outcomes: HashMap<u64, PackedOutcome>,
}

fn unpacked(known: &PackedOutcome) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    match known {
        Ok([l, r]) => Ok((l.unpack(), r.unpack())),
        Err(err) => Err(err.clone()),
    }
}

/// `local_contacts(e, DEFAULT_ETA, ..)` of the lead pair `key`, each Σ
/// packed on its support straight from the decimation: the one decimation
/// a table runs.
fn decimate([l0, l1, r0, r1]: LeadKey<'_>, e: f64) -> PackedOutcome {
    let [(sigma_l, retries_l), (sigma_r, retries_r)] =
        local_sigmas(e, DEFAULT_ETA, (l0, l1), (r0, r1))?;
    Ok([
        PackedContact::pack(Side::Left, &sigma_l, retries_l),
        PackedContact::pack(Side::Right, &sigma_r, retries_r),
    ])
}

/// [`decimate`] of every `(entry, E)` in `pairs`, in their order, on
/// [`fan_out_width`] threads of this thread's core budget. Each
/// decimation is independent and deterministic and the flop counter is
/// one atomic, so every width gives the same outcomes and the same count.
fn decimate_all(entries: &[FillEntry<'_>], pairs: &[(usize, f64)]) -> Vec<PackedOutcome> {
    fan_out(pairs.len(), fan_out_width(pairs.len()), |i| {
        let (entry, e) = pairs[i];
        decimate(entries[entry].1, e)
    })
}

/// The rank path's decimation of the `(entry, E)` pairs `missing`: split
/// round-robin over `comm`, each member's share through [`decimate_all`],
/// and one allgather that hands every member every outcome in their order.
fn decimate_shared(
    comm: &Comm<'_>,
    entries: &[FillEntry<'_>],
    missing: &[(usize, f64)],
) -> OmenResult<Vec<PackedOutcome>> {
    let origin = comm.global_rank(comm.rank());
    let share = assign(missing.len(), comm.size(), comm.rank());
    let pairs: Vec<(usize, f64)> = share.iter().map(|&i| missing[i]).collect();
    let outcomes = decimate_all(entries, &pairs);
    let mine: Vec<(usize, Vec<u8>)> = share
        .into_iter()
        .zip(&outcomes)
        .map(|(i, outcome)| (i, encode_entry(origin, outcome)))
        .collect();
    const CTX: &str = "contact table";
    let outcomes = allgather_block_records(comm, missing.len(), &mine, CTX, decode_entry)?;
    for (&(entry, _), outcome) in missing.iter().zip(&outcomes) {
        let [l0, _, r0, _] = entries[entry].1;
        let fits = |[l, r]: &[PackedContact; 2]| {
            (l.side, l.n, r.side, r.n) == (Side::Left, l0.nrows(), Side::Right, r0.nrows())
        };
        if outcome.as_ref().is_ok_and(|pair| !fits(pair)) {
            return Err(OmenError::Deserialize { context: CTX });
        }
    }
    Ok(outcomes)
}

/// `H₀ = H(V = 0)` of the device at `ky`: the one assembly of a curve's
/// device Hamiltonian, once per momentum. Every potential the curve solves
/// at enters where the engines form `A`, bit for bit `H(V) = H₀ ⊕ V`.
fn zero_potential_hamiltonian(ham: &DeviceHamiltonian<'_>, ky: f64) -> BlockTridiag {
    ham.assemble(&vec![0.0; ham.device().num_atoms()], ky)
}

/// What a curve knows of its leads per momentum index `k`: one lead pair,
/// stored once and compared entry for entry on every fill and band
/// request, its [`LeadBands`] and its `local_contacts` outcomes per
/// `(k, E)`; a `k` whose lead changed drops its entries and only its own.
/// A serial solve's i-th momentum fills slot i (`solve_sweep` slot 0); the
/// rank path keeps one per rank across the bias points of a curve (in the
/// rank's `ModelBank`). Either way a lead pair that repeats at its slot is
/// diagonalised and decimated once per curve.
///
/// Beside the slots, and not inside them, a serial curve keeps its
/// device's `H₀` per momentum, keyed on `k_y`'s bits: floating leads drop
/// their slot on every SCF iteration, but `H₀` does not depend on the
/// potential. A table therefore belongs to one transistor. The rank path
/// assembles its own systems and never asks for one.
#[derive(Debug, Default)]
pub struct ContactTable {
    slots: Vec<Option<Leads>>,
    hamiltonians: HashMap<u64, BlockTridiag>,
    tally: ContactTally,
}

impl ContactTable {
    /// What slot `k` knows of the lead pair `key`: all of it when its
    /// blocks compare equal entry for entry, else nothing — the one rule
    /// that drops a slot's bands and outcomes together.
    fn keyed_on(&mut self, k: usize, key: LeadKey<'_>) -> &mut Leads {
        if self.slots.len() <= k {
            self.slots.resize_with(k + 1, || None);
        }
        let [l0, l1, r0, r1] = key;
        let key = &key[..if l0 == r0 && l1 == r1 { 2 } else { 4 }];
        let same = |b: &[ZMat]| b.len() == key.len() && b.iter().zip(key).all(|(a, &b)| a == b);
        let slot = &mut self.slots[k];
        if !matches!(slot, Some(leads) if same(&leads.blocks)) {
            *slot = None;
        }
        slot.get_or_insert_with(|| Leads {
            blocks: key.iter().map(|&m| m.clone()).collect(),
            bands: None,
            outcomes: HashMap::new(),
        })
    }

    /// The one fill body: keys each entry's slot on its lead pair (one pair
    /// per slot), lists the `(entry, E)` the table lacks in entry order,
    /// each energy of a slot once, has `decimate_all` return their
    /// outcomes in that order and inserts them. Each entry's tally
    /// reads as if the entries had been filled one after the other (an
    /// energy the table or an earlier entry of its slot holds is reused),
    /// and their sum is added to the table's. Nothing is inserted or
    /// counted when `decimate_all` fails.
    fn fill_by<E>(
        &mut self,
        entries: &[FillEntry<'_>],
        decimate_all: impl FnOnce(&[(usize, f64)]) -> Result<Vec<PackedOutcome>, E>,
    ) -> Result<Vec<ContactTally>, E> {
        let mut listed = HashSet::new();
        let mut missing = Vec::new();
        let mut tallies = Vec::with_capacity(entries.len());
        let mut keyed = HashMap::new();
        for (i, &(k, key, energies)) in entries.iter().enumerate() {
            // A NaN block is the same pair only as the same block.
            let first: LeadKey<'_> = *keyed.entry(k).or_insert(key);
            let same = first
                .iter()
                .zip(key)
                .all(|(&a, b)| std::ptr::eq(a, b) || a == b);
            assert!(same, "slot {k} is keyed on two lead pairs in one fill");
            let known = &self.keyed_on(k, key).outcomes;
            let mut tally = ContactTally::default();
            for &e in energies {
                if !known.contains_key(&e.to_bits()) && listed.insert((k, e.to_bits())) {
                    missing.push((i, e));
                    tally.decimated += 1;
                } else {
                    tally.reused += 1;
                }
            }
            tallies.push(tally);
        }
        let outcomes = decimate_all(&missing)?;
        for (&(i, e), outcome) in missing.iter().zip(outcomes) {
            // Keyed once above, this fill, so no comparison here: a NaN
            // lead never compares equal, and stays in its slot for the
            // fill's reads only.
            if let Some(leads) = &mut self.slots[entries[i].0] {
                leads.outcomes.insert(e.to_bits(), outcome);
            }
        }
        for t in &tallies {
            self.tally.decimated += t.decimated;
            self.tally.reused += t.reused;
        }
        Ok(tallies)
    }

    /// Makes every `(k, E)` of the `entries` present, decimating the missing
    /// pairs on the calling thread and the idle cores of its budget
    /// ([`fan_out_width`]): the same table at every width. Returns each
    /// entry's tally as if the entries had been filled one after the other.
    /// Entries of one slot share one lead pair: a fill keys each slot on one
    /// pair, and panics when another entry of it brings a pair that differs.
    pub(crate) fn fill_serial(&mut self, entries: &[FillEntry<'_>]) -> Vec<ContactTally> {
        let filled = self.fill_by(entries, |missing| {
            Ok::<_, Infallible>(decimate_all(entries, missing))
        });
        let Ok(tallies) = filled;
        tallies
    }

    /// Makes every `(k, E)` of `leads × energies` present, where `leads[k]`
    /// is `k`'s lead pair: the entries `(k, leads[k], energies)` of
    /// `ContactTable::fill_serial`, whose missing pairs are split
    /// round-robin over `comm`. Each member runs `local_contacts` on its
    /// share (on the idle cores of its budget), and one allgather inserts
    /// every outcome on every member in canonical `(k, E)` order. The
    /// allgather runs unconditionally, even when nothing is missing, so the
    /// collective schedule is rank-uniform.
    ///
    /// All members call collectively with the same arguments and a table
    /// with the same history (one `ModelBank` per rank, used on the same
    /// communicator layout); every member then holds the same table and
    /// the same [`ContactTable::take_tally`].
    ///
    /// # Errors
    ///
    /// The allgather's communicator faults; [`OmenError::Deserialize`]
    /// when a gathered entry is malformed or does not fit its lead. A lead
    /// failure is not an error here: it is stored, and read back by
    /// [`ContactTable::contacts`].
    pub fn fill(
        &mut self,
        comm: &Comm<'_>,
        leads: &[LeadKey<'_>],
        energies: &[f64],
    ) -> OmenResult<()> {
        let entries: Vec<FillEntry<'_>> = (leads.iter().enumerate())
            .map(|(k, &key)| (k, key, energies))
            .collect();
        self.fill_by(&entries, |missing| decimate_shared(comm, &entries, missing))
            .map(drop)
    }

    /// The pairs decimated and reused by the fills since the previous call.
    pub fn take_tally(&mut self) -> ContactTally {
        std::mem::take(&mut self.tally)
    }

    /// The [`LeadBands`] of slot `k`'s lead pair `key`, one per lead it
    /// stores (the left, then the right where it differs), diagonalised
    /// the first time a window asks for them: what
    /// [`crate::energy::transport_window`] computes for that pair. The
    /// device's `H₀` at `ky` is made present too ([`ContactTable::hamiltonian`]);
    /// when the table lacks both, they are two items of one fan-out.
    pub(crate) fn bands(
        &mut self,
        k: usize,
        key: LeadKey<'_>,
        ham: &DeviceHamiltonian<'_>,
        ky: f64,
    ) -> &[LeadBands] {
        enum Made {
            Bands(Vec<LeadBands>),
            H0(BlockTridiag),
        }
        let h0_missing = !self.hamiltonians.contains_key(&ky.to_bits());
        let Leads { blocks, bands, .. } = self.keyed_on(k, key);
        // Job 0 diagonalises the leads, job 1 assembles H₀.
        let wanted = [bands.is_none(), h0_missing];
        let jobs: Vec<usize> = (0..2).filter(|&j| wanted[j]).collect();
        let blocks = &*blocks;
        let made = fan_out(jobs.len(), fan_out_width(jobs.len()), |i| match jobs[i] {
            0 => Made::Bands(
                blocks
                    .chunks(2)
                    .map(|b| LeadBands::of(&b[0], &b[1]))
                    .collect(),
            ),
            _ => Made::H0(zero_potential_hamiltonian(ham, ky)),
        });
        let mut h0 = None;
        for m in made {
            match m {
                Made::Bands(b) => *bands = Some(b),
                Made::H0(h) => h0 = Some(h),
            }
        }
        if let Some(h) = h0 {
            self.hamiltonians.insert(ky.to_bits(), h);
        }
        let kept = self.slots[k]
            .as_ref()
            .and_then(|leads| leads.bands.as_deref());
        kept.unwrap_or_default()
    }

    /// The device's `H₀ = H(V = 0)` at `ky`, as the band request of that
    /// momentum assembled it.
    ///
    /// # Panics
    ///
    /// When no band request at `ky` came first.
    pub(crate) fn hamiltonian(&self, ky: f64) -> &BlockTridiag {
        self.hamiltonians
            .get(&ky.to_bits())
            .expect("a band request assembles H₀ before a sweep reads it")
    }

    /// `local_contacts(e, DEFAULT_ETA, ..)` for `k`'s lead pair, as the
    /// last fill stored it.
    ///
    /// # Errors
    ///
    /// The stored typed lead failure.
    ///
    /// # Panics
    ///
    /// When `(k, e)` was not in the last fill.
    pub fn contacts(&self, k: usize, e: f64) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
        let known = self.slots[k]
            .as_ref()
            .and_then(|leads| leads.outcomes.get(&e.to_bits()))
            .expect("a fill covers every (k, E) a point reads");
        unpacked(known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransistorSpec;
    use omen_linalg::threads::{fan_out_spawned, with_budget};
    use omen_negf::local_contacts;
    use omen_tb::Material;

    #[test]
    fn contact_memo_hit_is_a_cold_decimation_and_other_leads_clear_it() {
        // The README wire's lead as both contacts (one pair decimation),
        // then beside itself shifted as a biased drain (two singles).
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let ham = tr.hamiltonian();
        let (a0, a1) = ham.lead_blocks(0.0, 0.0);
        let (b0, b1) = ham.lead_blocks(-0.15, 0.0);
        let bits = |c: &ContactSelfEnergy| {
            let raw = |m: &ZMat| -> Vec<_> {
                m.data()
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            };
            (c.side, c.retries, raw(&c.sigma), raw(&c.gamma))
        };
        let energies = [-3.4, -3.3];
        let pairs = [((&a0, &a1), (&a0, &a1)), ((&a0, &a1), (&b0, &b1))];
        // One energy of one lead pair through a serial fill, then a read.
        type Lead<'a> = (&'a ZMat, &'a ZMat);
        let contacts = |table: &mut ContactTable, e: f64, (l0, l1): Lead, (r0, r1): Lead| {
            table.fill_serial(&[(0, [l0, l1, r0, r1], &[e])]);
            table.contacts(0, e)
        };
        let mut table = ContactTable::default();
        for (lead_l, lead_r) in pairs {
            for want in [(2, 0), (0, 2)] {
                for e in energies {
                    let (l, r) = contacts(&mut table, e, lead_l, lead_r).unwrap();
                    let (cl, cr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
                    assert_eq!((bits(&l), bits(&r)), (bits(&cl), bits(&cr)), "E={e}");
                }
                let t = table.take_tally();
                assert_eq!((t.decimated, t.reused), want);
            }
        }
        // The second pair replaced the first: asking for it again misses.
        let (lead_l, lead_r) = pairs[0];
        contacts(&mut table, energies[0], lead_l, lead_r).unwrap();
        let t = table.take_tally();
        assert_eq!((t.decimated, t.reused), (1, 0));

        // A hit really is served from the table: a doctored entry shows.
        if let Some(leads) = &mut table.slots[0] {
            if let Some(Ok([l, _])) = leads.outcomes.get_mut(&energies[0].to_bits()) {
                l.retries = 7;
            }
        }
        let (l, _) = contacts(&mut table, energies[0], lead_l, lead_r).unwrap();
        assert_eq!(l.retries, 7);
    }

    #[test]
    fn slot_bands_give_the_cold_window_and_keep_both_leads() {
        use crate::energy::{clip, transport_window, EnergyWindow};
        // The README wire's lead, and the same lead as a biased drain.
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let ham = tr.hamiltonian();
        let (a0, a1) = ham.lead_blocks(0.0, 0.0);
        let (b0, b1) = ham.lead_blocks(-0.15, 0.0);
        let (kt, margin_kt, focus) = (0.025, 12.0, (-5.0, 5.0));
        let bits = |w: EnergyWindow| (w.e_min.to_bits(), w.e_max.to_bits());
        let cold = |[l0, l1, r0, r1]: LeadKey<'_>, mus: &[f64]| {
            bits(transport_window(
                &[(l0, l1), (r0, r1)],
                mus,
                kt,
                margin_kt,
                focus,
            ))
        };
        // Moving Fermi levels over one pair (a frozen sweep's gate points),
        // then an unequal pair on the same slot and on a second one, then
        // the first pair again.
        let (equal, unequal, swapped) = (
            [&a0, &a1, &a0, &a1],
            [&a0, &a1, &b0, &b1],
            [&b0, &b1, &a0, &a1],
        );
        let calls = [
            (0, equal, [-3.45, -3.6]),
            (0, equal, [-3.3, -3.45]),
            (0, unequal, [-3.45, -3.6]),
            (0, unequal, [-3.3, -3.45]),
            (1, swapped, [-3.45, -3.6]),
            (0, equal, [-3.45, -3.6]),
        ];
        let mut table = ContactTable::default();
        for (i, (k, key, mus)) in calls.into_iter().enumerate() {
            let warm = clip(table.bands(k, key, &ham, 0.0), &mus, kt, margin_kt, focus);
            assert_eq!(bits(warm), cold(key, &mus), "call {i}");
        }
        // An equal pair keeps one lead's bands, an unequal pair both.
        let kept = |t: &ContactTable, k: usize| t.slots[k].as_ref().and_then(|l| l.bands.clone());
        assert_eq!(kept(&table, 0).map(|b| b.len()), Some(1));
        assert_eq!(kept(&table, 1).map(|b| b.len()), Some(2));

        // A hit really is served from the slot: a doctored band of either
        // lead shows in the window.
        let mus = [-3.45, -3.6];
        let honest = clip(
            table.bands(1, swapped, &ham, 0.0),
            &mus,
            kt,
            margin_kt,
            focus,
        );
        for lead in 0..2 {
            let doctor = |t: &mut ContactTable, by: f64| {
                if let Some(Some(bands)) = t.slots[1].as_mut().map(|l| l.bands.as_mut()) {
                    bands[lead].mins[0] += by;
                }
            };
            doctor(&mut table, -1.0);
            let w = clip(
                table.bands(1, swapped, &ham, 0.0),
                &mus,
                kt,
                margin_kt,
                focus,
            );
            assert!(w.e_min < honest.e_min - 0.2, "lead {lead}: {w:?}");
            doctor(&mut table, 1.0);
        }
    }

    #[test]
    fn entries_round_trip_and_reject_what_does_not_fit() {
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let (h00, h01) = tr.hamiltonian().lead_blocks(0.0, 0.0);
        let (l, r) = local_contacts(-3.3, DEFAULT_ETA, (&h00, &h01), (&h00, &h01)).unwrap();
        let pack = |c: &ContactSelfEnergy| PackedContact::pack(c.side, &c.sigma, c.retries);
        let pair = Ok([pack(&l), pack(&r)]);
        let back = decode_entry(&encode_entry(0, &pair)).unwrap();
        let [bl, br] = back.as_ref().unwrap();
        for (got, want) in [(bl.unpack(), &l), (br.unpack(), &r)] {
            assert_eq!((got.side, got.retries), (want.side, want.retries));
            assert_eq!(got.sigma, want.sigma);
            assert_eq!(got.gamma, want.gamma);
        }
        // The support is a proper subset of the block: what travels is the
        // core, not the n × n matrix.
        assert!(bl.support.len() < bl.n, "{} of {}", bl.support.len(), bl.n);

        let failure = OmenError::LeadNotConverged {
            energy: -3.3,
            iters: 200,
        };
        let back = decode_entry(&encode_entry(4, &Err(failure.clone()))).unwrap();
        assert!(matches!(back, Err(e) if e == failure));

        // A support index past the order is malformed, not a panic later.
        let mut bad = pack(&l);
        bad.n = bad.support[bad.support.len() - 1];
        let bytes = encode_entry(0, &Ok([bad, pack(&r)]));
        assert!(matches!(
            decode_entry(&bytes),
            Err(OmenError::Deserialize { .. })
        ));
    }

    /// A table's fingerprint after each of two fills of `entries`: each
    /// entry's tally and the table's, then every `(k, E)` of every entry
    /// read back — the bits of Σ, Γ and the retries of both contacts, or
    /// the typed failure.
    fn fingerprint(
        entries: &[FillEntry<'_>],
        mut fill: impl FnMut(&mut ContactTable) -> Vec<ContactTally>,
    ) -> Vec<String> {
        let raw = |m: &ZMat| -> Vec<_> {
            m.data()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let mut table = ContactTable::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            let tallies = fill(&mut table);
            out.push(format!("{tallies:?} {:?}", table.take_tally()));
            for &(k, _, energies) in entries {
                for &e in energies {
                    out.push(match table.contacts(k, e) {
                        Ok((l, r)) => format!(
                            "{:?}",
                            [&l, &r].map(|c| (c.side, c.retries, raw(&c.sigma), raw(&c.gamma)))
                        ),
                        Err(err) => format!("{err:?}"),
                    });
                }
            }
        }
        out
    }

    #[test]
    fn every_fill_width_gives_the_same_table() {
        // The README wire's unequal SCF leads (a drain shifted by the
        // bias), a NaN source (never keyed twice: decimated on every fill)
        // and an infinite one (keyed, so its failure is remembered), each
        // failure a typed `LeadNotConverged`, over one grid; then two
        // slots whose grids differ, and two entries of one slot whose grids
        // overlap (a frozen sweep's gate points).
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let ham = tr.hamiltonian();
        let (s0, s1) = ham.lead_blocks(0.0, 0.0);
        let (d0, d1) = ham.lead_blocks(-0.15, 0.0);
        let poisoned = |x: f64| {
            let mut m = s0.clone();
            m[(0, 0)] = omen_num::c64::real(x);
            m
        };
        let (nan, inf) = (poisoned(f64::NAN), poisoned(f64::INFINITY));
        let (biased, equal) = ([&s0, &s1, &d0, &d1], [&s0, &s1, &s0, &s1]);
        let energies = [-3.6, -3.45, -3.3, -3.15, -3.0, -2.85, -2.7];
        let (low, high) = (&energies[..4], &energies[2..]);
        let cases: [Vec<FillEntry<'_>>; 3] = [
            vec![
                (0, biased, &energies),
                (1, [&nan, &s1, &d0, &d1], &energies),
                (2, [&inf, &s1, &inf, &s1], &energies),
            ],
            vec![(0, biased, low), (1, equal, high)],
            vec![(0, equal, low), (0, equal, high)],
        ];
        let tally = |decimated, reused| ContactTally { decimated, reused };
        let (n, m) = (3 * energies.len(), energies.len());
        let first_fills = [
            format!("{:?} {:?}", [tally(m, 0); 3], tally(n, 0)),
            format!("{:?} {:?}", [tally(4, 0), tally(5, 0)], tally(9, 0)),
            format!("{:?} {:?}", [tally(4, 0), tally(3, 2)], tally(7, 2)),
        ];
        for (entries, first_fill) in cases.iter().zip(first_fills) {
            let serial = |t: &mut ContactTable| t.fill_serial(entries);
            let want = with_budget(1, || fingerprint(entries, serial));
            assert_eq!(want[0], first_fill);
            // The budget picks the width; every budget gives the same
            // table, and so does the rank path's fill, whose members
            // decimate their shares on their own budgets.
            for cores in 1..=3 {
                if cores > 1 {
                    let got = with_budget(cores, || fingerprint(entries, serial));
                    assert_eq!(got, want, "budget {cores}");
                }
                for members in [1, 2] {
                    let run = with_budget(cores, || {
                        omen_parsim::run_ranks(members, |ctx| {
                            let comm = Comm::world(ctx);
                            let shared = |m: &[(usize, f64)]| decimate_shared(&comm, entries, m);
                            fingerprint(entries, |t| t.fill_by(entries, shared).unwrap())
                        })
                    });
                    for got in run.results {
                        assert_eq!(got.unwrap(), want, "budget {cores}, {members} members");
                    }
                }
            }
        }
        // The first case: a second fill decimates the NaN lead again and
        // reuses the rest; both poisoned leads fail typed.
        let want = fingerprint(&cases[0], |t| t.fill_serial(&cases[0]));
        let second = [tally(0, m), tally(m, 0), tally(0, m)];
        assert_eq!(want[1 + n], format!("{second:?} {:?}", tally(m, n - m)));
        for k in [1, 2] {
            let read = &want[1 + k * m];
            assert!(read.starts_with("LeadNotConverged"), "{read}");
        }
        assert!(want[1].starts_with('['), "{}", want[1]);
        // The public rank fill is the first case's entry list: the same
        // table tally and reads (it returns no per-entry tallies).
        let table_tallies = |f: Vec<String>| -> Vec<String> {
            let strip = |l: String| l.rsplit_once("] ").map_or(l.clone(), |(_, t)| t.into());
            f.into_iter().map(strip).collect()
        };
        let leads: Vec<LeadKey<'_>> = cases[0].iter().map(|e| e.1).collect();
        let run = omen_parsim::run_ranks(2, |ctx| {
            let comm = Comm::world(ctx);
            fingerprint(&cases[0], |t| {
                t.fill(&comm, &leads, &energies).unwrap();
                Vec::new()
            })
        });
        for got in run.results {
            assert_eq!(table_tallies(got.unwrap()), table_tallies(want.clone()));
        }
    }

    #[test]
    fn a_fill_at_budget_one_starts_no_thread() {
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let ham = tr.hamiltonian();
        let (s0, s1) = ham.lead_blocks(0.0, 0.0);
        let (d0, d1) = ham.lead_blocks(-0.15, 0.0);
        let entries = [(0, [&s0, &s1, &d0, &d1], &[-3.4, -3.3, -3.2][..])];
        let before = fan_out_spawned();
        with_budget(1, || ContactTable::default().fill_serial(&entries));
        assert_eq!(fan_out_spawned(), before);
        // The witness does count: three threads are the caller and two.
        with_budget(3, || ContactTable::default().fill_serial(&entries));
        assert_eq!(fan_out_spawned(), before + 2);
    }

    #[test]
    #[should_panic(expected = "slot 0 is keyed on two lead pairs in one fill")]
    fn a_fill_keys_a_slot_on_one_lead_pair() {
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let ham = tr.hamiltonian();
        let (s0, s1) = ham.lead_blocks(0.0, 0.0);
        let (d0, d1) = ham.lead_blocks(-0.15, 0.0);
        ContactTable::default().fill_serial(&[
            (0, [&s0, &s1, &s0, &s1], &[-3.4][..]),
            (0, [&s0, &s1, &d0, &d1], &[-3.3][..]),
        ]);
    }
}

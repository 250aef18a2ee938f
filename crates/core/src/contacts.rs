//! The contact self-energies a sweep keeps: what depends on the leads and
//! the energy alone, decimated once and read back as often as asked for.
//!
//! * [`ContactMemo`] — one lead pair, its outcomes per energy: the gate
//!   points of a frozen sweep share their leads, so each `(lead, E)` is
//!   decimated once per sweep.
//! * [`ContactTable`] — one lead pair per momentum index `k`, outcomes per
//!   `(k, E)`: the rank path's table. [`ContactTable::fill`] decimates the
//!   pairs it lacks in one phase balanced over a communicator and inserts
//!   them on every member with one allgather, so every member holds the
//!   same table and the units of a sweep only read it.
//!
//! Both key a lead pair on its exact blocks: blocks that do not compare
//! equal entry for entry (a NaN entry never does) drop the pair's outcomes.
//! A table keys each slot once per fill, so a NaN lead's outcomes last
//! for that fill's reads and are decimated again by the next.
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
//! Each memo and table has one owner — a sweep, or a rank's `ModelBank`
//! across the bias points of one curve; nothing shares one across sweeps
//! or requests (a shared cache would need an eviction policy — `ci.sh`
//! keeps this module free of process-wide state).

use crate::parallel::assign;
use omen_linalg::ZMat;
use omen_negf::serialize::{allgather_block_records, bytes_to_mat, mat_to_bytes};
use omen_negf::transport::DEFAULT_ETA;
use omen_negf::{local_contacts, ContactSelfEnergy, Side};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use omen_parsim::Comm;
use std::collections::HashMap;
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
    /// `c` on its support.
    pub fn pack(c: &ContactSelfEnergy) -> Self {
        let support = c.sigma.support();
        PackedContact {
            side: c.side,
            n: c.sigma.nrows(),
            core: c.sigma.principal(&support),
            support,
            retries: c.retries,
        }
    }

    /// The contact [`PackedContact::pack`] was given, bit for bit.
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

/// How many contact pairs a [`ContactMemo`] or a [`ContactTable`]
/// decimated and how many it served from memory.
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

/// The outcomes of one lead pair, keyed on `E`'s bits, beside the blocks
/// of the pair they belong to: the left lead's, and the right lead's only
/// where they differ.
#[derive(Debug, Default)]
struct LeadSlot(Option<(Vec<ZMat>, HashMap<u64, PackedOutcome>)>);

impl LeadSlot {
    /// The outcomes of the lead pair `key`: this slot's when its blocks
    /// compare equal entry for entry, else a fresh, empty map.
    fn outcomes(&mut self, key: LeadKey<'_>) -> &mut HashMap<u64, PackedOutcome> {
        let [l0, l1, r0, r1] = key;
        let key = &key[..if l0 == r0 && l1 == r1 { 2 } else { 4 }];
        let same = |k: &[ZMat]| k.len() == key.len() && k.iter().zip(key).all(|(a, &b)| a == b);
        if !matches!(&self.0, Some((k, _)) if same(k)) {
            self.0 = None;
        }
        let fresh = || (key.iter().map(|&m| m.clone()).collect(), HashMap::new());
        &mut self.0.get_or_insert_with(fresh).1
    }

    /// The outcomes [`LeadSlot::outcomes`] last keyed, without comparing
    /// blocks again: a lead with a NaN entry never compares equal, so a
    /// second comparison would drop what the first keyed.
    fn keyed(&mut self) -> Option<&mut HashMap<u64, PackedOutcome>> {
        self.0.as_mut().map(|(_, outcomes)| outcomes)
    }
}

fn unpacked(known: &PackedOutcome) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    match known {
        Ok([l, r]) => Ok((l.unpack(), r.unpack())),
        Err(err) => Err(err.clone()),
    }
}

/// The `local_contacts` outcomes of the lead pair most recently asked for,
/// one per energy. A sweep loop that keeps one of these across its gate
/// points decimates each `(lead, E)` once; another lead pair replaces the
/// one remembered.
#[derive(Debug, Default)]
pub struct ContactMemo {
    slot: LeadSlot,
    tally: ContactTally,
}

impl ContactMemo {
    /// `local_contacts(e, DEFAULT_ETA, lead_l, lead_r)`, decimated only
    /// when this lead pair at this energy is not remembered.
    ///
    /// # Errors
    ///
    /// The decimation's typed lead failure, fresh or remembered.
    pub fn contacts(
        &mut self,
        e: f64,
        lead_l: (&ZMat, &ZMat),
        lead_r: (&ZMat, &ZMat),
    ) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
        let outcomes = self.slot.outcomes([lead_l.0, lead_l.1, lead_r.0, lead_r.1]);
        if let Some(known) = outcomes.get(&e.to_bits()) {
            self.tally.reused += 1;
            return unpacked(known);
        }
        self.tally.decimated += 1;
        let fresh = local_contacts(e, DEFAULT_ETA, lead_l, lead_r);
        let packed = fresh
            .as_ref()
            .map(|(l, r)| [PackedContact::pack(l), PackedContact::pack(r)])
            .map_err(Clone::clone);
        outcomes.insert(e.to_bits(), packed);
        fresh
    }

    /// The decimations and reuses since the previous call.
    pub fn take_tally(&mut self) -> ContactTally {
        std::mem::take(&mut self.tally)
    }
}

/// The `local_contacts` outcomes of one sweep per `(k, E)`: one lead pair
/// per momentum index `k`, stored once and compared entry for entry on
/// every [`ContactTable::fill`]; a `k` whose lead changed drops its
/// entries and only its own. The rank path keeps one per rank across the
/// bias points of a curve (in the rank's `ModelBank`), so pairs that
/// repeat are decimated once per curve.
#[derive(Debug, Default)]
pub struct ContactTable {
    slots: Vec<LeadSlot>,
}

impl ContactTable {
    /// Makes every `(k, E)` of `leads × energies` present, where `leads[k]`
    /// is `k`'s lead pair. The pairs missing from the table are split
    /// round-robin over `comm`, each member runs `local_contacts` on its
    /// share, and one allgather inserts every outcome on every member in
    /// canonical `(k, E)` order. The allgather runs unconditionally, even
    /// when nothing is missing, so the collective schedule is
    /// rank-uniform.
    ///
    /// All members call collectively with the same arguments and a table
    /// with the same history (one `ModelBank` per rank, used on the same
    /// communicator layout); every member then returns the same tally and
    /// holds the same table.
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
    ) -> OmenResult<ContactTally> {
        if self.slots.len() < leads.len() {
            self.slots.resize_with(leads.len(), LeadSlot::default);
        }
        let mut missing = Vec::new();
        for (ik, (slot, &key)) in self.slots.iter_mut().zip(leads).enumerate() {
            let known = slot.outcomes(key);
            let absent = energies
                .iter()
                .filter(|e| !known.contains_key(&e.to_bits()));
            missing.extend(absent.map(|&e| (ik, e)));
        }
        let origin = comm.global_rank(comm.rank());
        let mine: Vec<(usize, Vec<u8>)> = assign(missing.len(), comm.size(), comm.rank())
            .into_iter()
            .map(|i| {
                let (ik, e) = missing[i];
                let [l0, l1, r0, r1] = leads[ik];
                let fresh = local_contacts(e, DEFAULT_ETA, (l0, l1), (r0, r1))
                    .map(|(l, r)| [PackedContact::pack(&l), PackedContact::pack(&r)]);
                (i, encode_entry(origin, &fresh))
            })
            .collect();
        const CTX: &str = "contact table";
        let outcomes = allgather_block_records(comm, missing.len(), &mine, CTX, decode_entry)?;
        for (&(ik, e), outcome) in missing.iter().zip(outcomes) {
            let [l0, _, r0, _] = leads[ik];
            let fits = |[l, r]: &[PackedContact; 2]| {
                (l.side, l.n, r.side, r.n) == (Side::Left, l0.nrows(), Side::Right, r0.nrows())
            };
            if outcome.as_ref().is_ok_and(|pair| !fits(pair)) {
                return Err(OmenError::Deserialize { context: CTX });
            }
            // Keyed once above, this fill: a NaN lead stays in its slot
            // for the fill's reads and misses on the next fill.
            if let Some(known) = self.slots[ik].keyed() {
                known.insert(e.to_bits(), outcome);
            }
        }
        Ok(ContactTally {
            decimated: missing.len(),
            reused: leads.len() * energies.len() - missing.len(),
        })
    }

    /// `local_contacts(e, DEFAULT_ETA, ..)` for `k`'s lead pair, as the
    /// last [`ContactTable::fill`] stored it.
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
            .0
            .as_ref()
            .and_then(|(_, outcomes)| outcomes.get(&e.to_bits()))
            .expect("ContactTable::fill covers every (k, E) a unit reads");
        unpacked(known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransistorSpec;
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
        let mut memo = ContactMemo::default();
        for (lead_l, lead_r) in pairs {
            for want in [(2, 0), (0, 2)] {
                for e in energies {
                    let (l, r) = memo.contacts(e, lead_l, lead_r).unwrap();
                    let (cl, cr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
                    assert_eq!((bits(&l), bits(&r)), (bits(&cl), bits(&cr)), "E={e}");
                }
                let t = memo.take_tally();
                assert_eq!((t.decimated, t.reused), want);
            }
        }
        // The second pair replaced the first: asking for it again misses.
        let (lead_l, lead_r) = pairs[0];
        memo.contacts(energies[0], lead_l, lead_r).unwrap();
        let t = memo.take_tally();
        assert_eq!((t.decimated, t.reused), (1, 0));

        // A hit really is served from the memo: a doctored entry shows.
        if let Some((_, outcomes)) = &mut memo.slot.0 {
            if let Some(Ok([l, _])) = outcomes.get_mut(&energies[0].to_bits()) {
                l.retries = 7;
            }
        }
        let (l, _) = memo.contacts(energies[0], lead_l, lead_r).unwrap();
        assert_eq!(l.retries, 7);
    }

    #[test]
    fn entries_round_trip_and_reject_what_does_not_fit() {
        let single = Material::SingleBand { t_mev: 1000 };
        let tr = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let (h00, h01) = tr.hamiltonian().lead_blocks(0.0, 0.0);
        let (l, r) = local_contacts(-3.3, DEFAULT_ETA, (&h00, &h01), (&h00, &h01)).unwrap();
        let pair = Ok([PackedContact::pack(&l), PackedContact::pack(&r)]);
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
        let mut bad = PackedContact::pack(&l);
        bad.n = bad.support[bad.support.len() - 1];
        let bytes = encode_entry(0, &Ok([bad, PackedContact::pack(&r)]));
        assert!(matches!(
            decode_entry(&bytes),
            Err(OmenError::Deserialize { .. })
        ));
    }
}

//! Contact self-energies for one (E, k) point — the first stage of every
//! point solve, with an output the engines take as an argument: decimated
//! locally, or once across a communicator.
//!
//! **One decimation per distinct lead.** Source and drain of a frozen
//! sweep, of every `frozen_system` caller and of the phonon path are the
//! *same* `(h00, h01)`; for those [`local_contacts`] runs one
//! Sancho–Rubio decimation that yields both surface GFs
//! ([`ContactSelfEnergy::compute_pair`]) instead of two. Leads that differ
//! (the drain shifted by the bias inside an SCF loop) are decimated one by
//! one.
//!
//! **Once per communicator.** In a rank-parallel point solve
//! ([`distributed_contacts`]) the first rank of the communicator decimates
//! the left lead, the last rank the right lead, and two broadcasts ship
//! the results (or the typed failure) to everyone; when the two leads are
//! one, rank 0 decimates the pair and one broadcast ships both contacts.
//! Per (E, k) point each distinct lead is decimated exactly once, and the
//! distributed path does the arithmetic of the serial one.
//!
//! The broadcast payloads double as the health barrier: a failed lead
//! solve travels in the error format of [`omen_num::wire`] (the one place
//! the primitive layout and the error encoding are declared) and decodes
//! into the *same* typed error on every rank, so the SPMD schedule never
//! diverges on a lead failure.

use crate::sancho::{ContactSelfEnergy, Side};
use crate::serialize::{bytes_to_mat_array, mats_to_bytes};
use omen_linalg::ZMat;
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use omen_parsim::Comm;

const CONTACT_OK: u8 = 0;
const CONTACT_ERR: u8 = 1;

/// One lead's self-energy, a failure stamped with the energy.
fn lead_self_energy(
    e: f64,
    eta: f64,
    lead: (&ZMat, &ZMat),
    side: Side,
) -> OmenResult<ContactSelfEnergy> {
    ContactSelfEnergy::compute(e, eta, lead.0, lead.1, side).map_err(|err| err.with_energy(e))
}

/// Whether both contacts are the same lead: the same blocks in memory, or
/// blocks that compare equal entry for entry (the test
/// `omen_core::energy::transport_window` applies to skip a repeated lead).
/// A pure function of the arguments' values and aliasing, so every rank
/// of a collective call decides alike.
fn same_lead(lead_l: (&ZMat, &ZMat), lead_r: (&ZMat, &ZMat)) -> bool {
    let same = |a: &ZMat, b: &ZMat| std::ptr::eq(a, b) || a == b;
    same(lead_l.0, lead_r.0) && same(lead_l.1, lead_r.1)
}

/// Both contact self-energies, decimated on this rank — what
/// `omen_core::ballistic::solve_point` hands its engine, and the
/// single-rank case of [`distributed_contacts`]. Equal leads share one
/// pair decimation in the right-lead orientation: `Σ_R` is then the single
/// right decimation bit for bit and `Σ_L` the single left one to rounding
/// — exactly, on a tight-binding lead (see [`crate::sancho`]).
///
/// # Errors
///
/// The first failing lead's typed failure
/// ([`omen_num::OmenError::LeadNotConverged`] /
/// [`omen_num::OmenError::SingularBlock`], stamped with `e`) once the
/// Sancho–Rubio recovery policy is exhausted.
pub fn local_contacts(
    e: f64,
    eta: f64,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    if same_lead(lead_l, lead_r) {
        return ContactSelfEnergy::compute_pair(e, eta, lead_r.0, lead_r.1)
            .map_err(|err| err.with_energy(e));
    }
    Ok((
        lead_self_energy(e, eta, lead_l, Side::Left)?,
        lead_self_energy(e, eta, lead_r, Side::Right)?,
    ))
}

/// The success form of every contact payload: `[0][retries][bundle of
/// blocks]`.
fn encode_ok(retries: usize, blocks: &[&ZMat]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CONTACT_OK);
    e.usize(retries);
    e.raw(&mats_to_bytes(blocks));
    e.finish()
}

/// The failure form: `[1]` and the typed error attributed to global rank
/// `origin_rank`.
fn encode_err(origin_rank: usize, err: &OmenError) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CONTACT_ERR);
    e.error(err, origin_rank);
    e.finish()
}

/// Reads either payload form; a success must hold exactly `N` blocks.
fn decode_outcome<const N: usize>(b: &[u8]) -> OmenResult<(usize, [ZMat; N])> {
    const CTX: &str = "contact payload";
    let mut d = Dec::new(b, CTX);
    match d.u8()? {
        CONTACT_OK => {
            let retries = d.usize()?;
            Ok((retries, bytes_to_mat_array(d.rest(), CTX)?))
        }
        CONTACT_ERR => {
            let err = d.error()?;
            d.finish()?;
            Err(err)
        }
        kind => Err(d.invalid(format_args!("unknown contact kind {kind}"))),
    }
}

/// Serializes one lead's outcome for the broadcast: `[0][retries][Σ, Γ
/// bundle]`, or `[1]` and the typed error attributed to global rank
/// `origin_rank`.
pub fn encode_contact(origin_rank: usize, r: &OmenResult<ContactSelfEnergy>) -> Vec<u8> {
    match r {
        Ok(se) => encode_ok(se.retries, &[&se.sigma, &se.gamma]),
        Err(err) => encode_err(origin_rank, err),
    }
}

/// Inverse of [`encode_contact`]: the decimating rank's self-energy, or
/// its typed failure as this call's error.
///
/// # Errors
///
/// The transported lead failure;
/// [`OmenError::Deserialize`](omen_num::OmenError) when the payload is
/// malformed.
pub fn decode_contact(b: &[u8], side: Side) -> OmenResult<ContactSelfEnergy> {
    let (retries, [sigma, gamma]) = decode_outcome(b)?;
    Ok(ContactSelfEnergy {
        side,
        sigma,
        gamma,
        retries,
    })
}

/// Serializes the outcome of a pair decimation — both contacts of one
/// lead, which share their retry count — for a single broadcast:
/// `[0][retries][Σ_L, Γ_L, Σ_R, Γ_R bundle]`, or the error form of
/// [`encode_contact`].
pub fn encode_contact_pair(
    origin_rank: usize,
    r: &OmenResult<(ContactSelfEnergy, ContactSelfEnergy)>,
) -> Vec<u8> {
    match r {
        Ok((sl, sr)) => encode_ok(sr.retries, &[&sl.sigma, &sl.gamma, &sr.sigma, &sr.gamma]),
        Err(err) => encode_err(origin_rank, err),
    }
}

/// Inverse of [`encode_contact_pair`]: `(Σ_L, Σ_R)` with their Γ, or the
/// decimating rank's typed failure as this call's error.
///
/// # Errors
///
/// As [`decode_contact`].
pub fn decode_contact_pair(b: &[u8]) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    let (retries, [sigma_l, gamma_l, sigma_r, gamma_r]) = decode_outcome(b)?;
    let contact = |side, sigma, gamma| ContactSelfEnergy {
        side,
        sigma,
        gamma,
        retries,
    };
    Ok((
        contact(Side::Left, sigma_l, gamma_l),
        contact(Side::Right, sigma_r, gamma_r),
    ))
}

/// Computes both contact self-energies exactly once across the
/// communicator and delivers `(Σ_L, Σ_R)` (with their Γ and retry counts)
/// to every rank — the bits [`local_contacts`] returns for the same
/// arguments. Equal leads: rank 0 decimates the pair and **one** broadcast
/// ships both contacts. Unequal leads: rank 0 decimates the left lead,
/// rank `size−1` the right lead, two broadcasts. On a single-rank
/// communicator everything is local, with no collective traffic.
///
/// All members must call collectively with identical arguments (every
/// rank then makes the same equal-leads decision, so the collective
/// schedule is rank-uniform); every rank returns the same value
/// (bit-identical blocks — the broadcast round-trips `f64` bits exactly).
///
/// # Errors
///
/// A failed lead solve returns the decimating rank's typed
/// [`OmenError::LeadNotConverged`](omen_num::OmenError) /
/// [`OmenError::SingularBlock`](omen_num::OmenError) (stamped with `e`)
/// identically on every rank; communicator faults surface as
/// [`OmenError::RecvTimeout`](omen_num::OmenError) /
/// [`OmenError::ChannelClosed`](omen_num::OmenError) /
/// [`OmenError::ScheduleDivergence`](omen_num::OmenError).
pub fn distributed_contacts(
    comm: &Comm,
    e: f64,
    eta: f64,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    if comm.size() == 1 {
        return local_contacts(e, eta, lead_l, lead_r);
    }
    let me = comm.rank();
    let last = comm.size() - 1;
    let origin = comm.global_rank(me);
    if same_lead(lead_l, lead_r) {
        let payload = if me == 0 {
            encode_contact_pair(origin, &local_contacts(e, eta, lead_l, lead_r))
        } else {
            Vec::new()
        };
        return decode_contact_pair(&comm.bcast(0, payload)?);
    }
    // Decimate before any traffic: each root rank computes its lead, the
    // others contribute empty payloads the broadcast ignores.
    let left_payload = if me == 0 {
        encode_contact(origin, &lead_self_energy(e, eta, lead_l, Side::Left))
    } else {
        Vec::new()
    };
    let right_payload = if me == last {
        encode_contact(origin, &lead_self_energy(e, eta, lead_r, Side::Right))
    } else {
        Vec::new()
    };
    // Both broadcasts run unconditionally on every rank, in the same
    // order, so the collective schedule is rank-uniform even when a lead
    // solve failed — the failure rides inside the payload.
    let left_bytes = comm.bcast(0, left_payload)?;
    let right_bytes = comm.bcast(last, right_payload)?;
    let sl = decode_contact(&left_bytes, Side::Left)?;
    let sr = decode_contact(&right_bytes, Side::Right)?;
    Ok((sl, sr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_num::c64;
    use omen_num::OmenError;
    use omen_parsim::{run_ranks, Comm};

    fn lead() -> (ZMat, ZMat) {
        (
            ZMat::from_diag(&[c64::real(0.0)]),
            ZMat::from_diag(&[c64::real(-1.0)]),
        )
    }

    fn assert_same(got: &ContactSelfEnergy, want: &ContactSelfEnergy, what: &str) {
        assert_eq!(got.side, want.side, "{what}");
        assert_eq!(got.sigma, want.sigma, "{what}");
        assert_eq!(got.gamma, want.gamma, "{what}");
        assert_eq!(got.retries, want.retries, "{what}");
    }

    #[test]
    fn matches_local_computation_on_every_rank() {
        // The reference is `local_contacts`, not the two single
        // decimations: this 1 × 1 chain's coupling has overlapping
        // supports, so the pair's left contact equals `compute(.., Left)`
        // to rounding only — what every rank must hold is the serial
        // path's bits.
        let (h00, h01) = lead();
        let (s00, s01) = (ZMat::from_diag(&[c64::real(0.05)]), h01.clone());
        let (h00_copy, h01_copy) = (h00.clone(), h01.clone());
        let e = 0.4;
        // (left, right, broadcasts): aliased and merely equal blocks are
        // one lead; a shifted drain is a second one.
        let cases = [
            ((&h00, &h01), (&h00, &h01), 1u64),
            ((&h00, &h01), (&h00_copy, &h01_copy), 1),
            ((&h00, &h01), (&s00, &s01), 2),
        ];
        for (lead_l, lead_r, bcasts) in cases {
            let (sl_ref, sr_ref) = local_contacts(e, 1e-6, lead_l, lead_r).unwrap();
            for nranks in [1usize, 2, 4] {
                let out = run_ranks(nranks, |ctx| {
                    let comm = Comm::world(ctx);
                    distributed_contacts(&comm, e, 1e-6, lead_l, lead_r)
                })
                .flattened();
                // One collective per member per broadcast; a communicator
                // of one computes locally.
                let want = if nranks == 1 {
                    0
                } else {
                    bcasts * nranks as u64
                };
                assert_eq!(out.total_stats().collectives, want, "nranks={nranks}");
                for (sl, sr) in out.unwrap_all() {
                    let what = format!("nranks={nranks}, {bcasts} broadcast(s)");
                    assert_same(&sl, &sl_ref, &what);
                    assert_same(&sr, &sr_ref, &what);
                }
            }
        }
    }

    #[test]
    fn equal_leads_share_one_decimation_and_unequal_leads_do_not() {
        let (h00, h01) = lead();
        let e = 0.4;
        let right = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap();
        let pair = ContactSelfEnergy::compute_pair(e, 1e-6, &h00, &h01).unwrap();
        let (sl, sr) = local_contacts(e, 1e-6, (&h00, &h01), (&h00.clone(), &h01)).unwrap();
        assert_same(&sl, &pair.0, "equal leads: pair left");
        assert_same(&sr, &pair.1, "equal leads: pair right");
        assert_same(&sr, &right, "the pair runs in the right orientation");

        // A drain at another potential is decimated on its own.
        let shifted = ZMat::from_diag(&[c64::real(0.05)]);
        let (sl, sr) = local_contacts(e, 1e-6, (&h00, &h01), (&shifted, &h01)).unwrap();
        let left = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Left).unwrap();
        let right = ContactSelfEnergy::compute(e, 1e-6, &shifted, &h01, Side::Right).unwrap();
        assert_same(&sl, &left, "unequal leads: single left");
        assert_same(&sr, &right, "unequal leads: single right");
    }

    #[test]
    fn pair_payload_round_trips() {
        let (h00, h01) = lead();
        let pair = ContactSelfEnergy::compute_pair(0.4, 1e-6, &h00, &h01);
        let (sl, sr) = decode_contact_pair(&encode_contact_pair(0, &pair)).unwrap();
        let (sl_ref, sr_ref) = pair.unwrap();
        assert_same(&sl, &sl_ref, "left");
        assert_same(&sr, &sr_ref, "right");
        // A single-contact payload is not a pair, and the other way round.
        let single = encode_contact(0, &Ok(sr_ref.clone()));
        assert!(matches!(
            decode_contact_pair(&single),
            Err(OmenError::Deserialize { .. })
        ));
        let both = encode_contact_pair(0, &Ok((sl_ref, sr_ref)));
        assert!(matches!(
            decode_contact(&both, Side::Left),
            Err(OmenError::Deserialize { .. })
        ));
    }

    #[test]
    fn lead_failure_is_typed_and_identical_on_every_rank() {
        // A NaN-poisoned lead block cannot converge: every rank must see
        // the same typed error, none may hang or panic — whether the
        // poisoned lead is one of two or both contacts at once.
        let h00 = ZMat::from_diag(&[c64::new(f64::NAN, 0.0)]);
        let h01 = ZMat::from_diag(&[c64::real(-1.0)]);
        let (g00, g01) = lead();
        for lead_r in [(&g00, &g01), (&h00, &h01)] {
            let out = run_ranks(3, |ctx| {
                let comm = Comm::world(ctx);
                distributed_contacts(&comm, 0.2, 1e-6, (&h00, &h01), lead_r)
            })
            .flattened();
            for r in out.results {
                match r {
                    Err(
                        OmenError::LeadNotConverged { .. }
                        | OmenError::SingularBlock { .. }
                        | OmenError::RankFailed { .. },
                    ) => {}
                    other => panic!("expected a typed lead failure, got {other:?}"),
                }
            }
        }
    }
}

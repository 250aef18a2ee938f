//! Contact self-energies for one (E, k) point: locally, or decimated
//! once across a communicator.
//!
//! In every rank-parallel per-point solve the two lead self-energies used
//! to be decimated redundantly on every rank — pure wasted flops at scale
//! (the ROADMAP's standing item). Here the first rank of the communicator
//! decimates the left lead, the last rank the right lead, and two
//! broadcasts ship the results (or the typed failure) to everyone:
//! per (E, k) point each lead is decimated exactly once.
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
use omen_num::OmenResult;
use omen_parsim::Comm;

const CONTACT_OK: u8 = 0;
const CONTACT_ERR: u8 = 1;

/// One lead's self-energy, a failure stamped with the energy.
///
/// # Errors
///
/// The Sancho–Rubio solve's typed failure
/// ([`omen_num::OmenError::LeadNotConverged`] /
/// [`omen_num::OmenError::SingularBlock`]) once its recovery policy is
/// exhausted.
pub fn lead_self_energy(
    e: f64,
    eta: f64,
    lead: (&ZMat, &ZMat),
    side: Side,
) -> OmenResult<ContactSelfEnergy> {
    ContactSelfEnergy::compute(e, eta, lead.0, lead.1, side).map_err(|err| err.with_energy(e))
}

/// Both contact self-energies, decimated on this rank — the prologue of
/// every serial per-energy engine and the single-rank case of
/// [`distributed_contacts`].
///
/// # Errors
///
/// The first failing lead's [`lead_self_energy`] error.
pub fn local_contacts(
    e: f64,
    eta: f64,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<(ContactSelfEnergy, ContactSelfEnergy)> {
    Ok((
        lead_self_energy(e, eta, lead_l, Side::Left)?,
        lead_self_energy(e, eta, lead_r, Side::Right)?,
    ))
}

/// Serializes one lead's outcome for the broadcast: `[0][retries][Σ, Γ
/// bundle]`, or `[1]` and the typed error attributed to global rank
/// `origin_rank`.
pub fn encode_contact(origin_rank: usize, r: &OmenResult<ContactSelfEnergy>) -> Vec<u8> {
    let mut e = Enc::new();
    match r {
        Ok(se) => {
            e.u8(CONTACT_OK);
            e.usize(se.retries);
            e.raw(&mats_to_bytes(&[&se.sigma, &se.gamma]));
        }
        Err(err) => {
            e.u8(CONTACT_ERR);
            e.error(err, origin_rank);
        }
    }
    e.finish()
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
    const CTX: &str = "contact payload";
    let mut d = Dec::new(b, CTX);
    match d.u8()? {
        CONTACT_OK => {
            let retries = d.usize()?;
            let [sigma, gamma] = bytes_to_mat_array(d.rest(), CTX)?;
            Ok(ContactSelfEnergy {
                side,
                sigma,
                gamma,
                retries,
            })
        }
        CONTACT_ERR => {
            let err = d.error()?;
            d.finish()?;
            Err(err)
        }
        kind => Err(d.invalid(format_args!("unknown contact kind {kind}"))),
    }
}

/// Computes both contact self-energies exactly once across the
/// communicator: rank 0 decimates the left lead, rank `size−1` the right
/// lead, and two broadcasts deliver `(Σ_L, Σ_R)` (with their Γ and retry
/// counts) to every rank. On a single-rank communicator both leads are
/// computed locally ([`local_contacts`]) with no collective traffic.
///
/// All members must call collectively with identical arguments; every
/// rank returns the same value (bit-identical blocks — the broadcast
/// round-trips `f64` bits exactly).
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

    #[test]
    fn matches_local_computation_on_every_rank() {
        let (h00, h01) = lead();
        let e = 0.4;
        let sl_ref = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Left).unwrap();
        let sr_ref = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap();
        for nranks in [1usize, 2, 4] {
            let out = run_ranks(nranks, |ctx| {
                let comm = Comm::world(ctx);
                distributed_contacts(&comm, e, 1e-6, (&h00, &h01), (&h00, &h01))
            })
            .flattened();
            for (sl, sr) in out.unwrap_all() {
                assert_eq!(sl.sigma, sl_ref.sigma, "nranks={nranks}");
                assert_eq!(sl.gamma, sl_ref.gamma);
                assert_eq!(sl.retries, sl_ref.retries);
                assert_eq!(sr.sigma, sr_ref.sigma);
                assert_eq!(sr.gamma, sr_ref.gamma);
                assert_eq!(sr.retries, sr_ref.retries);
            }
        }
    }

    #[test]
    fn lead_failure_is_typed_and_identical_on_every_rank() {
        // A NaN-poisoned lead block cannot converge: every rank must see
        // the same typed error, none may hang or panic.
        let h00 = ZMat::from_diag(&[c64::new(f64::NAN, 0.0)]);
        let h01 = ZMat::from_diag(&[c64::real(-1.0)]);
        let (g00, g01) = lead();
        let out = run_ranks(3, |ctx| {
            let comm = Comm::world(ctx);
            distributed_contacts(&comm, 0.2, 1e-6, (&h00, &h01), (&g00, &g01))
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

//! Contact self-energies for one (E, k) point — the first stage of every
//! point solve, with an output the engines take as an argument.
//!
//! **One decimation per distinct lead.** Source and drain of a frozen
//! sweep, of every `frozen_system` caller and of the phonon path are the
//! *same* `(h00, h01)`; for those [`local_contacts`] runs one
//! Sancho–Rubio decimation that yields both surface GFs
//! ([`ContactSelfEnergy::compute_pair`]) instead of two. Leads that differ
//! (the drain shifted by the bias inside an SCF loop) are decimated one by
//! one.
//!
//! Ranks do not decimate here: the rank path fills one contact table per
//! sweep over its group (`omen_core::contacts::ContactTable`), each
//! `(k, E)` decimated once by [`local_contacts`] on one rank and
//! allgathered, and its units read the table.

use crate::sancho::{ContactSelfEnergy, Side};
use omen_linalg::ZMat;
use omen_num::OmenResult;

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
fn same_lead(lead_l: (&ZMat, &ZMat), lead_r: (&ZMat, &ZMat)) -> bool {
    let same = |a: &ZMat, b: &ZMat| std::ptr::eq(a, b) || a == b;
    same(lead_l.0, lead_r.0) && same(lead_l.1, lead_r.1)
}

/// Both contact self-energies, decimated on this rank — what
/// `omen_core::ballistic::solve_point` hands its engine, and what the rank
/// path's contact table stores per `(k, E)`. Equal leads share one
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

#[cfg(test)]
mod tests {
    use super::*;
    use omen_num::c64;

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
}

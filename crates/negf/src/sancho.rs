//! Sancho–Rubio decimation for lead surface Green's functions.
//!
//! A semi-infinite periodic lead with principal-layer Hamiltonian `H00` and
//! inter-layer coupling `H01` (cell *i* → cell *i+1*, toward +x) has a
//! surface Green's function obeying
//!
//! ```text
//! left  lead (extends to −∞):  g = [E − H00 − H01† g H01]⁻¹
//! right lead (extends to +∞):  g = [E − H00 − H01  g H01†]⁻¹
//! ```
//!
//! The decimation iteration doubles the effective decimated length every
//! step, so convergence is quadratic; with the small imaginary part `η`
//! added to the energy it terminates in 15–40 iterations across a band.
//!
//! **Choosing η**: the decimated finite chain of length 2ᵏ has discrete
//! eigenvalues; when `E` lands exactly on one of them (high-symmetry values
//! like the band center) the intermediate resolvent `1/(E+iη−ε)` blows up
//! and η ≲ 1e-8 loses all precision to rounding. η in the 1e-6…1e-5 range
//! keeps every intermediate bounded and still perturbs the physics at the
//! 1e-5 eV level — far below thermal broadening.
//!
//! **Failure policy**: the iteration is bounded ([`MAX_DECIMATION_ITERS`]);
//! non-convergence or a singular intermediate yields a typed
//! [`OmenError`]. [`surface_green_function`] retries with the energy
//! nudged by a few η (off any pathological resonance of the decimated
//! chain) before giving up, reporting the retry count so sweeps can
//! account the recovery.
//!
//! **One decimation, both surfaces**: the left recursion is the right one
//! with the couplings swapped (`α_L = H01† = β_R`, `β_L = H01 = α_R`), so
//! at every iteration both orientations hold the same `g`, the same
//! products `αgβ` / `βgα` and the same contraction test, and differ only
//! in which product feeds the surface ε: `ε_s += αgβ` on one side,
//! `ε_s' += βgα` on the mirror. A lead that terminates *both* ends of a
//! device therefore needs one loop carrying two surface accumulators and
//! one extra inverse at the exit ([`surface_green_function_pair`]) instead
//! of two decimations. The pair runs in the right-lead orientation, so its
//! right GF is the single right decimation bit for bit. Its left GF would
//! have had its bulk ε built as `βgα + αgβ` — the same two terms added in
//! the other order — so on a dense lead it agrees with the single left
//! decimation to rounding only (`contacts.pair_vs_single` in
//! `TOLERANCES.toml`). A tight-binding lead couples the surface atoms of
//! one cell to the facing atoms of the next: the rows and columns `H01`
//! touches are disjoint, `αgβ` and `βgα` never write the same entry, the
//! order of the two adds cannot matter, and both GFs are bit-identical to
//! the two single decimations.
//!
//! Device coupling: the left contact touches slab 0 through `H_{0,-1} = H01†`
//! giving `Σ_L = H01† g_L H01`; the right contact touches slab N−1 through
//! `H_{N-1,N} = H01` giving `Σ_R = H01 g_R H01†`.

use omen_linalg::{gemm, lu, Op, ZMat};
use omen_num::{c64, OmenError, OmenResult};

/// Which contact a self-energy belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Lead extending toward −x, attached to slab 0.
    Left,
    /// Lead extending toward +x, attached to the last slab.
    Right,
}

/// Iteration bound of the decimation loop. Quadratic convergence needs
/// 15–40 iterations; 200 is far past any physical case, so exhausting it
/// means the energy sits on a pathological resonance.
pub const MAX_DECIMATION_ITERS: usize = 200;

/// Energy-nudge retries [`surface_green_function`] spends on a
/// non-converged lead before surfacing the error.
pub const MAX_LEAD_RETRIES: usize = 3;

/// Every entry of `m` is below `tol` in magnitude, without a `hypot` per
/// element: the squared magnitude settles every entry except one within
/// rounding distance of the threshold, which alone pays for the exact
/// magnitude. A NaN entry counts as contracted — the finite-surface-GF
/// gate at the exit of [`decimate`] is what catches a poisoned lead.
fn contracted(m: &ZMat, tol: f64) -> bool {
    let (lo, hi) = (tol * tol * (1.0 - 1e-9), tol * tol * (1.0 + 1e-9));
    m.data().iter().all(|z| {
        let q = z.norm_sqr();
        q.is_nan() || q < lo || (q < hi && z.abs() < tol)
    })
}

/// Core decimation loop with an explicit iteration bound: the surface GF
/// of `side` at exactly `e`, no recovery. A `mirror` slot makes the same
/// iterations carry the opposite side's surface ε as well (see the module
/// doc) and receives that side's surface GF; its content is unspecified
/// when the decimation fails.
fn decimate(
    e: f64,
    eta: f64,
    h00: &ZMat,
    h01: &ZMat,
    side: Side,
    mut mirror: Option<&mut ZMat>,
    max_iters: usize,
) -> OmenResult<ZMat> {
    assert!(eta > 0.0, "Sancho-Rubio needs a positive broadening");
    let n = h00.nrows();
    let ec = c64::new(e, eta);

    // Orient couplings: α couples the surface layer into the bulk.
    let (mut alpha, mut beta) = match side {
        Side::Right => (h01.clone(), h01.adjoint()),
        Side::Left => (h01.adjoint(), h01.clone()),
    };
    let mut eps_s = h00.clone();
    let mut eps = h00.clone();
    // The slot accumulates the mirror surface ε until the exit inverts it.
    if let Some(eps_m) = mirror.as_deref_mut() {
        eps_m.clone_from(h00);
    }

    // Work matrices held across iterations: the resolvent argument, the
    // four products of one step and the next coupling.
    let mut a = ZMat::zeros(n, n);
    let [mut ag, mut bg, mut agb, mut bga, mut next] = [(); 5].map(|()| ZMat::zeros(n, n));
    let mul =
        |x: &ZMat, y: &ZMat, out: &mut ZMat| gemm(c64::ONE, x, Op::N, y, Op::N, c64::ZERO, out);
    // out ← (E + iη)·I − m
    let resolvent_arg = |m: &ZMat, out: &mut ZMat| {
        out.data_mut().fill(c64::ZERO);
        for i in 0..n {
            out[(i, i)] = ec;
        }
        *out -= m;
    };

    for it in 0..max_iters {
        // g = (E − ε)⁻¹
        resolvent_arg(&eps, &mut a);
        let g = match lu::Lu::factor(&a) {
            Ok(f) => f.inverse(),
            Err(s) => return Err(s.at_block(0).with_energy(e)),
        };

        // ε_s += α g β ;  ε += α g β + β g α ;  α ← α g α ;  β ← β g β
        // (mirror: ε_s' += β g α — its α is this β)
        mul(&alpha, &g, &mut ag);
        mul(&beta, &g, &mut bg);
        mul(&ag, &beta, &mut agb);
        mul(&bg, &alpha, &mut bga);
        eps_s += &agb;
        if let Some(eps_m) = mirror.as_deref_mut() {
            *eps_m += &bga;
        }
        eps += &agb;
        eps += &bga;
        mul(&ag, &alpha, &mut next);
        std::mem::swap(&mut alpha, &mut next);
        mul(&bg, &beta, &mut next);
        std::mem::swap(&mut beta, &mut next);

        if contracted(&alpha, 1e-14) && contracted(&beta, 1e-14) {
            // (E − ε_s)⁻¹. A NaN-poisoned lead slips through the
            // contraction test, so gate the exit on a finite surface GF:
            // non-finite means the decimation never actually converged.
            let mut surface = |eps_s: &ZMat| {
                resolvent_arg(eps_s, &mut a);
                let f = lu::Lu::factor(&a).map_err(|s| s.at_block(0).with_energy(e))?;
                let g = f.inverse();
                if g.norm_fro().is_finite() {
                    Ok(g)
                } else {
                    Err(OmenError::LeadNotConverged {
                        energy: e,
                        iters: it + 1,
                    })
                }
            };
            let g = surface(&eps_s)?;
            if let Some(slot) = mirror {
                *slot = surface(slot)?;
            }
            return Ok(g);
        }
    }
    Err(OmenError::LeadNotConverged {
        energy: e,
        iters: max_iters,
    })
}

/// Absolute floor of the recovery nudge step (eV): even with η below
/// rounding, the retry moves far enough to escape a band-edge or resonance
/// stall, while staying well below thermal broadening (~26 meV).
pub const LEAD_NUDGE_FLOOR: f64 = 1e-7;

/// [`decimate`] with the energy-nudge recovery policy: on non-convergence,
/// retry at `E ± k·step` (alternating sides, growing `k`,
/// `step = max(4η, LEAD_NUDGE_FLOOR)`) up to [`MAX_LEAD_RETRIES`] times.
/// Returns the surface GF and the retries spent; a `mirror` GF comes from
/// the same (possibly nudged) energy as the returned one.
fn decimate_recovering(
    e: f64,
    eta: f64,
    h00: &ZMat,
    h01: &ZMat,
    side: Side,
    mut mirror: Option<&mut ZMat>,
    max_iters: usize,
) -> OmenResult<(ZMat, usize)> {
    let first = match decimate(e, eta, h00, h01, side, mirror.as_deref_mut(), max_iters) {
        Ok(g) => return Ok((g, 0)),
        Err(first) => first,
    };
    let step = (4.0 * eta).max(LEAD_NUDGE_FLOOR);
    for retry in 1..=MAX_LEAD_RETRIES {
        let k = retry.div_ceil(2) as f64;
        let sign = if retry % 2 == 1 { 1.0 } else { -1.0 };
        let nudged = e + sign * k * step;
        if let Ok(g) = decimate(
            nudged,
            eta,
            h00,
            h01,
            side,
            mirror.as_deref_mut(),
            max_iters,
        ) {
            return Ok((g, retry));
        }
    }
    Err(first)
}

/// Surface Green's function of a semi-infinite lead at complex energy
/// `E + iη`, and the number of recovery retries spent (`0` = converged at
/// the requested energy).
///
/// `h00`/`h01` follow the convention above; `side` selects the recursion
/// orientation. A decimation that does not contract within
/// [`MAX_DECIMATION_ITERS`] iterations, or hits an intermediate resolvent
/// singular to working precision (both practically unreachable for η > 0
/// off resonances and band edges), is retried up to [`MAX_LEAD_RETRIES`]
/// times with the energy nudged off the stall — by multiples of
/// `max(4η, LEAD_NUDGE_FLOOR)`, inside the broadening-limited energy
/// resolution.
///
/// # Errors
///
/// Returns the *original* energy's [`OmenError::LeadNotConverged`] /
/// [`OmenError::SingularBlock`] when every nudge also fails.
pub fn surface_green_function(
    e: f64,
    eta: f64,
    h00: &ZMat,
    h01: &ZMat,
    side: Side,
) -> OmenResult<(ZMat, usize)> {
    decimate_recovering(e, eta, h00, h01, side, None, MAX_DECIMATION_ITERS)
}

/// Both surface Green's functions of one lead, `(g_left, g_right, retries)`,
/// from a single decimation in the right-lead orientation (module doc,
/// "One decimation, both surfaces"): `g_right` is
/// [`surface_green_function`]`(.., Side::Right)` bit for bit, `g_left` is
/// the `Side::Left` result to rounding — exactly, when `h01` touches
/// disjoint rows and columns — and both belong to the same (possibly
/// nudged) energy.
///
/// # Errors
///
/// As [`surface_green_function`]; a failure of either final inverse fails
/// the pair.
pub fn surface_green_function_pair(
    e: f64,
    eta: f64,
    h00: &ZMat,
    h01: &ZMat,
) -> OmenResult<(ZMat, ZMat, usize)> {
    let mut g_left = ZMat::zeros(0, 0);
    let (g_right, retries) = decimate_recovering(
        e,
        eta,
        h00,
        h01,
        Side::Right,
        Some(&mut g_left),
        MAX_DECIMATION_ITERS,
    )?;
    Ok((g_left, g_right, retries))
}

/// A contact self-energy `Σ` with its broadening `Γ = i(Σ − Σ†)`.
#[derive(Clone, Debug)]
pub struct ContactSelfEnergy {
    /// Which side this contact sits on.
    pub side: Side,
    /// Retarded self-energy block (acts on the adjacent device slab).
    pub sigma: ZMat,
    /// Broadening matrix `Γ = i(Σ − Σ†)` (Hermitian, PSD).
    pub gamma: ZMat,
    /// Recovery attempts the lead solve spent (0 = clean convergence).
    pub retries: usize,
}

impl ContactSelfEnergy {
    /// Computes the contact self-energy of `side` at energy `e` with
    /// broadening `eta`, for lead blocks `(h00, h01)`. The energy-nudge
    /// recovery policy applies; `retries` on the result records it.
    ///
    /// # Errors
    ///
    /// Propagates the lead solve's [`OmenError::LeadNotConverged`] /
    /// [`OmenError::SingularBlock`] once the nudge recovery is exhausted.
    pub fn compute(e: f64, eta: f64, h00: &ZMat, h01: &ZMat, side: Side) -> OmenResult<Self> {
        let (g, retries) = surface_green_function(e, eta, h00, h01, side)?;
        Ok(Self::from_surface_gf(&g, h01, side, retries))
    }

    /// `(Σ_L, Σ_R)` of a device whose two contacts are the same lead, from
    /// one decimation ([`surface_green_function_pair`]): `Σ_R` is
    /// [`Self::compute`]`(.., Side::Right)` bit for bit, `Σ_L` the
    /// `Side::Left` result to rounding (exactly, on tight-binding leads),
    /// and both carry the same `retries`.
    ///
    /// # Errors
    ///
    /// As [`Self::compute`].
    pub fn compute_pair(e: f64, eta: f64, h00: &ZMat, h01: &ZMat) -> OmenResult<(Self, Self)> {
        let (g_left, g_right, retries) = surface_green_function_pair(e, eta, h00, h01)?;
        Ok((
            Self::from_surface_gf(&g_left, h01, Side::Left, retries),
            Self::from_surface_gf(&g_right, h01, Side::Right, retries),
        ))
    }

    /// Dresses the surface GF `g` of `side` with the device coupling.
    fn from_surface_gf(g: &ZMat, h01: &ZMat, side: Side, retries: usize) -> Self {
        let sigma = match side {
            // Σ_L = H01† g_L H01
            Side::Left => {
                let mut t = ZMat::zeros(h01.ncols(), g.ncols());
                gemm(c64::ONE, h01, Op::H, g, Op::N, c64::ZERO, &mut t);
                omen_linalg::matmul(&t, h01)
            }
            // Σ_R = H01 g_R H01†
            Side::Right => {
                let t = omen_linalg::matmul(h01, g);
                let mut s = ZMat::zeros(t.nrows(), h01.nrows());
                gemm(c64::ONE, &t, Op::N, h01, Op::H, c64::ZERO, &mut s);
                s
            }
        };
        let gamma = sigma.gamma_of();
        ContactSelfEnergy {
            side,
            sigma,
            gamma,
            retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D single-band chain: onsite `e0`, hopping `t` (blocks are 1×1).
    /// The analytic surface GF is `g(E) = (E − e0 ∓ i√(4t² − (E−e0)²)) / (2t²)`
    /// inside the band.
    fn chain_blocks(e0: f64, t: f64) -> (ZMat, ZMat) {
        let h00 = ZMat::from_diag(&[c64::real(e0)]);
        let h01 = ZMat::from_diag(&[c64::real(t)]);
        (h00, h01)
    }

    #[test]
    fn chain_surface_gf_matches_analytic() {
        let (e0, t) = (0.0, -1.0);
        let (h00, h01) = chain_blocks(e0, t);
        for &e in &[-1.5, -0.5, 0.05, 0.7, 1.9] {
            let (g, _) = surface_green_function(e, 1e-6, &h00, &h01, Side::Right).unwrap();
            let x = e - e0;
            let disc = 4.0 * t * t - x * x;
            assert!(disc > 0.0, "test energies must lie inside the band");
            // Retarded branch: Im g < 0.
            let expect = c64::new(x, -disc.sqrt()) / (2.0 * t * t);
            assert!(
                (g[(0, 0)] - expect).abs() < 1e-4,
                "E={e}: {} vs analytic {expect}",
                g[(0, 0)]
            );
        }
    }

    #[test]
    fn outside_band_gf_is_real() {
        let (h00, h01) = chain_blocks(0.0, -1.0);
        let (g, _) = surface_green_function(3.0, 1e-6, &h00, &h01, Side::Left).unwrap();
        assert!(
            g[(0, 0)].im.abs() < 1e-4,
            "no DOS outside the band: {}",
            g[(0, 0)]
        );
        assert!(g[(0, 0)].re != 0.0);
    }

    #[test]
    fn gamma_is_hermitian_psd_in_band() {
        let (h00, h01) = chain_blocks(0.0, -1.0);
        let se = ContactSelfEnergy::compute(0.3, 1e-6, &h00, &h01, Side::Left).unwrap();
        assert!(se.gamma.is_hermitian(1e-10));
        let vals = omen_linalg::eigh_values(&se.gamma);
        assert!(vals[0] > -1e-8, "Γ must be PSD, min eig {}", vals[0]);
        // In-band Γ = 2|t| sinθ > 0.
        assert!(vals[0] > 0.1, "in-band broadening must be finite");
        assert_eq!(se.retries, 0, "healthy in-band energy needs no recovery");
    }

    #[test]
    fn left_right_symmetric_lead_agree() {
        // For a symmetric (Hermitian h00, h01 = h01ᵀ real) chain both sides
        // give the same surface GF.
        let (h00, h01) = chain_blocks(0.5, -0.8);
        let (gl, _) = surface_green_function(0.9, 1e-6, &h00, &h01, Side::Left).unwrap();
        let (gr, _) = surface_green_function(0.9, 1e-6, &h00, &h01, Side::Right).unwrap();
        assert!((gl[(0, 0)] - gr[(0, 0)]).abs() < 1e-6);
    }

    #[test]
    fn multiband_block_lead_converges_and_is_retarded() {
        // Two-orbital lead with non-trivial coupling.
        let h00 = ZMat::from_rows(&[
            vec![c64::real(0.2), c64::real(0.4)],
            vec![c64::real(0.4), c64::real(-0.3)],
        ]);
        let h01 = ZMat::from_rows(&[
            vec![c64::real(-0.7), c64::real(0.1)],
            vec![c64::real(0.05), c64::real(-0.5)],
        ]);
        for &e in &[-1.2, -0.4, 0.0, 0.6, 1.5] {
            let se = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap();
            // Retarded: Im Σ ≤ 0 in the eigen-sense ⇒ Γ PSD.
            let vals = omen_linalg::eigh_values(&se.gamma);
            assert!(vals[0] > -1e-6, "Γ PSD failed at E={e}: {}", vals[0]);
        }
    }

    #[test]
    fn band_edge_exceeding_iteration_bound_yields_typed_error() {
        // Decimation halves the effective coupling per step, so the
        // iteration count grows like log₂(1/√η) toward a band edge: at
        // E = 2|t| (the 1-D band edge) with η = 1e-18 the chain needs 35
        // doublings. A bound of 30 is therefore deterministically
        // insufficient and must surface as a typed non-convergence, not a
        // panic or a garbage surface GF — from the single decimation and
        // from the pair alike.
        let (h00, h01) = chain_blocks(0.0, -1.0);
        let mut slot = ZMat::zeros(0, 0);
        for mirror in [None, Some(&mut slot)] {
            match decimate(2.0, 1e-18, &h00, &h01, Side::Left, mirror, 30) {
                Err(OmenError::LeadNotConverged { energy, iters }) => {
                    assert_eq!(energy, 2.0);
                    assert_eq!(iters, 30);
                }
                Err(other) => panic!("expected LeadNotConverged, got {other}"),
                Ok(_) => panic!("band edge under an insufficient bound must not converge"),
            }
        }
    }

    #[test]
    fn recovery_nudges_off_band_edge() {
        // At E = 2|t| with η = 1e-9 the decimation needs 20 doublings;
        // one LEAD_NUDGE_FLOOR step above the edge it needs only 17. A
        // bound of 18 therefore fails at the requested energy but the
        // first (+step) retry of the recovery policy converges — the
        // retry count must record exactly that one nudge.
        let (h00, h01) = chain_blocks(0.0, -1.0);
        let eta = 1e-9;
        assert!(
            decimate(2.0, eta, &h00, &h01, Side::Left, None, 18).is_err(),
            "the edge itself must stall under the tight bound"
        );
        let (g, retries) = decimate_recovering(2.0, eta, &h00, &h01, Side::Left, None, 18).unwrap();
        assert_eq!(retries, 1, "recovery must record the single nudge");
        // The recovered surface GF is still retarded: Im g ≤ 0.
        assert!(g[(0, 0)].im <= 0.0, "recovered GF must stay retarded");

        // The pair climbs the same ladder once for both sides: the mirror
        // GF belongs to the nudged energy the returned one converged at
        // (on this symmetric 1 × 1 chain, where αgβ = βgα exactly, the
        // two are the same number), under the one retry count.
        let mut g_mirror = ZMat::zeros(0, 0);
        let (g_pair, retries_pair) =
            decimate_recovering(2.0, eta, &h00, &h01, Side::Left, Some(&mut g_mirror), 18).unwrap();
        assert_eq!(retries_pair, 1);
        assert_eq!(g_pair, g);
        assert_eq!(g_mirror, g);
    }

    /// Dense Hermitian `h00` and dense `h01` — every row and column of
    /// the coupling is populated, so `αgβ` and `βgα` overlap everywhere.
    fn dense_lead(n: usize) -> (ZMat, ZMat) {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let a = ZMat::from_fn(n, n, |_, _| c64::new(next(), next()));
        let h00 = (&a + &a.adjoint()).scaled(c64::real(0.5));
        let h01 = ZMat::from_fn(n, n, |_, _| c64::new(next(), next()).scale(0.5));
        (h00, h01)
    }

    #[test]
    fn pair_matches_the_two_single_decimations_on_a_dense_lead() {
        use omen_num::tolerance::test_bound;
        use omen_num::BoundKind;
        let tol = test_bound("contacts.pair_vs_single", BoundKind::Relative).unwrap();
        let (h00, h01) = dense_lead(6);
        for e in [-0.7, 0.1, 1.3] {
            let (gl, rl) = surface_green_function(e, 1e-6, &h00, &h01, Side::Left).unwrap();
            let (gr, rr) = surface_green_function(e, 1e-6, &h00, &h01, Side::Right).unwrap();
            let (pl, pr, retries) = surface_green_function_pair(e, 1e-6, &h00, &h01).unwrap();
            // The pair *is* the right decimation; the left GF's bulk ε
            // summed its two products in the other order.
            assert_eq!(pr, gr, "E={e}: right GF must be bit-identical");
            assert_eq!((retries, retries), (rl, rr), "E={e}");
            let err = (&pl - &gl).max_abs();
            assert!(
                err <= tol * gl.max_abs(),
                "E={e}: left GF off by {err:e} on |g| = {:e}",
                gl.max_abs()
            );

            let (sl, sr) = ContactSelfEnergy::compute_pair(e, 1e-6, &h00, &h01).unwrap();
            let want = ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, Side::Right).unwrap();
            assert_eq!((sr.side, sl.side), (Side::Right, Side::Left));
            assert_eq!((&sr.sigma, &sr.gamma), (&want.sigma, &want.gamma), "E={e}");
            assert_eq!((sl.retries, sr.retries), (retries, retries));
        }
    }

    #[test]
    fn poisoned_lead_fails_the_pair_with_a_typed_error() {
        let h00 = ZMat::from_diag(&[c64::new(f64::NAN, 0.0)]);
        let h01 = ZMat::from_diag(&[c64::real(-1.0)]);
        match surface_green_function_pair(0.2, 1e-6, &h00, &h01) {
            Err(OmenError::LeadNotConverged { energy, .. }) => assert_eq!(energy, 0.2),
            other => panic!("expected LeadNotConverged, got {other:?}"),
        }
    }
}

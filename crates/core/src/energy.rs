//! Transport energy windows and grids, and the two sweep-owned memos of
//! what depends on the leads alone: their bands ([`LeadBandsMemo`]) and
//! their contact self-energies per energy ([`ContactMemo`]).

use omen_linalg::ZMat;
use omen_negf::transport::DEFAULT_ETA;
use omen_negf::{local_contacts, ContactSelfEnergy, Side};
use omen_num::{linspace, OmenResult};
use omen_tb::bands::{subband_edges, wire_bands};
use std::collections::HashMap;
use std::fmt;

/// The energy interval(s) a ballistic solve must cover.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyWindow {
    /// Lower edge (eV).
    pub e_min: f64,
    /// Upper edge (eV).
    pub e_max: f64,
}

impl EnergyWindow {
    /// Uniform grid of `n` points over the window, nudged off the exact
    /// endpoints (band edges are numerically delicate in the decimation).
    pub fn grid(&self, n: usize) -> Vec<f64> {
        let pad = 1e-4 * (self.e_max - self.e_min).max(1e-3);
        linspace(self.e_min + pad, self.e_max - pad, n)
    }
}

/// Subband extrema of one lead over the Bloch phase: band `b` spans
/// `[mins[b], maxs[b]]`. This is the expensive half of a transport window
/// (17 Bloch Hamiltonians diagonalised) and depends on the lead blocks
/// alone — not on the Fermi levels or the focus range.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadBands {
    /// Lower edge of every subband (eV).
    pub mins: Vec<f64>,
    /// Upper edge of every subband (eV).
    pub maxs: Vec<f64>,
}

impl LeadBands {
    /// Diagonalises the lead's Bloch Hamiltonian on 17 phases over half
    /// the zone and keeps each band's extrema.
    pub fn of(h00: &ZMat, h01: &ZMat) -> Self {
        let thetas = linspace(0.0, std::f64::consts::PI, 17);
        let bands = wire_bands(h00, h01, &thetas);
        let mins = subband_edges(&bands);
        let maxs = (0..bands[0].len())
            .map(|b| bands.iter().map(|k| k[b]).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        LeadBands { mins, maxs }
    }
}

/// The [`LeadBands`] of the lead most recently asked for, keyed on the
/// exact `(h00, h01)` entries. The gate points of a frozen sweep share
/// their lead blocks, so a sweep loop that keeps one of these across its
/// points diagonalises the lead once; a lead that does not compare equal
/// entry for entry is a miss and is recomputed, so a hit returns exactly
/// what a cold computation would.
#[derive(Debug, Default)]
pub struct LeadBandsMemo(Option<(ZMat, ZMat, LeadBands)>);

impl LeadBandsMemo {
    fn bands(&mut self, h00: &ZMat, h01: &ZMat) -> &LeadBands {
        if !matches!(&self.0, Some((k00, k01, _)) if k00 == h00 && k01 == h01) {
            self.0 = None;
        }
        let entry = || (h00.clone(), h01.clone(), LeadBands::of(h00, h01));
        &self.0.get_or_insert_with(entry).2
    }

    /// [`transport_window`] with this memo standing in for the band
    /// computation of a remembered lead — same arguments, same bits.
    pub fn window(
        &mut self,
        leads: &[(&ZMat, &ZMat)],
        mus: &[f64],
        kt: f64,
        margin_kt: f64,
        e_focus: (f64, f64),
    ) -> EnergyWindow {
        assert!(!leads.is_empty() && !mus.is_empty());
        let margin = margin_kt * kt;

        // Collect subband intervals of all leads restricted to the focus range.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, (h00, h01)) in leads.iter().enumerate() {
            // `lo`/`hi` are a min/max over the band union, and the union over
            // identical lead blocks is the one set: a lead equal to an earlier
            // one (source and drain extensions at the same potential) cannot
            // move either edge, so it is skipped.
            if leads[..i].iter().any(|(p00, p01)| p00 == h00 && p01 == h01) {
                continue;
            }
            let LeadBands { mins, maxs } = self.bands(h00, h01);
            for (&min, &max) in mins.iter().zip(maxs) {
                // The band spans [min, max]; keep what intersects focus.
                if max < e_focus.0 || min > e_focus.1 {
                    continue;
                }
                lo = lo.min(min.max(e_focus.0));
                hi = hi.max(max.min(e_focus.1));
            }
        }
        let mu_lo = mus.iter().cloned().fold(f64::INFINITY, f64::min);
        let mu_hi = mus.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !lo.is_finite() {
            // No lead states in focus: fall back to the Fermi window.
            return EnergyWindow {
                e_min: mu_lo - margin,
                e_max: mu_hi + margin,
            };
        }
        // States only matter where occupations differ from 0/1 relative to the
        // band content: clip the band union against the Fermi window. The lower
        // clip is deeper (2.5× margin) because degenerate source/drain stacks
        // hold *charge* well below the Fermi level even where they carry no
        // current.
        let e_min = lo.max(mu_lo - 2.5 * margin).min(mu_hi + margin);
        let e_max = hi.min(mu_hi + margin).max(e_min);
        EnergyWindow {
            e_min: e_min - 1e-6,
            e_max: e_max + 1e-6,
        }
    }
}

/// Computes the transport window from lead subband structure and the
/// contact Fermi levels.
///
/// The window spans from `margin_kt·kT` below the lowest relevant band edge
/// (or deepest Fermi level) to `margin_kt·kT` above the highest Fermi
/// level; it is intersected with the union of lead bands broadened by the
/// same margin so no flops are spent where `T(E) = 0`.
///
/// The composition of the two halves: [`LeadBands::of`] per distinct lead,
/// then the cheap clip against `mus` / `e_focus` — what
/// [`LeadBandsMemo::window`] does starting from an empty memo.
pub fn transport_window(
    leads: &[(&ZMat, &ZMat)],
    mus: &[f64],
    kt: f64,
    margin_kt: f64,
    e_focus: (f64, f64),
) -> EnergyWindow {
    LeadBandsMemo::default().window(leads, mus, kt, margin_kt, e_focus)
}

/// One contact kept on its support `S` ([`ZMat::support`]): `Σ =
/// P·Σ[S,S]·Pᵀ` exactly, so the `s × s` core, `S` and the order `n` are
/// all of `Σ`, and `Γ` follows from it.
#[derive(Debug)]
struct PackedContact {
    side: Side,
    n: usize,
    support: Vec<usize>,
    core: ZMat,
    retries: usize,
}

impl PackedContact {
    fn pack(c: &ContactSelfEnergy) -> Self {
        let support = c.sigma.support();
        PackedContact {
            side: c.side,
            n: c.sigma.nrows(),
            core: c.sigma.principal(&support),
            support,
            retries: c.retries,
        }
    }

    fn unpack(&self) -> ContactSelfEnergy {
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
}

/// How many contact pairs a [`ContactMemo`] decimated and how many it
/// served from memory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContactTally {
    /// Energies whose contacts were decimated (misses).
    pub decimated: usize,
    /// Energies whose contacts were served from the memo (hits).
    pub reused: usize,
}

impl fmt::Display for ContactTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} decimated, {} reused", self.decimated, self.reused)
    }
}

/// Outcome of one `local_contacts` call, each Σ on its support.
type PackedOutcome = OmenResult<[PackedContact; 2]>;

/// The `local_contacts` outcomes of the lead pair most recently asked for,
/// one per energy: keyed on the exact `(lead_l, lead_r)` entries — the
/// test [`LeadBandsMemo`] applies — and on `E`'s bits. The gate points of
/// a frozen sweep share their leads and, where the window does not move,
/// their grid, so a sweep loop that keeps one of these across its points
/// decimates each `(lead, E)` once. A failure is remembered too: the same
/// lead fails at the same energy the same way, so the nudge ladder is not
/// climbed twice. A lead pair that does not compare equal entry for entry
/// (a NaN entry never does) clears the entry and is decimated afresh.
///
/// Each Σ is kept on its support, `s × s` instead of `n × n`; a hit
/// scatters it back into zeros and rebuilds Γ with [`ZMat::gamma_of`], as
/// the decimation built it. That is a cold `local_contacts`' bits, retries
/// included: the decimation's products leave the zeros off the support as
/// `+0.0`, the value the scatter writes (`to_bits`-pinned on the README
/// wire's lead by `core::ballistic`'s
/// `frozen_sweep_contacts_are_reusable_across_gate_points`).
///
/// One sweep owns it; nothing shares it across sweeps or requests (a
/// shared cache would need an eviction policy — `ci.sh` keeps this module
/// free of process-wide state).
#[derive(Debug, Default)]
pub struct ContactMemo {
    entry: Option<([ZMat; 4], HashMap<u64, PackedOutcome>)>,
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
        let key = [lead_l.0, lead_l.1, lead_r.0, lead_r.1];
        if !matches!(&self.entry, Some((k, _)) if k.iter().zip(key).all(|(a, b)| a == b)) {
            self.entry = None;
        }
        let (_, outcomes) = self
            .entry
            .get_or_insert_with(|| (key.map(ZMat::clone), HashMap::new()));
        if let Some(known) = outcomes.get(&e.to_bits()) {
            self.tally.reused += 1;
            return match known {
                Ok([l, r]) => Ok((l.unpack(), r.unpack())),
                Err(err) => Err(err.clone()),
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use omen_num::c64;

    fn chain_lead(e0: f64, t: f64) -> (ZMat, ZMat) {
        (
            ZMat::from_diag(&[c64::real(e0)]),
            ZMat::from_diag(&[c64::real(t)]),
        )
    }

    #[test]
    fn window_clips_to_band() {
        // Band spans [-2, 2]; Fermi levels deep inside.
        let (h00, h01) = chain_lead(0.0, -1.0);
        let w = transport_window(&[(&h00, &h01)], &[0.0, -0.1], 0.025, 10.0, (-5.0, 5.0));
        assert!(
            w.e_min >= -2.01,
            "window must not extend below the band: {}",
            w.e_min
        );
        assert!(w.e_min <= -0.35, "window must reach the deep charge clip");
        assert!(
            w.e_max <= 0.3,
            "window must stop ~10kT above max mu: {}",
            w.e_max
        );
        assert!(
            w.e_max > 0.1 && w.e_min < -0.3,
            "window must cover the Fermi window"
        );
    }

    #[test]
    fn window_handles_empty_band_overlap() {
        // Focus range excludes the band entirely → Fermi-window fallback.
        let (h00, h01) = chain_lead(0.0, -1.0);
        let w = transport_window(&[(&h00, &h01)], &[0.0], 0.025, 8.0, (10.0, 12.0));
        assert!(w.e_min < 0.0 && w.e_max > 0.0);
    }

    #[test]
    fn grid_is_sorted_and_interior() {
        let w = EnergyWindow {
            e_min: -1.0,
            e_max: 1.0,
        };
        let g = w.grid(21);
        assert_eq!(g.len(), 21);
        assert!(g[0] > -1.0 && *g.last().unwrap() < 1.0);
        assert!(g.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn equal_leads_count_once_and_different_leads_both_count() {
        // Bands [-2, 2] and [-1.5, 2.5]; Fermi levels near both outer
        // edges so each lead alone and their union give three windows.
        let (a0, a1) = chain_lead(0.0, -1.0);
        let (b0, b1) = chain_lead(0.5, -1.0);
        let window = |leads: &[(&ZMat, &ZMat)]| {
            let w = transport_window(leads, &[-1.8, 2.3], 0.025, 10.0, (-5.0, 5.0));
            (w.e_min.to_bits(), w.e_max.to_bits())
        };
        let (a0_copy, a1_copy) = (a0.clone(), a1.clone());
        let a = window(&[(&a0, &a1)]);
        assert_eq!(window(&[(&a0, &a1), (&a0_copy, &a1_copy)]), a);
        let ab = window(&[(&a0, &a1), (&b0, &b1)]);
        assert_ne!(ab, a);
        assert_ne!(ab, window(&[(&b0, &b1)]));
        assert_eq!(window(&[(&a0, &a1), (&b0, &b1), (&a0_copy, &a1_copy)]), ab);
        assert_eq!(window(&[(&b0, &b1), (&a0, &a1)]), ab);
    }

    #[test]
    fn memo_hit_returns_the_bits_of_a_cold_window() {
        let (a0, a1) = chain_lead(0.0, -1.0);
        let (b0, b1) = chain_lead(0.5, -1.0);
        let bits = |w: EnergyWindow| (w.e_min.to_bits(), w.e_max.to_bits());
        let cold = |leads: &[(&ZMat, &ZMat)], mus: &[f64]| {
            bits(transport_window(leads, mus, 0.025, 10.0, (-5.0, 5.0)))
        };
        let mut memo = LeadBandsMemo::default();
        let mut warm = |leads: &[(&ZMat, &ZMat)], mus: &[f64]| {
            bits(memo.window(leads, mus, 0.025, 10.0, (-5.0, 5.0)))
        };
        // Same lead under moving Fermi levels (the gate points of a frozen
        // sweep), then another lead (a miss), then both (the SCF shape:
        // every call replaces the one entry), then the first again.
        let (a0_copy, a1_copy) = (a0.clone(), a1.clone());
        type Lead<'a> = (&'a ZMat, &'a ZMat);
        let calls: [(&[Lead<'_>], &[f64]); 6] = [
            (&[(&a0, &a1), (&a0, &a1)], &[-1.8, -1.7]),
            (&[(&a0_copy, &a1_copy), (&a0, &a1)], &[0.3, 2.3]),
            (&[(&b0, &b1)], &[0.3, 2.3]),
            (&[(&a0, &a1), (&b0, &b1)], &[-1.8, 2.3]),
            (&[(&a0, &a1), (&b0, &b1)], &[-1.9, 2.4]),
            (&[(&a0, &a1)], &[-1.8, -1.7]),
        ];
        for (i, (leads, mus)) in calls.into_iter().enumerate() {
            assert_eq!(warm(leads, mus), cold(leads, mus), "call {i}");
        }

        // A hit really is served from the memo: a doctored entry shows.
        let mut memo = LeadBandsMemo::default();
        let honest = memo.window(&[(&a0, &a1)], &[-1.8], 0.025, 10.0, (-5.0, 5.0));
        if let Some((_, _, bands)) = &mut memo.0 {
            bands.mins[0] += 0.25;
        }
        let doctored = memo.window(&[(&a0_copy, &a1_copy)], &[-1.8], 0.025, 10.0, (-5.0, 5.0));
        assert!(doctored.e_min > honest.e_min + 0.2, "{doctored:?}");
        let miss = memo.window(&[(&b0, &b1)], &[-1.8], 0.025, 10.0, (-5.0, 5.0));
        assert_eq!(bits(miss), cold(&[(&b0, &b1)], &[-1.8]));
    }

    #[test]
    fn contact_memo_hit_is_a_cold_decimation_and_other_leads_clear_it() {
        use crate::TransistorSpec;
        use omen_tb::Material;
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
        if let Some((_, outcomes)) = &mut memo.entry {
            if let Some(Ok([l, _])) = outcomes.get_mut(&energies[0].to_bits()) {
                l.retries = 7;
            }
        }
        let (l, _) = memo.contacts(energies[0], lead_l, lead_r).unwrap();
        assert_eq!(l.retries, 7);
    }

    #[test]
    fn two_leads_union() {
        // Leads offset by 0.5, μ deep in both bands: the window floor is the
        // documented deep-charge clip μ − 2.5·margin (not the band bottom,
        // which lies below the clip here).
        let (a0, a1) = chain_lead(0.0, -1.0);
        let (b0, b1) = chain_lead(0.5, -1.0);
        let w = transport_window(&[(&a0, &a1), (&b0, &b1)], &[0.3], 0.025, 10.0, (-5.0, 5.0));
        let clip = 0.3 - 2.5 * 10.0 * 0.025;
        assert!(
            (w.e_min - clip).abs() < 0.01,
            "floor {} vs clip {clip}",
            w.e_min
        );
        // With a shallow μ the floor becomes the band bottom instead.
        let w2 = transport_window(&[(&a0, &a1)], &[-1.8], 0.025, 10.0, (-5.0, 5.0));
        assert!(
            w2.e_min >= -2.01 && w2.e_min <= -1.95,
            "band-bottom floor: {}",
            w2.e_min
        );
    }

    #[test]
    fn benchmark_lead_windows_match_the_recorded_edges() {
        // The leads of the four repo-benchmark workloads at flat potential,
        // under the window arguments `prepare_transport` passes. The lower
        // edges are band minima, i.e. eigenvalues of the lead's Bloch
        // Hamiltonian; the constants were recorded from the eigensolver of
        // PR 23 (real 2n × 2n embedding) and bind its successors to the
        // last places.
        use crate::{momentum_grid, Geometry, NanoTransistor, TransistorSpec};
        use omen_tb::Material;
        let single = Material::SingleBand { t_mev: 1000 };
        let wire = TransistorSpec::si_nanowire_nmos(single, 1.0, 8).build();
        let sp3s = TransistorSpec::si_nanowire_nmos(Material::SiSp3s, 0.8, 8).build();
        let mut film = TransistorSpec::si_nanowire_nmos(single, 1.0, 8);
        film.geometry = Geometry::Utb { cells: 2, h: 1.0 };
        let film = film.build();
        let k: Vec<f64> = momentum_grid(&film, 3).iter().map(|k| k.0).collect();
        let window = |tr: &NanoTransistor, ky: f64, mu: f64, vds: f64| {
            let (h00, h01) = tr.hamiltonian().lead_blocks(0.0, ky);
            let span = 30.0 * tr.kt;
            let focus = (tr.e_midgap.min(mu - vds - span), tr.e_midgap.max(mu + span));
            let w = transport_window(&[(&h00, &h01)], &[mu, mu - vds], tr.kt, 12.0, focus);
            [w.e_min, w.e_max]
        };
        let cases = [
            ("idvg-scf-wf", &wire, 0.0, -3.4, 0.2),
            ("idvg-frozen-sp3s-rgf", &sp3s, 0.0, 1.6, 0.2),
            ("ranks2-utb-k3 k0", &film, k[0], -3.4, 0.2),
            ("ranks2-utb-k3 k1", &film, k[1], -3.4, 0.2),
            ("ranks2-utb-k3 k2", &film, k[2], -3.4, 0.2),
            ("serve-mixed", &wire, 0.0, -3.45, 0.15),
        ];
        let recorded = [
            [-3.532089886237957, -3.0897750025679995],
            [1.6034407097627206, 1.910224997432],
            [-3.7507236670107496, -3.0897750025679995],
            [-3.6865477622814162, -3.0897750025679995],
            [-3.559294020345583, -3.0897750025679995],
            [-3.532089886237957, -3.1397750025680002],
        ];
        for ((name, tr, ky, mu, vds), want) in cases.into_iter().zip(recorded) {
            let got = window(tr, ky, mu, vds);
            let off = (got[0] - want[0]).abs().max((got[1] - want[1]).abs());
            assert!(off <= 1e-12, "{name}: {got:?} vs recorded {want:?}");
        }
    }
}

//! Transport energy windows and grids. A curve remembers its leads' bands
//! beside their contacts, in its [`crate::contacts::ContactTable`].

use omen_linalg::ZMat;
use omen_num::linspace;
use omen_tb::bands::{subband_edges, wire_bands};

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

/// The cheap half of a transport window: the union of `bands` (one per
/// distinct lead) inside `e_focus`, clipped against the Fermi levels `mus`.
/// [`transport_window`] and a curve's `ContactTable` slots feed it.
pub(crate) fn clip(
    bands: &[LeadBands],
    mus: &[f64],
    kt: f64,
    margin_kt: f64,
    e_focus: (f64, f64),
) -> EnergyWindow {
    assert!(!bands.is_empty() && !mus.is_empty());
    let margin = margin_kt * kt;

    // Collect subband intervals of all leads restricted to the focus range.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for LeadBands { mins, maxs } in bands {
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

/// Computes the transport window from lead subband structure and the
/// contact Fermi levels.
///
/// The window spans from `margin_kt·kT` below the lowest relevant band edge
/// (or deepest Fermi level) to `margin_kt·kT` above the highest Fermi
/// level; it is intersected with the union of lead bands broadened by the
/// same margin so no flops are spent where `T(E) = 0`.
///
/// The composition of the two halves: [`LeadBands::of`] per distinct lead,
/// then the cheap clip against `mus` / `e_focus`. A lead equal to an
/// earlier one (source and drain extensions at the same potential) cannot
/// move the band union, so it is skipped.
pub fn transport_window(
    leads: &[(&ZMat, &ZMat)],
    mus: &[f64],
    kt: f64,
    margin_kt: f64,
    e_focus: (f64, f64),
) -> EnergyWindow {
    let distinct = leads
        .iter()
        .enumerate()
        .filter(|&(i, (h00, h01))| !leads[..i].iter().any(|(p00, p01)| p00 == h00 && p01 == h01));
    let bands: Vec<LeadBands> = distinct
        .map(|(_, (h00, h01))| LeadBands::of(h00, h01))
        .collect();
    clip(&bands, mus, kt, margin_kt, e_focus)
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
        // under the window arguments `ballistic::window_at` passes. The lower
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

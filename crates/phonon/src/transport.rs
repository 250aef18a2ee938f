//! Ballistic phonon transmission and Landauer thermal conductance.
//!
//! The *same* Sancho–Rubio + RGF kernels as the electronic engine, applied
//! to `A(ω) = (ω² + iη)·I − D`: the contact self-energies, broadenings and
//! Caroli transmission all carry over verbatim — the payoff of giving the
//! dynamical matrix the identical block-tridiagonal shape.
//!
//! Landauer thermal conductance:
//!
//! ```text
//! κ(T) = (1/2π) ∫₀^∞ ħω · T(ω) · ∂n_B/∂T dω
//! ```
//!
//! whose low-temperature limit is the universal quantum
//! `κ₀ = π²k_B²T/3h ≈ 0.946 pW/K²·T` per acoustic branch — reproduced as a
//! quantitative test below.

use crate::dynmat::PhononSystem;
use omen_negf::{local_contacts, rgf_point};
use omen_num::{OmenResult, KB};

/// Universal thermal conductance quantum per branch, `π²k_B²/3h` (W/K²).
pub const KAPPA_QUANTUM_W_PER_K2: f64 = 9.464e-13;

/// Numerical broadening for the phonon Green's functions, in (rad/ps)².
pub const PHONON_ETA: f64 = 1e-3;

/// Ballistic phonon transmission at frequency `omega` (rad/ps).
///
/// # Errors
///
/// The typed error of a non-converged lead or singular slab (past the
/// shared recovery policies) carries `ω²` in its energy field.
pub fn phonon_transmission(sys: &PhononSystem, omega: f64) -> OmenResult<f64> {
    assert!(omega > 0.0, "transmission is defined for ω > 0");
    let e = omega * omega;
    // η scales with ω² near the acoustic limit so the branch point stays
    // resolved, with an absolute floor for mid-band frequencies.
    let eta = (1e-4 * e).max(PHONON_ETA);
    let lead = (&sys.d00, &sys.d01);
    let (sl, sr) = local_contacts(e, eta, lead, lead)?;
    Ok(rgf_point(e, eta, &sys.d, &sl, &sr)?.transmission)
}

/// Landauer thermal conductance at temperature `t_kelvin` (W/K), with
/// `n_omega` frequency points spanning the thermally active window.
///
/// # Errors
///
/// Propagates the first failing frequency point's
/// [`phonon_transmission`] error.
pub fn thermal_conductance(sys: &PhononSystem, t_kelvin: f64, n_omega: usize) -> OmenResult<f64> {
    assert!(t_kelvin > 0.0 && n_omega >= 8);
    let kt_ev = KB * t_kelvin;
    // ħω [eV] = HBAR_RADPS · ω [rad/ps].
    const HBAR_RADPS_TO_EV: f64 = 6.582_119_569e-4;
    // Thermal window: up to min(ω_max, 25 kT/ħ).
    let omega_hi = sys.omega_max.min(25.0 * kt_ev / HBAR_RADPS_TO_EV);
    let omega_lo = omega_hi * 1e-3;
    let domega = (omega_hi - omega_lo) / (n_omega - 1) as f64;

    let mut kappa = 0.0; // accumulate in eV·(rad/ps)/K, convert at the end
    for k in 0..n_omega {
        let omega = omega_lo + k as f64 * domega;
        let x = HBAR_RADPS_TO_EV * omega / kt_ev;
        // ∂n_B/∂T = (x/T)·e⁻ˣ/(1−e⁻ˣ)², the overflow-free form of
        // (x/T)·eˣ/(eˣ−1)². The Bose tail beyond x ≈ 500 weighs in below
        // 1e-200 of the integrand — skip those transmission solves outright
        // instead of computing a factor and testing it against float zero.
        if x > 500.0 {
            continue;
        }
        let em = (-x).exp();
        let dndt = (x / t_kelvin) * em / ((1.0 - em) * (1.0 - em));
        let t = phonon_transmission(sys, omega)?;
        let weight = if k == 0 || k == n_omega - 1 { 0.5 } else { 1.0 };
        kappa += weight * HBAR_RADPS_TO_EV * omega * t * dndt * domega;
    }
    // Units: [eV]·[rad/ps]/K → W/K: 1 eV = 1.602e-19 J, 1/ps = 1e12/s, /2π.
    Ok(kappa * 1.602_176_634e-19 * 1e12 / (2.0 * std::f64::consts::PI))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vff::KeatingModel;
    use omen_lattice::{Crystal, Device};
    use omen_num::A_SI;

    fn system() -> PhononSystem {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 5, 0.8, 0.8);
        PhononSystem::build(&dev, KeatingModel::silicon())
    }

    #[test]
    fn low_frequency_transmission_counts_acoustic_branches() {
        let sys = system();
        // Well below the first optical-like onset, exactly the 4 gapless
        // branches (3 translations + torsion) transmit.
        let t = phonon_transmission(&sys, 1.0).unwrap();
        assert!(
            (t - 4.0).abs() < 0.2,
            "4 acoustic channels expected at ω → 0, got {t}"
        );
    }

    #[test]
    fn transmission_vanishes_above_the_spectrum() {
        let sys = system();
        let t = phonon_transmission(&sys, sys.omega_max * 1.3).unwrap();
        assert!(t.abs() < 1e-3, "no states above ω_max: T = {t}");
    }

    #[test]
    fn transmission_is_nonnegative_and_bounded() {
        let sys = system();
        let n_modes = sys.d00.nrows() as f64;
        for &w in &[2.0, 10.0, 25.0, 45.0, 70.0] {
            let t = phonon_transmission(&sys, w).unwrap();
            assert!(t > -1e-6, "T(ω={w}) = {t} negative");
            assert!(t <= n_modes + 1e-6, "T(ω={w}) = {t} exceeds channel count");
        }
    }

    #[test]
    fn low_temperature_universal_quantum() {
        // κ(T)/T → 4·π²k_B²/3h for the 4 gapless branches.
        let sys = system();
        let t_kelvin = 2.0;
        let kappa = thermal_conductance(&sys, t_kelvin, 48).unwrap();
        let per_branch = kappa / (t_kelvin * KAPPA_QUANTUM_W_PER_K2);
        assert!(
            (per_branch - 4.0).abs() < 0.5,
            "universal quantum: expected ≈ 4 branches, got {per_branch:.3}"
        );
    }

    #[test]
    fn conductance_grows_with_temperature() {
        let sys = system();
        let k10 = thermal_conductance(&sys, 10.0, 32).unwrap();
        let k100 = thermal_conductance(&sys, 100.0, 32).unwrap();
        let k300 = thermal_conductance(&sys, 300.0, 32).unwrap();
        assert!(
            k10 < k100 && k100 < k300,
            "κ must grow with T: {k10} {k100} {k300}"
        );
        // Room-temperature ballistic κ of a thin Si wire: ~0.1–10 nW/K.
        assert!(
            k300 > 1e-11 && k300 < 1e-7,
            "κ(300K) = {k300} W/K outside the physical decade"
        );
    }
}

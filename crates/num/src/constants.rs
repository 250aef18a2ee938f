//! Physical constants in the simulator's unit system.
//!
//! The workspace-wide convention (matching common nanoelectronics codes):
//! energies in **eV**, lengths in **nm**, temperatures in **K**, currents in
//! **µA**, conductances in **µS**. With these units the free-electron kinetic
//! prefactor `ħ²/(2m₀)` and the conductance quantum are the only places
//! dimensional constants enter the transport kernels.

/// Boltzmann constant in eV/K.
pub const KB: f64 = 8.617_333_262e-5;

/// `ħ²/(2 m₀)` in eV·nm² (free electron mass).
pub const HBAR2_OVER_2M0: f64 = 0.038_099_821;

/// Elementary charge in C.
pub const Q_E: f64 = 1.602_176_634e-19;

/// Conductance quantum 2e²/h in µS (includes spin degeneracy factor 2).
pub const G0_US: f64 = 77.480_917_29;

/// Landauer current prefactor `2e/h` expressed so that
/// `I[µA] = I0_UA_PER_EV * ∫ T(E) (f_L - f_R) dE[eV]`.
pub const I0_UA_PER_EV: f64 = 77.480_917_29;

/// Vacuum permittivity in e/(V·nm) — i.e. ε₀ expressed so that a charge
/// density in e/nm³ divided by (ε₀·εr) gives ∇²V in V/nm².
pub const EPS0: f64 = 0.055_263_494;

/// Room temperature in K.
pub const T_ROOM: f64 = 300.0;

/// Thermal voltage kT at 300 K in eV.
pub const KT_ROOM: f64 = KB * T_ROOM;

/// Silicon lattice constant in nm.
pub const A_SI: f64 = 0.543_10;

/// Germanium lattice constant in nm.
pub const A_GE: f64 = 0.565_75;

/// GaAs lattice constant in nm.
pub const A_GAAS: f64 = 0.565_32;

/// InAs lattice constant in nm.
pub const A_INAS: f64 = 0.605_83;

/// Graphene carbon–carbon bond length in nm.
pub const A_CC: f64 = 0.142;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kt_room_is_about_26_mev() {
        assert!((KT_ROOM - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn conductance_quantum() {
        // 2e^2/h = 2 * (1.602176634e-19)^2 / 6.62607015e-34 S = 7.748e-5 S.
        let g0_si = 2.0 * Q_E * Q_E / 6.626_070_15e-34;
        assert!((g0_si * 1e6 - G0_US).abs() < 1e-4);
    }

    #[test]
    fn hbar2_over_2m0() {
        // ħ²/2m0 = (1.054571817e-34)^2 / (2*9.1093837015e-31) J·m²
        let j_m2 = (1.054_571_817e-34_f64).powi(2) / (2.0 * 9.109_383_701_5e-31);
        let ev_nm2 = j_m2 / Q_E * 1e18;
        assert!((ev_nm2 - HBAR2_OVER_2M0).abs() < 1e-6);
    }

    #[test]
    fn eps0_in_device_units() {
        // ε0 = 8.8541878128e-12 F/m = C/(V·m); per nm and per elementary
        // charge: 8.854e-12 / 1.602e-19 * 1e-9 e/(V·nm).
        let v = 8.854_187_812_8e-12 / Q_E * 1e-9;
        assert!((v - EPS0).abs() < 1e-6);
    }
}

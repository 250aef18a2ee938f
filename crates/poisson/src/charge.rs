//! Dielectric constants of the semiconductor region.
//!
//! The Poisson assembly reads the permittivity; the mobile charge is never
//! semiclassical — the SCF loop hands `solve_nonlinear` the quantum density
//! from the transport engines with its exponential predictor.

/// Bulk semiconductor parameters the Poisson assembly reads.
#[derive(Debug, Clone, Copy)]
pub struct Semiconductor {
    /// Relative permittivity.
    pub eps_r: f64,
}

impl Semiconductor {
    /// Silicon.
    pub fn silicon() -> Semiconductor {
        Semiconductor { eps_r: 11.7 }
    }
}

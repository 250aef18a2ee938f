//! Contact injection modes from the broadening matrix.
//!
//! The broadening `Γ = i(Σ − Σ†)` of a contact is Hermitian positive
//! semidefinite; its nonzero eigenpairs `(λ_m, u_m)` define the open
//! channels of the lead at this energy. With `w_m = √λ_m · u_m`, the
//! left-injected scattering states are `ψ_m = G·(w_m at slab 0)`, and they
//! reconstruct the contact spectral function
//! `A_L = G Γ_L G† = Σ_m ψ_m ψ_m†` exactly — the wave-function engine's
//! observables therefore match NEGF channel by channel.

use omen_linalg::{eigh, ZMat};

/// The open-channel bundle of one contact at one energy.
pub struct InjectionBundle {
    /// Injection matrix `W = [w_1 … w_M]` (slab size × modes).
    pub w: ZMat,
    /// Channel strengths λ_m (sorted descending).
    pub strengths: Vec<f64>,
}

impl InjectionBundle {
    /// Number of open channels.
    pub fn num_modes(&self) -> usize {
        self.strengths.len()
    }
}

/// Absolute floor (eV) below which a Γ eigenvalue is a closed channel.
///
/// Evanescent leakage through the finite numerical broadening η produces
/// phantom eigenvalues of order η (~1e-6 eV); genuinely open channels have
/// Γ ≈ ħv/L of order 0.1–10 eV. The floor sits safely between the two.
pub const GAMMA_FLOOR: f64 = 1e-4;

/// Extracts the open channels of a broadening matrix. Eigenvalues below
/// `max(tol · λ_max, GAMMA_FLOOR)` are closed channels and are discarded.
///
/// `Γ = i(Σ − Σ†)` is identically zero on every orbital the lead coupling
/// does not touch (`Σ = H01† g H01` inherits the zero rows and columns of
/// `H01`), so the Hermitian eigenproblem is solved on the support of `Γ`
/// — its rows that are not identically zero — and the vectors scattered
/// back. The dropped rows are exact zero eigenpairs, closed channels
/// under any floor.
pub fn injection_bundle(gamma: &ZMat, tol: f64) -> InjectionBundle {
    assert!(gamma.is_square());
    let n = gamma.nrows();
    let support = gamma.support();
    let s = support.len();
    let r = eigh(&gamma.principal(&support));
    let lmax = r.values.iter().fold(0.0_f64, |m, &v| m.max(v));
    if lmax <= GAMMA_FLOOR {
        return InjectionBundle {
            w: ZMat::zeros(n, 0),
            strengths: Vec::new(),
        };
    }
    let cut = (tol * lmax).max(GAMMA_FLOOR);
    // eigh returns ascending; open channels sit at the top.
    let open: Vec<usize> = (0..s).rev().filter(|&k| r.values[k] > cut).collect();
    let mut w = ZMat::zeros(n, open.len());
    let mut strengths = Vec::with_capacity(open.len());
    for (col, &k) in open.iter().enumerate() {
        let scale = r.values[k].max(0.0).sqrt();
        strengths.push(r.values[k]);
        for (row, &orbital) in support.iter().enumerate() {
            w[(orbital, col)] = r.vectors[(row, k)].scale(scale);
        }
    }
    InjectionBundle { w, strengths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::matmul_n_h;

    #[test]
    fn reconstructs_gamma() {
        // Γ = W W† must hold when all channels are kept (full-rank-3 B).
        let g = {
            let mut s = 77u64;
            let mut next = move || {
                s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let b = omen_linalg::ZMat::from_fn(4, 3, |_, _| omen_num::c64::new(next(), next()));
            matmul_n_h(&b, &b)
        };
        let bundle = injection_bundle(&g, 1e-12);
        let rec = matmul_n_h(&bundle.w, &bundle.w);
        assert!((&rec - &g).max_abs() < 1e-9, "Γ = Σ w w† reconstruction");
        assert_eq!(bundle.num_modes(), 3, "rank-3 Γ has 3 channels");
    }

    #[test]
    fn zero_gamma_has_no_modes() {
        let z = ZMat::zeros(5, 5);
        let b = injection_bundle(&z, 1e-8);
        assert_eq!(b.num_modes(), 0);
        assert_eq!(b.w.ncols(), 0);
    }

    #[test]
    fn strengths_sorted_descending_and_positive() {
        use omen_num::c64;
        let b0 = ZMat::from_fn(6, 6, |i, j| {
            c64::new(
                ((i * 7 + j * 3) % 5) as f64 - 2.0,
                ((i + 2 * j) % 3) as f64 - 1.0,
            )
        });
        let g = matmul_n_h(&b0, &b0);
        let bundle = injection_bundle(&g, 1e-10);
        for w in bundle.strengths.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(bundle.strengths.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn floor_drops_phantom_channels() {
        use omen_num::c64;
        // Diagonal Γ with a real channel and an η-scale phantom.
        let g = ZMat::from_diag(&[c64::real(1.0), c64::real(1e-6)]);
        let b = injection_bundle(&g, 1e-12);
        assert_eq!(
            b.num_modes(),
            1,
            "phantom channel below GAMMA_FLOOR must drop"
        );
        // Entirely phantom Γ (out-of-band contact).
        let g2 = ZMat::from_diag(&[c64::real(3e-6), c64::real(1e-6)]);
        assert_eq!(injection_bundle(&g2, 1e-12).num_modes(), 0);
    }
}

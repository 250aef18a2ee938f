//! Quadrature for energy integration of transmission and spectral densities.

/// Composite trapezoid rule over tabulated samples on an arbitrary sorted
/// grid. Returns 0 for fewer than two points.
pub fn trapezoid(x: &[f64], f: &[f64]) -> f64 {
    assert_eq!(x.len(), f.len(), "grid/sample length mismatch");
    let mut acc = 0.0;
    for i in 1..x.len() {
        acc += 0.5 * (f[i] + f[i - 1]) * (x[i] - x[i - 1]);
    }
    acc
}

/// Adaptive Simpson integration of `f` on `[a, b]` to absolute tolerance
/// `tol`, with a recursion-depth cap that prevents runaway subdivision on
/// discontinuous integrands.
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> f64 {
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    simpson_rec(&mut f, a, b, fa, fm, fb, whole, tol, 20)
}

#[inline]
fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec<F: FnMut(f64) -> f64>(
    f: &mut F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_linear_exact() {
        let x = crate::grid::linspace(0.0, 2.0, 7);
        let f: Vec<f64> = x.iter().map(|&v| 2.0 * v + 1.0).collect();
        assert!((trapezoid(&x, &f) - 6.0).abs() < 1e-14);
    }

    #[test]
    fn trapezoid_nonuniform_grid() {
        let x = vec![0.0, 0.1, 0.5, 1.0];
        let f: Vec<f64> = x.to_vec();
        assert!((trapezoid(&x, &f) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact for cubics.
        let v = adaptive_simpson(|x| x * x * x - 2.0 * x + 1.0, -1.0, 3.0, 1e-12);
        let exact = |x: f64| 0.25 * x.powi(4) - x * x + x;
        assert!((v - (exact(3.0) - exact(-1.0))).abs() < 1e-10);
    }

    #[test]
    fn simpson_oscillatory() {
        let v = adaptive_simpson(|x| (10.0 * x).sin(), 0.0, std::f64::consts::PI, 1e-10);
        let exact = (1.0 - (10.0 * std::f64::consts::PI).cos()) / 10.0;
        assert!((v - exact).abs() < 1e-8);
    }

    #[test]
    fn simpson_sharp_fermi_window() {
        // The Landauer window f_L - f_R at low temperature: sharp but smooth.
        let kt = 0.002;
        let v = adaptive_simpson(
            |e| crate::fermi::fermi(e, 0.2, kt) - crate::fermi::fermi(e, 0.0, kt),
            -0.5,
            0.7,
            1e-10,
        );
        // Integral of the window equals mu_L - mu_R = 0.2 at any temperature.
        assert!((v - 0.2).abs() < 1e-7, "window integral {v}");
    }
}

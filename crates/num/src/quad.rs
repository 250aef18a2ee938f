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
}

//! Double-precision complex scalar.
//!
//! `c64` is a `Copy` value type with the full set of arithmetic operators
//! (including mixed `c64 ∘ f64` forms), the transcendental functions needed
//! by quantum-transport kernels (`exp`, `sqrt`, `ln`), and polar helpers.
//! The layout is `repr(C)` so slices of `c64` can be reinterpreted as
//! interleaved `[re, im]` pairs when serializing rank messages.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i·im`.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct c64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl c64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: c64 = c64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: c64 = c64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: c64 = c64 { re: 0.0, im: 1.0 };

    /// Creates `re + i·im`.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        c64 { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline(always)]
    pub const fn imag(im: f64) -> Self {
        c64 { re: 0.0, im }
    }

    /// Creates `r·e^{iθ}` from polar form.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64::new(r * c, r * s)
    }

    /// Complex conjugate `re - i·im`.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`, computed with `hypot` to avoid overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`. Where `|z|²` is not a normal number
    /// — `|z|` below ≈ 1.5e-154 or above ≈ 1.3e154, where squaring under-
    /// or overflows — `z` is first divided by its larger component, so the
    /// inverse of any finite non-zero `z` is finite. In the normal range
    /// the bits are those of the plain formula.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        if d.is_normal() {
            return c64::new(self.re / d, -self.im / d);
        }
        let m = self.re.abs().max(self.im.abs());
        if m == 0.0 || !m.is_finite() {
            return c64::new(self.re / d, -self.im / d);
        }
        let (re, im) = (self.re / m, self.im / m);
        let d = re * re + im * im;
        c64::new(re / d / m, -im / d / m)
    }

    /// Complex exponential `e^z = e^re (cos im + i sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        let (s, c) = self.im.sin_cos();
        c64::new(r * c, r * s)
    }

    /// Principal natural logarithm `ln|z| + i·arg z`.
    #[inline]
    pub fn ln(self) -> Self {
        c64::new(self.abs().ln(), self.arg())
    }

    /// Principal square root (branch cut along the negative real axis).
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return c64::ZERO;
        }
        let m = self.abs();
        // Stable half-angle formulas.
        let re = ((m + self.re) * 0.5).sqrt();
        let mut im = ((m - self.re) * 0.5).sqrt();
        if self.im < 0.0 {
            im = -im;
        }
        c64::new(re, im)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return c64::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        n = n.abs();
        let mut acc = c64::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64::new(self.re * s, self.im * s)
    }
}

impl fmt::Debug for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+e}{:+e}i)", self.re, self.im)
    }
}

impl fmt::Display for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for c64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64::real(re)
    }
}

impl Neg for c64 {
    type Output = c64;
    #[inline(always)]
    fn neg(self) -> c64 {
        c64::new(-self.re, -self.im)
    }
}

impl Add for c64 {
    type Output = c64;
    #[inline(always)]
    fn add(self, o: c64) -> c64 {
        c64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for c64 {
    type Output = c64;
    #[inline(always)]
    fn sub(self, o: c64) -> c64 {
        c64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for c64 {
    type Output = c64;
    #[inline(always)]
    fn mul(self, o: c64) -> c64 {
        c64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for c64 {
    type Output = c64;
    #[inline]
    fn div(self, o: c64) -> c64 {
        // Smith's algorithm for robustness against overflow/underflow.
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            c64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            c64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

macro_rules! assign_ops {
    ($($trait:ident, $method:ident, $op:tt);*) => {$(
        impl $trait for c64 {
            #[inline(always)]
            fn $method(&mut self, o: c64) { *self = *self $op o; }
        }
        impl $trait<f64> for c64 {
            #[inline(always)]
            fn $method(&mut self, o: f64) { *self = *self $op c64::real(o); }
        }
    )*};
}
assign_ops!(AddAssign, add_assign, +; SubAssign, sub_assign, -;
            MulAssign, mul_assign, *; DivAssign, div_assign, /);

macro_rules! mixed_ops {
    ($($trait:ident, $method:ident, $op:tt);*) => {$(
        impl $trait<f64> for c64 {
            type Output = c64;
            #[inline(always)]
            fn $method(self, o: f64) -> c64 { self $op c64::real(o) }
        }
        impl $trait<c64> for f64 {
            type Output = c64;
            #[inline(always)]
            fn $method(self, o: c64) -> c64 { c64::real(self) $op o }
        }
    )*};
}
mixed_ops!(Add, add, +; Sub, sub, -; Mul, mul, *; Div, div, /);

impl Sum for c64 {
    fn sum<I: Iterator<Item = c64>>(iter: I) -> c64 {
        iter.fold(c64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a c64> for c64 {
    fn sum<I: Iterator<Item = &'a c64>>(iter: I) -> c64 {
        iter.fold(c64::ZERO, |a, &b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_basics() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(-3.0, 0.5);
        assert_eq!(a + b, c64::new(-2.0, 2.5));
        assert_eq!(a - b, c64::new(4.0, 1.5));
        assert_eq!(a * b, c64::new(-3.0 - 1.0, 0.5 - 6.0));
        assert!(close(a / b * b, a, 1e-14));
    }

    #[test]
    fn mixed_real_ops() {
        let a = c64::new(2.0, -1.0);
        assert_eq!(a * 2.0, c64::new(4.0, -2.0));
        assert_eq!(2.0 * a, c64::new(4.0, -2.0));
        assert_eq!(a + 1.0, c64::new(3.0, -1.0));
        assert_eq!(1.0 - a, c64::new(-1.0, 1.0));
        assert!(close(a / 2.0, c64::new(1.0, -0.5), 1e-15));
    }

    #[test]
    fn conj_and_norms() {
        let a = c64::new(3.0, 4.0);
        assert_eq!(a.conj(), c64::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!((a * a.conj()).im == 0.0);
    }

    #[test]
    fn division_is_robust_at_extreme_scales() {
        let a = c64::new(1e300, 1e300);
        let b = c64::new(1e300, -1e300);
        let q = a / b;
        assert!(q.is_finite(), "Smith division must not overflow: {q:?}");
        assert!(close(q, c64::new(0.0, 1.0), 1e-12));
    }

    #[test]
    fn exp_matches_euler() {
        let z = c64::imag(std::f64::consts::PI);
        assert!(close(z.exp(), c64::real(-1.0), 1e-14));
        let z = c64::new(1.0, 0.5);
        let e = z.exp();
        assert!(close(e, c64::from_polar(1.0_f64.exp(), 0.5), 1e-13));
    }

    #[test]
    fn sqrt_branches() {
        assert!(close(c64::real(-4.0).sqrt(), c64::imag(2.0), 1e-14));
        assert!(close(c64::real(9.0).sqrt(), c64::real(3.0), 1e-14));
        let z = c64::new(-1.0, -1e-30);
        assert!(z.sqrt().im < 0.0, "branch cut: below axis maps to -i side");
        // sqrt(z)^2 == z for a spread of values
        for &z in &[c64::new(2.0, 3.0), c64::new(-5.0, 0.1), c64::new(0.0, -7.0)] {
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12));
        }
    }

    #[test]
    fn powi_and_inv() {
        let z = c64::new(1.0, 1.0);
        assert!(close(z.powi(2), c64::new(0.0, 2.0), 1e-14));
        assert!(close(z.powi(-1), z.inv(), 1e-14));
        assert!(close(z.powi(0), c64::ONE, 0.0));
        assert!(close(z.powi(5) * z.powi(-5), c64::ONE, 1e-13));
    }

    #[test]
    fn inv_is_finite_where_the_square_under_or_overflows() {
        for scale in [1e-200, 1e-160, 1e160, 1e300, 1e-305] {
            let z = c64::new(3.0, -4.0).scale(scale);
            let w = z.inv();
            assert!(w.is_finite(), "1/{z:?} = {w:?}");
            assert!(close(z * w, c64::ONE, 1e-15), "scale {scale}: {:?}", z * w);
        }
        // The normal range keeps the plain formula's bits.
        let z = c64::new(0.3, -1.7);
        let d = z.norm_sqr();
        assert_eq!(z.inv(), c64::new(z.re / d, -z.im / d));
    }

    #[test]
    fn ln_inverts_exp() {
        let z = c64::new(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-13));
    }

    #[test]
    fn sum_iterators() {
        let v = vec![c64::new(1.0, 1.0); 10];
        let s: c64 = v.iter().sum();
        assert_eq!(s, c64::new(10.0, 10.0));
        let s2: c64 = v.into_iter().sum();
        assert_eq!(s2, c64::new(10.0, 10.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = c64::from_polar(2.5, 1.1);
        assert!((z.abs() - 2.5).abs() < 1e-14);
        assert!((z.arg() - 1.1).abs() < 1e-14);
    }
}

//! Minimal double-precision complex arithmetic.
//!
//! Implemented in-tree (rather than pulling in `num-complex`) per the
//! reproduction's dependency policy; only the operations the simulator
//! needs are provided.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor.
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// 0 + 0i.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// 1 + 0i.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// 0 + 1i.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Construct a real number.
    pub const fn from_real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// e^{iθ} = cos θ + i sin θ.
    pub fn from_polar_unit(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// r·e^{iθ}.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// |z|².
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// |z|.
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument in (−π, π].
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// True when both components are within `eps` of `other`'s.
    pub fn approx_eq(self, other: Complex64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        c64((self.re * rhs.re + self.im * rhs.im) / d, (self.im * rhs.re - self.re * rhs.im) / d)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        c64(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl std::fmt::Display for Complex64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic_identities() {
        let z = c64(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z, c64(-3.0, 4.0));
    }

    #[test]
    fn multiplication_and_division() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        let prod = a * b;
        assert_eq!(prod, c64(5.0, 5.0));
        let back = prod / b;
        assert!(back.approx_eq(a, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, c64(-1.0, 0.0));
    }

    #[test]
    fn norms_and_conjugates() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(c64(25.0, 0.0), 1e-12));
    }

    #[test]
    fn polar_construction() {
        assert!(Complex64::from_polar_unit(0.0).approx_eq(Complex64::ONE, 1e-15));
        assert!(Complex64::from_polar_unit(FRAC_PI_2).approx_eq(Complex64::I, 1e-15));
        assert!(Complex64::from_polar_unit(PI).approx_eq(c64(-1.0, 0.0), 1e-15));
        let z = Complex64::from_polar(2.0, FRAC_PI_2);
        assert!(z.approx_eq(c64(0.0, 2.0), 1e-15));
    }

    #[test]
    fn arg_in_range() {
        assert!((c64(0.0, 1.0).arg() - FRAC_PI_2).abs() < 1e-15);
        assert!((c64(-1.0, 0.0).arg() - PI).abs() < 1e-15);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c64(1.0, -2.0).to_string(), "1-2i");
    }
}

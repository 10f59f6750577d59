//! A minimal complex number type.
//!
//! Deliberately tiny: the FFT and the Green's-function convolution are
//! the only consumers, and a `#[derive(Copy)]` struct of two `f64`s is
//! exactly what the auto-vectoriser wants to see.

use std::ops::{Add, Mul, Sub};

/// A complex number `re + i·im` in double precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    pub re: f64,
    pub im: f64,
}

impl Cpx {
    /// 0 + 0i.
    pub const ZERO: Cpx = Cpx { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Cpx = Cpx { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Cpx {
        Cpx { re, im }
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Cpx {
        Cpx { re, im: 0.0 }
    }

    /// `exp(i·theta)` — the twiddle factor generator.
    #[inline]
    pub fn cis(theta: f64) -> Cpx {
        let (s, c) = theta.sin_cos();
        Cpx { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Cpx {
        Cpx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Cpx {
        Cpx {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Cpx {
    type Output = Cpx;
    #[inline]
    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Cpx {
    type Output = Cpx;
    #[inline]
    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, s: f64) -> Cpx {
        self.scale(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spotcheck() {
        let a = Cpx::new(1.0, 2.0);
        let b = Cpx::new(-0.5, 3.0);
        assert_eq!(a + b - b, a);
        assert_eq!(a * Cpx::ONE, a);
        assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_formula() {
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        assert_eq!(
            Cpx::new(1.0, 2.0) * Cpx::new(3.0, 4.0),
            Cpx::new(-5.0, 10.0)
        );
    }

    #[test]
    fn conj_and_norm() {
        let a = Cpx::new(3.0, -4.0);
        assert_eq!(a.conj(), Cpx::new(3.0, 4.0));
        assert_eq!(a.norm2(), 25.0);
        assert_eq!(a.abs(), 5.0);
        let p = a * a.conj();
        assert_eq!(p, Cpx::real(25.0));
    }

    #[test]
    fn cis_unit_circle() {
        use std::f64::consts::PI;
        let e = Cpx::cis(PI / 2.0);
        assert!((e.re).abs() < 1e-15 && (e.im - 1.0).abs() < 1e-15);
        assert!((Cpx::cis(PI).re + 1.0).abs() < 1e-15);
        // cis(a)·cis(b) = cis(a+b)
        let (a, b) = (0.7, 1.9);
        let prod = Cpx::cis(a) * Cpx::cis(b);
        let want = Cpx::cis(a + b);
        assert!((prod - want).abs() < 1e-15);
    }
}

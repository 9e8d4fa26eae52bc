//! Offline drop-in for the subset of `rand_distr` 0.4 this workspace
//! uses: the [`Normal`] distribution and the [`Distribution`] trait.

#![deny(missing_docs)]

use rand::{Rng, RngCore};

/// Types that can draw samples of `T` from a random source.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error from constructing a distribution with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    /// The standard deviation was negative or non-finite.
    BadVariance,
    /// The mean was non-finite.
    MeanTooSmall,
}

impl core::fmt::Display for NormalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadVariance => write!(f, "standard deviation must be finite and >= 0"),
            Self::MeanTooSmall => write!(f, "mean must be finite"),
        }
    }
}

impl std::error::Error for NormalError {}

/// A Gaussian distribution `N(mean, std_dev²)` sampled via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F> {
    mean: F,
    std_dev: F,
}

impl Normal<f64> {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`NormalError`] for a negative or non-finite standard
    /// deviation, or a non-finite mean.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, NormalError> {
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(NormalError::BadVariance);
        }
        if !mean.is_finite() {
            return Err(NormalError::MeanTooSmall);
        }
        Ok(Self { mean, std_dev })
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution<f64> for Normal<f64> {
    /// `inline`, as the published crate marks it: without the hint,
    /// codegen-unit partitioning can leave this draw an out-of-line call
    /// from a weight initializer's loop (on a 2-vCPU Xeon that made
    /// `neural::models::mlp(784, 64, 10, _)` about 15% slower).
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller (cosine branch). Stateless per call: the sine spare
        // is discarded, which keeps `sample(&self)` free of interior
        // mutability at the cost of one extra uniform draw.
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        self.mean + self.std_dev * r * (core::f64::consts::TAU * u2).cos()
    }
}

/// A standard normal `N(0, 1)` distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn moments_match_parameters() {
        let d = Normal::new(3.0, 2.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_under_seed() {
        let d = Normal::new(0.0, 1.0).expect("valid");
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            assert_eq!(d.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
        }
    }
}

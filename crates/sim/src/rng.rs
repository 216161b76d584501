//! Deterministic random numbers.
//!
//! Every stochastic choice in a simulation (random access patterns, jittered
//! inter-arrival gaps) flows through [`DetRng`], a thin wrapper around a
//! seedable PRNG. Two runs with the same seed produce the same event stream,
//! which the integration suite relies on (`same seed ⇒ identical telemetry`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable random-number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent child generator. Children with distinct labels
    /// are statistically independent; the derivation is itself deterministic.
    pub fn derive(&self, label: u64) -> DetRng {
        // SplitMix64-style mixing of (seed, label) into a child seed.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(label.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::seed_from_u64(z)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        self.inner.gen_range(0..bound)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed value with the given mean, for Poisson
    /// request arrivals. Returns 0 for non-positive means.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; guard the log away from 0.
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_below(1_000_000), b.next_below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let sa: Vec<u64> = (0..32).map(|_| a.next_below(u64::MAX)).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_below(u64::MAX)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let root = DetRng::seed_from_u64(99);
        let mut c1 = root.derive(0);
        let mut c1_again = root.derive(0);
        let mut c2 = root.derive(1);
        assert_eq!(c1.next_below(1 << 40), c1_again.next_below(1 << 40));
        // Overwhelmingly likely to differ.
        let a: Vec<u64> = (0..16).map(|_| c1.next_below(1 << 40)).collect();
        let b: Vec<u64> = (0..16).map(|_| c2.next_below(1 << 40)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn bounds_respected() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(17.0));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::seed_from_u64(5);
        let n = 200_000;
        let mean = 50.0;
        let total: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < 1.0,
            "sample mean {sample_mean} too far from {mean}"
        );
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }
}

//! Deterministic SplitMix64 pseudo-random generator.
//!
//! The workload generators, the modeled run-to-run jitter and several
//! tests need cheap reproducible randomness without pulling `rand` into
//! low-level crates. SplitMix64 is
//! the standard seeding generator: one 64-bit state word, passes BigCrush
//! when used directly, and is fully deterministic across platforms.

/// A deterministic SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[inline]
    pub fn new(seed: u64) -> DetRng {
        DetRng { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses the widening-multiply trick; bias is < 2^-64 and irrelevant for
    /// victim selection / jitter.
    #[inline]
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize_below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal variate (Box–Muller). Costs two uniforms per call.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Derives an independent child generator (useful for giving each worker
    /// thread its own stream).
    #[inline]
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(124);
        assert_ne!(DetRng::new(123).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(1);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_in_range_respects_bounds() {
        let mut rng = DetRng::new(2);
        for _ in 0..10_000 {
            let v = rng.f64_in(-5.0, 3.0);
            assert!((-5.0..3.0).contains(&v));
        }
    }

    #[test]
    fn usize_below_bounds_and_coverage() {
        let mut rng = DetRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.usize_below(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be hit in 1000 draws");
    }

    #[test]
    #[should_panic]
    fn usize_below_zero_panics() {
        DetRng::new(0).usize_below(0);
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = DetRng::new(4);
        let n = 50_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut parent = DetRng::new(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}

//! Exact and approximate math kernels for the hot loops.
//!
//! The paper's "approximate math" switch (§V-C, §V-E) replaces square roots
//! and power/exponential functions with fast approximations, buying a 1.42×
//! average speedup at the price of shifting energy errors by 4–5 %. The
//! Rust equivalents:
//!
//! * [`ApproxMath::rsqrt`] — the classic bit-shift reciprocal square root
//!   (64-bit magic constant `0x5FE6EB50C7B537A9`) with one Newton step,
//!   ~0.1 % relative error;
//! * [`ApproxMath::exp`] — Schraudolph's exponential: write
//!   `2^(x/ln 2 + 1023)` directly into the IEEE-754 exponent field, ~2–4 %
//!   relative error over the GB-relevant range.
//!
//! Kernels are generic over [`MathMode`], so the compiler monomorphizes the
//! traversals — no per-term branch on the math kind.
//!
//! The exact mode, [`ExactMath`], keeps IEEE `1/√` and takes its
//! exponential from the in-crate ≲2-ulp Cephes polynomial
//! [`crate::simd::poly_exp`] (`< 1e-15` relative to libm). Its body is
//! branch-free, so the tile kernels' whole-slice [`MathMode::exp_block`]
//! loop autovectorizes, and energies do not depend on the host's libm
//! (see DESIGN.md, "Vectorization & determinism"). The naive ground truth
//! keeps libm (`crate::naive`).

/// Math kernel interface the GB kernels are generic over.
pub trait MathMode: Copy + Send + Sync + 'static {
    /// Short name for reports and bench JSON.
    const NAME: &'static str;
    /// `1/√x` for `x > 0`.
    fn rsqrt(x: f64) -> f64;
    /// `e^x`.
    fn exp(x: f64) -> f64;
    /// `1/x³` for `x > 0` — the `1/|r|⁶` integrand applied to `x = |r|²`.
    #[inline(always)]
    fn inv_cube(x: f64) -> f64 {
        1.0 / (x * x * x)
    }
    /// `1/x²` for `x > 0` — the `1/|r|⁴` integrand (paper Eq. 3) applied to
    /// `x = |r|²`.
    #[inline(always)]
    fn inv_sq(x: f64) -> f64 {
        1.0 / (x * x)
    }
    /// Whole-slice `e^x`: `out[t] = exp(args[t])` — the middle pass of the
    /// pass-split tile kernels (`interaction::EnergyLists`), bit-identical
    /// to calling [`MathMode::exp`] per element. With a branch-free `exp`
    /// (both modes here) the loop autovectorizes.
    #[inline(always)]
    fn exp_block(args: &[f64], out: &mut [f64]) {
        assert_eq!(args.len(), out.len());
        for (o, &a) in out.iter_mut().zip(args) {
            *o = Self::exp(a);
        }
    }
}

/// Full-accuracy math (paper: "approximate math off"): IEEE `1/√x`
/// (correctly rounded) and the ≲2-ulp polynomial exponential
/// [`crate::simd::poly_exp`], within `< 1e-15` relative of libm per
/// `exp`. Results are bit-identical across thread counts and hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMath;

impl MathMode for ExactMath {
    const NAME: &'static str = "exact";
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        1.0 / x.sqrt()
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        crate::simd::poly_exp(x)
    }
}

/// Approximate math (paper: "approximate math on").
#[derive(Clone, Copy, Debug, Default)]
pub struct ApproxMath;

impl MathMode for ApproxMath {
    const NAME: &'static str = "approx";
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        fast_rsqrt(x)
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        fast_exp(x)
    }
    #[inline(always)]
    fn inv_cube(x: f64) -> f64 {
        // (1/√x)⁶ — one bit-trick rsqrt and five multiplies, no division.
        let y = fast_rsqrt(x);
        let y3 = y * y * y;
        y3 * y3
    }
    #[inline(always)]
    fn inv_sq(x: f64) -> f64 {
        let y = fast_rsqrt(x);
        let y2 = y * y;
        y2 * y2
    }
}

/// Bit-trick reciprocal square root with one Newton–Raphson refinement.
///
/// Relative error ≤ ~0.2 % over the full positive range.
#[inline(always)]
pub fn fast_rsqrt(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    let i = x.to_bits();
    let i = 0x5FE6_EB50_C7B5_37A9_u64.wrapping_sub(i >> 1);
    let y = f64::from_bits(i);
    // One Newton step: y ← y (1.5 − 0.5 x y²)
    y * (1.5 - 0.5 * x * y * y)
}

/// Schraudolph's fast exponential for f64.
///
/// Accurate to a few percent for `|x| ≲ 700`; returns 0 for very negative
/// `x` (the GB exponent `−r²/4RiRj` is always ≤ 0, where underflow to zero
/// is the correct limit).
#[inline(always)]
pub fn fast_exp(x: f64) -> f64 {
    if x < -700.0 {
        return 0.0;
    }
    // 2^52 / ln 2 and the 1023 bias, Schraudolph constants for f64.
    const A: f64 = 4_503_599_627_370_496.0 / std::f64::consts::LN_2;
    const B: f64 = 1023.0 * 4_503_599_627_370_496.0;
    // Error-balancing shift: c = 2^52 · log2(3/(8 ln 2) + 1/2), the value
    // that centers the sawtooth error (max relative error ≈ ±3 %).
    const C: f64 = 0.057_985_607_464_6 * 4_503_599_627_370_496.0;
    let y = A.mul_add(x, B - C);
    if y <= 0.0 {
        return 0.0;
    }
    f64::from_bits(y as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsqrt_accuracy() {
        for &x in &[1e-6, 0.01, 0.5, 1.0, 2.0, 100.0, 1e6, 1e12] {
            let got = fast_rsqrt(x);
            let want = 1.0 / x.sqrt();
            let rel = ((got - want) / want).abs();
            assert!(rel < 2e-3, "x={x}: rel err {rel}");
        }
    }

    #[test]
    fn exp_accuracy_on_gb_range() {
        // GB exponents are in [−∞, 0]; practically [−50, 0]
        for i in 0..=500 {
            let x = -50.0 * i as f64 / 500.0;
            let got = fast_exp(x);
            let want = x.exp();
            if want < 1e-300 {
                continue;
            }
            let rel = ((got - want) / want).abs();
            assert!(rel < 0.05, "x={x}: rel err {rel}");
        }
    }

    #[test]
    fn exp_extremes() {
        assert_eq!(fast_exp(-1e4), 0.0);
        assert!((fast_exp(0.0) - 1.0).abs() < 0.04);
        // positive side sanity (not used by GB, but shouldn't explode)
        let rel = (fast_exp(1.0) - std::f64::consts::E).abs() / std::f64::consts::E;
        assert!(rel < 0.05);
    }

    #[test]
    fn exact_mode_basic_values() {
        assert_eq!(ExactMath::rsqrt(4.0), 0.5);
        assert_eq!(ExactMath::exp(0.0), 1.0);
    }

    #[test]
    fn exact_exp_is_the_in_crate_polynomial() {
        // bit for bit the Cephes kernel over the whole GB range and past
        // the underflow cutoff (never libm, whose bits vary by host)
        for i in 0..=80_000 {
            let x = -0.01 * i as f64;
            assert_eq!(
                ExactMath::exp(x).to_bits(),
                crate::simd::poly_exp(x).to_bits(),
                "x={x}"
            );
        }
    }

    #[test]
    fn approx_mode_dispatches_to_fast_kernels() {
        assert_eq!(ApproxMath::rsqrt(2.0), fast_rsqrt(2.0));
        assert_eq!(ApproxMath::exp(-1.0), fast_exp(-1.0));
    }

    #[test]
    fn inv_cube_modes() {
        for &x in &[0.5, 1.0, 3.7, 100.0] {
            let want = 1.0 / (x * x * x);
            assert!((ExactMath::inv_cube(x) - want).abs() < 1e-12);
            let rel = ((ApproxMath::inv_cube(x) - want) / want).abs();
            // one-Newton-step rsqrt error (~0.2%) is amplified ×6 by the
            // sixth power
            assert!(rel < 0.02, "x={x}: rel {rel}");
        }
    }

    #[test]
    fn fast_exp_relative_error_envelope() {
        // Schraudolph's trick has a sawtooth relative error; with the
        // error-balancing shift C its envelope is ±~3%. Pin a 4% bound
        // over the whole representable-output input range [-700, 700],
        // mirroring the fast_rsqrt accuracy test.
        let mut worst: f64 = 0.0;
        for i in -70_000..=70_000 {
            let x = i as f64 * 0.01;
            let want = x.exp();
            if want < 1e-280 || !want.is_finite() {
                continue; // near the flush-to-zero cutoff / overflow
            }
            let got = fast_exp(x);
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 0.04, "worst rel err {worst}");
        // the envelope is not vacuous: the sawtooth really does approach
        // its ±3% peaks somewhere in the range
        assert!(worst > 0.02, "envelope suspiciously tight: {worst}");
    }

    #[test]
    fn fast_exp_flushes_to_zero_below_cutoff() {
        for x in [-700.1, -800.0, -1e6, f64::NEG_INFINITY] {
            assert_eq!(fast_exp(x), 0.0, "x={x}");
        }
        // just above the cutoff it is tiny but positive
        assert!(fast_exp(-699.0) > 0.0);
    }

    #[test]
    fn fast_exp_monotone_on_gb_range() {
        // GB arguments are ≤ 0; the bit-trick must preserve ordering there
        let mut last = -1.0;
        for i in (0..=6000).rev() {
            let x = -i as f64 * 0.1;
            let y = fast_exp(x);
            assert!(y >= last, "x={x}: {y} < {last}");
            last = y;
        }
    }

    #[test]
    fn exp_block_matches_per_element_exp_bitwise() {
        // odd length so a vectorized loop runs its tail too; NaNs (one
        // mid-slice, one last) must come back as themselves
        let mut args: Vec<f64> = (0..29).map(|i| -0.9 * i as f64).collect();
        args[5] = -f64::NAN;
        args.push(f64::from_bits(0x7ff8_dead_beef_0001));
        let mut out = vec![0.0; args.len()];
        ExactMath::exp_block(&args, &mut out);
        for (&a, &o) in args.iter().zip(&out) {
            assert_eq!(o.to_bits(), ExactMath::exp(a).to_bits());
            assert_eq!(o.is_nan(), a.is_nan());
        }
        ApproxMath::exp_block(&args, &mut out);
        for (&a, &o) in args.iter().zip(&out) {
            assert_eq!(o.to_bits(), ApproxMath::exp(a).to_bits());
        }
    }

    #[test]
    fn rsqrt_monotone_on_samples() {
        let mut last = f64::INFINITY;
        for i in 1..1000 {
            let x = i as f64 * 0.37;
            let y = fast_rsqrt(x);
            assert!(y < last, "rsqrt should decrease");
            last = y;
        }
    }
}

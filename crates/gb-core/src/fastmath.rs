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
//! A third mode, [`VectorMath`], targets the SIMD microkernel layer
//! ([`crate::simd`]): IEEE `1/√` but a ≲2-ulp polynomial exponential whose
//! packed AVX2 form is bit-identical to its scalar form, so chunked loops
//! and their scalar tails agree exactly (see DESIGN.md, "Vectorization &
//! determinism").

/// Math kernel interface the GB kernels are generic over.
pub trait MathMode: Copy + Send + Sync + 'static {
    /// Short name for reports and bench JSON.
    const NAME: &'static str;
    /// True when the Born-radius conversion may use the 4-lane Newton
    /// `x^(−1/3)` ([`crate::simd::recip_cbrt4`], ulp-bounded vs `powf`)
    /// instead of the scalar libm path. Only [`VectorMath`] opts in;
    /// `ExactMath`/`ApproxMath` radii stay bit-for-bit untouched.
    const LANE_RADIUS: bool;
    /// True when the packed energy near-row kernel
    /// ([`crate::simd::energy_row4`]) is valid for this mode — i.e. `exp`
    /// is the polynomial [`crate::simd::poly_exp`] and `rsqrt` is IEEE, the
    /// sequences the packed kernel mirrors. Only [`VectorMath`] opts in.
    const LANE_ENERGY: bool;
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
    /// Four independent `1/f_GB` evaluations (Still equation, reciprocal
    /// form). The default is four scalar evaluations — bit-identical to
    /// calling `gbmath::inv_f_gb` per lane — so every mode can be driven
    /// through the chunked energy kernels; `VectorMath` overrides with the
    /// packed kernel.
    #[inline(always)]
    fn inv_f_gb4(r_sq: [f64; 4], ri_rj: [f64; 4]) -> [f64; 4] {
        let mut out = [0.0; 4];
        for l in 0..4 {
            out[l] = Self::rsqrt(r_sq[l] + ri_rj[l] * Self::exp(-r_sq[l] / (4.0 * ri_rj[l])));
        }
        out
    }

    /// Whole-slice `e^x`: `out[t] = exp(args[t])` — the middle pass of the
    /// pass-split tile kernels (`interaction::EnergyLists`). The default is
    /// the scalar loop, bit-identical to calling [`MathMode::exp`] per
    /// element; `VectorMath` overrides with the level-dispatched packed
    /// block ([`crate::simd::vector_exp_block`]), which is itself
    /// bit-identical to the scalar loop per element.
    #[inline(always)]
    fn exp_block(args: &[f64], out: &mut [f64]) {
        assert_eq!(args.len(), out.len());
        for (o, &a) in out.iter_mut().zip(args) {
            *o = Self::exp(a);
        }
    }

    /// Eight independent `1/f_GB` evaluations — the far-pair flush width.
    /// The default is two [`MathMode::inv_f_gb4`] halves (so lane `l`
    /// always equals the 4-lane and scalar kernels bit for bit);
    /// `VectorMath` overrides with the packed dispatcher, which runs one
    /// ZMM register at the `Avx512` level.
    #[inline(always)]
    fn inv_f_gb8(r_sq: [f64; 8], ri_rj: [f64; 8]) -> [f64; 8] {
        let lo = Self::inv_f_gb4(
            [r_sq[0], r_sq[1], r_sq[2], r_sq[3]],
            [ri_rj[0], ri_rj[1], ri_rj[2], ri_rj[3]],
        );
        let hi = Self::inv_f_gb4(
            [r_sq[4], r_sq[5], r_sq[6], r_sq[7]],
            [ri_rj[4], ri_rj[5], ri_rj[6], ri_rj[7]],
        );
        [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
    }
}

/// IEEE math (paper: "approximate math off").
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMath;

impl MathMode for ExactMath {
    const NAME: &'static str = "exact";
    const LANE_RADIUS: bool = false;
    const LANE_ENERGY: bool = false;
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        1.0 / x.sqrt()
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        x.exp()
    }
}

/// SIMD-friendly math: IEEE `1/√x` (correctly rounded, like `ExactMath`)
/// plus the ≲2-ulp polynomial exponential from [`crate::simd`], whose
/// packed AVX2 form replays the identical operation sequence. Energies
/// agree with `ExactMath` to ≲1e-14 relative; results are bit-identical
/// across SIMD levels and thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct VectorMath;

impl MathMode for VectorMath {
    const NAME: &'static str = "vector";
    const LANE_RADIUS: bool = true;
    const LANE_ENERGY: bool = true;
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        1.0 / x.sqrt()
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        crate::simd::poly_exp(x)
    }
    #[inline(always)]
    fn inv_f_gb4(r_sq: [f64; 4], ri_rj: [f64; 4]) -> [f64; 4] {
        crate::simd::inv_f_gb4(r_sq, ri_rj)
    }
    #[inline(always)]
    fn inv_f_gb8(r_sq: [f64; 8], ri_rj: [f64; 8]) -> [f64; 8] {
        crate::simd::inv_f_gb8(r_sq, ri_rj)
    }
    #[inline(always)]
    fn exp_block(args: &[f64], out: &mut [f64]) {
        crate::simd::vector_exp_block(args, out)
    }
}

/// Approximate math (paper: "approximate math on").
#[derive(Clone, Copy, Debug, Default)]
pub struct ApproxMath;

impl MathMode for ApproxMath {
    const NAME: &'static str = "approx";
    const LANE_RADIUS: bool = false;
    const LANE_ENERGY: bool = false;
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
    fn exact_mode_is_ieee() {
        assert_eq!(ExactMath::rsqrt(4.0), 0.5);
        assert_eq!(ExactMath::exp(0.0), 1.0);
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
    fn vector_mode_matches_exact_to_ulps() {
        for i in 0..200 {
            let x = -50.0 * i as f64 / 200.0;
            let got = VectorMath::exp(x);
            let want = x.exp();
            if want == 0.0 {
                continue;
            }
            assert!(((got - want) / want).abs() < 1e-14, "x={x}");
        }
        assert_eq!(VectorMath::rsqrt(4.0), 0.5);
        // lane kernel default vs override agree to ulps
        let r_sq = [1.0, 4.0, 9.0, 25.0];
        let rr = [2.0, 3.0, 1.5, 8.0];
        let lanes = VectorMath::inv_f_gb4(r_sq, rr);
        for l in 0..4 {
            let want = crate::gbmath::inv_f_gb::<ExactMath>(r_sq[l], rr[l]);
            assert!(((lanes[l] - want) / want).abs() < 1e-14, "lane {l}");
        }
    }

    #[test]
    fn default_inv_f_gb4_is_per_lane_scalar() {
        let r_sq = [0.5, 2.0, 10.0, 40.0];
        let rr = [1.0, 2.5, 4.0, 0.7];
        for l in 0..4 {
            let exact = ExactMath::inv_f_gb4(r_sq, rr)[l];
            assert_eq!(
                exact.to_bits(),
                crate::gbmath::inv_f_gb::<ExactMath>(r_sq[l], rr[l]).to_bits()
            );
            let approx = ApproxMath::inv_f_gb4(r_sq, rr)[l];
            assert_eq!(
                approx.to_bits(),
                crate::gbmath::inv_f_gb::<ApproxMath>(r_sq[l], rr[l]).to_bits()
            );
        }
    }

    #[test]
    fn exp_block_matches_per_element_exp_bitwise() {
        // odd length so the packed override exercises its tail too
        let args: Vec<f64> = (0..29).map(|i| -0.9 * i as f64).collect();
        let mut out = vec![0.0; args.len()];
        ExactMath::exp_block(&args, &mut out);
        for (&a, &o) in args.iter().zip(&out) {
            assert_eq!(o.to_bits(), ExactMath::exp(a).to_bits());
        }
        ApproxMath::exp_block(&args, &mut out);
        for (&a, &o) in args.iter().zip(&out) {
            assert_eq!(o.to_bits(), ApproxMath::exp(a).to_bits());
        }
        VectorMath::exp_block(&args, &mut out);
        for (&a, &o) in args.iter().zip(&out) {
            assert_eq!(o.to_bits(), VectorMath::exp(a).to_bits());
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

//! The math kernels of the hot loops.
//!
//! The energy kernels are generic over [`MathMode`]. Production runs one
//! mode, [`ExactMath`]; the naive ground truth supplies a libm one
//! (`crate::naive`). The Born integrand needs neither `rsqrt` nor `exp`
//! and takes no mode.
//!
//! [`ExactMath`] keeps IEEE `1/√` and takes its exponential from the
//! in-crate ≲2-ulp Cephes polynomial [`crate::simd::poly_exp`] (`< 1e-15`
//! relative to libm). Its pair kernel [`MathMode::inv_f_gb`] is the fused
//! [`crate::simd::poly_inv_f_gb`], which folds the polynomial's rational
//! into the root (two divides and a square root per pair instead of three
//! and one). Both bodies are branch-free, so the tile kernels' per-element
//! loops autovectorize, and energies do not depend on the host's libm
//! (see DESIGN.md, "Vectorization & determinism").
//!
//! The paper's "approximate math" switch (§V-C, §V-E: bit-trick `rsqrt`,
//! Schraudolph `exp`, a 1.42× speedup on its 2010 cores) is not
//! reproduced: against this crate's vectorized exact kernels it ran no faster
//! than [`ExactMath`] while moving `E_pol` by 0.5–1.6 %, so it was removed
//! (EXPERIMENTS.md, §V-E).

/// Math kernel interface the GB kernels are generic over.
pub trait MathMode: Copy + Send + Sync + 'static {
    /// `1/√x` for `x > 0`.
    fn rsqrt(x: f64) -> f64;
    /// `e^x`.
    fn exp(x: f64) -> f64;
    /// The GB pair kernel `1/f_GB = 1/√(r² + RᵢRⱼ·e^{−r²/(4RᵢRⱼ)})` for
    /// `x = r²`, `ri_rj = RᵢRⱼ > 0` — what every production energy path
    /// (tiles, halo, docking) evaluates per pair. The default is the
    /// composed reference [`crate::gbmath::inv_f_gb`] (so a mode that only
    /// supplies `rsqrt`/`exp` keeps those bits); [`ExactMath`] overrides it
    /// with a fused body.
    #[inline(always)]
    fn inv_f_gb(r_sq: f64, ri_rj: f64) -> f64 {
        crate::gbmath::inv_f_gb::<Self>(r_sq, ri_rj)
    }
}

/// Full-accuracy math (paper: "approximate math off"): IEEE `1/√x`
/// (correctly rounded), the ≲2-ulp polynomial exponential
/// [`crate::simd::poly_exp`] (within `< 1e-15` relative of libm per
/// `exp`), and the fused pair kernel [`crate::simd::poly_inv_f_gb`]
/// (within `5e-16` relative of the composed libm formula). Results are
/// bit-identical across thread counts and hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMath;

impl MathMode for ExactMath {
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        1.0 / x.sqrt()
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        crate::simd::poly_exp(x)
    }
    #[inline(always)]
    fn inv_f_gb(r_sq: f64, ri_rj: f64) -> f64 {
        crate::simd::poly_inv_f_gb(r_sq, ri_rj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `1/f_GB` composed from libm `exp` and IEEE `1/√` — the naive
    /// ground truth's formula, the yardstick of the fused kernel.
    fn libm_inv_f_gb(r_sq: f64, rr: f64) -> f64 {
        1.0 / (r_sq + rr * (-r_sq / (4.0 * rr)).exp()).sqrt()
    }

    fn rel(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs()
    }

    #[test]
    fn exact_inv_f_gb_tracks_the_composed_libm_formula() {
        // r × RiRj grid over the GB range: distances 0–60 Å, Born radius
        // products 0.5–900 Å² — the far end of r crosses the underflow
        // cutoff r²/4RR > 708 for the small products
        let mut worst: f64 = 0.0;
        for i in 0..=1200 {
            let r = 0.05 * i as f64;
            for j in 0..=300 {
                let rr = 0.5 * 1.025f64.powi(j);
                let want = libm_inv_f_gb(r * r, rr);
                worst = worst.max(rel(ExactMath::inv_f_gb(r * r, rr), want));
            }
        }
        assert!(worst < 5e-16, "worst rel err {worst:e}");
    }

    #[test]
    fn exact_inv_f_gb_self_terms_and_underflow() {
        for rr in [0.25, 1.0, 2.7, 16.0, 900.0, 1e6] {
            // r² = 0 (the i = j self term): 1/√(RiRj)
            let got = ExactMath::inv_f_gb(0.0, rr);
            assert!(rel(got, libm_inv_f_gb(0.0, rr)) < 5e-16, "rr={rr}: {got}");
            // past the cutoff the exp term is dropped and 1/f_GB → 1/r
            for x in [708.5, 709.0, 750.0, 1e4, 1e8] {
                let r_sq = 4.0 * rr * x;
                let got = ExactMath::inv_f_gb(r_sq, rr);
                assert!(rel(got, 1.0 / r_sq.sqrt()) < 5e-16, "rr={rr} x={x}: {got}");
                assert!(rel(got, libm_inv_f_gb(r_sq, rr)) < 5e-16, "rr={rr} x={x}");
            }
        }
    }

    #[test]
    fn exact_inv_f_gb_propagates_nan() {
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_dead_beef_0001)] {
            assert!(ExactMath::inv_f_gb(nan, 2.0).is_nan());
            assert!(ExactMath::inv_f_gb(9.0, nan).is_nan());
            assert!(ExactMath::inv_f_gb(nan, nan).is_nan());
        }
    }
}

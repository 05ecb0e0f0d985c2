//! Dunavant symmetric Gaussian quadrature rules on the triangle.
//!
//! D. A. Dunavant, *High degree efficient symmetrical Gaussian quadrature
//! rules for the triangle*, Int. J. Numer. Methods Eng. 21 (1985) — the
//! reference the paper cites (\[11\]) for placing integration points inside
//! each surface triangle.
//!
//! Points are given in barycentric coordinates `(a, b, c)`, `a+b+c = 1`;
//! weights sum to 1 and are understood relative to the triangle's area:
//! `∫_T f ≈ area(T) · Σ w_i f(p_i)`. A rule of degree `d` integrates every
//! bivariate polynomial of total degree ≤ `d` exactly.

/// One quadrature point: barycentric coordinates and weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrianglePoint {
    /// Barycentric coordinates w.r.t. the triangle's three vertices.
    pub bary: [f64; 3],
    /// Weight (relative to unit triangle area).
    pub weight: f64,
}

/// A symmetric quadrature rule of a given polynomial degree.
#[derive(Clone, Debug)]
pub struct DunavantRule {
    /// Exact for polynomials of total degree ≤ `degree`.
    pub degree: u8,
    /// The rule's points.
    pub points: Vec<TrianglePoint>,
}

/// Expands a symmetric orbit: `(a,a,a)` → 1 point; `(a,b,b)` → 3 points.
fn orbit(points: &mut Vec<TrianglePoint>, a: f64, b: f64, w: f64) {
    let c = 1.0 - a - b;
    if (a - b).abs() < 1e-14 && (b - c).abs() < 1e-14 {
        points.push(TrianglePoint { bary: [a, b, c], weight: w });
    } else {
        points.push(TrianglePoint { bary: [a, b, c], weight: w });
        points.push(TrianglePoint { bary: [c, a, b], weight: w });
        points.push(TrianglePoint { bary: [b, c, a], weight: w });
    }
}

/// Returns the Dunavant rule of the requested degree (1–5).
///
/// Degrees above 5 are clamped to 5 (7 points), which is already more than
/// accurate enough for the r⁶ surface integrals — the paper uses "a constant
/// number of quadrature points per triangle" at similar order.
pub fn dunavant_rule(degree: u8) -> DunavantRule {
    let mut points = Vec::new();
    let degree = degree.clamp(1, 5);
    match degree {
        1 => {
            // 1 point: centroid.
            orbit(&mut points, 1.0 / 3.0, 1.0 / 3.0, 1.0);
        }
        2 => {
            // 3 points.
            orbit(&mut points, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0);
        }
        3 => {
            // 4 points (has one negative weight, standard for degree 3).
            orbit(&mut points, 1.0 / 3.0, 1.0 / 3.0, -0.562_5);
            orbit(&mut points, 0.6, 0.2, 0.520_833_333_333_333_3);
        }
        4 => {
            // 6 points.
            orbit(&mut points, 0.108_103_018_168_070, 0.445_948_490_915_965, 0.223_381_589_678_011);
            orbit(&mut points, 0.816_847_572_980_459, 0.091_576_213_509_771, 0.109_951_743_655_322);
        }
        _ => {
            // Degree 5, 7 points.
            orbit(&mut points, 1.0 / 3.0, 1.0 / 3.0, 0.225);
            orbit(&mut points, 0.059_715_871_789_770, 0.470_142_064_105_115, 0.132_394_152_788_506);
            orbit(&mut points, 0.797_426_985_353_087, 0.101_286_507_323_456, 0.125_939_180_544_827);
        }
    }
    DunavantRule { degree, points }
}

impl DunavantRule {
    /// Number of points in the rule.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the rule has no points (never happens for valid degrees).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integrates x^p y^q over the reference triangle (0,0),(1,0),(0,1)
    /// using the rule.
    fn integrate_monomial(rule: &DunavantRule, p: u32, q: u32) -> f64 {
        // reference triangle area = 1/2
        0.5 * rule
            .points
            .iter()
            .map(|tp| {
                // vertices v0=(0,0), v1=(1,0), v2=(0,1):
                // point = b0*v0 + b1*v1 + b2*v2 = (b1, b2)
                let x = tp.bary[1];
                let y = tp.bary[2];
                tp.weight * x.powi(p as i32) * y.powi(q as i32)
            })
            .sum::<f64>()
    }

    /// Exact value of ∫ x^p y^q over the reference triangle: p! q! / (p+q+2)!.
    fn exact_monomial(p: u32, q: u32) -> f64 {
        fn fact(n: u32) -> f64 {
            (1..=n).map(|i| i as f64).product()
        }
        fact(p) * fact(q) / fact(p + q + 2)
    }

    #[test]
    fn weights_sum_to_one() {
        for d in 1..=5 {
            let r = dunavant_rule(d);
            let s: f64 = r.points.iter().map(|p| p.weight).sum();
            assert!((s - 1.0).abs() < 1e-12, "degree {d}: weight sum {s}");
        }
    }

    #[test]
    fn barycentric_coordinates_sum_to_one() {
        for d in 1..=5 {
            for p in dunavant_rule(d).points {
                let s: f64 = p.bary.iter().sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expected_point_counts() {
        assert_eq!(dunavant_rule(1).len(), 1);
        assert_eq!(dunavant_rule(2).len(), 3);
        assert_eq!(dunavant_rule(3).len(), 4);
        assert_eq!(dunavant_rule(4).len(), 6);
        assert_eq!(dunavant_rule(5).len(), 7);
    }

    #[test]
    fn degree_clamping() {
        assert_eq!(dunavant_rule(0).degree, 1);
        assert_eq!(dunavant_rule(9).degree, 5);
    }

    #[test]
    fn rules_are_exact_up_to_their_degree() {
        for d in 1u8..=5 {
            let rule = dunavant_rule(d);
            for p in 0..=d as u32 {
                for q in 0..=(d as u32 - p) {
                    let got = integrate_monomial(&rule, p, q);
                    let want = exact_monomial(p, q);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "degree {d} rule fails on x^{p} y^{q}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn degree5_not_exact_beyond_its_degree() {
        // sanity: the degree-5 rule should NOT integrate degree-6 monomials
        // exactly (otherwise the exactness test above proves nothing)
        let rule = dunavant_rule(5);
        let got = integrate_monomial(&rule, 6, 0);
        let want = exact_monomial(6, 0);
        assert!((got - want).abs() > 1e-9);
    }
}

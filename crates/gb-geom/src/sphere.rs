//! Spheres and bounding-sphere construction.
//!
//! Octree nodes carry the radius of a ball that encloses every point (atom
//! center or quadrature point) stored under them, measured from the node's
//! *geometric centroid* — exactly the `r_A` / `r_Q` of the paper's
//! APPROX-INTEGRALS acceptance test. [`enclosing_radius_about`] computes
//! that radius; [`bounding_sphere_ritter`] provides a near-optimal free-center
//! bounding sphere used by the surface sampler and tests.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// A sphere given by center and radius.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sphere {
    pub center: Vec3,
    pub radius: f64,
}

impl Sphere {
    /// Creates a sphere. `radius` must be non-negative (checked in debug).
    #[inline]
    pub fn new(center: Vec3, radius: f64) -> Sphere {
        debug_assert!(radius >= 0.0);
        Sphere { center, radius }
    }

    /// True when `p` is inside or on the sphere.
    #[inline(always)]
    pub fn contains(&self, p: Vec3) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// True when `p` is strictly inside the sphere shrunk by `tol`.
    ///
    /// Used for buried-point removal in the surface sampler: a quadrature
    /// point sitting exactly on a neighbouring atom's surface is *not*
    /// buried.
    #[inline(always)]
    pub fn contains_strict(&self, p: Vec3, tol: f64) -> bool {
        let r = self.radius - tol;
        r > 0.0 && self.center.dist_sq(p) < r * r
    }

    /// True when the two spheres overlap.
    #[inline]
    pub fn intersects(&self, o: &Sphere) -> bool {
        let r = self.radius + o.radius;
        self.center.dist_sq(o.center) <= r * r
    }

    /// Surface area `4 pi r^2`.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        4.0 * std::f64::consts::PI * self.radius * self.radius
    }

    /// Volume `4/3 pi r^3`.
    #[inline]
    pub fn volume(&self) -> f64 {
        4.0 / 3.0 * std::f64::consts::PI * self.radius.powi(3)
    }

    /// Tight bounding box of the sphere.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        Aabb::new(self.center - Vec3::splat(self.radius), self.center + Vec3::splat(self.radius))
    }
}

/// Radius of the smallest ball centered at `about` that encloses all
/// `points`; 0 for an empty slice.
pub fn enclosing_radius_about(about: Vec3, points: &[Vec3]) -> f64 {
    points.iter().map(|p| p.dist_sq(about)).fold(0.0_f64, f64::max).sqrt()
}

/// Ritter's two-pass approximate minimal bounding sphere.
///
/// Guaranteed to enclose every point; at most ~5 % larger than the true
/// minimal sphere in practice. Returns a zero sphere for an empty slice.
pub fn bounding_sphere_ritter(points: &[Vec3]) -> Sphere {
    if points.is_empty() {
        return Sphere::new(Vec3::ZERO, 0.0);
    }
    // Pass 1: pick the two roughly-farthest points to seed the sphere.
    let p0 = points[0];
    let px = *points
        .iter()
        .max_by(|a, b| a.dist_sq(p0).partial_cmp(&b.dist_sq(p0)).unwrap())
        .unwrap();
    let py = *points
        .iter()
        .max_by(|a, b| a.dist_sq(px).partial_cmp(&b.dist_sq(px)).unwrap())
        .unwrap();
    let mut center = (px + py) * 0.5;
    let mut radius = px.dist(py) * 0.5;

    // Pass 2: grow to include any stragglers.
    for &p in points {
        let d = center.dist(p);
        if d > radius {
            let new_r = (radius + d) * 0.5;
            // Shift center toward p just enough to cover it.
            center += (p - center) * ((new_r - radius) / d);
            radius = new_r;
        }
    }
    // Tiny inflation to absorb rounding in the containment checks.
    Sphere::new(center, radius * (1.0 + 1e-12) + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn random_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|_| Vec3::new(rng.f64_in(-3.0, 5.0), rng.f64_in(-1.0, 1.0), rng.f64_in(0.0, 8.0)))
            .collect()
    }

    #[test]
    fn sphere_predicates() {
        let s = Sphere::new(Vec3::ZERO, 2.0);
        assert!(s.contains(Vec3::new(2.0, 0.0, 0.0)));
        assert!(!s.contains(Vec3::new(2.1, 0.0, 0.0)));
        assert!(!s.contains_strict(Vec3::new(2.0, 0.0, 0.0), 1e-9));
        assert!(s.contains_strict(Vec3::new(1.0, 0.0, 0.0), 1e-9));
        let t = Sphere::new(Vec3::new(3.9, 0.0, 0.0), 2.0);
        assert!(s.intersects(&t));
        let u = Sphere::new(Vec3::new(4.1, 0.0, 0.0), 2.0);
        assert!(!s.intersects(&u));
    }

    #[test]
    fn measures() {
        let s = Sphere::new(Vec3::ZERO, 1.0);
        assert!((s.surface_area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
        assert!((s.volume() - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
        let b = s.aabb();
        assert_eq!(b.min, Vec3::splat(-1.0));
        assert_eq!(b.max, Vec3::splat(1.0));
    }

    #[test]
    fn ritter_contains_all_points() {
        let pts = random_cloud(500, 42);
        let s = bounding_sphere_ritter(&pts);
        for &p in &pts {
            assert!(s.contains(p), "point {p} outside Ritter sphere");
        }
    }

    #[test]
    fn ritter_is_reasonably_tight() {
        // Points on a unit sphere: optimal radius 1, Ritter should be < 1.3.
        let mut rng = DetRng::new(7);
        let pts: Vec<Vec3> = (0..400)
            .map(|_| {
                Vec3::new(rng.f64_in(-1.0, 1.0), rng.f64_in(-1.0, 1.0), rng.f64_in(-1.0, 1.0))
                    .normalized()
            })
            .collect();
        let s = bounding_sphere_ritter(&pts);
        assert!(s.radius < 1.3, "Ritter radius too loose: {}", s.radius);
    }

    #[test]
    fn enclosing_radius_exact_on_simple_input() {
        let pts = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(-3.0, 0.0, 0.0)];
        assert_eq!(enclosing_radius_about(Vec3::ZERO, &pts), 3.0);
        assert_eq!(enclosing_radius_about(Vec3::ZERO, &[]), 0.0);
    }

    #[test]
    fn empty_input_degenerate_sphere() {
        let s = bounding_sphere_ritter(&[]);
        assert_eq!(s.radius, 0.0);
    }
}

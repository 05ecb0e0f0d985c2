//! Axis-aligned bounding boxes and their octant subdivision.
//!
//! The octree in `gb-octree` subdivides a *cubic* root box; [`Aabb::cube`]
//! turns an arbitrary tight bounding box into the smallest enclosing cube so
//! that all eight octants of every node remain cubes (which keeps node radii
//! isotropic — an assumption of the near–far acceptance test).

use crate::vec3::Vec3;

/// An axis-aligned box given by its minimum and maximum corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// An "empty" box: min = +inf, max = -inf; the identity for [`Aabb::union`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3 { x: f64::INFINITY, y: f64::INFINITY, z: f64::INFINITY },
        max: Vec3 { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY, z: f64::NEG_INFINITY },
    };

    /// Creates a box from corners. `min` must be component-wise `<= max`
    /// (checked in debug builds).
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z, "inverted AABB");
        Aabb { min, max }
    }

    /// Tight bounding box of a point set. Returns [`Aabb::EMPTY`] for an
    /// empty slice.
    pub fn from_points(points: &[Vec3]) -> Aabb {
        let mut b = Aabb::EMPTY;
        for &p in points {
            b.grow(p);
        }
        b
    }

    /// Tight bounding box of a set of spheres (center + radius pairs).
    pub fn from_spheres(centers: &[Vec3], radii: &[f64]) -> Aabb {
        assert_eq!(centers.len(), radii.len());
        let mut b = Aabb::EMPTY;
        for (&c, &r) in centers.iter().zip(radii) {
            b.grow(c + Vec3::splat(r));
            b.grow(c - Vec3::splat(r));
        }
        b
    }

    /// True when this is the empty box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Expands the box to contain `p`.
    #[inline(always)]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb { min: self.min.min(o.min), max: self.max.max(o.max) }
    }

    /// Box expanded by `margin` on every side.
    #[inline]
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb { min: self.min - Vec3::splat(margin), max: self.max + Vec3::splat(margin) }
    }

    /// Geometric center of the box.
    #[inline(always)]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full edge lengths along each axis.
    #[inline(always)]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Half of the longest edge.
    #[inline]
    pub fn half_max_extent(&self) -> f64 {
        self.extent().max_component() * 0.5
    }

    /// Radius of the sphere circumscribing the box.
    #[inline]
    pub fn circumradius(&self) -> f64 {
        self.extent().norm() * 0.5
    }

    /// True when `p` lies inside or on the boundary.
    #[inline(always)]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True when the two boxes overlap (closed intervals).
    #[inline]
    pub fn intersects(&self, o: &Aabb) -> bool {
        self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    /// Squared distance from `p` to the box (0 when inside).
    #[inline]
    pub fn dist_sq_to_point(&self, p: Vec3) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Smallest cube sharing this box's center and containing it.
    ///
    /// A tiny `pad` fraction is added so points lying exactly on the boundary
    /// stay strictly inside after floating-point rounding.
    pub fn cube(&self, pad: f64) -> Aabb {
        let c = self.center();
        let h = self.half_max_extent() * (1.0 + pad);
        // Guard against degenerate (single-point) boxes.
        let h = if h > 0.0 { h } else { 0.5 };
        Aabb { min: c - Vec3::splat(h), max: c + Vec3::splat(h) }
    }

    /// Index (0..8) of the octant of this box's center containing `p`.
    ///
    /// Bit 0 = x-high, bit 1 = y-high, bit 2 = z-high.
    #[inline(always)]
    pub fn octant_of(&self, p: Vec3) -> usize {
        let c = self.center();
        (usize::from(p.x >= c.x)) | (usize::from(p.y >= c.y) << 1) | (usize::from(p.z >= c.z) << 2)
    }

    /// The `i`-th octant sub-box (same bit convention as [`Aabb::octant_of`]).
    #[inline]
    pub fn octant(&self, i: usize) -> Aabb {
        debug_assert!(i < 8);
        let c = self.center();
        let min = Vec3::new(
            if i & 1 == 0 { self.min.x } else { c.x },
            if i & 2 == 0 { self.min.y } else { c.y },
            if i & 4 == 0 { self.min.z } else { c.z },
        );
        let max = Vec3::new(
            if i & 1 == 0 { c.x } else { self.max.x },
            if i & 2 == 0 { c.y } else { self.max.y },
            if i & 4 == 0 { c.z } else { self.max.z },
        );
        Aabb { min, max }
    }

    /// Maps `p` into `[0,1]^3` coordinates relative to the box.
    #[inline]
    pub fn normalize_point(&self, p: Vec3) -> Vec3 {
        let e = self.extent();
        Vec3::new(
            if e.x > 0.0 { (p.x - self.min.x) / e.x } else { 0.5 },
            if e.y > 0.0 { (p.y - self.min.y) / e.y } else { 0.5 },
            if e.z > 0.0 { (p.z - self.min.z) / e.z } else { 0.5 },
        )
    }

    /// Surface area of the box.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Volume of the box.
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [Vec3::new(1.0, -2.0, 3.0), Vec3::new(-1.0, 4.0, 0.0), Vec3::new(0.0, 0.0, 5.0)];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.min, Vec3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 4.0, 5.0));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn empty_box_identities() {
        assert!(Aabb::EMPTY.is_empty());
        let b = unit_box();
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert!(!b.is_empty());
    }

    #[test]
    fn octants_partition_the_box() {
        let b = unit_box();
        let mut vol = 0.0;
        for i in 0..8 {
            let o = b.octant(i);
            vol += o.volume();
            // every octant center maps back to its own index
            assert_eq!(b.octant_of(o.center()), i);
        }
        assert!((vol - b.volume()).abs() < 1e-12);
    }

    #[test]
    fn octant_of_respects_bit_convention() {
        let b = unit_box();
        assert_eq!(b.octant_of(Vec3::new(0.1, 0.1, 0.1)), 0);
        assert_eq!(b.octant_of(Vec3::new(0.9, 0.1, 0.1)), 1);
        assert_eq!(b.octant_of(Vec3::new(0.1, 0.9, 0.1)), 2);
        assert_eq!(b.octant_of(Vec3::new(0.1, 0.1, 0.9)), 4);
        assert_eq!(b.octant_of(Vec3::new(0.9, 0.9, 0.9)), 7);
    }

    #[test]
    fn cube_contains_original_and_is_cubic() {
        let b = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(4.0, 1.0, 2.0));
        let c = b.cube(1e-6);
        let e = c.extent();
        assert!((e.x - e.y).abs() < 1e-9 && (e.y - e.z).abs() < 1e-9);
        assert!(c.contains(b.min) && c.contains(b.max));
        assert!(e.x >= 4.0);
    }

    #[test]
    fn cube_of_degenerate_box_is_nonempty() {
        let b = Aabb::new(Vec3::ONE, Vec3::ONE);
        let c = b.cube(0.0);
        assert!(c.extent().min_component() > 0.0);
        assert!(c.contains(Vec3::ONE));
    }

    #[test]
    fn distance_to_point() {
        let b = unit_box();
        assert_eq!(b.dist_sq_to_point(Vec3::new(0.5, 0.5, 0.5)), 0.0);
        assert_eq!(b.dist_sq_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.dist_sq_to_point(Vec3::new(2.0, 2.0, 0.5)), 2.0);
    }

    #[test]
    fn intersects_symmetry() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        let c = Aabb::new(Vec3::splat(1.5), Vec3::splat(2.0));
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
        // touching boxes count as intersecting (closed intervals)
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn normalize_point_unit() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(1.0, 2.0, 6.0));
        let n = b.normalize_point(Vec3::new(0.0, 1.0, 4.0));
        assert_eq!(n, Vec3::splat(0.5));
    }

    #[test]
    fn spheres_bbox_includes_radii() {
        let b = Aabb::from_spheres(&[Vec3::ZERO], &[2.0]);
        assert_eq!(b.min, Vec3::splat(-2.0));
        assert_eq!(b.max, Vec3::splat(2.0));
    }

    #[test]
    fn measures() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        assert!((b.circumradius() - (4.0f64 + 9.0 + 16.0).sqrt() * 0.5).abs() < 1e-12);
    }
}

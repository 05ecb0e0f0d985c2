//! Structure-of-arrays mirror of a `Vec3` slice.
//!
//! The octree kernels walk contiguous point ranges; storing the
//! coordinates as three parallel `f64` arrays turns the inner loops into
//! unit-stride streams the compiler can autovectorize, where the AoS
//! `Vec3` layout forces interleaved 24-byte loads.

use crate::vec3::Vec3;

/// Three parallel coordinate arrays (`x[i], y[i], z[i]` = point `i`).
#[derive(Clone, Debug, Default)]
pub struct Soa3 {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
}

impl Soa3 {
    /// Splits a `Vec3` slice into its three coordinate streams.
    pub fn from_vec3s(points: &[Vec3]) -> Soa3 {
        let mut out = Soa3 {
            x: Vec::with_capacity(points.len()),
            y: Vec::with_capacity(points.len()),
            z: Vec::with_capacity(points.len()),
        };
        for p in points {
            out.x.push(p.x);
            out.y.push(p.y);
            out.z.push(p.z);
        }
        out
    }

    /// Number of points.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no points are stored.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Reassembles point `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Overwrites the streams with a fresh `Vec3` slice in place, keeping
    /// the existing capacities — the allocation-free mirror update a
    /// frame-over-frame refit needs.
    pub fn refill(&mut self, points: &[Vec3]) {
        self.refill_with(points.iter().copied());
    }

    /// [`Soa3::refill`] from any point sequence (e.g. rotated normals).
    pub fn refill_with(&mut self, points: impl IntoIterator<Item = Vec3>) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        for p in points {
            self.x.push(p.x);
            self.y.push(p.y);
            self.z.push(p.z);
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.x.capacity() + self.y.capacity() + self.z.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_points() {
        let pts: Vec<Vec3> =
            (0..17).map(|i| Vec3::new(i as f64, -(i as f64), 0.5 * i as f64)).collect();
        let soa = Soa3::from_vec3s(&pts);
        assert_eq!(soa.len(), pts.len());
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(soa.get(i), p);
        }
    }

    #[test]
    fn empty_slice_gives_empty_soa() {
        let soa = Soa3::from_vec3s(&[]);
        assert!(soa.is_empty());
        assert_eq!(soa.len(), 0);
    }
}

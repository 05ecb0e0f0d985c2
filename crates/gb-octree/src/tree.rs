//! The [`Octree`] container and its basic accessors.

use crate::node::{Node, NodeId};
use gb_geom::{Aabb, RigidTransform, Vec3};

/// An adaptive octree over a fixed set of 3-D points.
///
/// The tree owns a *permuted* copy of the point coordinates: `points()[i]`
/// is the position of original point `point_index(i)`. Each node owns a
/// contiguous slice of that array, so leaf loops are pure forward scans.
#[derive(Clone, Debug)]
pub struct Octree {
    pub(crate) nodes: Vec<Node>,
    /// Permuted point coordinates (tree order).
    pub(crate) points: Vec<Vec3>,
    /// `order[i]` = original index of the point stored at tree position `i`.
    pub(crate) order: Vec<u32>,
    /// Node ids of all leaves, in depth-first order.
    pub(crate) leaves: Vec<NodeId>,
    /// Cubified root bounding box.
    pub(crate) bbox: Aabb,
    pub(crate) leaf_cap: usize,
}

impl Octree {
    /// The root node id (always 0 for a non-empty tree).
    pub const ROOT: NodeId = 0;

    /// Number of points stored in the tree.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of nodes (internal + leaves).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// True when the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow a node.
    #[inline(always)]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// All nodes, in depth-first preorder.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The permuted point coordinates (tree order).
    #[inline]
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Original index of the point at tree position `i`.
    #[inline(always)]
    pub fn point_index(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    /// The permutation mapping tree position -> original index.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Leaf node ids in depth-first order.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Cubified root bounding box.
    #[inline]
    pub fn bbox(&self) -> Aabb {
        self.bbox
    }

    /// Leaf capacity the tree was built with.
    #[inline]
    pub fn leaf_cap(&self) -> usize {
        self.leaf_cap
    }

    /// Maximum node depth present in the tree.
    pub fn max_depth(&self) -> u8 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Returns a new tree with every point (and node centroid / cell) moved
    /// by the rigid transform `t`.
    ///
    /// Tree topology, point permutation and node radii are reused unchanged —
    /// rigid motions preserve all inter-point distances — which is what makes
    /// re-posing a ligand during a docking scan O(M) instead of an
    /// O(M log M) rebuild. Node `bbox`es become *loose* axis-aligned boxes
    /// (the AABB of the rotated cell) and remain valid bounds.
    pub fn transformed(&self, t: &RigidTransform) -> Octree {
        let mut out = self.clone();
        for p in &mut out.points {
            *p = t.apply(*p);
        }
        for n in &mut out.nodes {
            n.centroid = t.apply(n.centroid);
            n.bbox = transform_aabb(&n.bbox, t);
        }
        out.bbox = transform_aabb(&self.bbox, t);
        out
    }

    /// Estimated heap footprint in bytes (used by the replicated-memory
    /// accounting of the cluster runtime).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.points.capacity() * std::mem::size_of::<Vec3>()
            + self.order.capacity() * std::mem::size_of::<u32>()
            + self.leaves.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Internal consistency check used by tests and `debug_assert`s:
    /// verifies ranges, child links, leaf list, centroid and radius bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Ok(());
        }
        let root = self.node(Self::ROOT);
        if root.begin != 0 || root.end as usize != self.points.len() {
            return Err("root does not cover all points".into());
        }
        let mut leaf_seen = 0usize;
        for (id, n) in self.nodes.iter().enumerate() {
            if n.begin > n.end {
                return Err(format!("node {id}: inverted range"));
            }
            if n.is_leaf() {
                leaf_seen += 1;
                if n.count() == 0 {
                    return Err(format!("leaf {id} is empty"));
                }
            } else {
                // children must partition the parent's range, in order
                let mut cursor = n.begin;
                if n.child_count == 0 {
                    return Err(format!("internal node {id} has no children"));
                }
                for c in n.children() {
                    let ch = self.node(c);
                    if ch.begin != cursor {
                        return Err(format!("node {id}: child {c} range gap"));
                    }
                    if ch.depth != n.depth + 1 {
                        return Err(format!("node {id}: child {c} bad depth"));
                    }
                    cursor = ch.end;
                }
                if cursor != n.end {
                    return Err(format!("node {id}: children do not cover range"));
                }
            }
            // radius must bound every point under the node
            let r2 = (n.radius * (1.0 + 1e-9) + 1e-9).powi(2);
            for &p in &self.points[n.range()] {
                if p.dist_sq(n.centroid) > r2 {
                    return Err(format!("node {id}: point escapes radius"));
                }
            }
        }
        if leaf_seen != self.leaves.len() {
            return Err("leaf list out of sync".into());
        }
        // permutation must be a bijection
        let mut seen = vec![false; self.order.len()];
        for &o in &self.order {
            if seen[o as usize] {
                return Err("order is not a permutation".into());
            }
            seen[o as usize] = true;
        }
        Ok(())
    }
}

/// AABB of a rigidly-transformed box (loose under rotation).
fn transform_aabb(b: &Aabb, t: &RigidTransform) -> Aabb {
    let mut out = Aabb::EMPTY;
    for i in 0..8 {
        let corner = Vec3::new(
            if i & 1 == 0 { b.min.x } else { b.max.x },
            if i & 2 == 0 { b.min.y } else { b.max.y },
            if i & 4 == 0 { b.min.z } else { b.max.z },
        );
        out.grow(t.apply(corner));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::DetRng;

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|_| Vec3::new(rng.f64_in(-4.0, 4.0), rng.f64_in(-4.0, 4.0), rng.f64_in(-4.0, 4.0)))
            .collect()
    }

    #[test]
    fn transformed_tree_is_valid_and_radii_unchanged() {
        let pts = cloud(500, 21);
        let tree = Octree::build(&pts, 8);
        let t = RigidTransform::rotation_about(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.2, 0.5, -1.0),
            1.1,
        ) * RigidTransform::translation(Vec3::new(10.0, -3.0, 0.5));
        let moved = tree.transformed(&t);
        moved.validate().expect("transformed tree must stay valid");
        for (a, b) in tree.nodes().iter().zip(moved.nodes()) {
            assert!((a.radius - b.radius).abs() < 1e-12);
            assert!((t.apply(a.centroid) - b.centroid).norm() < 1e-9);
        }
        // points moved correctly
        for (i, &p) in tree.points().iter().enumerate() {
            assert!((t.apply(p) - moved.points()[i]).norm() < 1e-9);
        }
    }

    #[test]
    fn memory_bytes_is_positive_and_scales() {
        let small = Octree::build(&cloud(50, 1), 8);
        let big = Octree::build(&cloud(5_000, 1), 8);
        assert!(small.memory_bytes() > 0);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}

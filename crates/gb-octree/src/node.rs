//! Octree node representation.

use gb_geom::{Aabb, Vec3};

/// Index of a node inside its tree's flat node array.
pub type NodeId = u32;

/// Sentinel for "no child".
pub const NULL_NODE: NodeId = u32::MAX;

/// One octree node.
///
/// Children of a node are stored contiguously starting at `first_child`;
/// `child_count` of them exist (empty octants are simply not materialized).
/// The points beneath the node occupy `begin..end` of the tree's permuted
/// point array, so every node — not just leaves — can enumerate its points
/// without touching its children.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Cubic cell of this node (loose after rigid transforms).
    pub bbox: Aabb,
    /// Geometric centroid of the points beneath this node; the position of
    /// the paper's pseudo-atom / pseudo-quadrature-point.
    pub centroid: Vec3,
    /// Radius of the smallest centroid-centered ball enclosing all points
    /// beneath this node (the paper's `r_A` / `r_Q`).
    pub radius: f64,
    /// Start of this node's range in the permuted point array.
    pub begin: u32,
    /// One past the end of this node's range.
    pub end: u32,
    /// Index of the first child, or [`NULL_NODE`] for leaves.
    pub first_child: NodeId,
    /// Number of children (0 for leaves, 1..=8 otherwise).
    pub child_count: u8,
    /// Depth of the node (root = 0).
    pub depth: u8,
}

impl Node {
    /// Number of points beneath this node.
    #[inline(always)]
    pub fn count(&self) -> usize {
        (self.end - self.begin) as usize
    }

    /// True when this node has no children.
    #[inline(always)]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NULL_NODE
    }

    /// Iterator over the ids of this node's children, in tree order
    /// (ascending `begin`); `.rev()` walks them back to front.
    #[inline]
    pub fn children(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        let first = self.first_child;
        let n = self.child_count as u32;
        (0..if first == NULL_NODE { 0 } else { n }).map(move |i| first + i)
    }

    /// The point-array range owned by this node.
    #[inline(always)]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.begin as usize..self.end as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_node() -> Node {
        Node {
            bbox: Aabb::new(Vec3::ZERO, Vec3::ONE),
            centroid: Vec3::splat(0.5),
            radius: 0.5,
            begin: 3,
            end: 9,
            first_child: NULL_NODE,
            child_count: 0,
            depth: 2,
        }
    }

    #[test]
    fn leaf_has_no_children() {
        let n = leaf_node();
        assert!(n.is_leaf());
        assert_eq!(n.children().count(), 0);
        assert_eq!(n.count(), 6);
        assert_eq!(n.range(), 3..9);
    }

    #[test]
    fn internal_node_children_are_contiguous() {
        let mut n = leaf_node();
        n.first_child = 10;
        n.child_count = 3;
        assert!(!n.is_leaf());
        assert_eq!(n.children().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(n.children().rev().collect::<Vec<_>>(), vec![12, 11, 10]);
    }
}

//! Octree construction.
//!
//! Build pipeline:
//! 1. cubify the tight bounding box (so octant cells stay cubes),
//! 2. Morton-sort the point indices (cache-friendly layout; also means the
//!    per-node octant partition below is a stable counting sort over an
//!    almost-sorted sequence),
//! 3. recursively split ranges into octants until `leaf_cap` is reached,
//! 4. one pass computes per-node centroids and enclosing radii.
//!
//! Construction is deterministic: the same points and cap give the same
//! tree.

use crate::node::{Node, NodeId, NULL_NODE};
use crate::tree::Octree;
use crate::MAX_DEPTH;
use gb_geom::{morton, Aabb, Vec3};

impl Octree {
    /// Builds an octree over `points` with at most `leaf_cap` points per
    /// leaf. `leaf_cap` is clamped to at least 1.
    pub fn build(points: &[Vec3], leaf_cap: usize) -> Octree {
        build_impl(points, leaf_cap)
    }
}

fn build_impl(input: &[Vec3], leaf_cap: usize) -> Octree {
    let leaf_cap = leaf_cap.max(1);
    if input.is_empty() {
        return Octree {
            nodes: Vec::new(),
            points: Vec::new(),
            order: Vec::new(),
            leaves: Vec::new(),
            bbox: Aabb::EMPTY,
            leaf_cap,
        };
    }

    let bbox = Aabb::from_points(input).cube(1e-9);

    // Morton sort for locality; the permutation is carried alongside.
    let order = morton::sort_indices_by_code(input, &bbox);
    let mut points: Vec<Vec3> = Vec::with_capacity(input.len());
    points.extend(order.iter().map(|&i| input[i as usize]));
    let mut order = order;

    let mut tree = Octree {
        nodes: Vec::with_capacity(2 * input.len() / leaf_cap.max(1) + 8),
        points: Vec::new(),
        order: Vec::new(),
        leaves: Vec::new(),
        bbox,
        leaf_cap,
    };

    tree.nodes.push(Node {
        bbox,
        centroid: Vec3::ZERO, // filled by the summary pass
        radius: 0.0,
        begin: 0,
        end: input.len() as u32,
        first_child: NULL_NODE,
        child_count: 0,
        depth: 0,
    });

    // Iterative DFS split. A scratch buffer holds one node's points during
    // the octant counting sort; reused across nodes to avoid reallocation.
    let mut stack: Vec<NodeId> = vec![0];
    let mut scratch_pts: Vec<Vec3> = Vec::new();
    let mut scratch_ord: Vec<u32> = Vec::new();
    while let Some(id) = stack.pop() {
        let (range, depth, cell) = {
            let n = &tree.nodes[id as usize];
            (n.range(), n.depth, n.bbox)
        };
        let count = range.len();
        if count <= leaf_cap || depth >= MAX_DEPTH || all_coincident(&points[range.clone()]) {
            continue; // stays a leaf
        }

        // Counting sort of the node's points into octants of its cell.
        let mut counts = [0usize; 8];
        for &p in &points[range.clone()] {
            counts[cell.octant_of(p)] += 1;
        }
        let mut offsets = [0usize; 8];
        let mut acc = 0;
        for o in 0..8 {
            offsets[o] = acc;
            acc += counts[o];
        }
        scratch_pts.clear();
        scratch_pts.resize(count, Vec3::ZERO);
        scratch_ord.clear();
        scratch_ord.resize(count, 0);
        {
            let mut cursor = offsets;
            for i in range.clone() {
                let p = points[i];
                let o = cell.octant_of(p);
                scratch_pts[cursor[o]] = p;
                scratch_ord[cursor[o]] = order[i];
                cursor[o] += 1;
            }
        }
        points[range.clone()].copy_from_slice(&scratch_pts);
        order[range.clone()].copy_from_slice(&scratch_ord);

        // Materialize non-empty octants as contiguous children.
        let first_child = tree.nodes.len() as NodeId;
        let mut child_count = 0u8;
        for o in 0..8 {
            if counts[o] == 0 {
                continue;
            }
            let begin = range.start + offsets[o];
            tree.nodes.push(Node {
                bbox: cell.octant(o),
                centroid: Vec3::ZERO,
                radius: 0.0,
                begin: begin as u32,
                end: (begin + counts[o]) as u32,
                first_child: NULL_NODE,
                child_count: 0,
                depth: depth + 1,
            });
            child_count += 1;
        }
        let n = &mut tree.nodes[id as usize];
        n.first_child = first_child;
        n.child_count = child_count;
        // Push children in reverse so DFS visits them in ascending id order.
        for c in (0..child_count as u32).rev() {
            stack.push(first_child + c);
        }
    }

    tree.points = points;
    tree.order = order;

    // Summary pass: centroids and enclosing radii, plus the leaf list.
    for n in &mut tree.nodes {
        summarize(n, &tree.points);
    }
    tree.leaves = tree
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_leaf())
        .map(|(i, _)| i as NodeId)
        .collect();
    // Order leaves by their point range so that a contiguous segment of
    // leaves covers a contiguous range of the permuted point array — the
    // property the node-based work division relies on.
    tree.leaves.sort_by_key(|&l| tree.nodes[l as usize].begin);

    debug_assert_eq!(tree.validate(), Ok(()));
    tree
}

/// Computes a node's centroid and centroid-centered enclosing radius
/// directly from its point range.
fn summarize(n: &mut Node, points: &[Vec3]) {
    let slice = &points[n.range()];
    let mut c = Vec3::ZERO;
    for &p in slice {
        c += p;
    }
    c /= slice.len().max(1) as f64;
    let mut r2: f64 = 0.0;
    for &p in slice {
        r2 = r2.max(p.dist_sq(c));
    }
    n.centroid = c;
    n.radius = r2.sqrt();
}

fn all_coincident(points: &[Vec3]) -> bool {
    points.windows(2).all(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::DetRng;

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|_| {
                Vec3::new(rng.f64_in(-10.0, 10.0), rng.f64_in(-2.0, 2.0), rng.f64_in(0.0, 7.0))
            })
            .collect()
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let t = Octree::build(&[], 8);
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_leaves(), 0);
    }

    #[test]
    fn single_point_tree() {
        let t = Octree::build(&[Vec3::new(1.0, 2.0, 3.0)], 8);
        assert_eq!(t.num_points(), 1);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.node(Octree::ROOT).radius, 0.0);
        t.validate().unwrap();
    }

    #[test]
    fn build_is_valid_across_sizes_and_caps() {
        for &n in &[1usize, 2, 7, 8, 9, 100, 1_000] {
            for &cap in &[1usize, 4, 8, 64] {
                let pts = cloud(n, n as u64);
                let t = Octree::build(&pts, cap);
                t.validate().unwrap_or_else(|e| panic!("n={n} cap={cap}: {e}"));
                assert_eq!(t.num_points(), n);
                // every leaf respects the cap unless depth-limited
                for &l in t.leaves() {
                    let node = t.node(l);
                    assert!(
                        node.count() <= cap || node.depth >= MAX_DEPTH,
                        "leaf over capacity"
                    );
                }
            }
        }
    }

    #[test]
    fn leaves_partition_points() {
        let pts = cloud(777, 3);
        let t = Octree::build(&pts, 8);
        let total: usize = t.leaves().iter().map(|&l| t.node(l).count()).sum();
        assert_eq!(total, pts.len());
        // leaf ranges must be disjoint and sorted in DFS order
        let mut cursor = 0;
        for &l in t.leaves() {
            let n = t.node(l);
            assert_eq!(n.begin as usize, cursor);
            cursor = n.end as usize;
        }
        assert_eq!(cursor, pts.len());
    }

    #[test]
    fn permutation_maps_points_back() {
        let pts = cloud(300, 4);
        let t = Octree::build(&pts, 8);
        for i in 0..t.num_points() {
            assert_eq!(t.points()[i], pts[t.point_index(i)]);
        }
    }

    #[test]
    fn coincident_points_do_not_recurse_forever() {
        let pts = vec![Vec3::new(1.0, 1.0, 1.0); 100];
        let t = Octree::build(&pts, 4);
        t.validate().unwrap();
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.node(Octree::ROOT).count(), 100);
    }

    #[test]
    fn near_coincident_points_respect_depth_limit() {
        // Two clusters closer than the Morton lattice can separate at most
        // depths; the depth cap must stop recursion.
        let mut pts = vec![Vec3::ZERO; 20];
        for (i, p) in pts.iter_mut().enumerate() {
            p.x = (i as f64) * 1e-13;
        }
        pts.push(Vec3::new(1.0, 1.0, 1.0));
        let t = Octree::build(&pts, 2);
        t.validate().unwrap();
        assert!(t.max_depth() <= MAX_DEPTH);
    }

    #[test]
    fn node_count_is_linear_in_points() {
        // The paper's space argument: octree size is O(M), independent of
        // any cutoff/approximation parameter.
        let pts = cloud(4_000, 5);
        let t = Octree::build(&pts, 8);
        assert!(
            t.num_nodes() < 4 * pts.len(),
            "node count {} should be O(points)",
            t.num_nodes()
        );
    }

    #[test]
    fn clustered_distribution_stays_valid() {
        // Highly non-uniform input: several tight clusters.
        let mut rng = DetRng::new(17);
        let mut pts = Vec::new();
        for c in 0..5 {
            let center = Vec3::new(c as f64 * 100.0, 0.0, 0.0);
            for _ in 0..200 {
                pts.push(center + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.5);
            }
        }
        let t = Octree::build(&pts, 8);
        t.validate().unwrap();
        assert_eq!(t.num_points(), 1_000);
    }
}

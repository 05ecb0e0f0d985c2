//! Work-division schemes (paper §IV, "Different Work Distribution
//! Approaches").
//!
//! The distributed phases split work across `P` ranks either by **leaf
//! nodes** (each rank owns a contiguous run of octree leaves — the paper's
//! `NODE-BASED-WORK-DIVISION`, its default and best performer) or by
//! **atoms** (each rank owns a contiguous range of atoms —
//! `ATOM-BASED-WORK-DIVISION`). The paper's observation, reproduced by our
//! tests: node-based division gives an approximation error *independent of
//! P* (every rank always handles whole tree nodes), while atom-based
//! division's error varies with P because range boundaries split tree nodes
//! differently for different P.

use gb_octree::Octree;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which division scheme the distributed phases use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkDivision {
    /// Leaf-node based (`node–node` in the paper): segment the `T_Q`
    /// leaves for the Born phase and the `T_A` leaves for the energy phase.
    NodeNode,
    /// Atom based (`atom–node`): segment the atom ranges. A rank's Born
    /// lists are swept with `T_A` clipped to its range (far terms only at
    /// nodes wholly inside it), and its energy rows are the leaves that
    /// start in it.
    AtomNode,
}

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one (the paper's "divide evenly").
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(parts);
    even_ranges_into(n, parts, &mut out);
    out
}

/// [`even_ranges`] into a reused buffer (cleared, capacity kept).
pub fn even_ranges_into(n: usize, parts: usize, out: &mut Vec<Range<usize>>) {
    assert!(parts >= 1);
    let base = n / parts;
    let extra = n % parts;
    out.clear();
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
}

/// Segments a tree's leaf list evenly by *leaf count* — the paper's scheme
/// ("divide the leaf nodes ... evenly among the processes"). Returns index
/// ranges into `tree.leaves()`.
pub fn leaf_segments(tree: &Octree, parts: usize) -> Vec<Range<usize>> {
    even_ranges(tree.num_leaves(), parts)
}

/// Segments a tree's leaf list into `parts` ranges balanced by the number
/// of *points* under the leaves (a natural refinement; exposed for the
/// load-balancing ablation benchmark).
pub fn balanced_leaf_segments(tree: &Octree, parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1);
    let leaves = tree.leaves();
    let total: usize = tree.num_points();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut consumed = 0usize;
    for i in 0..parts {
        // target cumulative share after segment i
        let target = (total as f64 * (i + 1) as f64 / parts as f64).round() as usize;
        let mut end = start;
        while end < leaves.len() && (consumed < target || i + 1 == parts) {
            consumed += tree.node(leaves[end]).count();
            end += 1;
            if i + 1 == parts {
                continue; // last segment takes everything left
            }
        }
        out.push(start..end);
        start = end;
    }
    // ensure full coverage
    if let Some(last) = out.last_mut() {
        last.end = leaves.len();
    }
    out
}

/// Segments the atom array (tree positions `0..M`) evenly — the atom-based
/// scheme.
pub fn atom_segments(num_atoms: usize, parts: usize) -> Vec<Range<usize>> {
    even_ranges(num_atoms, parts)
}

/// Splits `0..works.len()` into `parts` contiguous ranges whose summed
/// `works` are as even as a greedy prefix cut allows. Used to partition
/// interaction-list execution by *measured* per-leaf work instead of leaf
/// count. Every segment is nonempty when `works.len() >= parts`; the
/// result depends only on `works`, so all ranks computing it from the same
/// (replicated) lists agree without communication.
pub fn work_balanced_segments(works: &[f64], parts: usize) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(parts);
    work_balanced_segments_into(works, parts, &mut out);
    out
}

/// [`work_balanced_segments`] into a reused buffer (cleared, capacity
/// kept).
pub fn work_balanced_segments_into(works: &[f64], parts: usize, out: &mut Vec<Range<usize>>) {
    assert!(parts >= 1);
    let n = works.len();
    let total: f64 = works.iter().sum();
    out.clear();
    let mut start = 0usize;
    let mut consumed = 0.0f64;
    for i in 0..parts {
        let remaining = parts - i - 1;
        let end = if remaining == 0 {
            n // last segment takes everything left
        } else {
            // leave at least one item per remaining segment
            let cap = n.saturating_sub(remaining);
            let target = total * (i + 1) as f64 / parts as f64;
            let mut end = start;
            while end < cap && (end == start || consumed < target) {
                consumed += works[end];
                end += 1;
            }
            end
        };
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::{DetRng, Vec3};

    fn tree(n: usize) -> Octree {
        let mut rng = DetRng::new(3);
        let pts: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.f64(), rng.f64(), rng.f64()) * 10.0).collect();
        Octree::build(&pts, 8)
    }

    #[test]
    fn even_ranges_cover_and_balance() {
        for (n, p) in [(10, 3), (100, 7), (5, 8), (0, 4), (12, 12)] {
            let r = even_ranges(n, p);
            assert_eq!(r.len(), p);
            assert_eq!(r.first().unwrap().start, 0);
            assert_eq!(r.last().unwrap().end, n);
            // contiguous
            for w in r.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // balanced within 1
            let lens: Vec<usize> = r.iter().map(|x| x.len()).collect();
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            assert!(max - min <= 1, "n={n} p={p}: {lens:?}");
        }
    }

    #[test]
    fn leaf_segments_partition_leaves() {
        let t = tree(500);
        let segs = leaf_segments(&t, 6);
        assert_eq!(segs.len(), 6);
        assert_eq!(segs.last().unwrap().end, t.num_leaves());
        let covered: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(covered, t.num_leaves());
    }

    #[test]
    fn balanced_segments_cover_all_points() {
        let t = tree(700);
        for p in [1usize, 2, 5, 12] {
            let segs = balanced_leaf_segments(&t, p);
            assert_eq!(segs.len(), p);
            let mut cursor = 0;
            let mut points = 0;
            for s in &segs {
                assert_eq!(s.start, cursor);
                cursor = s.end;
                for li in s.clone() {
                    points += t.node(t.leaves()[li]).count();
                }
            }
            assert_eq!(cursor, t.num_leaves(), "p={p}");
            assert_eq!(points, t.num_points(), "p={p}");
        }
    }

    #[test]
    fn balanced_segments_are_more_even_in_points() {
        let t = tree(2_000);
        let p = 8;
        let spread = |segs: &[Range<usize>]| {
            let loads: Vec<usize> = segs
                .iter()
                .map(|s| s.clone().map(|li| t.node(t.leaves()[li]).count()).sum())
                .collect();
            (*loads.iter().max().unwrap() as f64) / (*loads.iter().min().unwrap()).max(1) as f64
        };
        let even = spread(&leaf_segments(&t, p));
        let bal = spread(&balanced_leaf_segments(&t, p));
        assert!(bal <= even + 1e-9, "balanced {bal} vs even {even}");
    }

    #[test]
    fn work_balanced_segments_partition_and_balance() {
        let mut rng = DetRng::new(9);
        let works: Vec<f64> = (0..257).map(|_| rng.f64() * 100.0).collect();
        let total: f64 = works.iter().sum();
        for p in [1usize, 2, 3, 7, 16] {
            let segs = work_balanced_segments(&works, p);
            assert_eq!(segs.len(), p);
            let mut cursor = 0;
            for s in &segs {
                assert_eq!(s.start, cursor, "p={p}");
                assert!(!s.is_empty(), "p={p}: empty segment {s:?}");
                cursor = s.end;
            }
            assert_eq!(cursor, works.len(), "p={p}");
            // no segment exceeds its fair share by more than one item's work
            let max_item = works.iter().cloned().fold(0.0f64, f64::max);
            for s in &segs {
                let load: f64 = works[s.clone()].iter().sum();
                assert!(load <= total / p as f64 + max_item + 1e-9, "p={p}: load {load}");
            }
        }
    }

    #[test]
    fn work_balanced_segments_handle_degenerate_inputs() {
        // fewer items than parts: all items still covered exactly once
        let segs = work_balanced_segments(&[5.0, 1.0], 4);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 2);
        assert_eq!(segs.last().unwrap().end, 2);
        // empty input
        let segs = work_balanced_segments(&[], 3);
        assert!(segs.iter().all(|s| s.is_empty()));
        // all-zero work behaves like an even split over indices
        let segs = work_balanced_segments(&[0.0; 6], 3);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 6);
        assert!(segs.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn more_parts_than_items_gives_empty_tails() {
        let r = even_ranges(3, 5);
        assert_eq!(r.iter().filter(|x| !x.is_empty()).count(), 3);
        assert_eq!(r[4], 3..3);
    }
}

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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// Runs `task(t, &mut items[t])` for every `t` — the in-process fork-join
/// every multithreaded phase goes through: task 0 on the calling thread,
/// tasks `1..` on scoped threads, all joined before returning. Each task
/// owns its item outright, so the caller's in-order merge of the items
/// afterwards fixes the result whatever the schedule; a single item runs
/// inline and spawns nothing.
pub(crate) fn fork_join<T: Send>(items: &mut [T], task: impl Fn(usize, &mut T) + Sync) {
    let Some((first, rest)) = items.split_first_mut() else { return };
    if rest.is_empty() {
        return task(0, first);
    }
    let task = &task;
    std::thread::scope(|s| {
        for (i, item) in rest.iter_mut().enumerate() {
            s.spawn(move || task(i + 1, item));
        }
        task(0, first);
    });
}

/// Rows of one fixed segment of an energy row sum: segment `k` is the
/// driving rows `k·SEGMENT_ROWS .. (k+1)·SEGMENT_ROWS`, clipped to the
/// range being summed — independent of the thread and rank counts.
pub const SEGMENT_ROWS: usize = 16;

/// The fixed segments covering `rows`: segment `k` of the result is
/// `segment(rows, k)`, for `k in 0..segment_count(rows)`.
pub(crate) fn segment_count(rows: &Range<usize>) -> usize {
    if rows.is_empty() {
        return 0;
    }
    rows.end.div_ceil(SEGMENT_ROWS) - rows.start / SEGMENT_ROWS
}

/// Segment `k` (relative to the first segment touching `rows`) of
/// [`segment_count`].
pub(crate) fn segment(rows: &Range<usize>, k: usize) -> Range<usize> {
    let first = (rows.start / SEGMENT_ROWS + k) * SEGMENT_ROWS;
    first.max(rows.start)..(first + SEGMENT_ROWS).min(rows.end)
}

/// Per-segment `(raw, work)` partials of a multithreaded
/// `sum_segments`, stored as bits by whichever thread ran the segment
/// and read in segment order after the join. Grow-only.
#[derive(Debug, Default)]
pub struct SegmentPartials(Vec<[AtomicU64; 2]>);

impl SegmentPartials {
    /// Empty partials (no allocation until a multithreaded sum).
    pub fn new() -> SegmentPartials {
        SegmentPartials(Vec::new())
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<[AtomicU64; 2]>()
    }
}

/// The one combine of a segmented sum: `Σ_k task(k)` over
/// `k in 0..segments`, added in `k` order. On one scratch the segments
/// run in order on the calling thread; on `T > 1` the threads (at most
/// one per segment) claim segments from an atomic counter — a dynamic
/// schedule — and each partial lands at its index before the in-order
/// sum. The result therefore depends on neither `T` nor the schedule.
/// Each task sums its own segment's rows in row order.
pub(crate) fn sum_segments<S: Send>(
    scratch: &mut [S],
    partials: &mut SegmentPartials,
    segments: usize,
    task: impl Fn(usize, &mut S) -> (f64, f64) + Sync,
) -> (f64, f64) {
    let threads = scratch.len().min(segments);
    let mut total = (0.0, 0.0);
    if threads <= 1 {
        if let Some(s) = scratch.first_mut() {
            for k in 0..segments {
                let (r, w) = task(k, s);
                total.0 += r;
                total.1 += w;
            }
        }
        return total;
    }
    if partials.0.len() < segments {
        partials.0.resize_with(segments, Default::default);
    }
    let (next, slots) = (AtomicUsize::new(0), &partials.0[..segments]);
    fork_join(&mut scratch[..threads], |_, s| loop {
        // the counter publishes no data: the read-modify-write alone
        // hands each segment to exactly one thread
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(k) else { break };
        let (r, w) = task(k, s);
        slot[0].store(r.to_bits(), Ordering::Relaxed);
        slot[1].store(w.to_bits(), Ordering::Relaxed);
    });
    // the scope join orders every store before these loads
    for slot in slots {
        total.0 += f64::from_bits(slot[0].load(Ordering::Relaxed));
        total.1 += f64::from_bits(slot[1].load(Ordering::Relaxed));
    }
    total
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
    fn fixed_segments_tile_any_row_range() {
        let s = SEGMENT_ROWS;
        for rows in [0..0, 0..1, 0..s, 0..s + 1, 5..5, 3..2 * s + 7, s..3 * s, 2 * s - 1..2 * s] {
            let mut cursor = rows.start;
            for k in 0..segment_count(&rows) {
                let seg = segment(&rows, k);
                assert_eq!(seg.start, cursor, "{rows:?} segment {k}");
                assert!(!seg.is_empty() && seg.len() <= s, "{rows:?} segment {k}: {seg:?}");
                // boundaries sit on multiples of SEGMENT_ROWS, whatever the range
                assert!(seg.end == rows.end || seg.end.is_multiple_of(s), "{rows:?}: {seg:?}");
                cursor = seg.end;
            }
            assert_eq!(cursor, rows.end, "{rows:?}");
        }
    }

    #[test]
    fn segment_sums_add_in_segment_order_at_any_thread_count() {
        // partials spanning 40 binades make the sum order-sensitive, so
        // any combine other than segment order shows up in the bits
        let mut rng = DetRng::new(17);
        let vals: Vec<f64> =
            (0..500).map(|_| (rng.f64() - 0.5) * 2f64.powi((rng.f64() * 40.0) as i32)).collect();
        let task = |k: usize, _: &mut ()| (vals[k], k as f64 * 0.25);
        let forward: f64 = vals.iter().sum();
        assert_ne!(forward, vals.iter().rev().sum::<f64>(), "sum is order-insensitive");
        let mut partials = SegmentPartials::new();
        for t in [1usize, 2, 3, 4] {
            let mut scratch = vec![(); t];
            for segments in [0usize, 1, 3, vals.len()] {
                let got = sum_segments(&mut scratch, &mut partials, segments, task);
                let mut want = (0.0, 0.0);
                for (k, v) in vals[..segments].iter().enumerate() {
                    want.0 += v;
                    want.1 += k as f64 * 0.25;
                }
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "T={t}, {segments} segments");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "T={t}, {segments} segments");
            }
        }
    }

    #[test]
    fn more_parts_than_items_gives_empty_tails() {
        let r = even_ranges(3, 5);
        assert_eq!(r.iter().filter(|x| !x.is_empty()).count(), 3);
        assert_eq!(r[4], 3..3);
    }
}

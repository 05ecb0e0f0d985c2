//! Communication plans — the sparse, overlap-aware alternative to the
//! dense integral allreduce.
//!
//! The dense step 3 of the 7-step algorithm allreduces the full
//! `O(nodes + M)` flat accumulator even though each rank *produces*
//! (writes) only the slots its interaction-list segment touches and
//! *consumes* (reads) only the slots its push traversal visits. Because
//! the interaction lists are replicated preprocessing, every rank can
//! derive both sets for **all** ranks without any communication — that
//! derivation is a [`CommPlan`].
//!
//! The plan drives a two-stage replacement of the allreduce:
//!
//! 1. **Owner-computes sparse reduce-scatter.** Every flat slot has a
//!    deterministic owner rank (the same contiguous even partition as
//!    `try_reduce_scatter_sum`). Each producer ships only the values of
//!    `produced[r] ∩ owned(o)` to owner `o`; the owner reduces incoming
//!    segments **in ascending rank order starting from +0.0** — exactly
//!    the dense allreduce's summation order, so the result is
//!    bit-identical (ranks whose lists never touch a slot contribute an
//!    exact +0.0, and `x + 0.0` preserves every bit of a running sum that
//!    starts at +0.0).
//! 2. **Targeted allgatherv.** The owner ships each slot only to the
//!    ranks whose consumer set contains it (`consumed[c] ∩ owned(o)`),
//!    instead of broadcasting the full vector.
//!
//! Because owner intervals are contiguous and slot lists are sorted, a
//! "manifest" (the intersection of a slot list with an owner interval) is
//! always a contiguous subrange of the list, found with two binary
//! searches — the wire format is then *values only, in sorted slot
//! order*, with no index vector on the wire at all.
//!
//! For the distributed runner the plan additionally assigns each produced
//! slot the **last chunk** of the rank's ordinal segment that writes it,
//! enabling the overlap pipeline: the integral phase executes its segment
//! in chunks and posts nonblocking sends for a chunk's finalized slots
//! while the next chunk computes.
//!
//! Plans are cached in the [`Workspace`](crate::arena::Workspace) under a
//! key hashing the full list structure and the division ranges, so a
//! steady-state superstep reuses the plan without re-deriving it.

use crate::interaction::BornLists;
use crate::system::GbSystem;
use gb_octree::Octree;
use std::ops::Range;

/// How the runners combine per-rank integral partials.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CommMode {
    /// Dense allreduce of the full flat accumulator (the paper's
    /// baseline `MPI_Allreduce`).
    Dense,
    /// Plan-driven sparse reduce-scatter + targeted allgatherv, with the
    /// chunked overlap pipeline where the runner supports it.
    #[default]
    Sparse,
}

/// The contiguous slot interval owned by rank `o` out of `num_slots`
/// flat slots on `p` ranks — the same even partition as
/// `Comm::try_reduce_scatter_sum`, replicated here so both producer and
/// owner sides compute identical manifests with no communication.
pub fn owner_interval(num_slots: usize, p: usize, o: usize) -> Range<usize> {
    let base = num_slots / p;
    let extra = num_slots % p;
    let start = o * base + o.min(extra);
    start..start + base + usize::from(o < extra)
}

/// The subrange of a sorted slot list that falls inside a contiguous
/// owner interval (the manifest of that list toward that owner).
pub fn manifest_range(slots: &[u32], interval: &Range<usize>) -> Range<usize> {
    let lo = slots.partition_point(|&s| (s as usize) < interval.start);
    let hi = slots.partition_point(|&s| (s as usize) < interval.end);
    lo..hi
}

/// The chunk `[0, chunks)` that position `idx` of an `len`-element even
/// split falls into (inverse of [`even_ranges`](crate::workdiv::even_ranges)).
fn chunk_of_index(len: usize, chunks: usize, idx: usize) -> usize {
    let base = len / chunks;
    let extra = len % chunks;
    let wide = (base + 1) * extra;
    if idx < wide {
        idx / (base + 1)
    } else {
        extra + (idx - wide) / base.max(1)
    }
}

fn fold(h: u64, v: u64) -> u64 {
    // FxHash-style multiply-rotate-xor fold: cheap, and a collision here
    // would silently corrupt energies, so the key hashes the *full* list
    // structure rather than a truncated checksum of it.
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

fn fold_ranges(mut h: u64, ranges: &[Range<usize>]) -> u64 {
    for r in ranges {
        h = fold(h, r.start as u64);
        h = fold(h, r.end as u64);
    }
    h
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanKind {
    /// No plan derived yet.
    Empty,
    /// Producer + consumer sets from a node-division list segmentation.
    NodeNode,
    /// Consumer sets only (atom-division producers are derived at run
    /// time from the accumulator's non-zero slots).
    Consumers,
}

/// A cached communication plan: per-rank produced/consumed slot sets over
/// the flat accumulator space `[0, num_nodes + num_atoms)`.
pub struct CommPlan {
    kind: PlanKind,
    key: u64,
    /// `T_A` node count — flat slots `< num_nodes` are node slots, the
    /// rest are atom slots.
    pub num_nodes: usize,
    /// Total flat slots (`num_nodes + num_atoms`).
    pub num_slots: usize,
    /// Rank count the plan was derived for.
    pub p: usize,
    /// Overlap chunks per rank segment (1 = no pipelining).
    pub chunks: usize,
    /// Per-rank sorted flat slots the rank's list segment can write.
    produced: Vec<Vec<u32>>,
    /// Last chunk of the rank's segment writing each produced slot
    /// (aligned with `produced[r]`).
    chunk_of: Vec<Vec<u8>>,
    /// Per-rank sorted flat slots the rank's push traversal reads.
    consumed: Vec<Vec<u32>>,
    /// Per-slot stamp scratch for the producer derivation (monotone
    /// stamps, so it never needs clearing between ranks or rebuilds).
    mark: Vec<u64>,
    mark_epoch: u64,
    /// Cache misses since construction — how often the plan was actually
    /// re-derived (observability for the frame pipeline's reuse claims).
    rebuilds: u64,
}

impl CommPlan {
    /// An empty plan; the first `ensure_*` call derives it.
    pub fn new() -> CommPlan {
        CommPlan {
            kind: PlanKind::Empty,
            key: 0,
            num_nodes: 0,
            num_slots: 0,
            p: 0,
            chunks: 1,
            produced: Vec::new(),
            chunk_of: Vec::new(),
            consumed: Vec::new(),
            mark: Vec::new(),
            mark_epoch: 0,
            rebuilds: 0,
        }
    }

    /// How many times the plan has been re-derived (cache misses). Frames
    /// that reuse their lists must leave this constant — the frame path's
    /// "plan provably reused" observable.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Sorted flat slots rank `r`'s integral segment can write.
    pub fn produced(&self, r: usize) -> &[u32] {
        &self.produced[r]
    }

    /// Last-writing chunk per produced slot, aligned with
    /// [`produced`](CommPlan::produced)`(r)`.
    pub fn chunk_of(&self, r: usize) -> &[u8] {
        &self.chunk_of[r]
    }

    /// Sorted flat slots rank `c`'s push traversal reads.
    pub fn consumed(&self, c: usize) -> &[u32] {
        &self.consumed[c]
    }

    /// The flat-slot interval owned by rank `o` under this plan.
    pub fn owned(&self, o: usize) -> Range<usize> {
        owner_interval(self.num_slots, self.p, o)
    }

    /// The manifest of rank `r`'s produced slots toward owner `o`: the
    /// contiguous index subrange of [`produced`](CommPlan::produced)`(r)`
    /// falling inside [`owned`](CommPlan::owned)`(o)`. Because the plan is
    /// replicated, *any* rank can derive *any* (producer, owner) manifest
    /// with no communication — which is what lets a recovery replay
    /// re-ship exactly the failed attempt's produced∩owned values instead
    /// of re-negotiating them.
    pub fn produced_owned(&self, r: usize, o: usize) -> Range<usize> {
        manifest_range(&self.produced[r], &self.owned(o))
    }

    /// Derives (or reuses) the full producer/consumer plan of a
    /// node-division run: producers from the Born lists' per-ordinal
    /// touch sets over `seg_ranges`, consumers from the push traversal's
    /// read set over `atom_ranges`. Returns `true` when the plan was
    /// rebuilt (a cache miss).
    pub fn ensure_node_node(
        &mut self,
        sys: &GbSystem,
        born: &BornLists,
        seg_ranges: &[Range<usize>],
        atom_ranges: &[Range<usize>],
        chunks: usize,
    ) -> bool {
        let chunks = chunks.clamp(1, u8::MAX as usize + 1);
        let num_nodes = sys.ta.num_nodes();
        let num_slots = num_nodes + sys.num_atoms();
        let p = seg_ranges.len();
        let mut key = fold(0x600D_5EED, 1); // kind tag
        key = fold(key, p as u64);
        key = fold(key, chunks as u64);
        key = fold(key, num_nodes as u64);
        key = fold(key, num_slots as u64);
        key = fold_ranges(key, seg_ranges);
        key = fold_ranges(key, atom_ranges);
        // The lists' content key is a fold of the full CSR structure,
        // computed at most once per list build (same fold constants as
        // here) — so an unchanged frame re-validates the plan in O(1)
        // instead of re-hashing O(list) elements every superstep.
        key = fold(key, born.content_key());
        let key = key.max(1);
        if self.kind == PlanKind::NodeNode && self.key == key {
            return false;
        }
        self.rebuilds += 1;

        self.kind = PlanKind::NodeNode;
        self.key = key;
        self.num_nodes = num_nodes;
        self.num_slots = num_slots;
        self.p = p;
        self.chunks = chunks;
        self.mark.clear();
        self.mark.resize(num_slots, 0);
        self.produced.resize_with(p, Vec::new);
        self.chunk_of.resize_with(p, Vec::new);
        self.produced.truncate(p);
        self.chunk_of.truncate(p);

        for (r, seg) in seg_ranges.iter().take(p).enumerate() {
            let seg = seg.clone();
            // Stamps are strictly increasing across (rank, chunk), so an
            // overwrite during the ascending-ordinal walk leaves each
            // slot holding its *last* writing chunk, and a slot counts
            // as touched by rank `r` iff its stamp exceeds the rank's
            // base epoch — no clearing between ranks.
            let base_epoch = self.mark_epoch + (r * chunks) as u64;
            let produced = &mut self.produced[r];
            produced.clear();
            for (i, ord) in seg.clone().enumerate() {
                let k = chunk_of_index(seg.len(), chunks, i);
                let stamp = base_epoch + 1 + k as u64;
                born.touched_flat_slots(sys, ord, |slots| {
                    for s in slots {
                        if self.mark[s] <= base_epoch {
                            produced.push(s as u32);
                        }
                        self.mark[s] = stamp;
                    }
                });
            }
            produced.sort_unstable();
            let chunk_of = &mut self.chunk_of[r];
            chunk_of.clear();
            chunk_of.extend(
                produced
                    .iter()
                    .map(|&s| (self.mark[s as usize] - base_epoch - 1) as u8),
            );
        }
        self.mark_epoch += (p * chunks) as u64;

        self.derive_consumers(sys, atom_ranges);
        true
    }

    /// Derives (or reuses) a consumers-only plan for atom-division runs,
    /// where the producer side is resolved at run time from the
    /// accumulator's non-zero slots. Returns `true` on a cache miss.
    pub fn ensure_consumers(&mut self, sys: &GbSystem, atom_ranges: &[Range<usize>]) -> bool {
        let num_nodes = sys.ta.num_nodes();
        let num_slots = num_nodes + sys.num_atoms();
        let p = atom_ranges.len();
        let mut key = fold(0x600D_5EED, 2); // kind tag
        key = fold(key, p as u64);
        key = fold(key, num_nodes as u64);
        key = fold(key, num_slots as u64);
        key = fold_ranges(key, atom_ranges);
        let key = key.max(1);
        if self.kind == PlanKind::Consumers && self.key == key {
            return false;
        }
        self.rebuilds += 1;
        self.kind = PlanKind::Consumers;
        self.key = key;
        self.num_nodes = num_nodes;
        self.num_slots = num_slots;
        self.p = p;
        self.chunks = 1;
        for v in &mut self.produced {
            v.clear();
        }
        for v in &mut self.chunk_of {
            v.clear();
        }
        self.derive_consumers(sys, atom_ranges);
        true
    }

    /// `consumed[c]` = the exact read set of
    /// [`push_integrals_scratch`](crate::integrals::push_integrals_scratch)
    /// over `atom_ranges[c]`: node slots of every `T_A` node whose atom
    /// range intersects the segment (the traversal prunes
    /// `end <= start || begin >= end`), plus the segment's atom slots.
    fn derive_consumers(&mut self, sys: &GbSystem, atom_ranges: &[Range<usize>]) {
        let p = atom_ranges.len();
        self.consumed.resize_with(p, Vec::new);
        self.consumed.truncate(p);
        let mut stack: Vec<gb_octree::NodeId> = Vec::new();
        for (c, range) in atom_ranges.iter().enumerate() {
            let consumed = &mut self.consumed[c];
            consumed.clear();
            if !sys.ta.is_empty() && !range.is_empty() {
                stack.push(Octree::ROOT);
                while let Some(id) = stack.pop() {
                    let n = sys.ta.node(id);
                    if n.end as usize <= range.start || n.begin as usize >= range.end {
                        continue;
                    }
                    consumed.push(id);
                    if !n.is_leaf() {
                        stack.extend(n.children());
                    }
                }
                consumed.sort_unstable();
            }
            consumed.extend(
                (self.num_nodes + range.start..self.num_nodes + range.end).map(|s| s as u32),
            );
        }
    }

    /// Heap footprint in bytes (counted into the workspace's total so the
    /// zero-growth-after-warming contract covers the plan cache too).
    pub fn memory_bytes(&self) -> usize {
        let vecs = |v: &Vec<Vec<u32>>| {
            v.iter().map(|x| x.capacity() * 4).sum::<usize>()
                + v.capacity() * std::mem::size_of::<Vec<u32>>()
        };
        vecs(&self.produced)
            + vecs(&self.consumed)
            + self.chunk_of.iter().map(|x| x.capacity()).sum::<usize>()
            + self.chunk_of.capacity() * std::mem::size_of::<Vec<u8>>()
            + self.mark.capacity() * 8
    }
}

impl Default for CommPlan {
    fn default() -> CommPlan {
        CommPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Workspace;
    use crate::fastmath::ExactMath;
    use crate::gbmath::R6;
    use crate::integrals::IntegralAcc;
    use crate::params::GbParams;
    use crate::workdiv::{even_ranges, work_balanced_segments_into};
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 44));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn owner_intervals_tile_the_slot_space() {
        for (n, p) in [(17usize, 4usize), (8, 8), (5, 8), (100, 7), (0, 3)] {
            let mut next = 0;
            for o in 0..p {
                let iv = owner_interval(n, p, o);
                assert_eq!(iv.start, next, "n={n} p={p} o={o}");
                next = iv.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn manifest_range_is_the_sorted_intersection() {
        let slots = [2u32, 3, 7, 11, 12, 40];
        assert_eq!(manifest_range(&slots, &(0..8)), 0..3);
        assert_eq!(manifest_range(&slots, &(7..12)), 2..4);
        assert_eq!(manifest_range(&slots, &(13..40)), 5..5);
        assert_eq!(manifest_range(&slots, &(0..100)), 0..6);
    }

    #[test]
    fn produced_owned_tiles_each_producer_list() {
        let s = sys(400);
        let p = 4;
        let mut ws = Workspace::new();
        ws.born.rebuild(&s, 1, &mut ws.born_scratch);
        work_balanced_segments_into(ws.born.leaf_work(), p, &mut ws.seg_ranges);
        let atom_ranges = even_ranges(s.num_atoms(), p);
        let mut plan = CommPlan::new();
        plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom_ranges, 4);
        for r in 0..p {
            let mut next = 0;
            for o in 0..p {
                let m = plan.produced_owned(r, o);
                assert_eq!(
                    m.start, next,
                    "manifests must tile produced({r}) in owner order"
                );
                next = m.end;
                let owned = plan.owned(o);
                for &slot in &plan.produced(r)[m] {
                    assert!(
                        owned.contains(&(slot as usize)),
                        "rank {r} owner {o} slot {slot}"
                    );
                }
            }
            assert_eq!(next, plan.produced(r).len());
        }
    }

    #[test]
    fn chunk_of_index_matches_even_ranges() {
        for (len, chunks) in [(10usize, 4usize), (3, 4), (16, 4), (1, 1), (7, 3)] {
            let ranges = even_ranges(len, chunks);
            for (k, r) in ranges.iter().enumerate() {
                for i in r.clone() {
                    assert_eq!(
                        chunk_of_index(len, chunks, i),
                        k,
                        "len={len} chunks={chunks}"
                    );
                }
            }
        }
    }

    /// The produced sets must cover every slot a rank's execution leaves
    /// non-zero, and the chunk labels must name the last chunk that
    /// writes each slot.
    #[test]
    fn produced_slots_cover_execution_writes() {
        let s = sys(400);
        let p = 4;
        let mut ws = Workspace::new();
        ws.born.rebuild(&s, 1, &mut ws.born_scratch);
        work_balanced_segments_into(ws.born.leaf_work(), p, &mut ws.seg_ranges);
        let atom_ranges = even_ranges(s.num_atoms(), p);
        let mut plan = CommPlan::new();
        assert!(plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom_ranges, 4));
        for r in 0..p {
            let mut acc = IntegralAcc::zeros(&s);
            ws.born
                .execute_range::<ExactMath, R6>(&s, ws.seg_ranges[r].clone(), &mut acc);
            let flat = acc.to_flat();
            let produced = plan.produced(r);
            for (slot, v) in flat.iter().enumerate() {
                if v.to_bits() != 0 {
                    assert!(
                        produced.binary_search(&(slot as u32)).is_ok(),
                        "rank {r}: wrote slot {slot} outside its produced set"
                    );
                }
            }
            // chunk labels: re-executing only the labeled chunk must
            // reproduce the final value of each slot it owns
            assert_eq!(produced.len(), plan.chunk_of(r).len());
            assert!(plan.chunk_of(r).iter().all(|&k| (k as usize) < plan.chunks));
        }
    }

    #[test]
    fn consumed_slots_cover_push_reads() {
        let s = sys(300);
        let atom_ranges = even_ranges(s.num_atoms(), 3);
        let mut plan = CommPlan::new();
        assert!(plan.ensure_consumers(&s, &atom_ranges));
        for (c, range) in atom_ranges.iter().enumerate() {
            let consumed = plan.consumed(c);
            // every atom slot of the segment is present
            for a in range.clone() {
                let slot = (plan.num_nodes + a) as u32;
                assert!(consumed.binary_search(&slot).is_ok());
            }
            // the root is always read for a non-empty segment
            if !range.is_empty() {
                assert!(consumed.binary_search(&(Octree::ROOT)).is_ok());
            }
            // sorted and unique
            assert!(consumed.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn plan_cache_hits_on_identical_inputs_and_misses_on_changes() {
        let s = sys(350);
        let mut ws = Workspace::new();
        ws.born.rebuild(&s, 1, &mut ws.born_scratch);
        work_balanced_segments_into(ws.born.leaf_work(), 4, &mut ws.seg_ranges);
        let atom4 = even_ranges(s.num_atoms(), 4);
        let mut plan = CommPlan::new();
        assert!(
            plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom4, 4),
            "cold miss"
        );
        assert!(
            !plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom4, 4),
            "warm hit"
        );
        let snapshot: Vec<Vec<u32>> = (0..4).map(|r| plan.produced(r).to_vec()).collect();
        assert!(
            plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom4, 2),
            "chunks miss"
        );
        assert!(
            plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom4, 4),
            "back miss"
        );
        for r in 0..4 {
            assert_eq!(
                snapshot[r],
                plan.produced(r),
                "rebuild must be deterministic"
            );
        }
        // a different division is a different key
        let mut seg2 = ws.seg_ranges.clone();
        work_balanced_segments_into(ws.born.leaf_work(), 2, &mut seg2);
        let atom2 = even_ranges(s.num_atoms(), 2);
        assert!(plan.ensure_node_node(&s, &ws.born, &seg2, &atom2, 4));
    }

    #[test]
    fn plan_survives_identity_frame_and_tracks_rebuilds() {
        // an identity frame reuses the workspace's lists as they stand, so
        // their content key — and therefore the cached plan — is untouched
        let mut s = sys(350);
        let mut ws = Workspace::new();
        ws.enable_frame_tracking(0.0);
        ws.ready_born_lists(&s);
        work_balanced_segments_into(ws.born.leaf_work(), 4, &mut ws.seg_ranges);
        let atom_ranges = even_ranges(s.num_atoms(), 4);
        let mut plan = CommPlan::new();
        assert!(plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom_ranges, 4));
        assert_eq!(plan.rebuilds(), 1);

        let same = s.molecule.positions().to_vec();
        assert!(matches!(s.refit_frame(&same), crate::system::FrameUpdate::Refit(_)));
        ws.ready_born_lists(&s);
        assert_eq!(ws.last_born_path, crate::arena::ListPath::Repaired);
        assert!(
            !plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom_ranges, 4),
            "unchanged frame must reuse the plan"
        );
        assert_eq!(plan.rebuilds(), 1, "no re-derivation on the warm frame");
    }

    #[test]
    fn sparse_traffic_is_a_fraction_of_dense() {
        // the point of the plan: produced/consumed manifests must be far
        // smaller than p × num_slots (the dense allreduce volume)
        let s = sys(2_000);
        let p = 8;
        let mut ws = Workspace::new();
        ws.born.rebuild(&s, 1, &mut ws.born_scratch);
        work_balanced_segments_into(ws.born.leaf_work(), p, &mut ws.seg_ranges);
        let atom_ranges = even_ranges(s.num_atoms(), p);
        let mut plan = CommPlan::new();
        plan.ensure_node_node(&s, &ws.born, &ws.seg_ranges, &atom_ranges, 4);
        let sparse: usize = (0..p)
            .map(|r| plan.produced(r).len() + plan.consumed(r).len())
            .sum();
        let dense = p * plan.num_slots * 2; // reduce + broadcast halves
        assert!(
            (sparse as f64) < 0.6 * dense as f64,
            "sparse {sparse} vs dense {dense}"
        );
    }
}

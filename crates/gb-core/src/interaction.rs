//! Interaction lists: the traversal/execution split.
//!
//! The paper's two hot phases are *per-leaf tree traversals*: every `T_Q`
//! leaf walks `T_A` from the root (`APPROX-INTEGRALS`, Fig. 2) and every
//! `T_A` leaf walks `T_A` again (`APPROX-EPOL`, Fig. 3). A list build makes
//! each driving leaf's traversal decisions (well-separated / exact /
//! recurse) once and leaves behind flat interaction lists, one CSR row per
//! driving leaf:
//!
//! * far list — `(a_node, q_leaf)` pairs evaluated through pseudo-particles,
//! * near list — `(a_leaf, q_leaf)` pairs evaluated exactly.
//!
//! Execution then streams the lists with branch-free batched kernels over
//! the struct-of-arrays point mirrors in [`GbSystem`] — no pointer chasing,
//! no per-pair acceptance test, and inner loops the compiler vectorizes.
//!
//! **One row sweep builds every list.** The interacting tree is flattened
//! into a `Preorder` table (centroid, radius, skip pointer, point count);
//! a row is one forward scan of that table that tests each visited node
//! with the traversal's *own* floating-point expression and jumps past a
//! far node's subtree through its skip pointer. The scan visits exactly the
//! nodes the per-leaf traversal pops, so the pair sets, the per-leaf work
//! units and the step counts match it bit for bit, and far-field terms are
//! evaluated by the same expressions in the same per-accumulator order
//! (fixed list order ⇒ fixed reduction order ⇒ determinism). Only the exact
//! leaf–leaf kernels regroup floating-point sums (four-way accumulators +
//! FMA), a reassociation bounded well below the 1e-12 relative band the
//! validation suite checks.

use crate::bins::ChargeBins;
use crate::fastmath::MathMode;
use crate::gbmath::RadiiApprox;
use crate::integrals::{well_separated, IntegralAcc, TRAVERSAL_UNIT};
use crate::system::GbSystem;
use crate::workdiv::{segment, segment_count, sum_segments, SegmentPartials};
use gb_geom::{Soa3, Vec3};
use gb_octree::{NodeId, Octree};
use std::ops::Range;
use std::sync::OnceLock;

/// Ordinal block of the symmetric-pair ownership rule ([`larger_owns`]).
const OWN_BLOCK: usize = 16;

/// Whether the larger ordinal `hi` owns (evaluates, doubled) the
/// symmetric near pair `(lo, hi)`, `lo < hi`. Off the diagonal it is a
/// checkerboard on [`OWN_BLOCK`]-ordinal blocks (even block sum → the
/// smaller ordinal owns, odd → the larger), so a row's partners in one
/// foreign block share an owner and their touching atom ranges gather as
/// one run; inside a diagonal block it is the checkerboard on the
/// ordinals themselves, which halves the dense diagonal evenly.
#[inline]
fn larger_owns(lo: usize, hi: usize) -> bool {
    let (bl, bh) = (lo / OWN_BLOCK, hi / OWN_BLOCK);
    if bl == bh {
        (lo + hi) % 2 == 1
    } else {
        (bl + bh) % 2 == 1
    }
}

/// The content-hash fold step shared with the communication planner
/// (identical constants, so planner keys stay stable across the refactor).
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Preorder table of the interacting tree, struct-of-arrays — the row
/// sweeps' only view of it. Position `i` holds node `id[i]` with children
/// in tree order (ascending `begin`); `skip[i]` is the position just past
/// its subtree, so a scan jumps a far node's descendants in one step. A
/// leaf is exactly the node whose skip is its own successor; node `i`
/// covers point positions `begin[i]..begin[i] + count[i]`. Rebuilt per
/// build from the current geometry (~0.3 ms at 10k atoms).
#[derive(Clone, Debug, Default)]
struct Preorder {
    id: Vec<NodeId>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    r: Vec<f64>,
    skip: Vec<u32>,
    begin: Vec<u32>,
    count: Vec<u32>,
    /// Build scratch: subtree sizes by node id, and the DFS stack.
    size: Vec<u32>,
    stack: Vec<NodeId>,
}

impl Preorder {
    fn rebuild(&mut self, tree: &Octree) {
        let n = tree.num_nodes();
        // children follow their parent in id order, so a reverse id sweep
        // completes every subtree size before its parent reads it
        self.size.clear();
        self.size.resize(n, 1);
        for id in (0..n).rev() {
            let below: u32 = tree.node(id as NodeId).children().map(|c| self.size[c as usize]).sum();
            self.size[id] += below;
        }
        for v in [&mut self.cx, &mut self.cy, &mut self.cz, &mut self.r] {
            v.clear();
        }
        self.id.clear();
        self.skip.clear();
        self.begin.clear();
        self.count.clear();
        self.stack.clear();
        if n > 0 {
            self.stack.push(Octree::ROOT);
        }
        while let Some(id) = self.stack.pop() {
            let node = tree.node(id);
            self.skip.push(self.id.len() as u32 + self.size[id as usize]);
            self.id.push(id);
            self.cx.push(node.centroid.x);
            self.cy.push(node.centroid.y);
            self.cz.push(node.centroid.z);
            self.r.push(node.radius);
            self.begin.push(node.begin);
            self.count.push(node.count() as u32);
            self.stack.extend(node.children().rev());
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.id.len()
    }

    fn memory_bytes(&self) -> usize {
        (self.cx.capacity() + self.cy.capacity() + self.cz.capacity() + self.r.capacity())
            * std::mem::size_of::<f64>()
            + (self.id.capacity() + self.skip.capacity() + self.begin.capacity()
                + self.count.capacity() + self.size.capacity() + self.stack.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// The CSR rows a sweep emits: both lists plus the per-row work columns
/// (`work` is the Born `leaf_work` / the energy `trav_steps`; `near_work`
/// is energy-only and stays empty for Born).
#[derive(Clone, Debug, Default, PartialEq)]
struct Rows {
    far_off: Vec<usize>,
    far: Vec<NodeId>,
    near_off: Vec<usize>,
    near: Vec<NodeId>,
    work: Vec<f64>,
    near_work: Vec<f64>,
}

impl Rows {
    fn clear(&mut self) {
        self.far_off.clear();
        self.far.clear();
        self.near_off.clear();
        self.near.clear();
        self.work.clear();
        self.near_work.clear();
    }

    /// Opens the next row (and, after the last one, closes the CSR).
    #[inline]
    fn open_row(&mut self) {
        self.far_off.push(self.far.len());
        self.near_off.push(self.near.len());
    }

    /// Appends `n` rows with no entries and no work — the rows a part
    /// build leaves outside its range.
    fn empty_rows(&mut self, n: usize, near_work: bool) {
        for _ in 0..n {
            self.open_row();
            self.work.push(0.0);
        }
        if near_work {
            self.near_work.resize(self.work.len(), 0.0);
        }
    }

    #[inline]
    fn far_row(&self, ord: usize) -> &[NodeId] {
        &self.far[self.far_off[ord]..self.far_off[ord + 1]]
    }

    #[inline]
    fn near_row(&self, ord: usize) -> &[NodeId] {
        &self.near[self.near_off[ord]..self.near_off[ord + 1]]
    }

    /// Folds the CSR arrays into a content key: equal keys ⇔ (offsets,
    /// ids) byte-equal with overwhelming probability — what lets a rebuild
    /// that reproduced the same lists prove "structure unchanged" to plan
    /// caches in O(1).
    fn fold_key(&self) -> u64 {
        let mut k = fold(0xC0_17_E4_7D, self.far_off.len() as u64);
        for &o in self.far_off.iter().chain(&self.near_off) {
            k = fold(k, o as u64);
        }
        for &id in self.far.iter().chain(&self.near) {
            k = fold(k, id as u64);
        }
        k.max(1)
    }

    /// Drops the push-growth slack — one-shot builds are charged by their
    /// footprint (cache entries), warm rebuilds keep it.
    fn shrink_to_fit(&mut self) {
        self.far_off.shrink_to_fit();
        self.far.shrink_to_fit();
        self.near_off.shrink_to_fit();
        self.near.shrink_to_fit();
        self.work.shrink_to_fit();
        self.near_work.shrink_to_fit();
    }

    fn memory_bytes(&self) -> usize {
        (self.far_off.capacity() + self.near_off.capacity()) * std::mem::size_of::<usize>()
            + (self.far.capacity() + self.near.capacity()) * std::mem::size_of::<NodeId>()
            + (self.work.capacity() + self.near_work.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Lazily folded content key of a list's rows (0 = never built): reset by
/// every rebuild, computed on the first [`BornLists::content_key`] /
/// [`EnergyLists::content_key`] call — only the plan caches ever ask, so
/// serial frames never pay the fold.
fn lazy_key(rows: &Rows, key: &OnceLock<u64>) -> u64 {
    if rows.far_off.is_empty() {
        0
    } else {
        *key.get_or_init(|| rows.fold_key())
    }
}

/// Reusable scratch of a list build: the preorder table, the Born MAC
/// mask and the energy ownership pass's ordinal arrays. Keeping one of
/// these per pipeline makes steady-state rebuilds allocation-free once the
/// buffers have warmed to the problem size.
#[derive(Debug, Default)]
pub struct ListScratch {
    table: Preorder,
    mask: Vec<bool>,
    /// Leaf ordinal of each `T_A` node id (`u32::MAX` for internal nodes)
    /// and the partner *ordinals* mirroring `EnergyLists::near` — the
    /// symmetric-pair annotation's inputs.
    ord_of: Vec<u32>,
    near_ords: Vec<u32>,
    /// Per-row merge cursors of the ownership pass.
    cursor: Vec<usize>,
}

impl ListScratch {
    /// Fresh scratch with no warmed buffers.
    pub fn new() -> ListScratch {
        ListScratch::default()
    }

    /// Heap footprint in bytes (table, mask and ownership arrays).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
            + self.mask.capacity() * std::mem::size_of::<bool>()
            + (self.ord_of.capacity() + self.near_ords.capacity()) * std::mem::size_of::<u32>()
            + self.cursor.capacity() * std::mem::size_of::<usize>()
    }
}

/// One phase's row sweep over a `Preorder` table of its interacting tree.
trait Sweep {
    /// Whether rows carry a `near_work` column.
    const NEAR_WORK: bool;
    /// The interacting tree the table is built from.
    fn interacting(&self) -> &Octree;
    /// Number of driving rows.
    fn num_rows(&self) -> usize;
    /// Appends rows `rows` to `out`, returning their build work: one
    /// traversal unit per visited (node, row).
    fn sweep(&self, t: &Preorder, rows: Range<usize>, mask: &mut Vec<bool>, out: &mut Rows)
        -> f64;
}

/// Sweeps the driving rows `rows` into `out` on the calling thread and
/// leaves every other row empty (closing the CSR). Each row depends only on
/// the geometry, so every swept row equals its row in a full build; the
/// returned build work is a sum of exact ¼ units.
fn sweep_all<S: Sweep>(
    s: &S,
    rows: Range<usize>,
    scratch: &mut ListScratch,
    out: &mut Rows,
) -> f64 {
    let ListScratch { table, mask, .. } = scratch;
    table.rebuild(s.interacting());
    let nrows = s.num_rows();
    assert!(rows.end <= nrows, "row range {rows:?} past {nrows} driving leaves");
    out.empty_rows(rows.start, S::NEAR_WORK);
    let work = s.sweep(table, rows.clone(), mask, out);
    out.empty_rows(nrows - rows.end, S::NEAR_WORK);
    out.open_row();
    work
}

// ---------------------------------------------------------------------------
// Born phase (Fig. 2): (T_A, T_Q) lists
// ---------------------------------------------------------------------------

/// The Born sweep: one row per `T_Q` leaf over the `T_A` table, with `T_A`
/// clipped to the atom positions `clip` (atom-based division; `0..M` is no
/// clip). A node disjoint from the clip is jumped through its skip pointer
/// unbilled, a node is far only when it lies wholly inside the clip, and a
/// leaf that meets the clip is near with only its clipped atoms billed —
/// the clipped per-leaf traversal's decisions and tally.
struct BornSweep<'a> {
    ta: &'a Octree,
    tq: &'a Octree,
    threshold: f64,
    clip: Range<usize>,
}

impl<'a> BornSweep<'a> {
    /// The own-surface sweep of `sys`, clipped to `clip`.
    fn own(sys: &'a GbSystem, clip: Range<usize>) -> Self {
        BornSweep { ta: &sys.ta, tq: &sys.tq, threshold: sys.params.radii_mac_threshold(), clip }
    }

    /// The sweep body; `CLIP == false` compiles the clip tests out of the
    /// unclipped (every runner but atom division) build.
    fn sweep_rows<const CLIP: bool>(
        &self,
        t: &Preorder,
        rows: Range<usize>,
        mask: &mut Vec<bool>,
        out: &mut Rows,
    ) -> f64 {
        let n = t.len();
        mask.clear();
        mask.resize(n, false);
        let (cx, cy, cz, r) = (&t.cx[..n], &t.cy[..n], &t.cz[..n], &t.r[..n]);
        let (id, skip, begin, count) = (&t.id[..n], &t.skip[..n], &t.begin[..n], &t.count[..n]);
        let (lo, hi) = (self.clip.start as u32, self.clip.end as u32);
        let mut visits = 0u64;
        for ord in rows {
            let q_id = self.tq.leaves()[ord];
            let q = self.tq.node(q_id);
            let (qc, rq, q_count) = (q.centroid, q.radius, q.count() as f64);
            let geom = cx.iter().zip(cy).zip(cz).zip(r);
            for (m, (((&x, &y), &z), &ra)) in mask.iter_mut().zip(geom) {
                *m = well_separated(Vec3::new(x, y, z).dist(qc), ra, rq, self.threshold);
            }
            if CLIP {
                for (m, (&b, &c)) in mask.iter_mut().zip(begin.iter().zip(count)) {
                    *m &= b >= lo && b + c <= hi;
                }
            }
            out.open_row();
            let far0 = out.far.len();
            let (mut steps, mut near_pairs, mut i) = (0u64, 0.0, 0usize);
            while i < n {
                if CLIP && (begin[i] >= hi || begin[i] + count[i] <= lo) {
                    i = skip[i] as usize;
                    continue;
                }
                steps += 1;
                if mask[i] {
                    out.far.push(id[i]);
                    i = skip[i] as usize;
                } else {
                    if skip[i] as usize == i + 1 {
                        out.near.push(id[i]);
                        let atoms = if CLIP {
                            (begin[i] + count[i]).min(hi) - begin[i].max(lo)
                        } else {
                            count[i]
                        };
                        near_pairs += atoms as f64 * q_count;
                    }
                    i += 1;
                }
            }
            let far_terms = (out.far.len() - far0) as f64;
            out.work.push(TRAVERSAL_UNIT * steps as f64 + far_terms + near_pairs);
            visits += steps;
        }
        TRAVERSAL_UNIT * visits as f64
    }
}

impl Sweep for BornSweep<'_> {
    const NEAR_WORK: bool = false;

    fn interacting(&self) -> &Octree {
        self.ta
    }

    fn num_rows(&self) -> usize {
        self.tq.num_leaves()
    }

    /// Rows reach nearly every `T_A` node, so the MAC runs first as one
    /// branch-free (vectorizable) pass over the whole table; the skip scan
    /// then reads the mask. The scan is a preorder with children in tree
    /// order, so every row's far and near entries come out **ascending** —
    /// leaves whose atom ranges touch sit next to each other in the row,
    /// which is what lets [`BornLists::execute_range`] stream them as one
    /// atom run. The row's work — ¼ per visit, 1 per far term, `|A|·|Q|`
    /// per exact pair, all exact multiples of ¼ — equals
    /// `accumulate_qleaf`'s tally bit for bit.
    fn sweep(
        &self,
        t: &Preorder,
        rows: Range<usize>,
        mask: &mut Vec<bool>,
        out: &mut Rows,
    ) -> f64 {
        if self.clip.start == 0 && self.clip.end >= self.ta.num_points() {
            self.sweep_rows::<false>(t, rows, mask, out)
        } else {
            self.sweep_rows::<true>(t, rows, mask, out)
        }
    }
}

/// Interaction lists of the Born phase: for every `T_Q` leaf ordinal, the
/// `T_A` nodes it interacts with far (pseudo-particle term) and near
/// (exact leaf–leaf sum), plus the per-leaf work units the equivalent
/// traversal would report.
#[derive(Clone, Debug)]
pub struct BornLists {
    /// Both CSRs; `rows.work` is the per-leaf `leaf_work`.
    rows: Rows,
    /// `T_A` atom positions the lists were clipped to (`0..M` for every
    /// build but atom division's); execution writes only inside it.
    clip: Range<usize>,
    /// Work spent constructing the lists: one traversal unit per visited
    /// (node, row); 0 for lists a frame reused without sweeping.
    pub build_work: f64,
    /// Lazily folded CSR key (see [`lazy_key`]).
    content_key: OnceLock<u64>,
}

/// Structural equality ignores the lazily folded content key: two lists
/// are equal when execution cannot tell them apart.
impl PartialEq for BornLists {
    fn eq(&self, o: &BornLists) -> bool {
        self.rows == o.rows && self.clip == o.clip && self.build_work == o.build_work
    }
}

impl BornLists {
    /// Empty lists — a reusable slot for [`BornLists::rebuild`].
    pub fn empty() -> BornLists {
        BornLists {
            rows: Rows::default(),
            clip: 0..0,
            build_work: 0.0,
            content_key: OnceLock::new(),
        }
    }

    /// Fold of the CSR structure (0 = never built). Equal keys across
    /// frames ⇔ identical lists, so plan caches key on this instead of
    /// re-hashing the arrays.
    #[inline]
    pub fn content_key(&self) -> u64 {
        lazy_key(&self.rows, &self.content_key)
    }

    /// Sweeps every `T_Q` leaf's row.
    pub fn build(sys: &GbSystem) -> BornLists {
        let mut lists = BornLists::empty();
        lists.rebuild(sys, &mut ListScratch::new());
        lists.rows.shrink_to_fit();
        lists
    }

    /// In-place [`BornLists::build`] reusing this value's buffers and
    /// `scratch` — allocation-free once both have warmed to the problem
    /// size.
    pub fn rebuild(&mut self, sys: &GbSystem, scratch: &mut ListScratch) {
        let s = BornSweep::own(sys, 0..sys.num_atoms());
        self.rebuild_sweep(&s, 0..sys.tq.num_leaves(), scratch);
    }

    /// A rank's part of the lists: only the driving rows `rows` are swept
    /// (the others stay empty, with zero work), and `T_A` is clipped to the
    /// atom positions `clip` — far terms only at nodes wholly inside it,
    /// near entries at every leaf that meets it, execution writing only
    /// inside it. `(0..num_qleaves, 0..M)` is the full build, byte for byte.
    pub fn rebuild_part(
        &mut self,
        sys: &GbSystem,
        rows: Range<usize>,
        clip: Range<usize>,
        scratch: &mut ListScratch,
    ) {
        self.rebuild_sweep(&BornSweep::own(sys, clip), rows, scratch);
    }

    /// Cross-system list build: sweeps `(A tree of one system, Q tree of
    /// another)` with the same acceptance tests as the own-surface build.
    /// This is the docking path's per-pose work — the receptor keeps its
    /// cached own-surface lists and only the receptor×ligand (and
    /// ligand×receptor) lists are built here. Either tree may be a posed
    /// copy ([`Octree::transform_into`]).
    pub fn rebuild_cross(
        &mut self,
        ta: &Octree,
        tq: &Octree,
        threshold: f64,
        scratch: &mut ListScratch,
    ) {
        let s = BornSweep { ta, tq, threshold, clip: 0..ta.num_points() };
        self.rebuild_sweep(&s, 0..tq.num_leaves(), scratch);
    }

    fn rebuild_sweep(&mut self, s: &BornSweep, rows: Range<usize>, scratch: &mut ListScratch) {
        self.rows.clear();
        self.clip = s.clip.clone();
        self.content_key = OnceLock::new();
        self.build_work = sweep_all(s, rows, scratch, &mut self.rows);
    }

    /// The far CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn far_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.rows.far_off, &self.rows.far)
    }

    /// The near CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn near_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.rows.near_off, &self.rows.near)
    }

    /// Number of driving `T_Q` leaves.
    #[inline]
    pub fn num_qleaves(&self) -> usize {
        self.rows.work.len()
    }

    /// Per-`T_Q`-leaf work units of executing its lists — identical to the
    /// work `accumulate_qleaf` would report for that leaf.
    #[inline]
    pub fn leaf_work(&self) -> &[f64] {
        &self.rows.work
    }

    /// Total execution work over all leaves.
    pub fn total_work(&self) -> f64 {
        self.rows.work.iter().sum()
    }

    /// Executes the own-surface lists of the driving-leaf ordinals in
    /// `ords` over `sys`'s atom and surface streams, through the one Born
    /// executor the docking cross lists use too. Returns the work units.
    /// The `M` parameter is unused (the Born integrand is plain
    /// arithmetic); it stays only because the benchmark package names it
    /// with a turbofish.
    pub fn execute_range<M: MathMode, K: RadiiApprox>(
        &self,
        sys: &GbSystem,
        ords: Range<usize>,
        acc: &mut IntegralAcc,
    ) -> f64 {
        let (atoms, surface) = (AtomStreams::of(sys), SurfaceStreams::of(sys));
        self.execute::<K>(atoms, surface, ords, Some(&mut acc.node_s), 0, &mut acc.atom_s)
    }

    /// The one Born list executor: runs the lists of the driving-leaf
    /// ordinals in `ords` with `atoms` accumulating and `surface` driving,
    /// adding exactly where the traversal would: far terms at
    /// `node_s[a]` (skipped when `node_s` is `None`), exact sums at the
    /// atom positions `first..first + atom_s.len()` (`atom_s[i]` is
    /// position `first + i`), near atom runs cut to that span and to the
    /// clip. Own-surface lists pass one system's two sides; the docking
    /// path's cross lists ([`BornLists::rebuild_cross`]) pair one
    /// monomer's atoms with the other's posed surface, and may run their
    /// far terms and their atom spans in separate calls: every slot still
    /// takes its terms in row order. Returns the work units of `ords`.
    pub(crate) fn execute<K: RadiiApprox>(
        &self,
        atoms: AtomStreams,
        surface: SurfaceStreams,
        ords: Range<usize>,
        mut node_s: Option<&mut [f64]>,
        first: usize,
        atom_s: &mut [f64],
    ) -> f64 {
        let (ta, tq) = (atoms.tree, surface.tree);
        let span = first.max(self.clip.start)..(first + atom_s.len()).min(self.clip.end);
        let mut work = 0.0;
        for ord in ords {
            let q_leaf = tq.leaves()[ord];
            let qn = tq.node(q_leaf);
            if let Some(node_s) = node_s.as_deref_mut() {
                let q_center = qn.centroid;
                let q_agg = surface.agg_normals[q_leaf as usize];
                for &a_id in self.rows.far_row(ord) {
                    let a = ta.node(a_id);
                    let delta = q_center - a.centroid;
                    let d2 = delta.norm_sq();
                    node_s[a_id as usize] += q_agg.dot(delta) * K::integrand(d2);
                }
            }
            // Near list: rows are ascending in tree order, so touching
            // leaves coalesce into one long atom run each — the batched
            // kernel then streams whole runs (25 atoms on average at 10k,
            // 40% of atoms in runs of ≥ 1,024) instead of ~3 per tiny leaf.
            if !span.is_empty() {
                let q = surface.leaf(qn.range());
                // a row's entries are disjoint and ascend, so the runs
                // before the span are skipped by bisection and the walk
                // stops past it
                let row = self.rows.near_row(ord);
                let skip = match span.start {
                    0 => 0,
                    lo => row.partition_point(|&id| ta.node(id).end as usize <= lo),
                };
                for run in atom_runs(ta, &row[skip..]) {
                    if run.start >= span.end {
                        break;
                    }
                    let run = run.start.max(span.start)..run.end.min(span.end);
                    if !run.is_empty() {
                        let out = &mut atom_s[run.start - first..run.end - first];
                        born_span_batched::<K>(atoms.xyz, run.start, &q, out);
                    }
                }
            }
            work += self.rows.work[ord];
        }
        work
    }

    /// Visits the flat-accumulator slot ranges that executing ordinal
    /// `ord`'s lists writes: far terms land at node slot `a_id`, exact
    /// near sums at `num_nodes + pos` for every atom position of the
    /// entry's tree range inside the clip (the flat layout of
    /// [`IntegralAcc::to_flat_into`](crate::integrals::IntegralAcc::to_flat_into)).
    /// This is the producer side of a communication plan's slot-set
    /// derivation: the union over a rank's ordinals is exactly the set of
    /// slots its integral phase can leave non-zero.
    pub fn touched_flat_slots(
        &self,
        sys: &GbSystem,
        ord: usize,
        mut visit: impl FnMut(Range<usize>),
    ) {
        let num_nodes = sys.ta.num_nodes();
        for &a_id in self.rows.far_row(ord) {
            visit(a_id as usize..a_id as usize + 1);
        }
        for &a_id in self.rows.near_row(ord) {
            let n = sys.ta.node(a_id);
            let lo = (n.begin as usize).max(self.clip.start);
            let hi = (n.end as usize).min(self.clip.end);
            if lo < hi {
                visit(num_nodes + lo..num_nodes + hi);
            }
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows.memory_bytes()
    }
}

/// Coalesces one ascending near row into maximal contiguous atom ranges:
/// an entry whose range starts where the previous one ended extends the
/// current run. Each atom lies in at most one entry of a row and its
/// q-point terms keep their order, so per-atom sums are bit-identical to
/// executing the entries one by one.
fn atom_runs<'a>(ta: &'a Octree, entries: &'a [NodeId]) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let first = ta.node(*entries.get(i)?);
        let (start, mut end) = (first.begin, first.end);
        i += 1;
        while let Some(n) = entries.get(i).map(|&id| ta.node(id)) {
            if n.begin != end {
                break;
            }
            end = n.end;
            i += 1;
        }
        Some(start as usize..end as usize)
    })
}

/// The accumulating side of a Born list execution: the `T_A` tree (node
/// centroids and atom ranges) and its atom coordinates in tree order.
#[derive(Clone, Copy)]
pub(crate) struct AtomStreams<'a> {
    pub tree: &'a Octree,
    pub xyz: &'a Soa3,
}

impl<'a> AtomStreams<'a> {
    /// `sys`'s own atoms.
    pub fn of(sys: &'a GbSystem) -> Self {
        AtomStreams { tree: &sys.ta, xyz: &sys.a_soa }
    }
}

/// The driving side of a Born list execution: the `T_Q` tree, its
/// per-node aggregated normals, and per q-point coordinates, normals and
/// weights, all in tree order.
#[derive(Clone, Copy)]
pub(crate) struct SurfaceStreams<'a> {
    pub tree: &'a Octree,
    pub agg_normals: &'a [Vec3],
    pub xyz: &'a Soa3,
    pub normals: &'a Soa3,
    pub weights: &'a [f64],
}

impl<'a> SurfaceStreams<'a> {
    /// `sys`'s own surface.
    pub fn of(sys: &'a GbSystem) -> Self {
        SurfaceStreams {
            tree: &sys.tq,
            agg_normals: &sys.q_normals,
            xyz: &sys.q_soa,
            normals: &sys.q_normal_soa,
            weights: &sys.q_weight_tree,
        }
    }

    /// The q-points `r` (one leaf's range) as pre-sliced streams.
    fn leaf(&self, r: Range<usize>) -> QLeaf<'a> {
        QLeaf {
            x: &self.xyz.x[r.clone()],
            y: &self.xyz.y[r.clone()],
            z: &self.xyz.z[r.clone()],
            nx: &self.normals.x[r.clone()],
            ny: &self.normals.y[r.clone()],
            nz: &self.normals.z[r.clone()],
            w: &self.weights[r],
        }
    }
}

/// One `T_Q` leaf's q-point streams: coordinates, normals, weights.
struct QLeaf<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    nx: &'a [f64],
    ny: &'a [f64],
    nz: &'a [f64],
    w: &'a [f64],
}

/// Exact Born-integral sum of one coalesced atom span against one `T_Q`
/// leaf's pre-sliced struct-of-arrays streams. Quadrature leaves hold only
/// a handful of points, so the *atom* dimension is the long one: per
/// q-point, the loop streams the span's SoA coordinates with FMA-fused
/// distance/dot products and a branch-free coincident-point select,
/// autovectorizing over atoms (the per-lane `1/r⁶` divisions pipeline
/// across SIMD lanes instead of serializing per scalar term). `out` holds
/// the exact sums of the span's atoms, which start at tree position
/// `first`.
#[inline]
fn born_span_batched<K: RadiiApprox>(a: &Soa3, first: usize, q: &QLeaf, out: &mut [f64]) {
    let n = out.len();
    let ax = &a.x[first..][..n];
    let ay = &a.y[first..][..n];
    let az = &a.z[first..][..n];
    for k in 0..q.x.len() {
        let (px, py, pz) = (q.x[k], q.y[k], q.z[k]);
        let (mx, my, mz) = (q.nx[k], q.ny[k], q.nz[k]);
        let wk = q.w[k];
        for i in 0..n {
            let dx = px - ax[i];
            let dy = py - ay[i];
            let dz = pz - az[i];
            let d2 = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
            let dot = dz.mul_add(mz, dy.mul_add(my, dx * mx));
            // evaluate the integrand at a safe stand-in when d2 == 0 so the
            // masked-out lane never manufactures 0·∞ = NaN
            let d2s = if d2 > 0.0 { d2 } else { 1.0 };
            let t = wk * dot * K::integrand(d2s);
            out[i] += if d2 > 0.0 { t } else { 0.0 };
        }
    }
}

// ---------------------------------------------------------------------------
// Energy phase (Fig. 3): (T_A, T_A) lists
// ---------------------------------------------------------------------------

/// The energy sweep: one row per `T_A` leaf `V` over the `T_A` table.
/// Fig. 3 checks leafness *before* distance, so a leaf `U` is always exact
/// and only internal nodes take the MAC test. Rows visit ~20% of the table,
/// so the test runs lazily per visit. Near rows come out ascending (leaf
/// ordinals follow preorder) — the order the gathered near tile streams.
/// The traversal pushes children forward and so pops them last-first: its
/// far nodes come out in *mirrored* preorder, which for disjoint subtrees
/// is this scan's order reversed, so each far row is reversed in place to
/// keep the traversal's (and the far tile's) order.
struct EnergySweep<'a> {
    ta: &'a Octree,
    mac: f64,
}

impl Sweep for EnergySweep<'_> {
    const NEAR_WORK: bool = true;

    fn interacting(&self) -> &Octree {
        self.ta
    }

    fn num_rows(&self) -> usize {
        self.ta.num_leaves()
    }

    fn sweep(
        &self,
        t: &Preorder,
        rows: Range<usize>,
        _mask: &mut Vec<bool>,
        out: &mut Rows,
    ) -> f64 {
        let n = t.len();
        let (cx, cy, cz, r) = (&t.cx[..n], &t.cy[..n], &t.cz[..n], &t.r[..n]);
        let (id, skip, count) = (&t.id[..n], &t.skip[..n], &t.count[..n]);
        let mut visits = 0u64;
        for ord in rows {
            let v_id = self.ta.leaves()[ord];
            let v = self.ta.node(v_id);
            out.open_row();
            let far0 = out.far.len();
            let (mut steps, mut pairs, mut i) = (0u64, 0u64, 0usize);
            while i < n {
                steps += 1;
                if skip[i] as usize == i + 1 {
                    out.near.push(id[i]);
                    pairs += count[i] as u64;
                    i += 1;
                    continue;
                }
                let d = Vec3::new(cx[i], cy[i], cz[i]).dist(v.centroid);
                if d > (r[i] + v.radius) * self.mac {
                    out.far.push(id[i]);
                    i = skip[i] as usize;
                } else {
                    i += 1;
                }
            }
            out.far[far0..].reverse();
            out.work.push(steps as f64);
            out.near_work.push(pairs as f64 * v.count() as f64);
            visits += steps;
        }
        TRAVERSAL_UNIT * visits as f64
    }
}

/// Interaction lists of the energy phase: for every `T_A` leaf ordinal `V`,
/// the leaf partners evaluated exactly and the internal-node partners
/// evaluated by histogram contraction, plus the traversal-step and
/// exact-pair work the equivalent traversal would report. Far-pair work
/// depends on the charge histograms (known only after the Born radii), so
/// it is computed at execution time / by [`EnergyLists::leaf_costs`].
#[derive(Clone, Debug)]
pub struct EnergyLists {
    /// Near rows: `T_A` leaf partners (Fig. 3 rule: a leaf `U` is always
    /// exact). Far rows: internal `T_A` nodes that passed the MAC test.
    /// `rows.work` is the per-ordinal traversal step count and
    /// `rows.near_work` the exact-pair work `Σ |U|·|V|` over the near row.
    rows: Rows,
    /// Execution weight of each `near` entry: `1` = evaluate once
    /// (self-pair or asymmetric), `2` = this ordinal owns a *symmetric*
    /// leaf pair and evaluates it for both sides (the `f_GB` terms of
    /// `(U,V)` and `(V,U)` are bitwise equal, so doubling is exact),
    /// `0` = the mirror ordinal owns it — skip. Ownership follows
    /// [`larger_owns`], a checkerboard on ordinal blocks, so halving stays
    /// balanced across rank/chunk segments while a row's owned partners
    /// still gather in long runs.
    near_w: Vec<u8>,
    /// Work spent constructing the lists: one traversal unit per visited
    /// (node, row); 0 for lists a frame reused without sweeping.
    pub build_work: f64,
    /// Lazily folded CSR key (see [`lazy_key`]).
    content_key: OnceLock<u64>,
}

/// Structural equality ignores the lazily folded content key, exactly
/// like [`BornLists`]' `PartialEq`.
impl PartialEq for EnergyLists {
    fn eq(&self, o: &EnergyLists) -> bool {
        self.rows == o.rows && self.near_w == o.near_w && self.build_work == o.build_work
    }
}

impl EnergyLists {
    /// Empty lists — a reusable slot for [`EnergyLists::rebuild`].
    pub fn empty() -> EnergyLists {
        EnergyLists {
            rows: Rows::default(),
            near_w: Vec::new(),
            build_work: 0.0,
            content_key: OnceLock::new(),
        }
    }

    /// Fold of the CSR structure (0 = never built).
    #[inline]
    pub fn content_key(&self) -> u64 {
        lazy_key(&self.rows, &self.content_key)
    }

    /// Sweeps every `T_A` leaf's row; the rows stand for the `V` leaves of
    /// Fig. 3.
    pub fn build(sys: &GbSystem) -> EnergyLists {
        let mut lists = EnergyLists::empty();
        lists.rebuild(sys, &mut ListScratch::new());
        lists.rows.shrink_to_fit();
        lists
    }

    /// In-place [`EnergyLists::build`] reusing this value's buffers and
    /// `scratch` — allocation-free once warmed.
    pub fn rebuild(&mut self, sys: &GbSystem, scratch: &mut ListScratch) {
        self.rebuild_part(sys, 0..sys.ta.num_leaves(), scratch);
    }

    /// A rank's part of the lists: only the driving rows `rows` are swept,
    /// the others stay empty with zero work. A leaf pair whose mirror row
    /// lies outside `rows` keeps weight 1, so executing the rows of ranges
    /// that partition the leaves — each from its own part build — covers
    /// every ordered pair once. `0..num_vleaves` is the full build.
    pub fn rebuild_part(&mut self, sys: &GbSystem, rows: Range<usize>, scratch: &mut ListScratch) {
        self.rows.clear();
        self.content_key = OnceLock::new();
        let s = EnergySweep { ta: &sys.ta, mac: sys.params.energy_mac_factor() };
        self.build_work = sweep_all(&s, rows, scratch, &mut self.rows);
        self.annotate_near_ownership(&sys.ta, scratch);
    }

    /// Annotates symmetric-pair ownership: a leaf pair listed by both
    /// ordinals is evaluated once, doubled, by exactly one of them.
    /// Rows are ascending by partner ordinal and driving ordinals are
    /// visited in increasing order, so each row's "is `ord` one of my
    /// partners?" queries arrive with `ord` increasing and a per-row
    /// cursor into the row's upper half answers every query with a
    /// monotone advance — O(near) total, no per-entry binary search.
    fn annotate_near_ownership(&mut self, ta: &Octree, scratch: &mut ListScratch) {
        let ListScratch { ord_of, near_ords, cursor, .. } = scratch;
        ord_of.clear();
        ord_of.resize(ta.num_nodes(), u32::MAX);
        for (i, &l) in ta.leaves().iter().enumerate() {
            ord_of[l as usize] = i as u32;
        }
        let Rows { near_off, near, .. } = &self.rows;
        near_ords.clear();
        near_ords.extend(near.iter().map(|&id| ord_of[id as usize]));
        let nleaves = near_off.len() - 1;
        cursor.clear();
        cursor.extend((0..nleaves).map(|ord| {
            let (lo, hi) = (near_off[ord], near_off[ord + 1]);
            lo + near_ords[lo..hi].partition_point(|&uo| (uo as usize) <= ord)
        }));
        self.near_w.clear();
        self.near_w.resize(near.len(), 1);
        for ord in 0..nleaves {
            for k in near_off[ord]..near_off[ord + 1] {
                let uo = near_ords[k] as usize;
                if uo >= ord {
                    // self pair keeps weight 1; upper-half partners get
                    // their weight when the mirror ordinal is visited
                    break;
                }
                let mut c = cursor[uo];
                let uhi = near_off[uo + 1];
                while c < uhi && (near_ords[c] as usize) < ord {
                    c += 1;
                }
                cursor[uo] = c;
                if c < uhi && near_ords[c] as usize == ord {
                    // `ord > uo` here: the driving row is the larger
                    // ordinal of the pair
                    if larger_owns(uo, ord) {
                        self.near_w[k] = 2;
                        self.near_w[c] = 0;
                    } else {
                        self.near_w[k] = 0;
                        self.near_w[c] = 2;
                    }
                }
                // no match: asymmetric (the sweep resolved (V,U) far) —
                // both sides keep weight 1
            }
        }
    }

    /// The near CSR: `(offsets, leaf ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn near_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.rows.near_off, &self.rows.near)
    }

    /// The far CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn far_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.rows.far_off, &self.rows.far)
    }

    /// Per-ordinal traversal-step counts and exact-pair work.
    #[inline]
    pub fn step_and_near_work(&self) -> (&[f64], &[f64]) {
        (&self.rows.work, &self.rows.near_work)
    }

    /// Number of driving `T_A` leaves.
    #[inline]
    pub fn num_vleaves(&self) -> usize {
        self.rows.work.len()
    }

    /// Executes the lists of driving-leaf ordinal `ord` through the tiled
    /// kernels: the near list as one gathered SoA tile
    /// (`EnergyLists::near_tile_raw`), the far list as one flat bin-pair
    /// tile (`EnergyLists::far_tile_raw`). Returns
    /// `(raw_energy, work_units)`; the work matches `energy_for_leaf`'s
    /// tally bit for bit — symmetric halving and convolution collapse
    /// change the *flops*, never the billed units, so `workdiv`/`balance`
    /// segments are unchanged.
    pub fn execute_leaf<M: MathMode>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        radii_tree: &[f64],
        ord: usize,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let (near_raw, near_work) = self.near_tile_raw::<M>(sys, radii_tree, ord, scratch);
        let (far_raw, far_work) = self.far_tile_raw::<M>(sys, bins, ord, scratch);
        (near_raw + far_raw, near_work + far_work)
    }

    /// Executes a contiguous run of driving-leaf ordinals — the energy
    /// step's one row sum. The run is cut into the fixed segments of
    /// [`SEGMENT_ROWS`](crate::workdiv::SEGMENT_ROWS) consecutive rows;
    /// each segment sums its rows in ordinal order and the partials add in
    /// segment order (`workdiv::sum_segments`), on `scratch.len()` threads that
    /// take segments dynamically. Returns `(raw_energy, work_units)`,
    /// `to_bits` the same for any thread count and schedule.
    pub fn execute_rows<M: MathMode, S: AsMut<EnergyExecScratch> + Send>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        radii_tree: &[f64],
        ords: Range<usize>,
        scratch: &mut [S],
        partials: &mut SegmentPartials,
    ) -> (f64, f64) {
        sum_segments(scratch, partials, segment_count(&ords), |k, s| {
            let s = s.as_mut();
            let (mut raw, mut work) = (0.0, 0.0);
            for ord in segment(&ords, k) {
                let (r, w) = self.execute_leaf::<M>(sys, bins, radii_tree, ord, s);
                raw += r;
                work += w;
            }
            (raw, work)
        })
    }

    /// [`EnergyLists::execute_rows`] on the calling thread alone.
    pub fn execute_leaves<M: MathMode>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        radii_tree: &[f64],
        ords: Range<usize>,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let one = std::slice::from_mut(scratch);
        self.execute_rows::<M, _>(sys, bins, radii_tree, ords, one, &mut SegmentPartials::new())
    }

    /// Far field only, over a run of ordinals — the data-distributed
    /// runner's far field (it reads only the skeleton and the bins) and
    /// the bench's isolated `far_exec_ms` timing. Work is the far share of
    /// the billed units.
    pub fn execute_far<M: MathMode>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        ords: Range<usize>,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let mut raw = 0.0;
        let mut work = 0.0;
        for ord in ords {
            let (r, w) = self.far_tile_raw::<M>(sys, bins, ord, scratch);
            raw += r;
            work += w;
        }
        (raw, work)
    }

    /// The owned near entries of ordinal `ord` as gather runs
    /// `(atom range, weight)`: consecutive owned partners of equal weight
    /// whose atom ranges touch (leaf ordinals follow atom order) merge
    /// into one range, so the tile gathers one copy per array per run.
    fn near_runs<'a>(
        &'a self,
        ta: &'a Octree,
        ord: usize,
    ) -> impl Iterator<Item = (Range<usize>, u8)> + 'a {
        let row = self.rows.near_off[ord]..self.rows.near_off[ord + 1];
        let ids = &self.rows.near[row.clone()];
        let ws = &self.near_w[row];
        let mut k = 0;
        std::iter::from_fn(move || {
            while k < ids.len() && ws[k] == 0 {
                k += 1; // mirror ordinal owns this symmetric pair
            }
            let &w = ws.get(k)?;
            let n = ta.node(ids[k]);
            let (begin, mut end) = (n.begin as usize, n.end as usize);
            k += 1;
            while k < ids.len() && ws[k] == w {
                let m = ta.node(ids[k]);
                if m.begin as usize != end {
                    break;
                }
                end = m.end as usize;
                k += 1;
            }
            Some((begin..end, w))
        })
    }

    /// The near list of ordinal `ord` as one gathered SoA tile: the owned
    /// partner atoms' coordinates, Born radii and *weighted* charges (`2q`
    /// for owned symmetric pairs — exact, a power-of-two scale) are copied
    /// run by run ([`EnergyLists::near_runs`]) into contiguous scratch,
    /// then each `v` atom runs one tile row (`Tile::row`) over it.
    fn near_tile_raw<M: MathMode>(
        &self,
        sys: &GbSystem,
        radii_tree: &[f64],
        ord: usize,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let v_leaf = sys.ta.leaves()[ord];
        let v = sys.ta.node(v_leaf);
        let work = TRAVERSAL_UNIT * self.rows.work[ord] + self.rows.near_work[ord];
        scratch.tx.clear();
        scratch.ty.clear();
        scratch.tz.clear();
        scratch.tq.clear();
        scratch.tr.clear();
        for (r, w) in self.near_runs(&sys.ta, ord) {
            scratch.tx.extend_from_slice(&sys.a_soa.x[r.clone()]);
            scratch.ty.extend_from_slice(&sys.a_soa.y[r.clone()]);
            scratch.tz.extend_from_slice(&sys.a_soa.z[r.clone()]);
            scratch.tr.extend_from_slice(&radii_tree[r.clone()]);
            if w == 1 {
                scratch.tq.extend_from_slice(&sys.charge_tree[r]);
            } else {
                scratch.tq.extend(sys.charge_tree[r].iter().map(|&q| 2.0 * q));
            }
        }
        let t = scratch.tx.len();
        if t == 0 {
            return (0.0, work);
        }
        ensure_len(&mut scratch.inv_f, t);
        let tile = Tile {
            x: &scratch.tx,
            y: &scratch.ty,
            z: &scratch.tz,
            q: &scratch.tq,
            r: &scratch.tr,
        };
        let inv_f = &mut scratch.inv_f[..t];
        let mut raw = 0.0;
        for vi in v.range() {
            let p = [sys.a_soa.x[vi], sys.a_soa.y[vi], sys.a_soa.z[vi]];
            raw += sys.charge_tree[vi] * tile.row::<M>(p, radii_tree[vi], inv_f);
        }
        (raw, work)
    }

    /// The far list of ordinal `ord` as one flat bin-pair tile, emitted in
    /// list order: each far pair contributes its `(d², R_iR_j, q_i q_j)`
    /// terms — the full `K²` grid reading the hoisted
    /// [`ChargeBins::pair_rr_table`], or, when the `s = i+j` span is
    /// narrower than the grid, the length-`(2K−1)` convolution over
    /// [`ChargeBins::conv_radius_table`] (the geometric representative
    /// makes every split of `s` equal to ulps). One pass of the pair
    /// kernel [`MathMode::inv_f_gb`] over the whole tile and the strided-8
    /// weighted dot then evaluate it.
    fn far_tile_raw<M: MathMode>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        ord: usize,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let v_leaf = sys.ta.leaves()[ord];
        let v = sys.ta.node(v_leaf);
        let fars = self.rows.far_row(ord);
        let (v_nzq, _) = bins.node_nonzero(v_leaf);
        let v_nzb = bins.node_nonzero_bins(v_leaf);
        let vn = v_nzq.len();
        let mut work = 0.0;
        if vn == 0 || fars.is_empty() {
            return (0.0, work); // Σ nnz_U · 0 bills nothing
        }
        let kbins = bins.num_bins;
        let pair_rr = bins.pair_rr_table();
        let conv_radius = bins.conv_radius_table();
        ensure_len(&mut scratch.conv_w, conv_radius.len());
        scratch.fd2.clear();
        scratch.frr.clear();
        scratch.fw.clear();
        for &u_id in fars {
            let un = bins.num_nonzero(u_id);
            work += (un * vn) as f64;
            if un == 0 {
                continue;
            }
            let d = sys.ta.node(u_id).centroid.dist(v.centroid);
            let d_sq = d * d;
            let (u_nzq, _) = bins.node_nonzero(u_id);
            let u_nzb = bins.node_nonzero_bins(u_id);
            let lo_s = (u_nzb[0] + v_nzb[0]) as usize;
            let hi_s = (u_nzb[un - 1] + v_nzb[vn - 1]) as usize;
            if hi_s - lo_s + 1 < un * vn {
                // convolution collapse: accumulate the charge products on
                // s = i+j (i-major, deterministic), emit nonzero slots
                for i in 0..un {
                    let bi = u_nzb[i];
                    let qi = u_nzq[i];
                    for j in 0..vn {
                        scratch.conv_w[(bi + v_nzb[j]) as usize] += qi * v_nzq[j];
                    }
                }
                for (w, &cr) in scratch.conv_w[lo_s..=hi_s]
                    .iter_mut()
                    .zip(&conv_radius[lo_s..=hi_s])
                {
                    if *w != 0.0 {
                        scratch.fd2.push(d_sq);
                        scratch.frr.push(cr);
                        scratch.fw.push(*w);
                    }
                    *w = 0.0;
                }
            } else {
                for i in 0..un {
                    let base = u_nzb[i] as usize * kbins;
                    let qi = u_nzq[i];
                    for j in 0..vn {
                        scratch.fd2.push(d_sq);
                        scratch.frr.push(pair_rr[base + v_nzb[j] as usize]);
                        scratch.fw.push(qi * v_nzq[j]);
                    }
                }
            }
        }
        // one kernel pass over the whole tile (pre-sliced so the loop is
        // bounds-check-free and autovectorizes)
        let t = scratch.fd2.len();
        ensure_len(&mut scratch.inv_f, t);
        let fd2 = &scratch.fd2[..t];
        let frr = &scratch.frr[..t];
        let inv_f = &mut scratch.inv_f[..t];
        for i in 0..t {
            inv_f[i] = M::inv_f_gb(fd2[i], frr[i]);
        }
        (dot8(&scratch.fw[..t], inv_f), work)
    }

    /// Replays the near gather without evaluating — the bench's near-field
    /// observability columns.
    pub fn near_stats(&self, sys: &GbSystem) -> NearStats {
        let mut st = NearStats {
            owned_entries: self.near_w.iter().filter(|&&w| w != 0).count() as u64,
            ..NearStats::default()
        };
        for ord in 0..self.num_vleaves() {
            let v_atoms = sys.ta.node(sys.ta.leaves()[ord]).count() as u64;
            for (r, _) in self.near_runs(&sys.ta, ord) {
                st.runs += 1;
                st.tile_atoms += r.len() as u64;
                st.owned_pairs += r.len() as u64 * v_atoms;
            }
        }
        st
    }

    /// Replays the far tile emission without evaluating — the bench's
    /// far-field observability columns.
    pub fn far_stats(&self, sys: &GbSystem, bins: &ChargeBins) -> FarStats {
        let mut st = FarStats {
            pair_count: self.rows.far.len() as u64,
            class_pairs: vec![0u64; bins.num_bins + 1],
            ..FarStats::default()
        };
        let mut conv_w = vec![0.0f64; bins.conv_radius_table().len().max(1)];
        for ord in 0..self.num_vleaves() {
            let v_leaf = sys.ta.leaves()[ord];
            let (v_nzq, _) = bins.node_nonzero(v_leaf);
            let v_nzb = bins.node_nonzero_bins(v_leaf);
            let vn = v_nzq.len();
            if vn == 0 {
                continue;
            }
            let mut tile = 0u64;
            for &u_id in self.rows.far_row(ord) {
                let un = bins.num_nonzero(u_id);
                st.class_pairs[un] += 1;
                st.product_entries += (un * vn) as u64;
                if un == 0 {
                    continue;
                }
                let (u_nzq, _) = bins.node_nonzero(u_id);
                let u_nzb = bins.node_nonzero_bins(u_id);
                let lo_s = (u_nzb[0] + v_nzb[0]) as usize;
                let hi_s = (u_nzb[un - 1] + v_nzb[vn - 1]) as usize;
                if hi_s - lo_s + 1 < un * vn {
                    for i in 0..un {
                        for j in 0..vn {
                            conv_w[(u_nzb[i] + v_nzb[j]) as usize] += u_nzq[i] * v_nzq[j];
                        }
                    }
                    for w in &mut conv_w[lo_s..=hi_s] {
                        if *w != 0.0 {
                            tile += 1;
                        }
                        *w = 0.0;
                    }
                } else {
                    tile += (un * vn) as u64;
                }
            }
            st.tile_entries += tile;
            st.padded_lanes += tile.div_ceil(8) * 8;
        }
        st
    }

    /// Exact per-ordinal execution work given the charge histograms —
    /// what [`EnergyLists::execute_leaf`] will report, computed up front so
    /// ranks can partition the ordinals by measured work.
    pub fn leaf_costs(&self, sys: &GbSystem, bins: &ChargeBins) -> Vec<f64> {
        (0..self.num_vleaves())
            .map(|ord| {
                let v_nnz = bins.num_nonzero(sys.ta.leaves()[ord]) as f64;
                let far_nnz: f64 = self.rows.far_row(ord)
                    .iter()
                    .map(|&u| bins.num_nonzero(u) as f64)
                    .sum();
                TRAVERSAL_UNIT * self.rows.work[ord] + self.rows.near_work[ord] + far_nnz * v_nnz
            })
            .collect()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows.memory_bytes() + self.near_w.capacity() * std::mem::size_of::<u8>()
    }
}

/// Reusable scratch of the tiled energy kernels: the gathered near SoA
/// tile, the far bin-pair tile and the kernel output they share.
/// Grow-only — buffers warm to the largest tile seen and steady-state
/// execution allocates nothing. One per executing worker (kept in
/// [`crate::arena::Workspace`] / its chunk slots).
#[derive(Clone, Debug, Default)]
pub struct EnergyExecScratch {
    /// Gathered near-partner atoms: coordinates, weighted charge, radius.
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    tq: Vec<f64>,
    tr: Vec<f64>,
    /// `1/f_GB` per tile entry — the kernel pass's output, shared by the
    /// near and far tiles.
    inv_f: Vec<f64>,
    /// Far bin-pair tile: squared centroid distance, radius product
    /// (table-read), charge-product weight.
    fd2: Vec<f64>,
    frr: Vec<f64>,
    fw: Vec<f64>,
    /// Convolution accumulator over `s = i+j` (`2K−1` slots, kept zeroed
    /// between pairs by resetting only the touched span).
    conv_w: Vec<f64>,
}

impl EnergyExecScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.tx.capacity()
            + self.ty.capacity()
            + self.tz.capacity()
            + self.tq.capacity()
            + self.tr.capacity()
            + self.inv_f.capacity()
            + self.fd2.capacity()
            + self.frr.capacity()
            + self.fw.capacity()
            + self.conv_w.capacity())
            * std::mem::size_of::<f64>()
    }
}

impl AsMut<EnergyExecScratch> for EnergyExecScratch {
    fn as_mut(&mut self) -> &mut EnergyExecScratch {
        self
    }
}

/// Shape statistics of the near-field tiles (bench observability).
#[derive(Clone, Debug, Default)]
pub struct NearStats {
    /// Near entries a row evaluates (weight 1 or 2; the mirror-owned
    /// weight-0 entries excluded).
    pub owned_entries: u64,
    /// Gather runs those entries coalesce into — one copy per tile array
    /// each; `owned_entries / runs` is the coalescing factor.
    pub runs: u64,
    /// Exact `(u, v)` atom pairs the tiles evaluate, `Σ |U|·|V|` over the
    /// owned entries (a doubled pair counts once).
    pub owned_pairs: u64,
    /// Partner atoms gathered into the tiles, summed over ordinals.
    pub tile_atoms: u64,
}

/// Shape statistics of the far-field tiles (bench observability).
#[derive(Clone, Debug, Default)]
pub struct FarStats {
    /// Total far `(U, V)` list entries.
    pub pair_count: u64,
    /// Tile entries actually evaluated (after convolution collapse and
    /// zero-hole skipping).
    pub tile_entries: u64,
    /// Entries the full `nnz_U × nnz_V` product would evaluate — the billed
    /// work; `tile_entries / product_entries` is the convolution saving.
    pub product_entries: u64,
    /// Tile entries rounded up to full 8-lane groups, one tail per ordinal
    /// tile; `tile_entries / padded_lanes` is the ZMM lane occupancy.
    pub padded_lanes: u64,
    /// Far pairs per `U`-class (nonzero-bin count of the internal node),
    /// indexed `0..=num_bins`.
    pub class_pairs: Vec<u64>,
}

/// Grows `v` to at least `n` elements (never shrinks — capacity is the
/// zero-alloc steady state).
#[inline]
fn ensure_len(v: &mut Vec<f64>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Partner atoms of an exact energy tile as struct-of-arrays streams:
/// coordinates, (weighted) charge, Born radius.
struct Tile<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    q: &'a [f64],
    r: &'a [f64],
}

impl Tile<'_> {
    /// One row of the tile: the atom at `p` with radius `rv` against the
    /// first `inv_f.len()` partners — one fused pass of distance² and the
    /// pair kernel [`MathMode::inv_f_gb`] into `inv_f`, then the strided-8
    /// dot with the partner charges. Every pass is plain Rust, so the
    /// result does not depend on the host's vector unit.
    #[inline(always)]
    fn row<M: MathMode>(&self, p: [f64; 3], rv: f64, inv_f: &mut [f64]) -> f64 {
        // pre-sliced to exactly `t` so the pass loops carry no bounds
        // checks (checked indexing defeats autovectorization)
        let t = inv_f.len();
        let (tx, ty, tz) = (&self.x[..t], &self.y[..t], &self.z[..t]);
        let (tq, tr) = (&self.q[..t], &self.r[..t]);
        for i in 0..t {
            let dx = tx[i] - p[0];
            let dy = ty[i] - p[1];
            let dz = tz[i] - p[2];
            let r_sq = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
            inv_f[i] = M::inv_f_gb(r_sq, rv * tr[i]);
        }
        dot8(tq, inv_f)
    }
}

/// `Σ_j q_j / f_GB(|x_j − p|², r·r_j)` of the atom at `p` with Born
/// radius `r` over every partner `j` of `(xyz, charges, radii)` — the
/// docking cross sum's row: one energy-tile row over partners already
/// contiguous, so nothing is gathered. The kernel pass writes into
/// `scratch`'s tile buffer.
pub(crate) fn exact_row_raw<M: MathMode>(
    p: [f64; 3],
    r: f64,
    xyz: &Soa3,
    charges: &[f64],
    radii: &[f64],
    scratch: &mut EnergyExecScratch,
) -> f64 {
    let t = xyz.len();
    ensure_len(&mut scratch.inv_f, t);
    let tile = Tile { x: &xyz.x, y: &xyz.y, z: &xyz.z, q: charges, r: radii };
    tile.row::<M>(p, r, &mut scratch.inv_f[..t])
}

/// One row of the half-matrix pass of `∂raw/∂R` for the exact pair sum
/// `raw = Σ_{i,j} q_i q_j / f_GB`: the atom at `p` with charge `q` and
/// Born radius `r` against the partners `j` of `(x, y, z, charges,
/// radii)` (the atoms after it). One fused pass writes
/// `w_j = q_j·e^{−u}(1+u)/f_GB³`, `u = r_ij²/(4 r r_j)`, into `scratch`'s
/// tile buffer; the strided-8 dot returns `Σ_j w_j r_j` (the row's own
/// gradient is `−q` times it), and a contiguous axpy adds the partners'
/// share `−q r w_j` into `grad[j]`. Every loop is branch-free over
/// contiguous slices, so each autovectorizes like the energy tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exact_row_grad<M: MathMode>(
    p: [f64; 3],
    q: f64,
    r: f64,
    (x, y, z): (&[f64], &[f64], &[f64]),
    charges: &[f64],
    radii: &[f64],
    grad: &mut [f64],
    scratch: &mut EnergyExecScratch,
) -> f64 {
    let t = x.len();
    ensure_len(&mut scratch.inv_f, t);
    let w = &mut scratch.inv_f[..t];
    let (y, z, tq, tr, grad) = (&y[..t], &z[..t], &charges[..t], &radii[..t], &mut grad[..t]);
    for j in 0..t {
        let dx = x[j] - p[0];
        let dy = y[j] - p[1];
        let dz = z[j] - p[2];
        let r_sq = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
        let rr = r * tr[j];
        let u = r_sq / (4.0 * rr);
        let e = M::exp(-u);
        let inv_f = M::rsqrt(rr.mul_add(e, r_sq));
        w[j] = tq[j] * e * (1.0 + u) * (inv_f * inv_f * inv_f);
    }
    let share = -q * r;
    for j in 0..t {
        grad[j] = share.mul_add(w[j], grad[j]);
    }
    dot8(tr, w)
}

/// Strided-8 weighted dot `Σ w[i]·x[i]`: eight independent accumulators
/// plus a scalar tail, combined pairwise; the fixed stride fixes the
/// reduction order regardless of tile length.
#[inline]
fn dot8(w: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), x.len());
    let n = w.len();
    let mut s = [0.0f64; 8];
    let mut k = 0usize;
    while k + 8 <= n {
        for l in 0..8 {
            s[l] += w[k + l] * x[k + l];
        }
        k += 8;
    }
    let mut tail = 0.0;
    while k < n {
        tail += w[k] * x[k];
        k += 1;
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::energy_for_leaf;
    use crate::fastmath::ExactMath;
    use crate::gbmath::{finalize_energy, inv_f_gb, R4, R6};
    use crate::integrals::{accumulate_qleaf, push_integrals_to_atoms};
    use crate::pair::PosedLigand;
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};
    use gb_octree::Node;

    fn system(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 17));
        GbSystem::prepare(mol, GbParams::default())
    }

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0)
    }

    #[test]
    fn born_list_execution_matches_traversal() {
        for n in [1usize, 9, 350] {
            let sys = system(n);
            let lists = BornLists::build(&sys);
            assert_eq!(lists.num_qleaves(), sys.tq.num_leaves());

            let mut acc_t = IntegralAcc::zeros(&sys);
            let mut stack = Vec::new();
            let mut works = Vec::with_capacity(sys.tq.num_leaves());
            for &q in sys.tq.leaves() {
                works.push(accumulate_qleaf::<R6>(&sys, q, &mut acc_t, &mut stack));
            }

            let mut acc_l = IntegralAcc::zeros(&sys);
            let w = lists.execute_range::<ExactMath, R6>(&sys, 0..lists.num_qleaves(), &mut acc_l);

            // work replication is exact, per leaf and in total
            for (ord, &wt) in works.iter().enumerate() {
                assert_eq!(lists.leaf_work()[ord], wt, "n={n} ord={ord}");
            }
            assert_eq!(w, lists.total_work(), "n={n}");
            assert!(lists.build_work > 0.0);

            // far terms are bitwise identical; exact sums within reassociation
            for (i, (x, y)) in acc_t.node_s.iter().zip(&acc_l.node_s).enumerate() {
                assert!(close(*x, *y), "n={n} node_s[{i}]: {x} vs {y}");
            }
            for (i, (x, y)) in acc_t.atom_s.iter().zip(&acc_l.atom_s).enumerate() {
                assert!(close(*x, *y), "n={n} atom_s[{i}]: {x} vs {y}");
            }
        }
    }

    /// Born radii + bins of a system, the energy kernels' common setup.
    fn radii_and_bins(sys: &GbSystem) -> (Vec<f64>, ChargeBins) {
        let mut acc = IntegralAcc::zeros(sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<R6>(sys, q, &mut acc, &mut stack);
        }
        let mut radii_tree = vec![0.0; sys.num_atoms()];
        push_integrals_to_atoms::<R6>(sys, &acc, 0..sys.num_atoms(), &mut radii_tree);
        let bins = ChargeBins::compute(sys, &radii_tree);
        (radii_tree, bins)
    }

    #[test]
    fn energy_list_execution_matches_traversal() {
        for n in [1usize, 9, 350] {
            let sys = system(n);
            let (radii_tree, bins) = radii_and_bins(&sys);

            let lists = EnergyLists::build(&sys);
            assert_eq!(lists.num_vleaves(), sys.ta.num_leaves());
            let costs = lists.leaf_costs(&sys, &bins);
            let mut stack = Vec::new();
            let mut scratch = EnergyExecScratch::new();
            let mut raw_t = 0.0;
            let mut raw_l = 0.0;
            for (ord, &v) in sys.ta.leaves().iter().enumerate() {
                let (rt, wt) = energy_for_leaf::<ExactMath>(&sys, &bins, &radii_tree, v, &mut stack);
                let (rl, wl) =
                    lists.execute_leaf::<ExactMath>(&sys, &bins, &radii_tree, ord, &mut scratch);
                // billed work is replicated bit for bit per ordinal even
                // though symmetric halving moves the *flops* around
                assert_eq!(wl, wt, "n={n} ord={ord}: work");
                assert_eq!(costs[ord], wl, "n={n} ord={ord}: cost model");
                raw_t += rt;
                raw_l += rl;
            }
            // per-ordinal raws differ by design (a symmetric pair's two
            // halves land on its owner), but the total must agree with the
            // traversal within the reassociation band
            assert!(close(raw_t, raw_l), "n={n}: raw {raw_t} vs {raw_l}");
        }
    }

    #[test]
    fn split_energy_execution_equals_whole_execution() {
        // summing over disjoint ordinal ranges (each with its own scratch)
        // reproduces the whole-range execution bit for bit — the runners'
        // partition contract, which halving must not break — whether the
        // ranges run the full lists or part lists swept for them alone (as
        // atom-division ranks do: a pair whose mirror row lies in another
        // part keeps weight 1)
        let sys = system(300);
        let (radii_tree, bins) = radii_and_bins(&sys);
        let lists = EnergyLists::build(&sys);
        let n = lists.num_vleaves();
        let mut scratch = EnergyExecScratch::new();
        let (raw_whole, w_whole) =
            lists.execute_leaves::<ExactMath>(&sys, &bins, &radii_tree, 0..n, &mut scratch);
        let costs = lists.leaf_costs(&sys, &bins);
        let cases = [(2usize, false), (3, false), (5, false), (2, true), (3, true), (7, true)];
        for (p, part_lists) in cases {
            let mut raw = 0.0;
            let mut w = 0.0;
            for seg in crate::workdiv::work_balanced_segments(&costs, p) {
                let mut part = EnergyLists::empty();
                if part_lists {
                    part.rebuild_part(&sys, seg.clone(), &mut ListScratch::new());
                }
                let run = if part_lists { &part } else { &lists };
                let mut local = EnergyExecScratch::new();
                let (r, dw) =
                    run.execute_leaves::<ExactMath>(&sys, &bins, &radii_tree, seg, &mut local);
                raw += r;
                w += dw;
            }
            // segment boundaries reassociate the (deterministic) per-leaf
            // partials — same contract as the runners' chunk merges
            assert!(close(raw, raw_whole), "p={p}: {raw} vs {raw_whole}");
            assert!(close(w, w_whole), "p={p}: work {w} vs {w_whole}");
        }
    }

    #[test]
    fn far_execution_bills_the_scalar_work_exactly() {
        // the far tile's work units must equal the scalar path's
        // Σ nnz_U · nnz_V regardless of convolution collapse, and the
        // far+near split must reassemble the full billed work
        let sys = system(350);
        let (radii_tree, bins) = radii_and_bins(&sys);
        let lists = EnergyLists::build(&sys);
        let n = lists.num_vleaves();
        let mut scratch = EnergyExecScratch::new();
        let (_, far_w) =
            lists.execute_far::<ExactMath>(&sys, &bins, 0..n, &mut scratch);
        let (far_off, far) = lists.far_csr();
        let mut expect = 0.0;
        for ord in 0..n {
            let vn = bins.num_nonzero(sys.ta.leaves()[ord]) as f64;
            for &u in &far[far_off[ord]..far_off[ord + 1]] {
                expect += bins.num_nonzero(u) as f64 * vn;
            }
        }
        assert_eq!(far_w.to_bits(), expect.to_bits());
        let (_, total_w) =
            lists.execute_leaves::<ExactMath>(&sys, &bins, &radii_tree, 0..n, &mut scratch);
        let costs = lists.leaf_costs(&sys, &bins);
        assert_eq!(total_w.to_bits(), costs.iter().sum::<f64>().to_bits());
        let stats = lists.far_stats(&sys, &bins);
        assert_eq!(stats.pair_count as usize, far.len());
        // class histogram covers every far pair whose V has charge
        let staged: u64 = (0..n)
            .map(|ord| {
                if bins.num_nonzero(sys.ta.leaves()[ord]) == 0 {
                    0
                } else {
                    (far_off[ord + 1] - far_off[ord]) as u64
                }
            })
            .sum();
        assert_eq!(stats.class_pairs.iter().sum::<u64>(), staged);
        assert_eq!(stats.product_entries as f64, far_w);
        assert!(stats.tile_entries <= stats.product_entries);
        assert!(stats.tile_entries <= stats.padded_lanes);
    }

    #[test]
    fn r4_born_list_execution_matches_traversal() {
        let sys = system(200);
        let lists = BornLists::build(&sys);
        let mut acc_t = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<R4>(&sys, q, &mut acc_t, &mut stack);
        }
        let mut acc_l = IntegralAcc::zeros(&sys);
        lists.execute_range::<ExactMath, R4>(&sys, 0..lists.num_qleaves(), &mut acc_l);
        for (x, y) in acc_t.atom_s.iter().zip(&acc_l.atom_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
        for (x, y) in acc_t.node_s.iter().zip(&acc_l.node_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        // grow, shrink, regrow through one scratch + one lists slot
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        let mut energy = EnergyLists::empty();
        for n in [120usize, 350, 60, 350] {
            let sys = system(n);
            born.rebuild(&sys, &mut scratch);
            assert_eq!(born, BornLists::build(&sys), "n={n}");
            energy.rebuild(&sys, &mut scratch);
            assert_eq!(energy, EnergyLists::build(&sys), "n={n}");
        }
        assert!(scratch.memory_bytes() > 0);
    }

    #[test]
    fn memory_bytes_sums_every_component() {
        let sys = system(350);
        let b = BornLists::build(&sys);
        let rows_bytes = |r: &Rows| {
            (r.far_off.capacity() + r.near_off.capacity()) * std::mem::size_of::<usize>()
                + (r.far.capacity() + r.near.capacity()) * std::mem::size_of::<NodeId>()
                + (r.work.capacity() + r.near_work.capacity()) * std::mem::size_of::<f64>()
        };
        assert_eq!(b.memory_bytes(), rows_bytes(&b.rows));
        assert!(b.memory_bytes() > 0);
        let e = EnergyLists::build(&sys);
        let expect = rows_bytes(&e.rows) + e.near_w.capacity() * std::mem::size_of::<u8>();
        assert_eq!(e.memory_bytes(), expect);
        // scratch reports the table + mask + ownership arrays
        let mut scratch = ListScratch::new();
        let mut lists = BornLists::empty();
        lists.rebuild(&sys, &mut scratch);
        let t = &scratch.table;
        let expect = (t.cx.capacity() + t.cy.capacity() + t.cz.capacity() + t.r.capacity())
            * std::mem::size_of::<f64>()
            + (t.id.capacity() + t.skip.capacity() + t.begin.capacity() + t.count.capacity()
                + t.size.capacity() + t.stack.capacity())
                * std::mem::size_of::<u32>()
            + scratch.mask.capacity() * std::mem::size_of::<bool>()
            + (scratch.ord_of.capacity() + scratch.near_ords.capacity())
                * std::mem::size_of::<u32>()
            + scratch.cursor.capacity() * std::mem::size_of::<usize>();
        assert_eq!(scratch.memory_bytes(), expect);
        // exec scratch likewise sums every buffer
        let (radii_tree, bins) = radii_and_bins(&sys);
        let elists = EnergyLists::build(&sys);
        let mut exec = EnergyExecScratch::new();
        assert_eq!(exec.memory_bytes(), 0);
        elists.execute_leaves::<ExactMath>(
            &sys,
            &bins,
            &radii_tree,
            0..elists.num_vleaves(),
            &mut exec,
        );
        assert!(exec.memory_bytes() > 0);
    }

    /// Evaluates a staged `(d², RiRj, weight)` tile through the pair
    /// kernel and the strided dot — the in-process mirror of what
    /// `far_tile_raw::<ExactMath>` runs.
    fn eval_tile(fd2: &[f64], frr: &[f64], fw: &[f64]) -> f64 {
        let inv_f: Vec<f64> =
            fd2.iter().zip(frr).map(|(&d2, &rr)| ExactMath::inv_f_gb(d2, rr)).collect();
        dot8(fw, &inv_f)
    }

    #[test]
    fn bin_pair_microkernel_matches_scalar_mirror() {
        // synthetic nonzero histograms per K: dense, empty, single-entry,
        // and a sparse subset (mixed-sign charges)
        for k in [1usize, 2, 7, 32] {
            let eps = 0.3f64;
            let bin_radius: Vec<f64> =
                (0..k).map(|i| 0.8 * (1.0 + eps).powi(i as i32)).collect();
            let mut pair_rr = Vec::new();
            let mut conv_radius = Vec::new();
            crate::bins::pair_tables_into(&bin_radius, &mut pair_rr, &mut conv_radius);

            let dense: Vec<(u32, f64)> = (0..k)
                .map(|i| (i as u32, if i % 2 == 0 { 0.7 + i as f64 } else { -(0.3 + i as f64) }))
                .collect();
            let empty: Vec<(u32, f64)> = Vec::new();
            let single = vec![((k / 2) as u32, -1.25f64)];
            let sparse: Vec<(u32, f64)> =
                (0..k).step_by(3).map(|i| (i as u32, 0.5 - i as f64 * 0.11)).collect();
            let cases = [dense, empty, single, sparse];

            for (ci, u_nz) in cases.iter().enumerate() {
                for (cj, v_nz) in cases.iter().enumerate() {
                    let d_sq = 37.5 + (ci + cj) as f64;
                    // scalar mirror: the pre-tile nested contraction (L1 norm
                    // tracked so the tolerance survives sign cancellation)
                    let mut mirror = 0.0;
                    let mut mirror_l1 = 0.0;
                    for &(bi, qi) in u_nz {
                        for &(bj, qj) in v_nz {
                            let rr = bin_radius[bi as usize] * bin_radius[bj as usize];
                            let term = qi * qj * inv_f_gb::<ExactMath>(d_sq, rr);
                            mirror += term;
                            mirror_l1 += term.abs();
                        }
                    }
                    // full-K² tile: table-read radius products, i-major
                    let mut fd2 = Vec::new();
                    let mut frr = Vec::new();
                    let mut fw = Vec::new();
                    for &(bi, qi) in u_nz {
                        for &(bj, qj) in v_nz {
                            fd2.push(d_sq);
                            frr.push(pair_rr[bi as usize * k + bj as usize]);
                            fw.push(qi * qj);
                        }
                    }
                    // conv tile: collapse onto s = i + j, skip zero holes
                    let mut conv_w = vec![0.0; conv_radius.len()];
                    for &(bi, qi) in u_nz {
                        for &(bj, qj) in v_nz {
                            conv_w[(bi + bj) as usize] += qi * qj;
                        }
                    }
                    let mut cd2 = Vec::new();
                    let mut crr = Vec::new();
                    let mut cw = Vec::new();
                    for (s, &w) in conv_w.iter().enumerate() {
                        if w != 0.0 {
                            cd2.push(d_sq);
                            crr.push(conv_radius[s]);
                            cw.push(w);
                        }
                    }

                    let full0 = eval_tile(&fd2, &frr, &fw);
                    let conv0 = eval_tile(&cd2, &crr, &cw);
                    // both tile shapes agree with the mirror within the
                    // reassociation / representative-rounding band
                    let tol = 1e-12 * mirror_l1.max(1.0);
                    assert!(
                        (full0 - mirror).abs() <= tol,
                        "K={k} {ci}x{cj} full: {full0} vs {mirror}"
                    );
                    assert!(
                        (conv0 - mirror).abs() <= tol,
                        "K={k} {ci}x{cj} conv: {conv0} vs {mirror}"
                    );
                    if u_nz.is_empty() || v_nz.is_empty() {
                        assert_eq!(full0, 0.0);
                        assert_eq!(conv0, 0.0);
                    }
                }
            }
        }
    }

    /// Exact energy sum of one ordered `(U leaf, V leaf)` pair over the
    /// struct-of-arrays atom streams in the scalar stride-4 loop: four
    /// accumulators, tail into the first, one `inv_f_gb` per term. No
    /// zero-distance guard: `f_GB(0, R_u R_v) = √(R_u R_v)` is finite and
    /// the self terms are part of Eq. 2. The per-pair reference the
    /// gathered near tile is checked against.
    fn energy_pair_batched<M: MathMode>(
        sys: &GbSystem,
        radii_tree: &[f64],
        u: &Node,
        v: &Node,
    ) -> f64 {
        let vr = v.range();
        let vx = &sys.a_soa.x[vr.clone()];
        let vy = &sys.a_soa.y[vr.clone()];
        let vz = &sys.a_soa.z[vr.clone()];
        let vq = &sys.charge_tree[vr.clone()];
        let vb = &radii_tree[vr];
        let m = vx.len();
        let mut raw = 0.0;
        for ui in u.range() {
            let (ux, uy, uz) = (sys.a_soa.x[ui], sys.a_soa.y[ui], sys.a_soa.z[ui]);
            let ru = radii_tree[ui];
            let term = |k: usize| -> f64 {
                let dx = vx[k] - ux;
                let dy = vy[k] - uy;
                let dz = vz[k] - uz;
                let r_sq = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
                vq[k] * inv_f_gb::<M>(r_sq, ru * vb[k])
            };
            let mut s = [0.0f64; 4];
            let mut k = 0usize;
            while k + 4 <= m {
                s[0] += term(k);
                s[1] += term(k + 1);
                s[2] += term(k + 2);
                s[3] += term(k + 3);
                k += 4;
            }
            while k < m {
                s[0] += term(k);
                k += 1;
            }
            raw += sys.charge_tree[ui] * ((s[0] + s[1]) + (s[2] + s[3]));
        }
        raw
    }

    #[test]
    fn near_tile_matches_per_pair_reference() {
        // the gathered, ownership-weighted near tile of every ordinal
        // against the per-pair kernel over its near row: the same terms,
        // regrouped sums
        let sys = system(1200);
        let (radii_tree, _) = radii_and_bins(&sys);
        let lists = EnergyLists::build(&sys);
        let mut scratch = EnergyExecScratch::new();
        for (ord, &v_leaf) in sys.ta.leaves().iter().enumerate() {
            let (tile, _) = lists.near_tile_raw::<ExactMath>(&sys, &radii_tree, ord, &mut scratch);
            let v = sys.ta.node(v_leaf);
            let mut reference = 0.0;
            for k in lists.rows.near_off[ord]..lists.rows.near_off[ord + 1] {
                let u = sys.ta.node(lists.rows.near[k]);
                let pair = energy_pair_batched::<ExactMath>(&sys, &radii_tree, u, v);
                reference += f64::from(lists.near_w[k]) * pair;
            }
            assert!(close(tile, reference), "ord={ord}: {tile} vs {reference}");
        }
    }

    #[test]
    fn default_energy_tracks_a_libm_exp_run() {
        // the same lists, radii and bins with the naive ground truth's
        // libm exponential in place of the in-crate polynomial
        let sys = system(3000);
        let mut ws = crate::arena::Workspace::new();
        let e_pol = crate::runners::serial::run_serial_ws(&sys, &mut ws).energy_kcal;
        let mut scratch = EnergyExecScratch::new();
        let ords = 0..ws.energy.num_vleaves();
        let (raw, _) = ws.energy.execute_leaves::<crate::naive::LibmMath>(
            &sys,
            &ws.bins,
            &ws.radii_tree,
            ords,
            &mut scratch,
        );
        let e_libm = finalize_energy(raw, sys.params.tau());
        let rel = ((e_pol - e_libm) / e_libm).abs();
        assert!(rel < 1e-13, "{e_pol} vs {e_libm}: rel {rel:e}");
    }

    #[test]
    fn split_execution_equals_whole_execution() {
        // list execution over disjoint ordinal ranges merges to the same
        // accumulators (disjoint far slots; atom sums added leaf-by-leaf)
        let sys = system(300);
        let lists = BornLists::build(&sys);
        let n = lists.num_qleaves();
        let mut whole = IntegralAcc::zeros(&sys);
        let w_whole = lists.execute_range::<ExactMath, R6>(&sys, 0..n, &mut whole);
        let mut parts = IntegralAcc::zeros(&sys);
        let mut w_parts = 0.0;
        for seg in crate::workdiv::work_balanced_segments(lists.leaf_work(), 5) {
            let mut local = IntegralAcc::zeros(&sys);
            w_parts += lists.execute_range::<ExactMath, R6>(&sys, seg, &mut local);
            parts.add(&local);
        }
        assert_eq!(w_whole, w_parts);
        for (x, y) in whole.node_s.iter().zip(&parts.node_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
        for (x, y) in whole.atom_s.iter().zip(&parts.atom_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    // -- refitted trees ------------------------------------------------------

    /// The tree's points in builder-input (original-index) order, the
    /// convention [`Octree::refit`] expects.
    fn original_positions(tree: &Octree) -> Vec<Vec3> {
        let mut out = vec![Vec3::ZERO; tree.num_points()];
        for i in 0..tree.num_points() {
            out[tree.point_index(i)] = tree.points()[i];
        }
        out
    }

    /// Gaussian-jitters every `stride`-th point of a tree by `amp` Å RMS
    /// per axis and refits in place (`stride == 1` moves everything).
    fn jitter_tree(tree: &mut Octree, amp: f64, seed: u64, stride: usize) {
        let mut rng = gb_geom::DetRng::new(seed);
        let mut pts = original_positions(tree);
        for (k, p) in pts.iter_mut().enumerate() {
            let dv = Vec3::new(rng.normal(), rng.normal(), rng.normal()) * amp;
            if k % stride == 0 {
                *p += dv;
            }
        }
        tree.refit(&pts);
    }

    #[test]
    fn content_key_is_folded_on_first_request_only() {
        // rebuilds leave the key unfolded (the serial frame path never
        // asks); the first request folds exactly the CSR arrays
        let mut sys = system(300);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        assert_eq!(born.content_key(), 0, "never built");
        born.rebuild(&sys, &mut scratch);
        let mut energy = EnergyLists::empty();
        energy.rebuild(&sys, &mut scratch);
        assert!(born.content_key.get().is_none() && energy.content_key.get().is_none());
        assert_eq!(born.content_key(), born.rows.fold_key());
        assert_eq!(energy.content_key(), energy.rows.fold_key());
        assert_ne!(born.content_key(), energy.content_key());
        jitter_tree(&mut sys.ta, 0.3, 41, 1);
        jitter_tree(&mut sys.tq, 0.3, 42, 1);
        let before = born.content_key();
        born.rebuild(&sys, &mut scratch);
        assert!(born.content_key.get().is_none());
        assert_eq!(born.content_key(), BornLists::build(&sys).content_key());
        assert_ne!(born.content_key(), before, "0.3 Å jitter must change the lists");
    }

    // -- row order and run coalescing ---------------------------------------

    /// Every row of both CSRs is strictly ascending in `ta`'s tree order and
    /// its entries' atom ranges are disjoint.
    fn assert_rows_ascend(lists: &BornLists, ta: &Octree, tag: &str) {
        for (off, ids) in [lists.far_csr(), lists.near_csr()] {
            for ord in 0..lists.num_qleaves() {
                let row = &ids[off[ord]..off[ord + 1]];
                for pair in row.windows(2) {
                    let (x, y) = (ta.node(pair[0]), ta.node(pair[1]));
                    assert!(x.end <= y.begin, "{tag}: row {ord} not ascending: {pair:?}");
                }
            }
        }
    }

    /// A ligand system and its pose under a rigid rotation + shift, as
    /// the docking path sees it.
    fn posed_ligand(n: usize, seed: u64, shift: Vec3) -> (GbSystem, PosedLigand) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let pose = gb_geom::RigidTransform {
            rotation: gb_geom::Mat3::rotation(Vec3::new(0.3, 0.9, 0.1), 0.7),
            translation: shift,
        };
        let mut posed = PosedLigand::new();
        posed.pose(&sys, &pose);
        (sys, posed)
    }

    #[test]
    fn born_rows_ascend_from_every_walk() {
        let mut sys = system(900);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        born.rebuild(&sys, &mut scratch);
        assert_rows_ascend(&born, &sys.ta, "rebuild");

        // docking cross lists, both directions
        let (_, lig) = posed_ligand(120, 5, Vec3::new(12.0, -4.0, 3.0));
        let threshold = sys.params.radii_mac_threshold();
        let mut cross = BornLists::empty();
        cross.rebuild_cross(&sys.ta, &lig.tq, threshold, &mut scratch);
        assert!(!cross.rows.near.is_empty());
        assert_rows_ascend(&cross, &sys.ta, "cross receptor x ligand");
        cross.rebuild_cross(&lig.ta, &sys.tq, threshold, &mut scratch);
        assert!(!cross.rows.near.is_empty());
        assert_rows_ascend(&cross, &lig.ta, "cross ligand x receptor");

        // refitted trees keep their preorder, so frame rebuilds ascend too
        for (frame, stride) in [(0u64, 1usize), (1, 7)] {
            jitter_tree(&mut sys.ta, 0.05, 300 + frame, stride);
            jitter_tree(&mut sys.tq, 0.05, 400 + frame, stride);
            born.rebuild(&sys, &mut scratch);
            assert_rows_ascend(&born, &sys.ta, &format!("refit frame={frame}"));
        }
    }

    #[test]
    fn near_rows_coalesce_into_long_runs() {
        // with ascending rows most neighbouring near leaves touch; were
        // the rows out of order, every entry would be a run of its own
        let sys = system(3000);
        let born = BornLists::build(&sys);
        let (off, ids) = born.near_csr();
        let runs: usize = (0..born.num_qleaves())
            .map(|ord| atom_runs(&sys.ta, &ids[off[ord]..off[ord + 1]]).count())
            .sum();
        let entries = ids.len();
        assert!(
            4 * runs <= entries,
            "{runs} runs from {entries} near entries"
        );
    }

    /// Per-entry reference for the near terms: one kernel call per list
    /// entry, no coalescing. Far terms are added exactly as the executor
    /// does. Takes any atom/surface pairing, own or cross.
    fn execute_per_entry(
        lists: &BornLists,
        atoms: AtomStreams,
        surface: SurfaceStreams,
        acc: &mut IntegralAcc,
    ) {
        let (ta, tq) = (atoms.tree, surface.tree);
        for ord in 0..lists.num_qleaves() {
            let qn = tq.node(tq.leaves()[ord]);
            let q_agg = surface.agg_normals[tq.leaves()[ord] as usize];
            for &a_id in lists.rows.far_row(ord) {
                let delta = qn.centroid - ta.node(a_id).centroid;
                acc.node_s[a_id as usize] +=
                    q_agg.dot(delta) * R6::integrand(delta.norm_sq());
            }
            let q = surface.leaf(qn.range());
            for &a_id in lists.rows.near_row(ord) {
                let r = ta.node(a_id).range();
                born_span_batched::<R6>(atoms.xyz, r.start, &q, &mut acc.atom_s[r]);
            }
        }
    }

    fn assert_acc_bits(x: &IntegralAcc, y: &IntegralAcc, tag: &str) {
        for (i, (a, b)) in x.node_s.iter().zip(&y.node_s).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: node_s[{i}]");
        }
        for (i, (a, b)) in x.atom_s.iter().zip(&y.atom_s).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: atom_s[{i}]");
        }
    }

    #[test]
    fn coalesced_execution_matches_per_entry_reference_bitwise() {
        let sys = system(1200);
        let born = BornLists::build(&sys);
        let mut merged = IntegralAcc::zeros(&sys);
        born.execute_range::<ExactMath, R6>(&sys, 0..born.num_qleaves(), &mut merged);
        let mut reference = IntegralAcc::zeros(&sys);
        execute_per_entry(&born, AtomStreams::of(&sys), SurfaceStreams::of(&sys), &mut reference);
        assert_acc_bits(&merged, &reference, "own surface");

        // docking: receptor atoms under the posed ligand's surface, and
        // the posed ligand's atoms under the receptor's surface
        let (lig_sys, lig) = posed_ligand(150, 6, Vec3::new(10.0, 2.0, -5.0));
        assert_cross_matches_reference(AtomStreams::of(&sys), lig.surface(&lig_sys), "rec x lig");
        assert_cross_matches_reference(lig.atoms(), SurfaceStreams::of(&sys), "lig x rec");
    }

    /// Builds the cross lists of `(atoms, surface)` and checks the
    /// executor against the per-entry reference, bit for bit.
    fn assert_cross_matches_reference(atoms: AtomStreams, surface: SurfaceStreams, tag: &str) {
        let mut cross = BornLists::empty();
        let threshold = GbParams::default().radii_mac_threshold();
        cross.rebuild_cross(atoms.tree, surface.tree, threshold, &mut ListScratch::new());
        let zeros = || IntegralAcc {
            node_s: vec![0.0; atoms.tree.num_nodes()],
            atom_s: vec![0.0; atoms.tree.num_points()],
        };
        let mut merged = zeros();
        let ords = 0..cross.num_qleaves();
        cross.execute::<R6>(atoms, surface, ords, Some(&mut merged.node_s), 0, &mut merged.atom_s);
        let mut reference = zeros();
        execute_per_entry(&cross, atoms, surface, &mut reference);
        assert!(
            merged.atom_s.iter().any(|&v| v != 0.0),
            "{tag}: no near terms"
        );
        assert_acc_bits(&merged, &reference, tag);
    }

    // -- the row sweep against the per-leaf traversal ----------------------

    /// One driving leaf's per-leaf traversal replayed without kernels: far
    /// and near partners in the traversal's own pop order, the pop count,
    /// and the work units it tallies.
    #[derive(Default)]
    struct Visit {
        far: Vec<NodeId>,
        near: Vec<NodeId>,
        steps: u64,
        work: f64,
    }

    /// `accumulate_qleaf`'s visit sequence for the driving leaf `q_leaf`,
    /// with `T_A` clipped to the atom positions `clip` (`0..M` = no clip):
    /// nodes disjoint from the clip are neither visited nor billed, far
    /// terms are taken only at nodes wholly inside it, and a near leaf
    /// bills only its clipped atoms.
    fn born_oracle(
        ta: &Octree,
        tq: &Octree,
        threshold: f64,
        q_leaf: NodeId,
        clip: &Range<usize>,
    ) -> Visit {
        let q = tq.node(q_leaf);
        let mut v = Visit::default();
        let mut stack = if ta.is_empty() { vec![] } else { vec![Octree::ROOT] };
        while let Some(a_id) = stack.pop() {
            let a = ta.node(a_id);
            let (lo, hi) = ((a.begin as usize).max(clip.start), (a.end as usize).min(clip.end));
            if a.end as usize <= clip.start || a.begin as usize >= clip.end {
                continue;
            }
            v.steps += 1;
            v.work += TRAVERSAL_UNIT;
            let inside = a.begin as usize >= clip.start && a.end as usize <= clip.end;
            if inside && well_separated(a.centroid.dist(q.centroid), a.radius, q.radius, threshold)
            {
                v.far.push(a_id);
                v.work += 1.0;
            } else if a.is_leaf() {
                v.near.push(a_id);
                v.work += ((hi - lo) * q.count()) as f64;
            } else {
                stack.extend(a.children());
            }
        }
        v
    }

    /// `energy_for_leaf`'s visit sequence for the driving leaf `v_leaf`
    /// (`work` holds the exact-pair units only; far units need the bins).
    fn energy_oracle(ta: &Octree, mac: f64, v_leaf: NodeId) -> Visit {
        let v = ta.node(v_leaf);
        let mut out = Visit::default();
        let mut stack = vec![Octree::ROOT];
        while let Some(u_id) = stack.pop() {
            out.steps += 1;
            let u = ta.node(u_id);
            if u.is_leaf() {
                out.near.push(u_id);
                out.work += (u.count() * v.count()) as f64;
            } else if u.centroid.dist(v.centroid) > (u.radius + v.radius) * mac {
                out.far.push(u_id);
            } else {
                stack.extend(u.children());
            }
        }
        out
    }

    fn reversed(ids: &[NodeId]) -> Vec<NodeId> {
        ids.iter().rev().copied().collect()
    }

    /// Every Born row equals the traversal's partners in ascending tree
    /// order (the traversal pops mirrored preorder; the partners are
    /// disjoint subtrees, so one order is the other reversed), `leaf_work`
    /// equals its tally bit for bit, and the build bills ¼ per visit.
    fn assert_born_matches_oracle(
        lists: &BornLists,
        ta: &Octree,
        tq: &Octree,
        clip: &Range<usize>,
        tag: &str,
    ) {
        let threshold = GbParams::default().radii_mac_threshold();
        assert_eq!(lists.num_qleaves(), tq.num_leaves(), "{tag}");
        let mut steps = 0u64;
        for (ord, &q) in tq.leaves().iter().enumerate() {
            let v = born_oracle(ta, tq, threshold, q, clip);
            assert_eq!(lists.rows.far_row(ord), reversed(&v.far), "{tag} ord={ord}: far row");
            assert_eq!(lists.rows.near_row(ord), reversed(&v.near), "{tag} ord={ord}: near row");
            assert_eq!(lists.leaf_work()[ord].to_bits(), v.work.to_bits(), "{tag} ord={ord}");
            steps += v.steps;
        }
        let billed = TRAVERSAL_UNIT * steps as f64;
        assert_eq!(lists.build_work.to_bits(), billed.to_bits(), "{tag}: build work");
    }

    /// Every energy far row equals the traversal's far partners in its own
    /// (mirrored preorder) order, every near row its leaf partners
    /// ascending; steps, exact-pair work and the symmetric-pair weights
    /// follow from those sets, and the build bills ¼ per visit.
    fn assert_energy_matches_oracle(lists: &EnergyLists, ta: &Octree, tag: &str) {
        let mac = GbParams::default().energy_mac_factor();
        let visits: Vec<Visit> = ta.leaves().iter().map(|&v| energy_oracle(ta, mac, v)).collect();
        let mut ord_of = vec![usize::MAX; ta.num_nodes()];
        for (ord, &l) in ta.leaves().iter().enumerate() {
            ord_of[l as usize] = ord;
        }
        let (steps, near_work) = lists.step_and_near_work();
        assert_eq!(steps.len(), ta.num_leaves(), "{tag}");
        for (ord, v) in visits.iter().enumerate() {
            assert_eq!(lists.rows.far_row(ord), &v.far[..], "{tag} ord={ord}: far row");
            assert_eq!(lists.rows.near_row(ord), reversed(&v.near), "{tag} ord={ord}: near row");
            assert_eq!(steps[ord], v.steps as f64, "{tag} ord={ord}: steps");
            assert_eq!(near_work[ord].to_bits(), v.work.to_bits(), "{tag} ord={ord}: near work");
            let row = lists.rows.near_off[ord]..lists.rows.near_off[ord + 1];
            for (k, &u) in row.clone().zip(lists.rows.near_row(ord)) {
                let uo = ord_of[u as usize];
                let mirrored = visits[uo].near.contains(&ta.leaves()[ord]);
                // block checkerboard on 16-ordinal blocks, the ordinal
                // checkerboard inside a diagonal block
                let (lo, hi) = (uo.min(ord), uo.max(ord));
                let parity = if lo / 16 == hi / 16 { lo + hi } else { lo / 16 + hi / 16 };
                let expect = if uo == ord || !mirrored {
                    1
                } else if (parity % 2 == 1) == (ord > uo) {
                    2
                } else {
                    0
                };
                assert_eq!(lists.near_w[k], expect, "{tag} ord={ord} partner {uo}: weight");
            }
        }
        let billed = TRAVERSAL_UNIT * steps.iter().sum::<f64>();
        assert_eq!(lists.build_work.to_bits(), billed.to_bits(), "{tag}: build work");
    }

    #[test]
    fn sweeps_match_the_per_leaf_traversal_oracle() {
        let threshold = GbParams::default().radii_mac_threshold();
        for n in [1usize, 9, 350, 3000] {
            let sys = system(n);
            let (_, lig) = posed_ligand(120, 5, Vec3::new(12.0, -4.0, 3.0));
            // the oracle replays accumulate_qleaf's tally exactly
            let mut acc = IntegralAcc::zeros(&sys);
            let mut stack = Vec::new();
            let all = 0..sys.num_atoms();
            for &q in sys.tq.leaves() {
                let w = accumulate_qleaf::<R6>(&sys, q, &mut acc, &mut stack);
                let v = born_oracle(&sys.ta, &sys.tq, threshold, q, &all);
                assert_eq!(w.to_bits(), v.work.to_bits(), "n={n}: oracle vs traversal");
            }
            let tag = format!("n={n}");
            let mut scratch = ListScratch::new();
            let mut born = BornLists::empty();
            born.rebuild(&sys, &mut scratch);
            assert_born_matches_oracle(&born, &sys.ta, &sys.tq, &all, &tag);
            for (ta, tq, dir) in
                [(&sys.ta, &lig.tq, "rec x lig"), (&lig.ta, &sys.tq, "lig x rec")]
            {
                let clip = 0..ta.num_points();
                born.rebuild_cross(ta, tq, threshold, &mut scratch);
                assert_born_matches_oracle(&born, ta, tq, &clip, &format!("{tag} {dir}"));
            }
            let mut energy = EnergyLists::empty();
            energy.rebuild(&sys, &mut scratch);
            assert_energy_matches_oracle(&energy, &sys.ta, &tag);
        }
    }

    // -- part builds: clipped and row-range lists ---------------------------

    /// Clips of every shape over `sys`'s atoms: empty (at the start, the
    /// end and inside a leaf), full, leaf-aligned and cutting through
    /// leaves at both ends.
    fn clips(sys: &GbSystem) -> Vec<Range<usize>> {
        let m = sys.num_atoms();
        let leaves: Vec<&Node> = sys.ta.leaves().iter().map(|&l| sys.ta.node(l)).collect();
        let at = |k: usize| leaves[k * (leaves.len() - 1) / 4].begin as usize;
        let wide = leaves.iter().find(|n| n.count() >= 2).expect("a leaf with two atoms");
        let mid = wide.begin as usize + 1;
        vec![0..0, m..m, mid..mid, 0..m, at(1)..at(3), mid..(mid + m / 3).min(m - 1), 1..m - 1]
    }

    #[test]
    fn clipped_sweeps_match_the_clipped_oracle() {
        let sys = system(350);
        for clip in clips(&sys) {
            let tag = format!("clip {clip:?}");
            let mut born = BornLists::empty();
            let rows = 0..sys.tq.num_leaves();
            born.rebuild_part(&sys, rows, clip.clone(), &mut ListScratch::new());
            assert_born_matches_oracle(&born, &sys.ta, &sys.tq, &clip, &tag);
            // execution writes only inside the clip, and exactly the
            // slots the plan derivation reports
            let mut acc = IntegralAcc::zeros(&sys);
            born.execute_range::<ExactMath, R6>(&sys, 0..born.num_qleaves(), &mut acc);
            let n = sys.ta.num_nodes();
            let mut touched = vec![false; n + sys.num_atoms()];
            for ord in 0..born.num_qleaves() {
                born.touched_flat_slots(&sys, ord, |r| touched[r].fill(true));
            }
            for (slot, &v) in acc.node_s.iter().chain(&acc.atom_s).enumerate() {
                assert!(v == 0.0 || touched[slot], "{tag}: slot {slot} written untouched");
                if slot >= n {
                    assert!(!touched[slot] || clip.contains(&(slot - n)), "{tag}: {slot}");
                }
            }
        }
    }

    /// Rows `range` of `part` equal `full`'s; every other row is empty and
    /// bills nothing.
    fn assert_part_rows(part: &Rows, full: &Rows, range: &Range<usize>, tag: &str) {
        assert_eq!(part.work.len(), full.work.len(), "{tag}");
        let row = |r: &Rows, ord| {
            let near_work = r.near_work.get(ord).copied();
            (r.far_row(ord).to_vec(), r.near_row(ord).to_vec(), r.work[ord], near_work)
        };
        for ord in 0..full.work.len() {
            let empty = (vec![], vec![], 0.0, full.near_work.get(ord).map(|_| 0.0));
            let expect = if range.contains(&ord) { row(full, ord) } else { empty };
            assert_eq!(row(part, ord), expect, "{tag} ord={ord}");
        }
    }

    #[test]
    fn row_range_lists_equal_full_rows_inside_and_are_empty_outside() {
        let sys = system(350);
        let (full_b, full_e) = (BornLists::build(&sys), EnergyLists::build(&sys));
        let (nq, nv) = (sys.tq.num_leaves(), sys.ta.num_leaves());
        for (lo, hi) in [(0usize, 4usize), (1, 3), (3, 4), (2, 2), (0, 0), (4, 4)] {
            let (bq, eq) = (nq * lo / 4..nq * hi / 4, nv * lo / 4..nv * hi / 4);
            let tag = format!("rows {bq:?} / {eq:?}");
            let mut scratch = ListScratch::new();
            let mut born = BornLists::empty();
            born.rebuild_part(&sys, bq.clone(), 0..sys.num_atoms(), &mut scratch);
            assert_part_rows(&born.rows, &full_b.rows, &bq, &tag);
            let mut energy = EnergyLists::empty();
            energy.rebuild_part(&sys, eq.clone(), &mut scratch);
            assert_part_rows(&energy.rows, &full_e.rows, &eq, &tag);
            if (lo, hi) == (0, 4) {
                // the full range is the full build, byte for byte
                assert_eq!((&born, born.content_key()), (&full_b, full_b.content_key()));
                assert_eq!((&energy, energy.content_key()), (&full_e, full_e.content_key()));
            }
        }
    }

    /// `(driving ordinal, partner ordinal) → weight` over the rows of
    /// `range`.
    fn near_weights(
        lists: &EnergyLists,
        ta: &Octree,
        range: Range<usize>,
    ) -> std::collections::HashMap<(usize, usize), u8> {
        let mut ord_of = vec![usize::MAX; ta.num_nodes()];
        for (ord, &l) in ta.leaves().iter().enumerate() {
            ord_of[l as usize] = ord;
        }
        let mut out = std::collections::HashMap::new();
        for ord in range {
            for k in lists.rows.near_off[ord]..lists.rows.near_off[ord + 1] {
                out.insert((ord, ord_of[lists.rows.near[k] as usize]), lists.near_w[k]);
            }
        }
        out
    }

    #[test]
    fn symmetric_near_pairs_are_evaluated_once_doubled() {
        // full builds and builds partitioned into row parts, each part
        // swept on its own: a symmetric pair inside one part is evaluated
        // by exactly one side with weight 2 (the other 0), a pair split
        // across parts once by each side, everything else once
        let sys = system(3000);
        let nv = sys.ta.num_leaves();
        let full = EnergyLists::build(&sys);
        for parts in [1usize, 2, 3, 5] {
            let ranges: Vec<Range<usize>> =
                (0..parts).map(|i| nv * i / parts..nv * (i + 1) / parts).collect();
            let mut w = std::collections::HashMap::new();
            let mut scratch = ListScratch::new();
            for r in &ranges {
                let mut part = EnergyLists::empty();
                part.rebuild_part(&sys, r.clone(), &mut scratch);
                w.extend(near_weights(&part, &sys.ta, r.clone()));
            }
            if parts == 1 {
                assert_eq!(w, near_weights(&full, &sys.ta, 0..nv));
            }
            let part_of = |ord: usize| ranges.iter().position(|r| r.contains(&ord));
            let mut doubled = 0usize;
            for (&(a, b), &wab) in &w {
                match w.get(&(b, a)) {
                    Some(&wba) if a != b && part_of(a) == part_of(b) => {
                        assert!(
                            (wab, wba) == (2, 0) || (wab, wba) == (0, 2),
                            "parts={parts} ({a},{b}): {wab}/{wba}"
                        );
                        doubled += usize::from(wab == 2);
                    }
                    _ => assert_eq!(wab, 1, "parts={parts} ({a},{b})"),
                }
            }
            assert!(doubled > 0, "parts={parts}: no symmetric pair exercised");
        }
    }

    #[test]
    fn block_ownership_balances_like_the_ordinal_checkerboard() {
        // owned exact pairs per work-balanced segment (the runners' cut
        // by `leaf_costs`): the block rule's max/mean stays within 0.01
        // of the per-ordinal checkerboard's
        let sys = system(6000);
        let (_, bins) = radii_and_bins(&sys);
        let lists = EnergyLists::build(&sys);
        let ta = &sys.ta;
        let nv = lists.num_vleaves();
        let w = near_weights(&lists, ta, 0..nv);
        let size = |ord: usize| ta.node(ta.leaves()[ord]).count() as f64;
        let (mut block, mut ordinal) = (vec![0.0; nv], vec![0.0; nv]);
        for (&(v, u), &wvu) in &w {
            let pairs = size(u) * size(v);
            if wvu != 0 {
                block[v] += pairs;
            }
            let ordinal_owns = match w.get(&(u, v)) {
                Some(_) if u != v => ((u + v) % 2 == 1) == (v > u),
                _ => true,
            };
            if ordinal_owns {
                ordinal[v] += pairs;
            }
        }
        assert_eq!(block.iter().sum::<f64>(), ordinal.iter().sum::<f64>());
        let costs = lists.leaf_costs(&sys, &bins);
        for p in [2usize, 4, 8] {
            let segs = crate::workdiv::work_balanced_segments(&costs, p);
            let imbalance = |per_ord: &[f64]| {
                let sums: Vec<f64> =
                    segs.iter().map(|r| per_ord[r.clone()].iter().sum()).collect();
                let mean = sums.iter().sum::<f64>() / p as f64;
                sums.iter().cloned().fold(0.0, f64::max) / mean
            };
            let (b, o) = (imbalance(&block), imbalance(&ordinal));
            assert!(b <= o + 0.01, "P={p}: block max/mean {b} vs ordinal {o}");
        }
    }

    #[test]
    fn near_stats_replay_the_gathered_tiles() {
        let sys = system(3000);
        let lists = EnergyLists::build(&sys);
        let st = lists.near_stats(&sys);
        let (mut entries, mut atoms, mut pairs) = (0u64, 0u64, 0u64);
        for ord in 0..lists.num_vleaves() {
            let v = sys.ta.node(sys.ta.leaves()[ord]).count() as u64;
            for k in lists.rows.near_off[ord]..lists.rows.near_off[ord + 1] {
                if lists.near_w[k] != 0 {
                    let u = sys.ta.node(lists.rows.near[k]).count() as u64;
                    entries += 1;
                    atoms += u;
                    pairs += u * v;
                }
            }
        }
        assert_eq!(st.owned_entries, entries);
        assert_eq!(st.owned_pairs, pairs);
        // coalescing merges entries, never splits or drops atoms
        assert_eq!(st.tile_atoms, atoms);
        assert!(st.runs > 0 && st.runs < st.owned_entries, "{st:?}");
    }
}

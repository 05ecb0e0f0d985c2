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
//! into a [`Preorder`] table (centroid, radius, skip pointer, point count);
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
use gb_geom::Vec3;
use gb_octree::{NodeId, Octree};
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum driving rows per sweep task. A split build copies every task's
/// row block into the list after the sweeps; the workspace's `rayon` is a
/// sequential stand-in (`third_party/rayon`), so here a split only ever
/// pays that copy (~10% of the build at 20k atoms) and this floor keeps
/// the benchmark sizes on the single-block path. The lists are
/// byte-identical for any task count, so this is purely a scheduling
/// decision.
const MIN_TASK_LEAVES: usize = 2048;

/// Safety pad on every certificate's drift sensitivity: the analytic κ
/// bounds below are exact in real arithmetic, and the pad buys five orders
/// of magnitude more slack than the f64 rounding they ignore. Over-padding
/// only shrinks budgets — more re-sweeps, never a wrong decision.
const CERT_PAD: f64 = 1.00001;

/// A sweep-decision certificate: row `row`'s visit of node `a` keeps its
/// recorded branch as long as the joint drift of `a` and the row's driving
/// leaf stays within `budget`, which folds the decision's allowed drift
/// margin into the trees' accumulated drift at record time. When drift
/// exceeds the budget the branch *may* have flipped; repair re-evaluates
/// the leaf test at the current geometry and only a confirmed flip
/// invalidates the row. The recorded branch (far or not) lives in the top
/// bit of `a` (node ids stay far below 2^31), so 16 bytes per decided
/// (node, row) visit suffice.
#[derive(Clone, Copy, Debug)]
struct Cert {
    a_tag: u32,
    row: u32,
    budget: f64,
}

impl Cert {
    const FAR: u32 = 1 << 31;

    #[inline]
    fn new(a: NodeId, row: usize, far: bool, budget: f64) -> Cert {
        debug_assert!(a < Self::FAR);
        Cert { a_tag: a | if far { Self::FAR } else { 0 }, row: row as u32, budget }
    }

    #[inline]
    fn a(&self) -> NodeId {
        self.a_tag & !Self::FAR
    }

    #[inline]
    fn far(&self) -> bool {
        self.a_tag & Self::FAR != 0
    }
}

/// What a [`BornLists::repair`] / [`EnergyLists::repair`] pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepairStats {
    /// Certificates checked against the trees' accumulated drift.
    pub certs_checked: usize,
    /// Certificates whose drift bound tripped, forcing a predicate
    /// re-evaluation at the current geometry (most re-confirm and merely
    /// refresh their budget).
    pub certs_rechecked: usize,
    /// Certificates whose decision *confirmably* flipped (rows re-swept).
    pub certs_violated: usize,
    /// Driving-leaf rows regenerated by re-sweeps.
    pub rows_rewalked: usize,
    /// Total driving-leaf rows.
    pub rows_total: usize,
    /// True when any regenerated row differs from the stored one (the
    /// content key is refolded; structure consumers must invalidate).
    pub changed: bool,
}

impl RepairStats {
    /// Fraction of driving rows the repair re-swept (0 = pure reuse).
    pub fn rewalk_fraction(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.rows_rewalked as f64 / self.rows_total as f64
        }
    }
}

/// The content-hash fold step shared with the communication planner
/// (identical constants, so planner keys stay stable across the refactor).
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Checks every certificate against the trees' accumulated drift (slack
/// `drift_tol`; 0 = exact). A tripped drift bound is conservative, so the
/// leaf test is re-evaluated at the *current* geometry
/// ([`Sweep::recheck`]): an unchanged branch keeps the cert with a
/// refreshed budget, while a confirmed flip marks its row invalid. Certs of
/// invalid rows are dropped (the re-sweep records them afresh). Returns
/// `(checked, rechecked, flipped)` and fills `runs` with the maximal
/// invalid row runs; `bad` is a reusable per-row flag buffer.
///
/// When more than `bail_after` certs trip their drift bound the scan
/// aborts and returns `None`: drift that dense means the frame moved
/// nearly everything, a regime where re-checking and re-sweeping costs
/// more than rebuilding from scratch (partially refreshed budgets are
/// still valid certs, so an abort leaves the lists usable).
fn invalidate_certs<S: Sweep>(
    s: &S,
    certs: &mut Vec<Cert>,
    drift_tol: f64,
    bad: &mut Vec<bool>,
    runs: &mut Vec<(u32, u32)>,
    bail_after: usize,
) -> Option<(usize, usize, usize)> {
    runs.clear();
    bad.clear();
    bad.resize(s.num_rows(), false);
    let checked = certs.len();
    let (mut rechecked, mut flipped) = (0usize, 0usize);
    for c in certs.iter_mut() {
        let (row, (da, db)) = (c.row as usize, s.drift(c.a(), c.row as usize));
        if da + db > c.budget + drift_tol {
            rechecked += 1;
            if rechecked > bail_after {
                return None;
            }
            match s.recheck(c.a(), row, c.far()) {
                Some(allowed) => c.budget = allowed.max(0.0) + da + db,
                None => {
                    flipped += 1;
                    bad[row] = true;
                }
            }
        }
    }
    if flipped == 0 {
        return Some((checked, rechecked, 0));
    }
    let mut start = None;
    for (row, &b) in bad.iter().enumerate() {
        match (start, b) {
            (None, true) => start = Some(row),
            (Some(s0), false) => {
                runs.push((s0 as u32, row as u32));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s0) = start {
        runs.push((s0 as u32, bad.len() as u32));
    }
    certs.retain(|c| !bad[c.row as usize]);
    Some((checked, rechecked, flipped))
}

/// Converts a tripped-cert bail fraction into an absolute count
/// (`usize::MAX` disables bailing).
fn bail_fraction_to_count(fraction: f64, certs: usize) -> usize {
    if fraction.is_finite() {
        (fraction * certs as f64) as usize
    } else {
        usize::MAX
    }
}

/// Branch (far?) + κ-divided standing margin of one Born visit — the
/// exact float form of the traversal's `well_separated` test, shared by
/// the sweep and the cert re-check so a repaired frame replays the
/// decision bit for bit.
#[inline]
fn born_leaf_branch(ra: f64, rq: f64, d: f64, threshold: f64, k_leaf: f64, k_gap: f64)
    -> (bool, f64) {
    let far = well_separated(d, ra, rq, threshold);
    let sum = ra + rq;
    let gap = d - sum;
    let w = threshold * gap - (d + sum);
    let allowed = if far {
        // both conditions hold; either failing flips the branch
        (gap / k_gap).min(w / k_leaf)
    } else {
        // one failing condition persisting keeps the branch
        let by_gap = if gap <= 0.0 { -gap / k_gap } else { f64::NEG_INFINITY };
        let by_w = if w < 0.0 { -w / k_leaf } else { f64::NEG_INFINITY };
        by_gap.max(by_w)
    };
    (far, allowed)
}

/// Branch (far?) + κ-divided standing margin of one energy visit of an
/// internal node — the exact float form of the traversal's MAC test.
#[inline]
fn energy_leaf_branch(ru: f64, rv: f64, d: f64, mac: f64, k_leaf: f64) -> (bool, f64) {
    let far = d > (ru + rv) * mac;
    let t_m = d - (ru + rv) * mac;
    (far, (if far { t_m } else { -t_m }) / k_leaf)
}

/// Preorder table of the interacting tree, struct-of-arrays — the row
/// sweeps' only view of it. Position `i` holds node `id[i]` with children
/// in tree order (ascending `begin`); `skip[i]` is the position just past
/// its subtree, so a scan jumps a far node's descendants in one step. A
/// leaf is exactly the node whose skip is its own successor. Rebuilt per
/// build from the current geometry (~0.3 ms at 10k atoms).
#[derive(Clone, Debug, Default)]
struct Preorder {
    id: Vec<NodeId>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    r: Vec<f64>,
    skip: Vec<u32>,
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
            + (self.id.capacity() + self.skip.capacity() + self.count.capacity()
                + self.size.capacity() + self.stack.capacity())
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

    #[inline]
    fn far_row(&self, ord: usize) -> &[NodeId] {
        &self.far[self.far_off[ord]..self.far_off[ord + 1]]
    }

    #[inline]
    fn near_row(&self, ord: usize) -> &[NodeId] {
        &self.near[self.near_off[ord]..self.near_off[ord + 1]]
    }

    /// Appends rows `[from, to)` of the closed CSR `src`, rebasing offsets
    /// — the block concatenation of a split build and the bulk-reuse half
    /// of a repair.
    fn append(&mut self, src: &Rows, from: usize, to: usize) {
        let (fb, fs) = (self.far.len(), src.far_off[from]);
        let (nb, ns) = (self.near.len(), src.near_off[from]);
        self.far_off.extend(src.far_off[from..to].iter().map(|&o| fb + (o - fs)));
        self.near_off.extend(src.near_off[from..to].iter().map(|&o| nb + (o - ns)));
        self.far.extend_from_slice(&src.far[fs..src.far_off[to]]);
        self.near.extend_from_slice(&src.near[ns..src.near_off[to]]);
        self.work.extend_from_slice(&src.work[from..to]);
        if !src.near_work.is_empty() {
            self.near_work.extend_from_slice(&src.near_work[from..to]);
        }
    }

    /// Folds the CSR arrays into a content key: equal keys ⇔ (offsets,
    /// ids) byte-equal with overwhelming probability — what lets a no-flip
    /// frame prove "structure unchanged" to plan caches in O(1).
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
/// every rebuild and by a repair that changed a row, computed on the first
/// [`BornLists::content_key`] / [`EnergyLists::content_key`] call — only
/// the plan caches ever ask, so serial frames never pay the fold.
fn lazy_key(rows: &Rows, key: &OnceLock<u64>) -> u64 {
    if rows.far_off.is_empty() {
        0
    } else {
        *key.get_or_init(|| rows.fold_key())
    }
}

/// Buffers of one sweep task: the Born MAC mask, and — for the tasks of a
/// split build — the task's row block, certs and build work. A split build
/// hands its certs over to the list (the buffer is moved, not copied), so
/// no cert copy stays resident here.
#[derive(Clone, Debug, Default)]
struct TaskSeg {
    mask: Vec<bool>,
    rows: Rows,
    certs: Vec<Cert>,
    work: f64,
}

/// Reusable scratch of a (possibly parallel) list build: the preorder
/// table, one [`TaskSeg`] per task, the repair buffers and the energy
/// ownership pass's ordinal arrays. Keeping one of these per pipeline makes
/// steady-state rebuilds allocation-free once the buffers have warmed to
/// the problem size.
#[derive(Debug, Default)]
pub struct ListScratch {
    table: Preorder,
    segs: Vec<TaskSeg>,
    /// Per-row invalid flags and maximal invalid row runs of a repair.
    bad: Vec<bool>,
    runs: Vec<(u32, u32)>,
    /// Repair double buffer: the spliced rows are assembled here (copied
    /// reuse + re-swept runs), then swapped with the list's own — so a warm
    /// repair allocates nothing and the swapped-out old rows stay readable
    /// for change detection.
    rows2: Rows,
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

    /// Heap footprint in bytes (table, per-task buffers, repair buffers
    /// and ownership arrays).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
            + self
                .segs
                .iter()
                .map(|s| {
                    s.mask.capacity()
                        + s.rows.memory_bytes()
                        + s.certs.capacity() * std::mem::size_of::<Cert>()
                })
                .sum::<usize>()
            + self.segs.capacity() * std::mem::size_of::<TaskSeg>()
            + self.bad.capacity()
            + self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.rows2.memory_bytes()
            + (self.ord_of.capacity() + self.near_ords.capacity()) * std::mem::size_of::<u32>()
            + self.cursor.capacity() * std::mem::size_of::<usize>()
    }
}

/// One phase's row sweep over a [`Preorder`] table of its interacting tree.
trait Sweep: Sync {
    /// The interacting tree the table is built from.
    fn interacting(&self) -> &Octree;
    /// Number of driving rows.
    fn num_rows(&self) -> usize;
    /// Appends rows `rows` to `out` — and a cert per decided visit to
    /// `certs` when given — returning their build work: one traversal unit
    /// per visited (node, row).
    fn sweep(
        &self,
        t: &Preorder,
        rows: Range<usize>,
        mask: &mut Vec<bool>,
        out: &mut Rows,
        certs: Option<&mut Vec<Cert>>,
    ) -> f64;
    /// Accumulated drift of node `a` and of row `row`'s driving leaf.
    fn drift(&self, a: NodeId, row: usize) -> (f64, f64);
    /// Re-evaluates a recorded decision at the current geometry: the
    /// refreshed κ-divided margin while the branch holds, `None` on a flip.
    fn recheck(&self, a: NodeId, row: usize, far: bool) -> Option<f64>;
}

/// Sweeps every row into `out` (closing the CSR) — on the calling thread,
/// or split into up to `tasks` contiguous row ranges (never below `floor`
/// rows each) swept as `rayon::scope` tasks and concatenated in order.
/// Each row depends only on the geometry, so the lists are byte-identical
/// for any task count; the returned build work is a sum of exact ¼ units.
fn sweep_all<S: Sweep>(
    s: &S,
    tasks: usize,
    floor: usize,
    scratch: &mut ListScratch,
    out: &mut Rows,
    mut certs: Option<&mut Vec<Cert>>,
) -> f64 {
    let ListScratch { table, segs, .. } = scratch;
    table.rebuild(s.interacting());
    let nrows = s.num_rows();
    let ntasks = tasks.min(nrows / floor.max(1)).max(1);
    if segs.len() < ntasks {
        segs.resize_with(ntasks, TaskSeg::default);
    }
    if ntasks == 1 {
        let work = s.sweep(table, 0..nrows, &mut segs[0].mask, out, certs);
        out.open_row();
        return work;
    }
    let (table, record) = (&*table, certs.is_some());
    rayon::scope(|sc| {
        for (i, seg) in segs[..ntasks].iter_mut().enumerate() {
            let rows = i * nrows / ntasks..(i + 1) * nrows / ntasks;
            sc.spawn(move |_| {
                seg.rows.clear();
                let certs = record.then_some(&mut seg.certs);
                seg.work = s.sweep(table, rows, &mut seg.mask, &mut seg.rows, certs);
                seg.rows.open_row();
            });
        }
    });
    let mut work = 0.0;
    for seg in &mut segs[..ntasks] {
        out.append(&seg.rows, 0, seg.rows.work.len());
        if let Some(c) = certs.as_deref_mut() {
            c.append(&mut std::mem::take(&mut seg.certs));
        }
        work += seg.work;
    }
    out.open_row();
    work
}

/// The phase-independent body of a repair: checks the certs, re-sweeps the
/// invalid row runs into the double buffer between bulk copies of the
/// untouched rows, and swaps the result in. Returns the stats (`changed`
/// set when a re-swept row differs) and the re-sweep's build work, or
/// `None` on a density bail. With `drift_tol == 0` every kept row provably
/// kept every decision, so the result equals a rebuild byte for byte.
fn repair_rows<S: Sweep>(
    s: &S,
    rows: &mut Rows,
    certs: &mut Vec<Cert>,
    scratch: &mut ListScratch,
    drift_tol: f64,
    bail_tripped_fraction: f64,
) -> Option<(RepairStats, f64)> {
    let nrows = s.num_rows();
    assert_eq!(rows.work.len(), nrows, "repair requires unchanged tree topology");
    let ListScratch { table, segs, bad, runs, rows2, .. } = scratch;
    let bail_after = bail_fraction_to_count(bail_tripped_fraction, certs.len());
    let (checked, rechecked, flipped) =
        invalidate_certs(s, certs, drift_tol, bad, runs, bail_after)?;
    let mut stats = RepairStats {
        certs_checked: checked,
        certs_rechecked: rechecked,
        certs_violated: flipped,
        rows_total: nrows,
        ..RepairStats::default()
    };
    if runs.is_empty() {
        return Some((stats, 0.0));
    }
    table.rebuild(s.interacting());
    if segs.is_empty() {
        segs.push(TaskSeg::default());
    }
    rows2.clear();
    let (mut work, mut prev) = (0.0, 0usize);
    for &(lo, hi) in runs.iter() {
        let (lo, hi) = (lo as usize, hi as usize);
        rows2.append(rows, prev, lo);
        work += s.sweep(table, lo..hi, &mut segs[0].mask, rows2, Some(&mut *certs));
        stats.rows_rewalked += hi - lo;
        prev = hi;
    }
    rows2.append(rows, prev, nrows);
    rows2.open_row();
    std::mem::swap(rows, rows2);
    let (new, old) = (&*rows, &*rows2);
    stats.changed = runs
        .iter()
        .flat_map(|&(lo, hi)| lo as usize..hi as usize)
        .any(|ord| new.far_row(ord) != old.far_row(ord) || new.near_row(ord) != old.near_row(ord));
    Some((stats, work))
}

// ---------------------------------------------------------------------------
// Born phase (Fig. 2): (T_A, T_Q) lists
// ---------------------------------------------------------------------------

/// The Born sweep: one row per `T_Q` leaf over the `T_A` table.
///
/// Cert sensitivities (`δ` = joint drift `ta.drift(a) + tq.drift(q)`, using
/// `|Δcentroid| ≤ δ`, `|Δradius| ≤ 2δ`, `|Δd| ≤ δ`): the leaf test
/// (`gap = d−s > 0 ∧ θ·gap ≥ d+s`, `s = r_a+r_q`) moves `gap` by ≤ 3δ and
/// `W = θ·gap−(d+s)` by ≤ (3θ+3)δ. Budgets divide the decision's standing
/// margin by the padded sensitivity, so a valid cert *proves* the branch
/// cannot have flipped.
struct BornSweep<'a> {
    ta: &'a Octree,
    tq: &'a Octree,
    threshold: f64,
    k_leaf: f64,
    k_gap: f64,
}

impl<'a> BornSweep<'a> {
    fn new(ta: &'a Octree, tq: &'a Octree, threshold: f64) -> BornSweep<'a> {
        let (k_leaf, k_gap) = ((3.0 * threshold + 3.0) * CERT_PAD, 3.0 * CERT_PAD);
        BornSweep { ta, tq, threshold, k_leaf, k_gap }
    }
}

impl Sweep for BornSweep<'_> {
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
        mut certs: Option<&mut Vec<Cert>>,
    ) -> f64 {
        let n = t.len();
        mask.clear();
        mask.resize(n, false);
        let (cx, cy, cz, r) = (&t.cx[..n], &t.cy[..n], &t.cz[..n], &t.r[..n]);
        let (id, skip, count) = (&t.id[..n], &t.skip[..n], &t.count[..n]);
        let mut visits = 0u64;
        for ord in rows {
            let q_id = self.tq.leaves()[ord];
            let q = self.tq.node(q_id);
            let (qc, rq, q_count) = (q.centroid, q.radius, q.count() as f64);
            let geom = cx.iter().zip(cy).zip(cz).zip(r);
            for (m, (((&x, &y), &z), &ra)) in mask.iter_mut().zip(geom) {
                *m = well_separated(Vec3::new(x, y, z).dist(qc), ra, rq, self.threshold);
            }
            let dq = self.tq.drift(q_id);
            out.open_row();
            let far0 = out.far.len();
            let (mut steps, mut near_pairs, mut i) = (0u64, 0.0, 0usize);
            while i < n {
                steps += 1;
                if let Some(c) = certs.as_deref_mut() {
                    let d = Vec3::new(cx[i], cy[i], cz[i]).dist(qc);
                    let (far, allowed) =
                        born_leaf_branch(r[i], rq, d, self.threshold, self.k_leaf, self.k_gap);
                    let budget = allowed.max(0.0) + self.ta.drift(id[i]) + dq;
                    c.push(Cert::new(id[i], ord, far, budget));
                }
                if mask[i] {
                    out.far.push(id[i]);
                    i = skip[i] as usize;
                } else {
                    if skip[i] as usize == i + 1 {
                        out.near.push(id[i]);
                        near_pairs += count[i] as f64 * q_count;
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

    fn drift(&self, a: NodeId, row: usize) -> (f64, f64) {
        (self.ta.drift(a), self.tq.drift(self.tq.leaves()[row]))
    }

    fn recheck(&self, a: NodeId, row: usize, far: bool) -> Option<f64> {
        let (a, q) = (self.ta.node(a), self.tq.node(self.tq.leaves()[row]));
        let d = a.centroid.dist(q.centroid);
        let (now, allowed) =
            born_leaf_branch(a.radius, q.radius, d, self.threshold, self.k_leaf, self.k_gap);
        (now == far).then_some(allowed)
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
    /// Work spent constructing the lists: one traversal unit per visited
    /// (node, row) for a full build; for a repaired list, the units of the
    /// re-swept rows only (the incremental cost actually paid).
    pub build_work: f64,
    /// Sweep-decision certificates (present iff `track_certs`).
    certs: Vec<Cert>,
    /// Whether rebuilds record certificates (enables [`BornLists::repair`]).
    track_certs: bool,
    /// Lazily folded CSR key (see [`lazy_key`]).
    content_key: OnceLock<u64>,
    /// Certificate count of the last *full* build — the overflow baseline.
    full_build_certs: usize,
}

/// Structural equality ignores the incremental-repair bookkeeping (certs,
/// tracking flag, content key): two lists are equal when execution cannot
/// tell them apart.
impl PartialEq for BornLists {
    fn eq(&self, o: &BornLists) -> bool {
        self.rows == o.rows && self.build_work == o.build_work
    }
}

impl BornLists {
    /// Empty lists — a reusable slot for [`BornLists::rebuild`].
    pub fn empty() -> BornLists {
        BornLists {
            rows: Rows::default(),
            build_work: 0.0,
            certs: Vec::new(),
            track_certs: false,
            content_key: OnceLock::new(),
            full_build_certs: 0,
        }
    }

    /// Enables (or disables) certificate recording on subsequent rebuilds.
    /// Tracking costs one 16-byte cert per visited (node, row) and changes
    /// no list content; it is what makes [`BornLists::repair`] possible.
    pub fn set_cert_tracking(&mut self, on: bool) {
        self.track_certs = on;
    }

    /// Whether rebuilds record repair certificates.
    #[inline]
    pub fn tracks_certs(&self) -> bool {
        self.track_certs
    }

    /// Whether the resident lists carry repair certificates — i.e. their
    /// build actually recorded decisions. False after an untracked rebuild
    /// even if tracking has since been re-enabled; repairing without this
    /// evidence would silently keep stale lists.
    #[inline]
    pub fn has_certs(&self) -> bool {
        !self.certs.is_empty()
    }

    /// Fold of the CSR structure (0 = never built). Equal keys across
    /// frames ⇔ identical lists, so plan caches key on this instead of
    /// re-hashing the arrays.
    #[inline]
    pub fn content_key(&self) -> u64 {
        lazy_key(&self.rows, &self.content_key)
    }

    /// True when repair-appended certificates outnumber a full build's by
    /// more than 2× — repeated incremental repairs have fragmented the
    /// decision record enough that a fresh build is the better deal.
    pub fn cert_overflow(&self) -> bool {
        self.full_build_certs > 0 && self.certs.len() > 2 * self.full_build_certs
    }

    /// Sweeps every `T_Q` leaf's row serially.
    pub fn build(sys: &GbSystem) -> BornLists {
        Self::build_tasks(sys, 1)
    }

    /// Like [`BornLists::build`], split into `tasks` contiguous row ranges
    /// swept as `rayon::scope` tasks — sized by the installed rayon pool,
    /// so callers can pin the build to an explicit thread count via
    /// `ThreadPoolBuilder::install`. The result is **byte-identical** to
    /// the serial build for any task count or pool size.
    pub fn build_tasks(sys: &GbSystem, tasks: usize) -> BornLists {
        let mut lists = BornLists::empty();
        let mut scratch = ListScratch::new();
        lists.rebuild(sys, tasks, &mut scratch);
        lists.rows.shrink_to_fit();
        lists
    }

    /// In-place [`BornLists::build_tasks`] reusing this value's buffers and
    /// `scratch` — allocation-free once both have warmed to the problem
    /// size (with `tasks == 1`; spawning scope threads allocates).
    pub fn rebuild(&mut self, sys: &GbSystem, tasks: usize, scratch: &mut ListScratch) {
        self.rebuild_with_task_floor(sys, tasks, scratch, MIN_TASK_LEAVES);
    }

    /// [`BornLists::rebuild`] with an explicit per-task row floor — the
    /// split-path tests drive this with `floor == 1` so small systems still
    /// exercise multi-task concatenation.
    pub(crate) fn rebuild_with_task_floor(
        &mut self,
        sys: &GbSystem,
        tasks: usize,
        scratch: &mut ListScratch,
        floor: usize,
    ) {
        let s = BornSweep::new(&sys.ta, &sys.tq, sys.params.radii_mac_threshold());
        self.rebuild_sweep(&s, tasks, scratch, floor);
    }

    /// Cross-system list build: sweeps `(A tree of one system, Q tree of
    /// another)` with the same certificates and acceptance tests as the
    /// own-surface build. This is the docking path's per-pose work — the
    /// receptor keeps its cached own-surface lists and only the
    /// receptor×ligand (and ligand×receptor) lists are built here. The
    /// driving `tq` may be a [`Octree::transformed`] posed copy.
    pub fn rebuild_cross(
        &mut self,
        ta: &Octree,
        tq: &Octree,
        threshold: f64,
        scratch: &mut ListScratch,
    ) {
        self.rebuild_sweep(&BornSweep::new(ta, tq, threshold), 1, scratch, MIN_TASK_LEAVES);
    }

    fn rebuild_sweep(&mut self, s: &BornSweep, tasks: usize, scratch: &mut ListScratch,
        floor: usize) {
        self.rows.clear();
        self.certs.clear();
        self.content_key = OnceLock::new();
        let certs = self.track_certs.then_some(&mut self.certs);
        self.build_work = sweep_all(s, tasks, floor, scratch, &mut self.rows, certs);
        self.full_build_certs = self.certs.len();
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

    /// Executes the lists of the driving-leaf ordinals in `ords`,
    /// accumulating into `acc` exactly where the traversal would (far terms
    /// at `node_s[a]`, exact sums at `atom_s`). Returns the work units.
    pub fn execute_range<M: MathMode, K: RadiiApprox>(
        &self,
        sys: &GbSystem,
        ords: Range<usize>,
        acc: &mut IntegralAcc,
    ) -> f64 {
        let mut work = 0.0;
        for ord in ords {
            let q_leaf = sys.tq.leaves()[ord];
            let qn = sys.tq.node(q_leaf);
            let q_center = qn.centroid;
            let q_agg = sys.q_normals[q_leaf as usize];
            for &a_id in self.rows.far_row(ord) {
                let a = sys.ta.node(a_id);
                let delta = q_center - a.centroid;
                let d2 = delta.norm_sq();
                acc.node_s[a_id as usize] += q_agg.dot(delta) * K::integrand::<M>(d2);
            }
            // Near list: rows are ascending in tree order, so touching
            // leaves coalesce into one long atom run each — the batched
            // kernel then streams whole runs (25 atoms on average at 10k,
            // 40% of atoms in runs of ≥ 1,024) instead of ~3 per tiny leaf.
            let qr = qn.range();
            let qx = &sys.q_soa.x[qr.clone()];
            let qy = &sys.q_soa.y[qr.clone()];
            let qz = &sys.q_soa.z[qr.clone()];
            let nx = &sys.q_normal_soa.x[qr.clone()];
            let ny = &sys.q_normal_soa.y[qr.clone()];
            let nz = &sys.q_normal_soa.z[qr.clone()];
            let w = &sys.q_weight_tree[qr];
            for run in atom_runs(&sys.ta, self.rows.near_row(ord)) {
                born_span_batched::<M, K>(sys, run, qx, qy, qz, nx, ny, nz, w, acc);
            }
            work += self.rows.work[ord];
        }
        work
    }

    /// Executes cross lists built by [`BornLists::rebuild_cross`]: the `A`
    /// side is `ta` (accumulated into `acc` at that tree's node/atom
    /// slots), the driving quadrature side is the *foreign* tree `tq` with
    /// its per-node aggregated normals, per-point normals, and per-point
    /// weights (all in `tq`'s tree order — for a posed ligand these are
    /// the rotated copies). No SoA mirrors exist for a transient posed
    /// tree, so both terms run the scalar kernels over the same coalesced
    /// atom runs as [`BornLists::execute_range`]; the loop order is fixed
    /// by the lists, so results are deterministic for identical inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_cross<M: MathMode, K: RadiiApprox>(
        &self,
        ta: &Octree,
        tq: &Octree,
        q_agg_normals: &[Vec3],
        q_normal_tree: &[Vec3],
        q_weight_tree: &[f64],
        ords: Range<usize>,
        acc: &mut IntegralAcc,
    ) -> f64 {
        let mut work = 0.0;
        let a_pts = ta.points();
        let q_pts = tq.points();
        for ord in ords {
            let q_leaf = tq.leaves()[ord];
            let qn = tq.node(q_leaf);
            let q_center = qn.centroid;
            let q_agg = q_agg_normals[q_leaf as usize];
            for &a_id in self.rows.far_row(ord) {
                let a = ta.node(a_id);
                let delta = q_center - a.centroid;
                let d2 = delta.norm_sq();
                acc.node_s[a_id as usize] += q_agg.dot(delta) * K::integrand::<M>(d2);
            }
            let qr = qn.range();
            for ar in atom_runs(ta, self.rows.near_row(ord)) {
                for k in qr.clone() {
                    let p = q_pts[k];
                    let m = q_normal_tree[k];
                    let wk = q_weight_tree[k];
                    for i in ar.clone() {
                        let d = p - a_pts[i];
                        let d2 = d.norm_sq();
                        if d2 > 0.0 {
                            acc.atom_s[i] += wk * d.dot(m) * K::integrand::<M>(d2);
                        }
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
    /// entry's tree range (the flat layout of
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
            visit(num_nodes + n.begin as usize..num_nodes + n.end as usize);
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows.memory_bytes() + self.certs.capacity() * std::mem::size_of::<Cert>()
    }

    /// Incrementally repairs the lists after the trees were refitted in
    /// place: checks every sweep certificate against the accumulated
    /// drift, re-sweeps only the rows whose decisions could have flipped,
    /// and splices the regenerated rows into the stored CSRs. With
    /// `drift_tol == 0` the result (CSRs + `leaf_work`) is
    /// **byte-identical** to a from-scratch rebuild on the refitted trees;
    /// a positive tolerance keeps decisions whose margin deficit is within
    /// `drift_tol` Å of drift, trading bounded list staleness for fewer
    /// re-sweeps. Requires cert tracking and an unchanged tree topology.
    pub fn repair(&mut self, sys: &GbSystem, drift_tol: f64, scratch: &mut ListScratch)
        -> RepairStats {
        self.try_repair(sys, drift_tol, scratch, f64::INFINITY)
            .expect("unbounded repair cannot bail")
    }

    /// [`BornLists::repair`] with a density bail-out: returns `None` —
    /// leaving the lists untouched apart from refreshed cert budgets —
    /// when more than `bail_tripped_fraction` of the certs trip their
    /// drift bound. That dense a drift regime (global motion) re-sweeps
    /// nearly every row anyway, so the caller is better off rebuilding
    /// from scratch, optionally without cert recording.
    pub fn try_repair(
        &mut self,
        sys: &GbSystem,
        drift_tol: f64,
        scratch: &mut ListScratch,
        bail_tripped_fraction: f64,
    ) -> Option<RepairStats> {
        assert!(self.track_certs, "BornLists::repair requires cert tracking");
        let s = BornSweep::new(&sys.ta, &sys.tq, sys.params.radii_mac_threshold());
        let (stats, work) = repair_rows(&s, &mut self.rows, &mut self.certs, scratch, drift_tol,
            bail_tripped_fraction)?;
        if stats.changed {
            self.content_key = OnceLock::new();
        }
        self.build_work = work;
        Some(stats)
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

/// Exact Born-integral sum of one coalesced atom span against one `T_Q`
/// leaf's pre-sliced struct-of-arrays streams. Quadrature leaves hold only
/// a handful of points, so the *atom* dimension is the long one: per
/// q-point, the loop streams the span's SoA coordinates with FMA-fused
/// distance/dot products and a branch-free coincident-point select,
/// autovectorizing over atoms (the per-lane `1/r⁶` divisions pipeline
/// across SIMD lanes instead of serializing per scalar term).
#[allow(clippy::too_many_arguments)]
#[inline]
fn born_span_batched<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    atoms: Range<usize>,
    qx: &[f64],
    qy: &[f64],
    qz: &[f64],
    nx: &[f64],
    ny: &[f64],
    nz: &[f64],
    w: &[f64],
    acc: &mut IntegralAcc,
) {
    let ax = &sys.a_soa.x[atoms.clone()];
    let ay = &sys.a_soa.y[atoms.clone()];
    let az = &sys.a_soa.z[atoms.clone()];
    let out = &mut acc.atom_s[atoms];
    for k in 0..qx.len() {
        let (px, py, pz) = (qx[k], qy[k], qz[k]);
        let (mx, my, mz) = (nx[k], ny[k], nz[k]);
        let wk = w[k];
        for i in 0..out.len() {
            let dx = px - ax[i];
            let dy = py - ay[i];
            let dz = pz - az[i];
            let d2 = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
            let dot = dz.mul_add(mz, dy.mul_add(my, dx * mx));
            // evaluate the integrand at a safe stand-in when d2 == 0 so the
            // masked-out lane never manufactures 0·∞ = NaN
            let d2s = if d2 > 0.0 { d2 } else { 1.0 };
            let t = wk * dot * K::integrand::<M>(d2s);
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
///
/// Cert sensitivity (`δ` = joint drift of `u` and `v`): the MAC margin
/// `d − (r_u+r_v)·mac` moves by ≤ (1+2·mac)δ, padded to (2+2·mac). Leaf
/// `u` visits emit unconditionally and need no certificate.
struct EnergySweep<'a> {
    ta: &'a Octree,
    mac: f64,
    k_leaf: f64,
}

impl<'a> EnergySweep<'a> {
    fn new(ta: &'a Octree, mac: f64) -> EnergySweep<'a> {
        EnergySweep { ta, mac, k_leaf: (2.0 + 2.0 * mac) * CERT_PAD }
    }
}

impl Sweep for EnergySweep<'_> {
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
        mut certs: Option<&mut Vec<Cert>>,
    ) -> f64 {
        let n = t.len();
        let (cx, cy, cz, r) = (&t.cx[..n], &t.cy[..n], &t.cz[..n], &t.r[..n]);
        let (id, skip, count) = (&t.id[..n], &t.skip[..n], &t.count[..n]);
        let mut visits = 0u64;
        for ord in rows {
            let v_id = self.ta.leaves()[ord];
            let v = self.ta.node(v_id);
            let dv = self.ta.drift(v_id);
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
                let far = d > (r[i] + v.radius) * self.mac;
                if let Some(c) = certs.as_deref_mut() {
                    let (_, allowed) = energy_leaf_branch(r[i], v.radius, d, self.mac, self.k_leaf);
                    let budget = allowed.max(0.0) + self.ta.drift(id[i]) + dv;
                    c.push(Cert::new(id[i], ord, far, budget));
                }
                if far {
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

    fn drift(&self, a: NodeId, row: usize) -> (f64, f64) {
        (self.ta.drift(a), self.ta.drift(self.ta.leaves()[row]))
    }

    fn recheck(&self, a: NodeId, row: usize, far: bool) -> Option<f64> {
        let (u, v) = (self.ta.node(a), self.ta.node(self.ta.leaves()[row]));
        let d = u.centroid.dist(v.centroid);
        let (now, allowed) = energy_leaf_branch(u.radius, v.radius, d, self.mac, self.k_leaf);
        (now == far).then_some(allowed)
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
    /// `0` = the mirror ordinal owns it — skip. Ownership alternates by a
    /// checkerboard rule on the ordinal pair so halving stays balanced
    /// across rank/chunk segments.
    near_w: Vec<u8>,
    /// Work spent constructing the lists: one traversal unit per visited
    /// (node, row) for a full build; for a repaired list, the re-swept
    /// rows' units.
    pub build_work: f64,
    /// Sweep-decision certificates (present iff `track_certs`).
    certs: Vec<Cert>,
    /// Whether rebuilds record certificates (enables [`EnergyLists::repair`]).
    track_certs: bool,
    /// Lazily folded CSR key (see [`lazy_key`]).
    content_key: OnceLock<u64>,
    /// Certificate count of the last *full* build — the overflow baseline.
    full_build_certs: usize,
}

/// Structural equality ignores the incremental-repair bookkeeping, exactly
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
            certs: Vec::new(),
            track_certs: false,
            content_key: OnceLock::new(),
            full_build_certs: 0,
        }
    }

    /// Enables (or disables) certificate recording on subsequent rebuilds
    /// (see [`BornLists::set_cert_tracking`]).
    pub fn set_cert_tracking(&mut self, on: bool) {
        self.track_certs = on;
    }

    /// Whether rebuilds record repair certificates.
    #[inline]
    pub fn tracks_certs(&self) -> bool {
        self.track_certs
    }

    /// Whether the resident lists carry repair certificates (see
    /// [`BornLists::has_certs`]).
    #[inline]
    pub fn has_certs(&self) -> bool {
        !self.certs.is_empty()
    }

    /// Fold of the CSR structure (0 = never built).
    #[inline]
    pub fn content_key(&self) -> u64 {
        lazy_key(&self.rows, &self.content_key)
    }

    /// True when repair-appended certificates outnumber a full build's by
    /// more than 2× (see [`BornLists::cert_overflow`]).
    pub fn cert_overflow(&self) -> bool {
        self.full_build_certs > 0 && self.certs.len() > 2 * self.full_build_certs
    }

    /// Sweeps every `T_A` leaf's row serially; the rows stand for the `V`
    /// leaves of Fig. 3.
    pub fn build(sys: &GbSystem) -> EnergyLists {
        Self::build_tasks(sys, 1)
    }

    /// Like [`EnergyLists::build`], split into `tasks` contiguous row
    /// ranges swept as `rayon::scope` tasks; byte-identical for any task
    /// count or pool size.
    pub fn build_tasks(sys: &GbSystem, tasks: usize) -> EnergyLists {
        let mut lists = EnergyLists::empty();
        let mut scratch = ListScratch::new();
        lists.rebuild(sys, tasks, &mut scratch);
        lists.rows.shrink_to_fit();
        lists
    }

    /// In-place [`EnergyLists::build_tasks`] reusing this value's buffers
    /// and `scratch` — allocation-free once warmed (with `tasks == 1`).
    pub fn rebuild(&mut self, sys: &GbSystem, tasks: usize, scratch: &mut ListScratch) {
        self.rebuild_with_task_floor(sys, tasks, scratch, MIN_TASK_LEAVES);
    }

    /// [`EnergyLists::rebuild`] with an explicit per-task row floor (see
    /// [`BornLists::rebuild_with_task_floor`]).
    pub(crate) fn rebuild_with_task_floor(
        &mut self,
        sys: &GbSystem,
        tasks: usize,
        scratch: &mut ListScratch,
        floor: usize,
    ) {
        self.rows.clear();
        self.certs.clear();
        self.content_key = OnceLock::new();
        let s = EnergySweep::new(&sys.ta, sys.params.energy_mac_factor());
        let certs = self.track_certs.then_some(&mut self.certs);
        self.build_work = sweep_all(&s, tasks, floor, scratch, &mut self.rows, certs);
        self.full_build_certs = self.certs.len();
        self.annotate_near_ownership(&sys.ta, scratch);
    }

    /// Annotates symmetric-pair ownership: a leaf pair listed by both
    /// ordinals is evaluated once, doubled, by exactly one of them.
    /// Rows are ascending by partner ordinal and driving ordinals are
    /// visited in increasing order, so each row's "is `ord` one of my
    /// partners?" queries arrive with `ord` increasing and a per-row
    /// cursor into the row's upper half answers every query with a
    /// monotone advance — O(near) total, no per-entry binary search.
    /// A pure function of the near CSR, so re-running it after a repair
    /// splice reproduces a rebuild's weights byte for byte.
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
                    // checkerboard owner: even ordinal sum → smaller
                    // ordinal owns, odd → larger; `ord > uo` here, so the
                    // driving row owns exactly the odd sums
                    if (uo + ord) % 2 == 1 {
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

    /// Incrementally repairs the lists after an in-place tree refit — the
    /// energy-phase mirror of [`BornLists::repair`]: certificate check,
    /// re-sweeps of invalidated rows, CSR splice, then the ownership
    /// annotation re-run in full (ownership is a global property — one
    /// changed row can flip its mirror rows' weights). Byte-identical to a
    /// rebuild at `drift_tol == 0`.
    pub fn repair(&mut self, sys: &GbSystem, drift_tol: f64, scratch: &mut ListScratch)
        -> RepairStats {
        self.try_repair(sys, drift_tol, scratch, f64::INFINITY)
            .expect("unbounded repair cannot bail")
    }

    /// [`EnergyLists::repair`] with the same density bail-out contract as
    /// [`BornLists::try_repair`]: `None` means more than
    /// `bail_tripped_fraction` of the certs tripped their drift bound and
    /// the caller should rebuild instead.
    pub fn try_repair(
        &mut self,
        sys: &GbSystem,
        drift_tol: f64,
        scratch: &mut ListScratch,
        bail_tripped_fraction: f64,
    ) -> Option<RepairStats> {
        assert!(self.track_certs, "EnergyLists::repair requires cert tracking");
        let s = EnergySweep::new(&sys.ta, sys.params.energy_mac_factor());
        let (stats, work) = repair_rows(&s, &mut self.rows, &mut self.certs, scratch, drift_tol,
            bail_tripped_fraction)?;
        if stats.rows_rewalked > 0 {
            self.annotate_near_ownership(&sys.ta, scratch);
        }
        if stats.changed {
            self.content_key = OnceLock::new();
        }
        self.build_work = work;
        Some(stats)
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
    /// pass-split kernels: the near list as one gathered SoA tile
    /// ([`EnergyLists::near_tile_raw`]), the far list as one class-batched
    /// bin-pair tile ([`EnergyLists::far_tile_raw`]). Returns
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

    /// Executes a contiguous run of driving-leaf ordinals, summing raw
    /// energies in ordinal order (the runners' shared reduction order).
    pub fn execute_leaves<M: MathMode>(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        radii_tree: &[f64],
        ords: Range<usize>,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let mut raw = 0.0;
        let mut work = 0.0;
        for ord in ords {
            let (r, w) = self.execute_leaf::<M>(sys, bins, radii_tree, ord, scratch);
            raw += r;
            work += w;
        }
        (raw, work)
    }

    /// Far field only, over a run of ordinals — the bench's isolated
    /// `far_exec_ms` timing. Work is the far share of the billed units.
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

    /// The near list of ordinal `ord` as one gathered SoA tile: every owned
    /// partner atom's coordinates, Born radius and *weighted* charge
    /// (`2q` for owned symmetric pairs — exact, a power-of-two scale) are
    /// streamed into contiguous scratch, then each `v` atom runs the
    /// pass-split kernel over the whole tile: distances + `−r²/(4RiRj)`,
    /// one [`MathMode::exp_block`], the `rsqrt(r² + RiRj·e)` finish, and
    /// the strided-8 weighted dot. Every arithmetic op mirrors the scalar
    /// `inv_f_gb` sequence, and every pass is plain Rust, so the result
    /// does not depend on the host's vector unit.
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
        for k in self.rows.near_off[ord]..self.rows.near_off[ord + 1] {
            let w = self.near_w[k];
            if w == 0 {
                continue; // mirror ordinal owns this symmetric pair
            }
            let n = sys.ta.node(self.rows.near[k]);
            let r = n.begin as usize..n.end as usize;
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
        ensure_len(&mut scratch.rsq, t);
        ensure_len(&mut scratch.rr, t);
        ensure_len(&mut scratch.arg, t);
        ensure_len(&mut scratch.ex, t);
        // pre-sliced to exactly `t` so the pass loops carry no bounds
        // checks (checked indexing defeats autovectorization)
        let tx = &scratch.tx[..t];
        let ty = &scratch.ty[..t];
        let tz = &scratch.tz[..t];
        let tq = &scratch.tq[..t];
        let tr = &scratch.tr[..t];
        let rsq = &mut scratch.rsq[..t];
        let rr = &mut scratch.rr[..t];
        let arg = &mut scratch.arg[..t];
        let ex = &mut scratch.ex[..t];
        let mut raw = 0.0;
        for vi in v.range() {
            let (px, py, pz) = (sys.a_soa.x[vi], sys.a_soa.y[vi], sys.a_soa.z[vi]);
            let qv = sys.charge_tree[vi];
            let rv = radii_tree[vi];
            for i in 0..t {
                let dx = tx[i] - px;
                let dy = ty[i] - py;
                let dz = tz[i] - pz;
                rsq[i] = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
                rr[i] = rv * tr[i];
                arg[i] = (-rsq[i]) / (4.0 * rr[i]);
            }
            M::exp_block(arg, ex);
            for i in 0..t {
                ex[i] = M::rsqrt(rsq[i] + rr[i] * ex[i]);
            }
            raw += qv * dot8(tq, ex);
        }
        (raw, work)
    }

    /// The far list of ordinal `ord` as one flat bin-pair tile, pairs
    /// batched by nonzero-bin-count class: a staging pass records each far
    /// partner's `d²` and class (its nonzero-bin count), a stable counting
    /// sort groups same-shaped contractions adjacent, then each pair emits
    /// its `(d², R_iR_j, q_i q_j)` terms — the full `K²` grid reading the
    /// hoisted [`ChargeBins::pair_rr_table`], or, when the `s = i+j`
    /// span is narrower than the grid, the length-`(2K−1)` convolution
    /// over [`ChargeBins::conv_radius_table`] (the geometric representative
    /// makes every split of `s` equal to ulps). One pass-split sweep then
    /// evaluates the whole tile with full ZMM lanes and a single tail.
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
        // staging: distance + class per far pair, then a stable counting
        // sort by class so equal-shaped contractions sit adjacent in the
        // tile (dense full-lane runs, masked tail only at the very end)
        let nf = fars.len();
        scratch.pair_d2.clear();
        scratch.pair_cls.clear();
        for &u_id in fars {
            let u = sys.ta.node(u_id);
            let d = u.centroid.dist(v.centroid);
            scratch.pair_d2.push(d * d);
            let un = bins.num_nonzero(u_id);
            work += (un * vn) as f64;
            scratch.pair_cls.push(un as u32);
        }
        let ncls = bins.num_bins + 2;
        scratch.cls_cursor.clear();
        scratch.cls_cursor.resize(ncls, 0u32);
        for &c in &scratch.pair_cls {
            scratch.cls_cursor[c as usize + 1] += 1;
        }
        for i in 1..ncls {
            scratch.cls_cursor[i] += scratch.cls_cursor[i - 1];
        }
        ensure_len_u32(&mut scratch.pair_order, nf);
        for k in 0..nf {
            let c = scratch.pair_cls[k] as usize;
            scratch.pair_order[scratch.cls_cursor[c] as usize] = k as u32;
            scratch.cls_cursor[c] += 1;
        }
        // emission: one flat (d², RiRj, weight) SoA tile over all pairs
        let kbins = bins.num_bins;
        let pair_rr = bins.pair_rr_table();
        let conv_radius = bins.conv_radius_table();
        ensure_len(&mut scratch.conv_w, conv_radius.len());
        scratch.fd2.clear();
        scratch.frr.clear();
        scratch.fw.clear();
        for &pk in &scratch.pair_order[..nf] {
            let k = pk as usize;
            let un = scratch.pair_cls[k] as usize;
            if un == 0 {
                continue;
            }
            let u_id = fars[k];
            let d_sq = scratch.pair_d2[k];
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
        // pass-split evaluation over the whole tile (pre-sliced so the
        // loops are bounds-check-free and autovectorize)
        let t = scratch.fd2.len();
        ensure_len(&mut scratch.arg, t);
        ensure_len(&mut scratch.ex, t);
        let fd2 = &scratch.fd2[..t];
        let frr = &scratch.frr[..t];
        let arg = &mut scratch.arg[..t];
        let ex = &mut scratch.ex[..t];
        for i in 0..t {
            arg[i] = (-fd2[i]) / (4.0 * frr[i]);
        }
        M::exp_block(arg, ex);
        for i in 0..t {
            ex[i] = M::rsqrt(fd2[i] + frr[i] * ex[i]);
        }
        (dot8(&scratch.fw[..t], ex), work)
    }

    /// Replays the far staging decisions without evaluating — the bench's
    /// per-class observability columns.
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
        self.rows.memory_bytes()
            + self.near_w.capacity() * std::mem::size_of::<u8>()
            + self.certs.capacity() * std::mem::size_of::<Cert>()
    }
}

/// Reusable scratch of the tiled energy kernels: the gathered near SoA
/// tile, the shared pass buffers, the far bin-pair tile, and the far
/// staging arrays. Grow-only — buffers warm to the largest tile seen and
/// steady-state execution allocates nothing. One per executing worker
/// (kept in [`crate::arena::Workspace`] / its chunk slots).
#[derive(Clone, Debug, Default)]
pub struct EnergyExecScratch {
    /// Gathered near-partner atoms: coordinates, weighted charge, radius.
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    tq: Vec<f64>,
    tr: Vec<f64>,
    /// Pass buffers shared by the near and far kernels: squared distance,
    /// radius product, exp argument, exp result (overwritten by `1/f_GB`).
    rsq: Vec<f64>,
    rr: Vec<f64>,
    arg: Vec<f64>,
    ex: Vec<f64>,
    /// Far bin-pair tile: squared centroid distance, radius product
    /// (table-read), charge-product weight.
    fd2: Vec<f64>,
    frr: Vec<f64>,
    fw: Vec<f64>,
    /// Far staging: per-pair squared distance and class (nonzero-bin
    /// count), counting-sort cursors, class-sorted pair order.
    pair_d2: Vec<f64>,
    pair_cls: Vec<u32>,
    cls_cursor: Vec<u32>,
    pair_order: Vec<u32>,
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
            + self.rsq.capacity()
            + self.rr.capacity()
            + self.arg.capacity()
            + self.ex.capacity()
            + self.fd2.capacity()
            + self.frr.capacity()
            + self.fw.capacity()
            + self.pair_d2.capacity()
            + self.conv_w.capacity())
            * std::mem::size_of::<f64>()
            + (self.pair_cls.capacity()
                + self.cls_cursor.capacity()
                + self.pair_order.capacity())
                * std::mem::size_of::<u32>()
    }
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

#[inline]
fn ensure_len_u32(v: &mut Vec<u32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0);
    }
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
    use crate::fastmath::{ApproxMath, ExactMath};
    use crate::gbmath::{finalize_energy, inv_f_gb, R4, R6};
    use crate::integrals::{accumulate_qleaf, push_integrals_to_atoms};
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
                works.push(accumulate_qleaf::<ExactMath, R6>(&sys, q, &mut acc_t, &mut stack));
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
            accumulate_qleaf::<ExactMath, R6>(sys, q, &mut acc, &mut stack);
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
        // partition contract, which halving must not break
        let sys = system(300);
        let (radii_tree, bins) = radii_and_bins(&sys);
        let lists = EnergyLists::build(&sys);
        let n = lists.num_vleaves();
        let mut scratch = EnergyExecScratch::new();
        let (raw_whole, w_whole) =
            lists.execute_leaves::<ExactMath>(&sys, &bins, &radii_tree, 0..n, &mut scratch);
        let costs = lists.leaf_costs(&sys, &bins);
        for p in [2usize, 3, 5] {
            let mut raw = 0.0;
            let mut w = 0.0;
            for seg in crate::workdiv::work_balanced_segments(&costs, p) {
                let mut local = EnergyExecScratch::new();
                let (r, dw) =
                    lists.execute_leaves::<ExactMath>(&sys, &bins, &radii_tree, seg, &mut local);
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
    fn approximate_math_paths_agree_too() {
        let sys = system(200);
        let lists = BornLists::build(&sys);
        let mut acc_t = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<ApproxMath, R4>(&sys, q, &mut acc_t, &mut stack);
        }
        let mut acc_l = IntegralAcc::zeros(&sys);
        lists.execute_range::<ApproxMath, R4>(&sys, 0..lists.num_qleaves(), &mut acc_l);
        for (x, y) in acc_t.atom_s.iter().zip(&acc_l.atom_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
        for (x, y) in acc_t.node_s.iter().zip(&acc_l.node_s) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        // floor == 1 forces real multi-task splits at these sizes (the
        // production MIN_TASK_LEAVES floor would keep them serial)
        for n in [1usize, 9, 350] {
            let sys = system(n);
            let b1 = BornLists::build(&sys);
            let e1 = EnergyLists::build(&sys);
            for tasks in [2usize, 3, 7, 64] {
                let mut bt = BornLists::empty();
                let mut scratch = ListScratch::new();
                bt.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
                assert_eq!(b1, bt, "n={n} tasks={tasks}: born lists");
                for (a, b) in b1.leaf_work().iter().zip(bt.leaf_work()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} tasks={tasks}");
                }
                assert_eq!(b1.build_work.to_bits(), bt.build_work.to_bits());
                let mut et = EnergyLists::empty();
                et.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
                assert_eq!(e1, et, "n={n} tasks={tasks}: energy lists");
                assert_eq!(e1.build_work.to_bits(), et.build_work.to_bits());
            }
        }
    }

    #[test]
    fn task_floor_caps_split_counts() {
        // the production floor keeps small builds serial (the measured
        // win/lose boundary), while byte-identity makes it purely a
        // scheduling decision: floored and unfloored builds agree
        let sys = system(350);
        let mut scratch = ListScratch::new();
        let mut floored = EnergyLists::empty();
        floored.rebuild(&sys, 64, &mut scratch);
        let mut split = EnergyLists::empty();
        split.rebuild_with_task_floor(&sys, 64, &mut scratch, 1);
        assert_eq!(floored, split);
        assert!(sys.ta.num_leaves() < MIN_TASK_LEAVES);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        // grow, shrink, regrow through one scratch + one lists slot
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        let mut energy = EnergyLists::empty();
        for (n, tasks) in [(120usize, 2usize), (350, 3), (60, 1), (350, 5)] {
            let sys = system(n);
            born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_eq!(born, BornLists::build(&sys), "n={n} tasks={tasks}");
            energy.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_eq!(energy, EnergyLists::build(&sys), "n={n} tasks={tasks}");
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
        let expect = rows_bytes(&b.rows) + b.certs.capacity() * std::mem::size_of::<Cert>();
        assert_eq!(b.memory_bytes(), expect);
        assert!(b.memory_bytes() > 0);
        let e = EnergyLists::build(&sys);
        let expect = rows_bytes(&e.rows)
            + e.near_w.capacity() * std::mem::size_of::<u8>()
            + e.certs.capacity() * std::mem::size_of::<Cert>();
        assert_eq!(e.memory_bytes(), expect);
        // scratch reports the table + per-task buffers + repair buffers +
        // ownership arrays
        let mut scratch = ListScratch::new();
        let mut lists = BornLists::empty();
        lists.rebuild_with_task_floor(&sys, 3, &mut scratch, 1);
        let t = &scratch.table;
        let expect = (t.cx.capacity() + t.cy.capacity() + t.cz.capacity() + t.r.capacity())
            * std::mem::size_of::<f64>()
            + (t.id.capacity() + t.skip.capacity() + t.count.capacity() + t.size.capacity()
                + t.stack.capacity())
                * std::mem::size_of::<u32>()
            + scratch
                .segs
                .iter()
                .map(|s| {
                    s.mask.capacity()
                        + rows_bytes(&s.rows)
                        + s.certs.capacity() * std::mem::size_of::<Cert>()
                })
                .sum::<usize>()
            + scratch.segs.capacity() * std::mem::size_of::<TaskSeg>()
            + scratch.bad.capacity()
            + scratch.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + rows_bytes(&scratch.rows2)
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

    /// Evaluates a staged `(d², RiRj, weight)` tile through the pass-split
    /// microkernel — the in-process mirror of what
    /// `far_tile_raw::<ExactMath>` runs.
    fn eval_tile(fd2: &[f64], frr: &[f64], fw: &[f64]) -> f64 {
        let t = fd2.len();
        let mut arg = vec![0.0; t];
        let mut ex = vec![0.0; t];
        for i in 0..t {
            arg[i] = (-fd2[i]) / (4.0 * frr[i]);
        }
        ExactMath::exp_block(&arg, &mut ex);
        for i in 0..t {
            ex[i] = ExactMath::rsqrt(fd2[i] + frr[i] * ex[i]);
        }
        dot8(fw, &ex)
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

    // -- incremental repair ------------------------------------------------

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

    fn assert_born_identical(repaired: &BornLists, rebuilt: &BornLists, tag: &str) {
        assert_eq!(repaired.far_csr(), rebuilt.far_csr(), "{tag}: far CSR");
        assert_eq!(repaired.near_csr(), rebuilt.near_csr(), "{tag}: near CSR");
        assert_eq!(repaired.leaf_work(), rebuilt.leaf_work(), "{tag}: leaf_work");
        assert_eq!(repaired.content_key(), rebuilt.content_key(), "{tag}: content key");
    }

    fn assert_energy_identical(repaired: &EnergyLists, rebuilt: &EnergyLists, tag: &str) {
        assert_eq!(repaired.near_csr(), rebuilt.near_csr(), "{tag}: near CSR");
        assert_eq!(repaired.far_csr(), rebuilt.far_csr(), "{tag}: far CSR");
        assert_eq!(
            repaired.step_and_near_work(),
            rebuilt.step_and_near_work(),
            "{tag}: work arrays"
        );
        assert_eq!(repaired.near_w, rebuilt.near_w, "{tag}: ownership weights");
        assert_eq!(repaired.content_key(), rebuilt.content_key(), "{tag}: content key");
    }

    #[test]
    fn exact_repair_is_byte_identical_to_rebuild() {
        // amplitudes spanning "almost nothing flips" to "lots flips",
        // across task counts, chained over consecutive frames, plus a
        // partial-motion frame (only every 7th point moves)
        for &(amp, tasks) in
            &[(0.005f64, 1usize), (0.005, 3), (0.05, 1), (0.05, 3), (0.3, 1), (0.3, 3)]
        {
            let mut sys = system(260);
            let mut scratch = ListScratch::new();
            let mut born = BornLists::empty();
            born.set_cert_tracking(true);
            born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            let mut energy = EnergyLists::empty();
            energy.set_cert_tracking(true);
            energy.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);

            for (frame, stride) in [(0u64, 1usize), (1, 1), (2, 7)] {
                jitter_tree(&mut sys.ta, amp, 100 + frame, stride);
                jitter_tree(&mut sys.tq, amp, 200 + frame, stride);
                let bs = born.repair(&sys, 0.0, &mut scratch);
                let es = energy.repair(&sys, 0.0, &mut scratch);
                let tag = format!("amp={amp} tasks={tasks} frame={frame}");
                let mut scratch2 = ListScratch::new();
                let mut born2 = BornLists::empty();
                born2.set_cert_tracking(true);
                born2.rebuild_with_task_floor(&sys, tasks, &mut scratch2, 1);
                let mut energy2 = EnergyLists::empty();
                energy2.set_cert_tracking(true);
                energy2.rebuild_with_task_floor(&sys, tasks, &mut scratch2, 1);
                assert_born_identical(&born, &born2, &tag);
                assert_energy_identical(&energy, &energy2, &tag);
                assert!(bs.rows_rewalked <= bs.rows_total, "{tag}");
                assert!(es.rows_rewalked <= es.rows_total, "{tag}");
                // the incremental walk must undercut the full rebuild
                if bs.rows_rewalked < bs.rows_total {
                    assert!(born.build_work < born2.build_work, "{tag}: born walk savings");
                }
            }
        }
    }

    #[test]
    fn identity_refit_repairs_for_free() {
        let mut sys = system(260);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        born.set_cert_tracking(true);
        born.rebuild(&sys, 1, &mut scratch);
        let mut energy = EnergyLists::empty();
        energy.set_cert_tracking(true);
        energy.rebuild(&sys, 1, &mut scratch);
        let (bk, ek) = (born.content_key(), energy.content_key());
        let before_b = born.clone();
        let before_e = energy.clone();

        // refit with unchanged positions: no drift, no violated certs
        let pa = original_positions(&sys.ta);
        let pq = original_positions(&sys.tq);
        sys.ta.refit(&pa);
        sys.tq.refit(&pq);
        let bs = born.repair(&sys, 0.0, &mut scratch);
        let es = energy.repair(&sys, 0.0, &mut scratch);
        for s in [bs, es] {
            assert!(s.certs_checked > 0);
            assert_eq!(s.certs_violated, 0);
            assert_eq!(s.rows_rewalked, 0);
            assert!(!s.changed);
            assert_eq!(s.rewalk_fraction(), 0.0);
        }
        assert_eq!(born.build_work, 0.0);
        assert_eq!(energy.build_work, 0.0);
        assert_eq!(born.content_key(), bk);
        assert_eq!(energy.content_key(), ek);
        // lists untouched except build_work (compare structure directly)
        assert_eq!(born.far_csr(), before_b.far_csr());
        assert_eq!(born.near_csr(), before_b.near_csr());
        assert_eq!(energy.near_csr(), before_e.near_csr());
        assert_eq!(energy.near_w, before_e.near_w);
    }

    #[test]
    fn slack_tolerance_trades_rewalks_monotonically() {
        // larger drift_tol must never re-walk more rows (deterministic
        // certificate arithmetic ⇒ the violated set shrinks monotonically)
        let mut sys = system(300);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        born.set_cert_tracking(true);
        born.rebuild(&sys, 1, &mut scratch);
        let mut energy = EnergyLists::empty();
        energy.set_cert_tracking(true);
        energy.rebuild(&sys, 1, &mut scratch);
        jitter_tree(&mut sys.ta, 0.05, 9, 1);
        jitter_tree(&mut sys.tq, 0.05, 10, 1);

        let mut last_b = usize::MAX;
        let mut last_e = usize::MAX;
        for tol in [0.0, 0.1, 0.5, 2.0] {
            let mut b = born.clone();
            let mut e = energy.clone();
            let bs = b.repair(&sys, tol, &mut scratch);
            let es = e.repair(&sys, tol, &mut scratch);
            assert!(bs.rows_rewalked <= last_b, "tol={tol}: born rewalks grew");
            assert!(es.rows_rewalked <= last_e, "tol={tol}: energy rewalks grew");
            last_b = bs.rows_rewalked;
            last_e = es.rows_rewalked;
        }
        // a generous tolerance on a small jitter must accept nearly all
        assert!(last_b == 0 && last_e == 0, "tol=2.0 still re-walked rows");
    }

    #[test]
    fn cert_tracking_does_not_change_lists() {
        // recording certificates must leave every list byte untouched —
        // the margins are computed beside the original comparisons, never
        // instead of them
        let sys = system(300);
        let mut scratch = ListScratch::new();
        for tasks in [1usize, 4] {
            let mut plain_b = BornLists::empty();
            plain_b.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            let mut tracked_b = BornLists::empty();
            tracked_b.set_cert_tracking(true);
            tracked_b.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_eq!(plain_b, tracked_b, "tasks={tasks}");
            assert_eq!(plain_b.content_key(), tracked_b.content_key());
            assert!(plain_b.certs.is_empty());
            assert!(!tracked_b.certs.is_empty());
            assert!(!tracked_b.cert_overflow());

            let mut plain_e = EnergyLists::empty();
            plain_e.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            let mut tracked_e = EnergyLists::empty();
            tracked_e.set_cert_tracking(true);
            tracked_e.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_eq!(plain_e, tracked_e, "tasks={tasks}");
            assert_eq!(plain_e.content_key(), tracked_e.content_key());
            assert!(plain_e.certs.is_empty() && !tracked_e.certs.is_empty());
        }
    }

    #[test]
    fn content_key_is_folded_on_first_request_only() {
        // rebuilds and changing repairs leave the key unfolded (the
        // serial frame path never asks); the first request folds exactly
        // the CSR arrays
        let mut sys = system(300);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        assert_eq!(born.content_key(), 0, "never built");
        born.set_cert_tracking(true);
        born.rebuild(&sys, 1, &mut scratch);
        let mut energy = EnergyLists::empty();
        energy.set_cert_tracking(true);
        energy.rebuild(&sys, 1, &mut scratch);
        assert!(born.content_key.get().is_none() && energy.content_key.get().is_none());
        assert_eq!(born.content_key(), born.rows.fold_key());
        assert_eq!(energy.content_key(), energy.rows.fold_key());
        assert_ne!(born.content_key(), energy.content_key());
        jitter_tree(&mut sys.ta, 0.3, 41, 1);
        jitter_tree(&mut sys.tq, 0.3, 42, 1);
        assert!(born.repair(&sys, 0.0, &mut scratch).changed);
        assert!(born.content_key.get().is_none());
        assert_eq!(born.content_key(), BornLists::build(&sys).content_key());
    }

    #[test]
    fn repaired_lists_execute_to_identical_integrals() {
        // end-to-end: integrals off a repaired list are bit-identical to
        // integrals off freshly rebuilt lists (same refitted system)
        let mut sys = system(300);
        let mut scratch = ListScratch::new();
        let mut born = BornLists::empty();
        born.set_cert_tracking(true);
        born.rebuild(&sys, 1, &mut scratch);
        jitter_tree(&mut sys.ta, 0.05, 33, 1);
        jitter_tree(&mut sys.tq, 0.05, 34, 1);
        born.repair(&sys, 0.0, &mut scratch);
        let fresh = BornLists::build(&sys);
        let mut acc_r = IntegralAcc::zeros(&sys);
        let mut acc_f = IntegralAcc::zeros(&sys);
        born.execute_range::<ExactMath, R6>(&sys, 0..born.num_qleaves(), &mut acc_r);
        fresh.execute_range::<ExactMath, R6>(&sys, 0..fresh.num_qleaves(), &mut acc_f);
        for (x, y) in acc_r.node_s.iter().zip(&acc_f.node_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in acc_r.atom_s.iter().zip(&acc_f.atom_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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

    /// A ligand system posed by a rigid rotation + shift, as the docking
    /// path sees it: the transformed trees and rotated normals.
    struct Posed {
        sys: GbSystem,
        ta: Octree,
        tq: Octree,
        q_normals: Vec<Vec3>,
        q_normal_tree: Vec<Vec3>,
    }

    fn posed_ligand(n: usize, seed: u64, shift: Vec3) -> Posed {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let pose = gb_geom::RigidTransform {
            rotation: gb_geom::Mat3::rotation(Vec3::new(0.3, 0.9, 0.1), 0.7),
            translation: shift,
        };
        let rotate = |v: &[Vec3]| v.iter().map(|&n| pose.apply_vector(n)).collect();
        Posed {
            ta: sys.ta.transformed(&pose),
            tq: sys.tq.transformed(&pose),
            q_normals: rotate(&sys.q_normals),
            q_normal_tree: rotate(&sys.q_normal_tree),
            sys,
        }
    }

    #[test]
    fn born_rows_ascend_from_every_walk() {
        let mut sys = system(900);
        let mut scratch = ListScratch::new();
        for tasks in [1usize, 3] {
            let mut born = BornLists::empty();
            born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_rows_ascend(&born, &sys.ta, &format!("rebuild tasks={tasks}"));
        }

        // docking cross lists, both directions
        let lig = posed_ligand(120, 5, Vec3::new(12.0, -4.0, 3.0));
        let threshold = sys.params.radii_mac_threshold();
        let mut cross = BornLists::empty();
        cross.rebuild_cross(&sys.ta, &lig.tq, threshold, &mut scratch);
        assert!(!cross.rows.near.is_empty());
        assert_rows_ascend(&cross, &sys.ta, "cross receptor x ligand");
        cross.rebuild_cross(&lig.ta, &sys.tq, threshold, &mut scratch);
        assert!(!cross.rows.near.is_empty());
        assert_rows_ascend(&cross, &lig.ta, "cross ligand x receptor");

        // exact-mode repaired frames (the re-walked rows are spliced in)
        let mut born = BornLists::empty();
        born.set_cert_tracking(true);
        born.rebuild(&sys, 1, &mut scratch);
        for (frame, stride) in [(0u64, 1usize), (1, 7)] {
            jitter_tree(&mut sys.ta, 0.05, 300 + frame, stride);
            jitter_tree(&mut sys.tq, 0.05, 400 + frame, stride);
            let stats = born.repair(&sys, 0.0, &mut scratch);
            assert!(stats.rows_rewalked > 0, "frame {frame}: nothing re-walked");
            assert_rows_ascend(&born, &sys.ta, &format!("repair frame={frame}"));
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
    /// entry, no coalescing. Far terms are added exactly as the executors do.
    fn execute_per_entry(lists: &BornLists, sys: &GbSystem, acc: &mut IntegralAcc) {
        for ord in 0..lists.num_qleaves() {
            let qn = sys.tq.node(sys.tq.leaves()[ord]);
            let q_agg = sys.q_normals[sys.tq.leaves()[ord] as usize];
            for &a_id in lists.rows.far_row(ord) {
                let delta = qn.centroid - sys.ta.node(a_id).centroid;
                acc.node_s[a_id as usize] +=
                    q_agg.dot(delta) * R6::integrand::<ExactMath>(delta.norm_sq());
            }
            let qr = qn.range();
            for &a_id in lists.rows.near_row(ord) {
                born_span_batched::<ExactMath, R6>(
                    sys,
                    sys.ta.node(a_id).range(),
                    &sys.q_soa.x[qr.clone()],
                    &sys.q_soa.y[qr.clone()],
                    &sys.q_soa.z[qr.clone()],
                    &sys.q_normal_soa.x[qr.clone()],
                    &sys.q_normal_soa.y[qr.clone()],
                    &sys.q_normal_soa.z[qr.clone()],
                    &sys.q_weight_tree[qr.clone()],
                    acc,
                );
            }
        }
    }

    /// Per-entry reference of [`BornLists::execute_cross`]: one scalar
    /// loop nest per near entry, no coalescing.
    #[allow(clippy::too_many_arguments)]
    fn execute_cross_per_entry(
        lists: &BornLists,
        ta: &Octree,
        tq: &Octree,
        q_agg_normals: &[Vec3],
        q_normal_tree: &[Vec3],
        q_weight_tree: &[f64],
        acc: &mut IntegralAcc,
    ) {
        for ord in 0..lists.num_qleaves() {
            let qn = tq.node(tq.leaves()[ord]);
            let q_agg = q_agg_normals[tq.leaves()[ord] as usize];
            for &a_id in lists.rows.far_row(ord) {
                let delta = qn.centroid - ta.node(a_id).centroid;
                acc.node_s[a_id as usize] +=
                    q_agg.dot(delta) * R6::integrand::<ExactMath>(delta.norm_sq());
            }
            for &a_id in lists.rows.near_row(ord) {
                for k in qn.range() {
                    for i in ta.node(a_id).range() {
                        let d = tq.points()[k] - ta.points()[i];
                        let d2 = d.norm_sq();
                        if d2 > 0.0 {
                            acc.atom_s[i] += q_weight_tree[k]
                                * d.dot(q_normal_tree[k])
                                * R6::integrand::<ExactMath>(d2);
                        }
                    }
                }
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
        execute_per_entry(&born, &sys, &mut reference);
        assert_acc_bits(&merged, &reference, "own surface");

        // docking: receptor atoms under the posed ligand's surface, and
        // the posed ligand's atoms under the receptor's surface
        let lig = posed_ligand(150, 6, Vec3::new(10.0, 2.0, -5.0));
        let (agg, normals) = (&lig.q_normals, &lig.q_normal_tree);
        let weights = &lig.sys.q_weight_tree;
        assert_cross_matches_reference(&sys.ta, &lig.tq, agg, normals, weights, "rec x lig");
        let (agg, normals, weights) = (&sys.q_normals, &sys.q_normal_tree, &sys.q_weight_tree);
        assert_cross_matches_reference(&lig.ta, &sys.tq, agg, normals, weights, "lig x rec");
    }

    /// Builds the cross lists of `(ta, tq)` and checks [`BornLists::execute_cross`]
    /// against the per-entry reference, bit for bit.
    fn assert_cross_matches_reference(
        ta: &Octree,
        tq: &Octree,
        agg: &[Vec3],
        normals: &[Vec3],
        weights: &[f64],
        tag: &str,
    ) {
        let mut cross = BornLists::empty();
        let threshold = GbParams::default().radii_mac_threshold();
        cross.rebuild_cross(ta, tq, threshold, &mut ListScratch::new());
        let zeros = || IntegralAcc {
            node_s: vec![0.0; ta.num_nodes()],
            atom_s: vec![0.0; ta.num_points()],
        };
        let mut merged = zeros();
        let ords = 0..cross.num_qleaves();
        cross.execute_cross::<ExactMath, R6>(ta, tq, agg, normals, weights, ords, &mut merged);
        let mut reference = zeros();
        execute_cross_per_entry(&cross, ta, tq, agg, normals, weights, &mut reference);
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

    /// `accumulate_qleaf`'s visit sequence for the driving leaf `q_leaf`.
    fn born_oracle(ta: &Octree, tq: &Octree, threshold: f64, q_leaf: NodeId) -> Visit {
        let q = tq.node(q_leaf);
        let mut v = Visit::default();
        let mut stack = if ta.is_empty() { vec![] } else { vec![Octree::ROOT] };
        while let Some(a_id) = stack.pop() {
            v.steps += 1;
            v.work += TRAVERSAL_UNIT;
            let a = ta.node(a_id);
            if well_separated(a.centroid.dist(q.centroid), a.radius, q.radius, threshold) {
                v.far.push(a_id);
                v.work += 1.0;
            } else if a.is_leaf() {
                v.near.push(a_id);
                v.work += (a.count() * q.count()) as f64;
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
    fn assert_born_matches_oracle(lists: &BornLists, ta: &Octree, tq: &Octree, tag: &str) {
        let threshold = GbParams::default().radii_mac_threshold();
        assert_eq!(lists.num_qleaves(), tq.num_leaves(), "{tag}");
        let mut steps = 0u64;
        for (ord, &q) in tq.leaves().iter().enumerate() {
            let v = born_oracle(ta, tq, threshold, q);
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
                let expect = if uo == ord || !mirrored {
                    1
                } else if ((uo + ord) % 2 == 1) == (ord > uo) {
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
            let lig = posed_ligand(120, 5, Vec3::new(12.0, -4.0, 3.0));
            // the oracle replays accumulate_qleaf's tally exactly
            let mut acc = IntegralAcc::zeros(&sys);
            let mut stack = Vec::new();
            for &q in sys.tq.leaves() {
                let w = accumulate_qleaf::<ExactMath, R6>(&sys, q, &mut acc, &mut stack);
                let v = born_oracle(&sys.ta, &sys.tq, threshold, q);
                assert_eq!(w.to_bits(), v.work.to_bits(), "n={n}: oracle vs traversal");
            }
            for tasks in [1usize, 2, 3, 7] {
                let tag = format!("n={n} tasks={tasks}");
                let mut scratch = ListScratch::new();
                let mut born = BornLists::empty();
                born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
                assert_born_matches_oracle(&born, &sys.ta, &sys.tq, &tag);
                for (ta, tq, dir) in
                    [(&sys.ta, &lig.tq, "rec x lig"), (&lig.ta, &sys.tq, "lig x rec")]
                {
                    born.rebuild_sweep(&BornSweep::new(ta, tq, threshold), tasks, &mut scratch, 1);
                    assert_born_matches_oracle(&born, ta, tq, &format!("{tag} {dir}"));
                }
                let mut energy = EnergyLists::empty();
                energy.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
                assert_energy_matches_oracle(&energy, &sys.ta, &tag);
            }
        }
    }

    #[test]
    fn build_work_bills_a_quarter_per_visited_node_row() {
        let sys = system(350);
        let threshold = sys.params.radii_mac_threshold();
        let born_steps: u64 =
            sys.tq.leaves().iter().map(|&q| born_oracle(&sys.ta, &sys.tq, threshold, q).steps).sum();
        for (tracked, tasks) in [(false, 1usize), (true, 1), (false, 3), (true, 3)] {
            let mut scratch = ListScratch::new();
            let mut born = BornLists::empty();
            born.set_cert_tracking(tracked);
            born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            assert_eq!(born.build_work, TRAVERSAL_UNIT * born_steps as f64);
            let mut energy = EnergyLists::empty();
            energy.set_cert_tracking(tracked);
            energy.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
            let (steps, _) = energy.step_and_near_work();
            assert_eq!(energy.build_work, TRAVERSAL_UNIT * steps.iter().sum::<f64>());
        }
    }

    #[test]
    fn tracked_builds_keep_no_cert_copy_in_scratch() {
        // certs are recorded straight into the list (a split build moves
        // its task buffers over), so the scratch footprint cannot tell a
        // tracked build from an untracked one
        let sys = system(350);
        for tasks in [1usize, 3] {
            let footprint = |tracked: bool| {
                let mut scratch = ListScratch::new();
                let mut born = BornLists::empty();
                born.set_cert_tracking(tracked);
                born.rebuild_with_task_floor(&sys, tasks, &mut scratch, 1);
                assert_eq!(born.has_certs(), tracked);
                scratch.memory_bytes()
            };
            assert_eq!(footprint(true), footprint(false), "tasks={tasks}");
        }
    }
}

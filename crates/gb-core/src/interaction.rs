//! Dual-tree interaction lists: the traversal/execution split.
//!
//! The paper's two hot phases are *per-leaf tree traversals*: every `T_Q`
//! leaf walks `T_A` from the root (`APPROX-INTEGRALS`, Fig. 2) and every
//! `T_A` leaf walks `T_A` again (`APPROX-EPOL`, Fig. 3). The traversal
//! *decisions* (well-separated / exact / recurse) depend only on node
//! geometry, so they can be made once for whole groups of driving leaves
//! by a single **dual-tree walk** over node pairs, leaving behind flat
//! interaction lists:
//!
//! * far list — `(a_node, q_leaf)` pairs evaluated through pseudo-particles,
//! * near list — `(a_leaf, q_leaf)` pairs evaluated exactly.
//!
//! Execution then streams the lists with branch-free batched kernels over
//! the struct-of-arrays point mirrors in [`GbSystem`] — no pointer chasing,
//! no per-pair acceptance test, and inner loops the compiler vectorizes.
//!
//! **Semantics are preserved exactly.** The walk only groups leaves when a
//! conservative certificate (triangle inequality plus a `1e-9` relative
//! margin, far larger than f64 rounding) proves every leaf in the group
//! would take the same branch as the original per-leaf traversal; ambiguous
//! pairs descend the driving tree until the group is a single leaf, where
//! the *original floating-point test* decides. Hence the pair sets are
//! identical to the traversal's, far-field terms are evaluated by the same
//! expressions in the same per-accumulator order (fixed list order ⇒ fixed
//! reduction order ⇒ determinism), and the per-leaf work units — replicated
//! via a resolved-pop step count — match the traversal's bit for bit. Only
//! the exact leaf–leaf kernels regroup floating-point sums (four-way
//! accumulators + FMA), a reassociation bounded well below the 1e-12
//! relative band the validation suite checks.

use crate::bins::ChargeBins;
use crate::fastmath::MathMode;
use crate::gbmath::{inv_f_gb, RadiiApprox};
use crate::integrals::{well_separated, IntegralAcc, TRAVERSAL_UNIT};
use crate::simd::SimdLevel;
use crate::system::GbSystem;
use gb_geom::Vec3;
use gb_octree::{LeafSpans, Node, NodeId, Octree};
use std::ops::Range;

/// Relative safety margin of the walk's grouping certificates. Orders of
/// magnitude above f64 rounding error, so a certified decision can never
/// disagree with the per-leaf floating-point test it stands in for; pairs
/// inside the margin band simply descend and decide exactly.
const MARGIN: f64 = 1e-9;

/// Minimum driving leaves per walk task. A split build pays a serial
/// stitch pass over every emitted entry ([`append_csr`]), which the
/// parallel walk must win back; below this per-task size it cannot (the
/// energy build at 20k atoms measured *slower* split than serial), so
/// [`BornLists::rebuild`]/[`EnergyLists::rebuild`] cap the task count.
/// The lists are byte-identical for any task count, so this is purely a
/// scheduling decision.
const MIN_TASK_LEAVES: usize = 2048;

/// Safety pad on every certificate's drift sensitivity: the analytic κ
/// bounds below are exact in real arithmetic, and the pad buys five orders
/// of magnitude more slack than the f64 rounding (and the `MARGIN`-term
/// drift) they ignore. Over-padding only shrinks budgets — more re-walks,
/// never a wrong decision.
const CERT_PAD: f64 = 1.00001;

/// A walk-decision certificate: pop `(a, q)` keeps its recorded branch as
/// long as `ta.drift(a) + tq.drift(q) ≤ budget`, where `budget` folds the
/// decision's allowed drift margin into the trees' accumulated drift at
/// record time. When drift exceeds the budget the branch *may* have
/// flipped; repair re-evaluates the decision predicate at the current
/// geometry and only a confirmed flip invalidates the driving span. The
/// recorded branch lives in the top two bits of `a` (node ids stay far
/// below 2^30) and the span is derived from `q` at check time
/// (topology-stable across refits), so 16 bytes per decided pop suffice.
#[derive(Clone, Copy, Debug)]
struct Cert {
    a_tag: u32,
    q: NodeId,
    budget: f64,
}

impl Cert {
    const TAG_SHIFT: u32 = 30;
    const ID_MASK: u32 = (1 << Self::TAG_SHIFT) - 1;

    #[inline]
    fn new(a: NodeId, q: NodeId, branch: Resolve, budget: f64) -> Cert {
        let tag = match branch {
            Resolve::Far => 0u32,
            Resolve::NearOrDescend => 1,
            Resolve::DescendDriver => 2,
        };
        debug_assert!(a <= Self::ID_MASK);
        Cert { a_tag: a | (tag << Self::TAG_SHIFT), q, budget }
    }

    #[inline]
    fn a(&self) -> NodeId {
        self.a_tag & Self::ID_MASK
    }

    #[inline]
    fn branch(&self) -> Resolve {
        match self.a_tag >> Self::TAG_SHIFT {
            0 => Resolve::Far,
            1 => Resolve::NearOrDescend,
            _ => Resolve::DescendDriver,
        }
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
    /// Certificates whose decision *confirmably* flipped (spans re-walked).
    pub certs_violated: usize,
    /// Driving-leaf rows regenerated by range re-walks.
    pub rows_rewalked: usize,
    /// Total driving-leaf rows.
    pub rows_total: usize,
    /// True when any regenerated row differs from the stored one (the
    /// content key was refolded; structure consumers must invalidate).
    pub changed: bool,
}

impl RepairStats {
    /// Fraction of driving rows the repair re-walked (0 = pure reuse).
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

/// Folds a CSR list pair into a content key: equal keys ⇔ (offsets, ids)
/// byte-equal with overwhelming probability — what lets a no-flip frame
/// prove "structure unchanged" to plan caches in O(1) instead of O(list).
fn fold_csr_key(far_off: &[usize], far: &[NodeId], near_off: &[usize], near: &[NodeId]) -> u64 {
    let mut k = fold(0xC0_17_E4_7D, far_off.len() as u64);
    for &o in far_off.iter().chain(near_off) {
        k = fold(k, o as u64);
    }
    for &id in far.iter().chain(near) {
        k = fold(k, id as u64);
    }
    k.max(1)
}

/// Checks every certificate against the trees' accumulated drift (slack
/// `drift_tol`; 0 = exact). A tripped drift bound is conservative, so the
/// decision predicate is re-evaluated at the *current* geometry via
/// `recheck(a, q, recorded_branch)`: an unchanged branch keeps the cert
/// with a refreshed budget (the returned κ-divided margin), while `None`
/// confirms a flip and invalidates the driving span. Flipped certs — plus
/// every survivor whose span *starts* inside an invalidated region (the
/// range re-walk re-records those) — are dropped. Returns
/// `(checked, rechecked, flipped)` and fills `runs` with the maximal
/// invalid ordinal runs. `cover` is a reusable diff/prefix buffer.
///
/// When more than `bail_after` certs trip their drift bound the scan
/// aborts and returns `None`: drift that dense means the frame moved
/// nearly everything, a regime where re-checking and re-walking costs more
/// than rebuilding from scratch (partially refreshed budgets are still
/// valid certs, so an abort leaves the lists usable).
#[allow(clippy::too_many_arguments)]
fn invalidate_certs(
    certs: &mut Vec<Cert>,
    ta: &Octree,
    tq: &Octree,
    spans: &LeafSpans,
    drift_tol: f64,
    nleaves: usize,
    cover: &mut Vec<i64>,
    runs: &mut Vec<(u32, u32)>,
    bail_after: usize,
    recheck: impl Fn(NodeId, NodeId, Resolve) -> Option<f64>,
) -> Option<(usize, usize, usize)> {
    runs.clear();
    cover.clear();
    cover.resize(nleaves + 1, 0);
    let checked = certs.len();
    let mut rechecked = 0usize;
    let mut flipped = 0usize;
    for c in certs.iter_mut() {
        let (da, dq) = (ta.drift(c.a()), tq.drift(c.q));
        if da + dq > c.budget + drift_tol {
            rechecked += 1;
            if rechecked > bail_after {
                return None;
            }
            match recheck(c.a(), c.q, c.branch()) {
                Some(allowed) => c.budget = allowed.max(0.0) + da + dq,
                None => {
                    flipped += 1;
                    let span = spans.span(c.q);
                    cover[span.start] += 1;
                    cover[span.end] -= 1;
                }
            }
        }
    }
    if flipped == 0 {
        return Some((checked, rechecked, 0));
    }
    // prefix-sum in place: cover[ord] > 0 ⇔ ordinal inside an invalid span
    let mut run = 0i64;
    for c in cover.iter_mut().take(nleaves) {
        run += *c;
        *c = run;
    }
    let mut start = None;
    for (ord, &c) in cover.iter().enumerate().take(nleaves) {
        match (start, c > 0) {
            (None, true) => start = Some(ord),
            (Some(s), false) => {
                runs.push((s as u32, ord as u32));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s as u32, nleaves as u32));
    }
    certs.retain(|c| cover[spans.span(c.q).start] <= 0);
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

/// Branch + κ-divided standing margin of a q-leaf born pop — the exact
/// float forms of [`born_walk_range`]'s leaf test, shared with the cert
/// re-check so a repaired frame replays the decision bit for bit.
#[inline]
fn born_leaf_branch(
    a: &Node,
    q: &Node,
    d: f64,
    threshold: f64,
    k_leaf: f64,
    k_gap: f64,
) -> (Resolve, f64) {
    let far = well_separated(d, a.radius, q.radius, threshold);
    let sum = a.radius + q.radius;
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
    (if far { Resolve::Far } else { Resolve::NearOrDescend }, allowed)
}

/// Branch + raw standing margin (the caller divides by its κ) of an
/// internal driving node — shared by the born and energy walks, whose
/// internal tests are the same float forms with `coef` respectively the
/// near/far coefficient and the MAC factor.
#[inline]
fn internal_branch(
    a: &Node,
    q: &Node,
    d: f64,
    min_lr: f64,
    max_lr: f64,
    coef: f64,
) -> (Resolve, f64) {
    let need_hi = coef * (a.radius + max_lr);
    let need_lo = coef * (a.radius + min_lr);
    let resolve = if d - q.radius > need_hi + MARGIN * (need_hi + d) {
        Resolve::Far
    } else if d + q.radius < need_lo - MARGIN * (need_lo + d) {
        Resolve::NearOrDescend
    } else {
        Resolve::DescendDriver
    };
    let f_m = (d - q.radius) - (need_hi + MARGIN * (need_hi + d));
    let n_m = (need_lo - MARGIN * (need_lo + d)) - (d + q.radius);
    let allowed = match resolve {
        Resolve::Far => f_m,
        Resolve::NearOrDescend => n_m,
        // ambiguity persists while both margins stay failed
        Resolve::DescendDriver => (-f_m).min(-n_m),
    };
    (resolve, allowed)
}

/// Branch + κ-divided standing margin of a v-leaf energy pop — the exact
/// float forms of [`energy_walk_range`]'s leaf MAC test.
#[inline]
fn energy_leaf_branch(u: &Node, v: &Node, d: f64, mac: f64, k_leaf: f64) -> (Resolve, f64) {
    let far = d > (u.radius + v.radius) * mac;
    let t_m = d - (u.radius + v.radius) * mac;
    let allowed = (if far { t_m } else { -t_m }) / k_leaf;
    (if far { Resolve::Far } else { Resolve::NearOrDescend }, allowed)
}

/// Copies rows `[from, to)` of a CSR verbatim onto the tail of a double
/// buffer, rebasing offsets — the bulk-reuse half of a list repair.
fn copy_csr_rows(
    off: &[usize],
    data: &[NodeId],
    from: usize,
    to: usize,
    off2: &mut Vec<usize>,
    data2: &mut Vec<NodeId>,
) {
    let base = data2.len();
    let src = off[from];
    for &o in &off[from..to] {
        off2.push(base + (o - src));
    }
    data2.extend_from_slice(&data[src..off[to]]);
}

/// A list emission recorded during a walk: the interacting node, applied to
/// a contiguous run `[span_start, span_end)` of driving-leaf ordinals
/// (task-local coordinates when the walk covers an ordinal range).
type Emit = (u32, u32, NodeId);

/// Scratch of one walk task: emission buffers, the step diff array over its
/// local ordinals, the pair stack, and the traversal units of the pops it
/// *owns* (see [`ListScratch`]). All buffers are reused across rebuilds.
#[derive(Clone, Debug, Default)]
struct WalkSeg {
    far_emits: Vec<Emit>,
    near_emits: Vec<Emit>,
    sdiff: Vec<i64>,
    stack: Vec<(NodeId, NodeId)>,
    build_work: f64,
    /// Decision certificates of the pops this task owns (recorded only
    /// when the build tracks certs).
    certs: Vec<Cert>,
}

impl WalkSeg {
    /// Resets for a walk over `nloc` local ordinals, keeping capacity.
    fn reset(&mut self, nloc: usize) {
        self.far_emits.clear();
        self.near_emits.clear();
        self.sdiff.clear();
        self.sdiff.resize(nloc + 1, 0);
        self.stack.clear();
        self.stack.push((Octree::ROOT, Octree::ROOT));
        self.build_work = 0.0;
        self.certs.clear();
    }

    fn memory_bytes(&self) -> usize {
        (self.far_emits.capacity() + self.near_emits.capacity()) * std::mem::size_of::<Emit>()
            + self.sdiff.capacity() * std::mem::size_of::<i64>()
            + self.stack.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.certs.capacity() * std::mem::size_of::<Cert>()
    }
}

/// Reusable scratch of a (possibly parallel) list build: the driving tree's
/// leaf spans, one [`WalkSeg`] per task, and the CSR-expansion work arrays.
/// Keeping one of these per pipeline makes steady-state rebuilds
/// allocation-free once the buffers have warmed to the problem size.
#[derive(Debug)]
pub struct ListScratch {
    spans: LeafSpans,
    segs: Vec<WalkSeg>,
    diff: Vec<i64>,
    cursor: Vec<usize>,
    /// Leaf ordinal of each `T_A` node id (`u32::MAX` for internal nodes) —
    /// the inverse of `leaves()`, rebuilt per energy build for the
    /// symmetric-pair annotation.
    ord_of: Vec<u32>,
    /// Partner *ordinals* mirroring `EnergyLists::near` — the sorted
    /// per-ordinal slices the annotation pass binary-searches.
    near_ords: Vec<u32>,
    /// Maximal invalid ordinal runs of the current repair pass.
    runs: Vec<(u32, u32)>,
    /// Repair double buffers: the spliced CSR is assembled here row by row
    /// (copied reuse + re-walked runs), then swapped with the list's own
    /// arrays — so a warm repair allocates nothing and the swapped-out old
    /// arrays stay readable for change detection.
    far_off2: Vec<usize>,
    far2: Vec<NodeId>,
    near_off2: Vec<usize>,
    near2: Vec<NodeId>,
}

impl Default for ListScratch {
    fn default() -> ListScratch {
        ListScratch::new()
    }
}

impl ListScratch {
    /// Fresh scratch with no warmed buffers.
    pub fn new() -> ListScratch {
        ListScratch {
            spans: LeafSpans::empty(),
            segs: Vec::new(),
            diff: Vec::new(),
            cursor: Vec::new(),
            ord_of: Vec::new(),
            near_ords: Vec::new(),
            runs: Vec::new(),
            far_off2: Vec::new(),
            far2: Vec::new(),
            near_off2: Vec::new(),
            near2: Vec::new(),
        }
    }

    fn ensure_segs(&mut self, n: usize) {
        if self.segs.len() < n {
            self.segs.resize_with(n, WalkSeg::default);
        }
    }

    /// Heap footprint in bytes (spans, per-task buffers, expansion arrays,
    /// repair runs and double buffers).
    pub fn memory_bytes(&self) -> usize {
        self.spans.memory_bytes()
            + self.segs.iter().map(WalkSeg::memory_bytes).sum::<usize>()
            + self.segs.capacity() * std::mem::size_of::<WalkSeg>()
            + self.diff.capacity() * std::mem::size_of::<i64>()
            + (self.cursor.capacity() + self.far_off2.capacity() + self.near_off2.capacity())
                * std::mem::size_of::<usize>()
            + (self.ord_of.capacity() + self.near_ords.capacity())
                * std::mem::size_of::<u32>()
            + self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + (self.far2.capacity() + self.near2.capacity()) * std::mem::size_of::<NodeId>()
    }
}

/// Appends one task's local CSR block onto the global arrays: computes the
/// local offsets from a diff pass over `emits`, pushes `nloc` *global*
/// offsets onto `off` (base = current `data` length), grows `data`, and
/// scatters the emissions. Because tasks cover contiguous ordinal ranges in
/// order, concatenating the blocks yields exactly the CSR a whole-range
/// walk would produce. The caller pushes the final total after the last
/// block.
fn append_csr(
    nloc: usize,
    emits: &[Emit],
    off: &mut Vec<usize>,
    data: &mut Vec<NodeId>,
    diff: &mut Vec<i64>,
    cursor: &mut Vec<usize>,
) {
    diff.clear();
    diff.resize(nloc + 1, 0);
    for &(s, e, _) in emits {
        diff[s as usize] += 1;
        diff[e as usize] -= 1;
    }
    cursor.clear();
    let mut run = 0i64;
    let mut total = data.len();
    for d in diff.iter().take(nloc) {
        off.push(total);
        cursor.push(total);
        run += d;
        total += run as usize;
    }
    data.resize(total, 0 as NodeId);
    for &(s, e, id) in emits {
        for ord in s as usize..e as usize {
            data[cursor[ord]] = id;
            cursor[ord] += 1;
        }
    }
}

/// How a popped node pair resolves in a dual-tree walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Resolve {
    /// Every driving leaf in the span is well separated from the node.
    Far,
    /// Every driving leaf in the span fails separation: exact if the node
    /// is a leaf, otherwise descend the node.
    NearOrDescend,
    /// Ambiguous — split the driving span by descending the driving node.
    DescendDriver,
}

// ---------------------------------------------------------------------------
// Born phase (Fig. 2): (T_A, T_Q) lists
// ---------------------------------------------------------------------------

/// Interaction lists of the Born phase: for every `T_Q` leaf ordinal, the
/// `T_A` nodes it interacts with far (pseudo-particle term) and near
/// (exact leaf–leaf sum), plus the per-leaf work units the equivalent
/// traversal would report.
#[derive(Clone, Debug)]
pub struct BornLists {
    far_off: Vec<usize>,
    far: Vec<NodeId>,
    near_off: Vec<usize>,
    near: Vec<NodeId>,
    leaf_work: Vec<f64>,
    /// Work spent constructing the lists: one traversal unit per walk pop
    /// for a full build; for a repaired list, the units of the range
    /// re-walks only (the incremental cost actually paid).
    pub build_work: f64,
    /// Walk-decision certificates (present iff `track_certs`).
    certs: Vec<Cert>,
    /// Whether rebuilds record certificates (enables [`BornLists::repair`]).
    track_certs: bool,
    /// Fold of the CSR arrays — equal keys ⇔ identical structure; consumed
    /// by plan caches so a no-flip frame re-validates in O(1).
    content_key: u64,
    /// Certificate count of the last *full* build — the overflow baseline.
    full_build_certs: usize,
}

/// Structural equality ignores the incremental-repair bookkeeping (certs,
/// tracking flag, content key): two lists are equal when execution cannot
/// tell them apart.
impl PartialEq for BornLists {
    fn eq(&self, o: &BornLists) -> bool {
        self.far_off == o.far_off
            && self.far == o.far
            && self.near_off == o.near_off
            && self.near == o.near
            && self.leaf_work == o.leaf_work
            && self.build_work == o.build_work
    }
}

/// Walks `(T_A root, T_Q root)` restricted to driving-leaf ordinals
/// `[lo, hi)`: pairs whose span misses the range are pruned on pop, and
/// emissions are clipped and shifted to range-local coordinates. The
/// retained pops are exactly the serial walk's pops whose span intersects
/// the range, **in the same LIFO order** (pruning removes stack entries
/// without reordering the rest), and acceptance decisions depend only on
/// node geometry — so concatenating the per-range CSR blocks reproduces the
/// whole-range build byte for byte. A pop is *owned* (charged a traversal
/// unit) by the one task whose range contains its span start, making
/// `Σ build_work` the same multiset of exact ¼ units as the serial tally.
///
/// With `record` set, every *owned* geometry decision — including the
/// ambiguous descend-driver branch, so the whole decision tree is covered —
/// leaves behind a [`Cert`] bounding how much accumulated point drift the
/// branch tolerates. Per-branch sensitivities, with `δ` the joint drift
/// `ta.drift(a) + tq.drift(q)` and using `|Δcentroid| ≤ δ`,
/// `|Δradius| ≤ 2δ`, `|Δd| ≤ δ`, `|Δ(min|max)_leaf_radius| ≤ 2δ`:
/// the q-leaf exact test (`gap = d−s > 0 ∧ θ·gap ≥ d+s`, `s = r_a+r_q`)
/// moves `gap` by ≤ 3δ and `W = θ·gap−(d+s)` by ≤ (3θ+3)δ; the internal
/// margins `F`/`N` move by ≤ (3+2·coef)δ. Budgets divide the decision's
/// standing margin by the padded sensitivity, so a valid cert *proves* the
/// branch cannot have flipped.
///
/// Children are pushed in reverse so the LIFO stack pops them in tree
/// order: the walk is a preorder over `T_A` and every row's near (and far)
/// entries come out in **ascending** tree order. Each `A` node meets a
/// given driving leaf in exactly one resolved pop, so two near leaves of
/// one row split at a unique ancestor pair whose first child's subtree is
/// finished before the second child is popped. Leaves whose atom ranges
/// touch therefore sit next to each other in the row, which is what lets
/// [`BornLists::execute_range`] stream them as one atom run.
#[allow(clippy::too_many_arguments)]
fn born_walk_range(
    ta: &Octree,
    tq: &Octree,
    spans: &LeafSpans,
    threshold: f64,
    coef: f64,
    lo: usize,
    hi: usize,
    seg: &mut WalkSeg,
    record: bool,
) {
    let k_leaf = (3.0 * threshold + 3.0) * CERT_PAD;
    let k_gap = 3.0 * CERT_PAD;
    let k_int = (3.0 + 2.0 * coef) * CERT_PAD;
    seg.reset(hi - lo);
    while let Some((a_id, q_id)) = seg.stack.pop() {
        let span = spans.span(q_id);
        if span.start >= hi || span.end <= lo {
            continue;
        }
        let owned = span.start >= lo;
        if owned {
            seg.build_work += TRAVERSAL_UNIT;
        }
        let a = ta.node(a_id);
        let q = tq.node(q_id);
        let d = a.centroid.dist(q.centroid);
        let (s, e) = ((span.start.max(lo) - lo) as u32, (span.end.min(hi) - lo) as u32);

        let resolve = if q.is_leaf() {
            // single driving leaf: the original test decides, bit for bit
            let far = well_separated(d, a.radius, q.radius, threshold);
            if record && owned {
                let (branch, allowed) = born_leaf_branch(a, q, d, threshold, k_leaf, k_gap);
                debug_assert_eq!(branch == Resolve::Far, far);
                seg.certs.push(Cert::new(
                    a_id,
                    q_id,
                    branch,
                    allowed.max(0.0) + ta.drift(a_id) + tq.drift(q_id),
                ));
            }
            if far {
                Resolve::Far
            } else {
                Resolve::NearOrDescend
            }
        } else {
            // every leaf centroid under q lies within q.radius of
            // q.centroid, so per-leaf distances span [d−r_q, d+r_q]
            let (resolve, margin) = internal_branch(
                a,
                q,
                d,
                spans.min_leaf_radius[q_id as usize],
                spans.max_leaf_radius[q_id as usize],
                coef,
            );
            if record && owned {
                let allowed = margin / k_int;
                seg.certs.push(Cert::new(
                    a_id,
                    q_id,
                    resolve,
                    allowed.max(0.0) + ta.drift(a_id) + tq.drift(q_id),
                ));
            }
            resolve
        };
        match resolve {
            Resolve::Far => {
                seg.sdiff[s as usize] += 1;
                seg.sdiff[e as usize] -= 1;
                seg.far_emits.push((s, e, a_id));
            }
            Resolve::NearOrDescend => {
                seg.sdiff[s as usize] += 1;
                seg.sdiff[e as usize] -= 1;
                if a.is_leaf() {
                    seg.near_emits.push((s, e, a_id));
                } else {
                    // reversed pushes pop in tree order (see above)
                    for c in a.children().rev() {
                        seg.stack.push((c, q_id));
                    }
                }
            }
            Resolve::DescendDriver => {
                // not a resolved pop: the leaves' own pops of `a` are
                // accounted when each child pair resolves
                for qc in q.children().rev() {
                    seg.stack.push((a_id, qc));
                }
            }
        }
    }
}

impl BornLists {
    /// Empty lists — a reusable slot for [`BornLists::rebuild`].
    pub fn empty() -> BornLists {
        BornLists {
            far_off: Vec::new(),
            far: Vec::new(),
            near_off: Vec::new(),
            near: Vec::new(),
            leaf_work: Vec::new(),
            build_work: 0.0,
            certs: Vec::new(),
            track_certs: false,
            content_key: 0,
            full_build_certs: 0,
        }
    }

    /// Enables (or disables) certificate recording on subsequent rebuilds.
    /// Tracking costs one 16-byte cert per decided pop and changes no list
    /// content; it is what makes [`BornLists::repair`] possible.
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
        self.content_key
    }

    /// True when repair-appended certificates outnumber a full build's by
    /// more than 2× — repeated incremental repairs have fragmented the
    /// decision tree enough that a fresh build is the better deal.
    pub fn cert_overflow(&self) -> bool {
        self.full_build_certs > 0 && self.certs.len() > 2 * self.full_build_certs
    }

    /// Runs the dual-tree walk over `(T_A root, T_Q root)` serially.
    pub fn build(sys: &GbSystem) -> BornLists {
        Self::build_tasks(sys, 1)
    }

    /// Like [`BornLists::build`], split into `tasks` independent
    /// driving-leaf-range walks run as `rayon::scope` tasks — sized by the
    /// installed rayon pool, so callers can pin the build to an explicit
    /// thread count via `ThreadPoolBuilder::install`. The result is
    /// **byte-identical** to the serial build for any task count or pool
    /// size (see [`born_walk_range`]).
    pub fn build_tasks(sys: &GbSystem, tasks: usize) -> BornLists {
        let mut lists = BornLists::empty();
        let mut scratch = ListScratch::new();
        lists.rebuild(sys, tasks, &mut scratch);
        lists
    }

    /// In-place [`BornLists::build_tasks`] reusing this value's buffers and
    /// `scratch` — allocation-free once both have warmed to the problem
    /// size (with `tasks == 1`; spawning scope threads allocates).
    pub fn rebuild(&mut self, sys: &GbSystem, tasks: usize, scratch: &mut ListScratch) {
        self.rebuild_with_task_floor(sys, tasks, scratch, MIN_TASK_LEAVES);
    }

    /// [`BornLists::rebuild`] with an explicit per-task leaf floor — the
    /// split-path tests drive this with `floor == 1` so small systems still
    /// exercise multi-task stitching.
    pub(crate) fn rebuild_with_task_floor(
        &mut self,
        sys: &GbSystem,
        tasks: usize,
        scratch: &mut ListScratch,
        floor: usize,
    ) {
        self.rebuild_trees(&sys.ta, &sys.tq, sys.params.radii_mac_threshold(), tasks, scratch,
            floor);
    }

    /// Cross-system list build: walks `(A tree of one system, Q tree of
    /// another)` with the same certificates and acceptance tests as the
    /// own-surface walk. This is the docking path's per-pose work — the
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
        self.rebuild_trees(ta, tq, threshold, 1, scratch, MIN_TASK_LEAVES);
    }

    fn rebuild_trees(
        &mut self,
        ta: &Octree,
        tq: &Octree,
        threshold: f64,
        tasks: usize,
        scratch: &mut ListScratch,
        floor: usize,
    ) {
        let nleaves = tq.num_leaves();
        self.far_off.clear();
        self.far.clear();
        self.near_off.clear();
        self.near.clear();
        self.leaf_work.clear();
        self.build_work = 0.0;
        self.certs.clear();
        self.full_build_certs = 0;
        if ta.is_empty() || tq.is_empty() {
            self.far_off.resize(nleaves + 1, 0);
            self.near_off.resize(nleaves + 1, 0);
            self.leaf_work.resize(nleaves, 0.0);
            self.content_key =
                fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
            return;
        }
        // well_separated(d, ra, rq, t)  ⇔  d ≥ (ra + rq)(t+1)/(t−1)
        let coef = (threshold + 1.0) / (threshold - 1.0);
        scratch.spans.recompute(tq);
        // never split below `floor` driving leaves per task — the serial
        // stitch would eat the parallel walk's gain (byte-identical lists
        // either way)
        let ntasks = tasks.max(1).min(nleaves).min((nleaves / floor.max(1)).max(1));
        scratch.ensure_segs(ntasks);
        let bounds = |i: usize| (i * nleaves / ntasks, (i + 1) * nleaves / ntasks);

        let record = self.track_certs;
        let spans = &scratch.spans;
        let segs = &mut scratch.segs[..ntasks];
        if ntasks == 1 {
            born_walk_range(ta, tq, spans, threshold, coef, 0, nleaves, &mut segs[0], record);
        } else {
            rayon::scope(|sc| {
                for (i, seg) in segs.iter_mut().enumerate() {
                    let (lo, hi) = bounds(i);
                    sc.spawn(move |_| {
                        born_walk_range(ta, tq, spans, threshold, coef, lo, hi, seg, record)
                    });
                }
            });
        }

        // Stitch: per-task CSR blocks concatenate in range order; leaf_work
        // temporarily stages the per-ordinal step counts until both CSRs
        // are complete.
        for i in 0..ntasks {
            let (lo, hi) = bounds(i);
            let seg = &scratch.segs[i];
            append_csr(hi - lo, &seg.far_emits, &mut self.far_off, &mut self.far,
                &mut scratch.diff, &mut scratch.cursor);
            append_csr(hi - lo, &seg.near_emits, &mut self.near_off, &mut self.near,
                &mut scratch.diff, &mut scratch.cursor);
            let mut run = 0i64;
            for d in seg.sdiff.iter().take(hi - lo) {
                run += d;
                self.leaf_work.push(run as f64);
            }
            self.build_work += seg.build_work;
            self.certs.extend_from_slice(&seg.certs);
        }
        self.far_off.push(self.far.len());
        self.near_off.push(self.near.len());
        self.full_build_certs = self.certs.len();
        self.content_key = fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
        // Reconstruct the traversal's per-leaf work units: ¼ per popped
        // node, 1 per far term, |A|·|Q| per exact pair. All terms are
        // multiples of ¼ well below 2^52, so the sum is exact and equals
        // `accumulate_qleaf`'s incremental tally bit for bit.
        for ord in 0..nleaves {
            let q_count = tq.node(tq.leaves()[ord]).count() as f64;
            let mut near_pairs = 0.0;
            for &a_id in &self.near[self.near_off[ord]..self.near_off[ord + 1]] {
                near_pairs += ta.node(a_id).count() as f64 * q_count;
            }
            self.leaf_work[ord] = TRAVERSAL_UNIT * self.leaf_work[ord]
                + (self.far_off[ord + 1] - self.far_off[ord]) as f64
                + near_pairs;
        }
    }

    /// The far CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn far_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.far_off, &self.far)
    }

    /// The near CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn near_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.near_off, &self.near)
    }

    /// Number of driving `T_Q` leaves.
    #[inline]
    pub fn num_qleaves(&self) -> usize {
        self.leaf_work.len()
    }

    /// Per-`T_Q`-leaf work units of executing its lists — identical to the
    /// work `accumulate_qleaf` would report for that leaf.
    #[inline]
    pub fn leaf_work(&self) -> &[f64] {
        &self.leaf_work
    }

    /// Total execution work over all leaves.
    pub fn total_work(&self) -> f64 {
        self.leaf_work.iter().sum()
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
            for &a_id in &self.far[self.far_off[ord]..self.far_off[ord + 1]] {
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
            let entries = &self.near[self.near_off[ord]..self.near_off[ord + 1]];
            for run in atom_runs(&sys.ta, entries) {
                born_span_batched::<M, K>(sys, run, qx, qy, qz, nx, ny, nz, w, acc);
            }
            work += self.leaf_work[ord];
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
            for &a_id in &self.far[self.far_off[ord]..self.far_off[ord + 1]] {
                let a = ta.node(a_id);
                let delta = q_center - a.centroid;
                let d2 = delta.norm_sq();
                acc.node_s[a_id as usize] += q_agg.dot(delta) * K::integrand::<M>(d2);
            }
            let qr = qn.range();
            for ar in atom_runs(ta, &self.near[self.near_off[ord]..self.near_off[ord + 1]]) {
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
            work += self.leaf_work[ord];
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
        for &a_id in &self.far[self.far_off[ord]..self.far_off[ord + 1]] {
            visit(a_id as usize..a_id as usize + 1);
        }
        for &a_id in &self.near[self.near_off[ord]..self.near_off[ord + 1]] {
            let n = sys.ta.node(a_id);
            visit(num_nodes + n.begin as usize..num_nodes + n.end as usize);
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.far_off.capacity() + self.near_off.capacity()) * std::mem::size_of::<usize>()
            + (self.far.capacity() + self.near.capacity()) * std::mem::size_of::<NodeId>()
            + self.leaf_work.capacity() * std::mem::size_of::<f64>()
            + self.certs.capacity() * std::mem::size_of::<Cert>()
    }

    /// Incrementally repairs the lists after the trees were refitted in
    /// place: checks every walk certificate against the accumulated drift,
    /// re-walks only the driving-leaf runs whose decisions could have
    /// flipped, and splices the regenerated rows into the stored CSRs.
    /// With `drift_tol == 0` the result (CSRs + `leaf_work`) is
    /// **byte-identical** to a from-scratch rebuild on the refitted trees;
    /// a positive tolerance keeps decisions whose margin deficit is within
    /// `drift_tol` Å of drift, trading bounded list staleness for fewer
    /// re-walks. Requires cert tracking and an unchanged tree topology.
    pub fn repair(&mut self, sys: &GbSystem, drift_tol: f64, scratch: &mut ListScratch)
        -> RepairStats {
        self.try_repair(sys, drift_tol, scratch, f64::INFINITY)
            .expect("unbounded repair cannot bail")
    }

    /// [`BornLists::repair`] with a density bail-out: returns `None` —
    /// leaving the lists untouched apart from refreshed cert budgets —
    /// when more than `bail_tripped_fraction` of the certs trip their
    /// drift bound. That dense a drift regime (global motion) re-walks
    /// nearly every row anyway, so the caller is better off rebuilding
    /// from scratch, optionally without cert recording.
    pub fn try_repair(
        &mut self,
        sys: &GbSystem,
        drift_tol: f64,
        scratch: &mut ListScratch,
        bail_tripped_fraction: f64,
    ) -> Option<RepairStats> {
        let (ta, tq) = (&sys.ta, &sys.tq);
        let threshold = sys.params.radii_mac_threshold();
        assert!(self.track_certs, "BornLists::repair requires cert tracking");
        let nleaves = tq.num_leaves();
        assert_eq!(self.leaf_work.len(), nleaves, "repair requires unchanged tree topology");
        scratch.spans.recompute(tq);
        let mut stats = RepairStats { rows_total: nleaves, ..RepairStats::default() };
        let coef = (threshold + 1.0) / (threshold - 1.0);
        let k_leaf = (3.0 * threshold + 3.0) * CERT_PAD;
        let k_gap = 3.0 * CERT_PAD;
        let k_int = (3.0 + 2.0 * coef) * CERT_PAD;
        let spans = &scratch.spans;
        let bail_after = bail_fraction_to_count(bail_tripped_fraction, self.certs.len());
        let (checked, rechecked, flipped) = invalidate_certs(&mut self.certs, ta, tq, spans,
            drift_tol, nleaves, &mut scratch.diff, &mut scratch.runs, bail_after,
            |a_id, q_id, was| {
                let a = ta.node(a_id);
                let q = tq.node(q_id);
                let d = a.centroid.dist(q.centroid);
                let (now, allowed) = if q.is_leaf() {
                    born_leaf_branch(a, q, d, threshold, k_leaf, k_gap)
                } else {
                    let (r, m) = internal_branch(
                        a,
                        q,
                        d,
                        spans.min_leaf_radius[q_id as usize],
                        spans.max_leaf_radius[q_id as usize],
                        coef,
                    );
                    (r, m / k_int)
                };
                (now == was).then_some(allowed)
            })?;
        stats.certs_checked = checked;
        stats.certs_rechecked = rechecked;
        stats.certs_violated = flipped;
        if scratch.runs.is_empty() {
            self.build_work = 0.0;
            return Some(stats);
        }
        scratch.ensure_segs(1);
        let ListScratch {
            spans, segs, diff, cursor, runs, far_off2, far2, near_off2, near2, ..
        } = scratch;
        far_off2.clear();
        far2.clear();
        near_off2.clear();
        near2.clear();
        let mut walk_work = 0.0;
        let mut prev = 0usize;
        for &(rs, re) in runs.iter() {
            let (lo, hi) = (rs as usize, re as usize);
            // bulk-copy the untouched rows since the previous run, then
            // re-walk this run and append its fresh rows
            copy_csr_rows(&self.far_off, &self.far, prev, lo, far_off2, far2);
            copy_csr_rows(&self.near_off, &self.near, prev, lo, near_off2, near2);
            let seg = &mut segs[0];
            born_walk_range(ta, tq, spans, threshold, coef, lo, hi, seg, true);
            append_csr(hi - lo, &seg.far_emits, far_off2, far2, diff, cursor);
            append_csr(hi - lo, &seg.near_emits, near_off2, near2, diff, cursor);
            // stage the raw per-ordinal step counts; finalized below once
            // both CSRs are spliced (the counts are range-independent, so
            // they match what a full walk would report for these ordinals)
            let mut run_steps = 0i64;
            for (k, d) in seg.sdiff.iter().take(hi - lo).enumerate() {
                run_steps += d;
                self.leaf_work[lo + k] = run_steps as f64;
            }
            walk_work += seg.build_work;
            self.certs.extend_from_slice(&seg.certs);
            stats.rows_rewalked += hi - lo;
            prev = hi;
        }
        copy_csr_rows(&self.far_off, &self.far, prev, nleaves, far_off2, far2);
        copy_csr_rows(&self.near_off, &self.near, prev, nleaves, near_off2, near2);
        far_off2.push(far2.len());
        near_off2.push(near2.len());
        // install the spliced arrays; the swapped-out old ones stay in
        // scratch for the change detection below (and get reused next time)
        std::mem::swap(&mut self.far_off, far_off2);
        std::mem::swap(&mut self.far, far2);
        std::mem::swap(&mut self.near_off, near_off2);
        std::mem::swap(&mut self.near, near2);
        'detect: for &(rs, re) in runs.iter() {
            for ord in rs as usize..re as usize {
                if self.far[self.far_off[ord]..self.far_off[ord + 1]]
                    != far2[far_off2[ord]..far_off2[ord + 1]]
                    || self.near[self.near_off[ord]..self.near_off[ord + 1]]
                        != near2[near_off2[ord]..near_off2[ord + 1]]
                {
                    stats.changed = true;
                    break 'detect;
                }
            }
        }
        // finalize the re-walked rows' work units exactly like a rebuild
        for &(rs, re) in runs.iter() {
            for ord in rs as usize..re as usize {
                let q_count = tq.node(tq.leaves()[ord]).count() as f64;
                let mut near_pairs = 0.0;
                for &a_id in &self.near[self.near_off[ord]..self.near_off[ord + 1]] {
                    near_pairs += ta.node(a_id).count() as f64 * q_count;
                }
                self.leaf_work[ord] = TRAVERSAL_UNIT * self.leaf_work[ord]
                    + (self.far_off[ord + 1] - self.far_off[ord]) as f64
                    + near_pairs;
            }
        }
        if stats.changed {
            self.content_key =
                fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
        }
        self.build_work = walk_work;
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

/// Interaction lists of the energy phase: for every `T_A` leaf ordinal `V`,
/// the leaf partners evaluated exactly and the internal-node partners
/// evaluated by histogram contraction, plus the traversal-step and
/// exact-pair work the equivalent traversal would report. Far-pair work
/// depends on the charge histograms (known only after the Born radii), so
/// it is computed at execution time / by [`EnergyLists::leaf_costs`].
#[derive(Clone, Debug)]
pub struct EnergyLists {
    near_off: Vec<usize>,
    /// `T_A` leaf partners (Fig. 3 rule: a leaf `U` is always exact).
    near: Vec<NodeId>,
    far_off: Vec<usize>,
    /// Internal `T_A` nodes that passed the far test for every `V` in span.
    far: Vec<NodeId>,
    /// Per-ordinal traversal pop count of the equivalent per-leaf walk.
    trav_steps: Vec<f64>,
    /// Per-ordinal exact-pair work `Σ |U|·|V|` over the near list.
    near_work: Vec<f64>,
    /// Execution weight of each `near` entry: `1` = evaluate once
    /// (self-pair or asymmetric), `2` = this ordinal owns a *symmetric*
    /// leaf pair and evaluates it for both sides (the `f_GB` terms of
    /// `(U,V)` and `(V,U)` are bitwise equal, so doubling is exact),
    /// `0` = the mirror ordinal owns it — skip. Ownership alternates by a
    /// checkerboard rule on the ordinal pair so halving stays balanced
    /// across rank/chunk segments.
    near_w: Vec<u8>,
    /// Work spent constructing the lists: one traversal unit per walk pop
    /// for a full build; for a repaired list, the range re-walks' units.
    pub build_work: f64,
    /// Walk-decision certificates (present iff `track_certs`).
    certs: Vec<Cert>,
    /// Whether rebuilds record certificates (enables [`EnergyLists::repair`]).
    track_certs: bool,
    /// Fold of the CSR arrays — equal keys ⇔ identical structure.
    content_key: u64,
    /// Certificate count of the last *full* build — the overflow baseline.
    full_build_certs: usize,
}

/// Structural equality ignores the incremental-repair bookkeeping, exactly
/// like [`BornLists`]' `PartialEq`.
impl PartialEq for EnergyLists {
    fn eq(&self, o: &EnergyLists) -> bool {
        self.near_off == o.near_off
            && self.near == o.near
            && self.far_off == o.far_off
            && self.far == o.far
            && self.trav_steps == o.trav_steps
            && self.near_work == o.near_work
            && self.near_w == o.near_w
            && self.build_work == o.build_work
    }
}

/// Walks `(T_A root, T_A root)` restricted to driving-leaf ordinals
/// `[lo, hi)` — the energy-phase counterpart of [`born_walk_range`], with
/// the same pruning, clipping and pop-ownership rules.
///
/// Cert sensitivities (`δ` = joint drift of `u` and `v`): the v-leaf MAC
/// margin `d − (r_u+r_v)·mac` moves by ≤ (1+2·mac)δ; the internal `F`/`N`
/// margins by ≤ (3+2·mac)δ. Leaf `u` pops emit unconditionally and need no
/// certificate.
fn energy_walk_range(
    sys: &GbSystem,
    spans: &LeafSpans,
    mac: f64,
    lo: usize,
    hi: usize,
    seg: &mut WalkSeg,
    record: bool,
) {
    let ta = &sys.ta;
    let k_leaf = (2.0 + 2.0 * mac) * CERT_PAD;
    let k_int = (3.0 + 2.0 * mac) * CERT_PAD;
    seg.reset(hi - lo);
    while let Some((u_id, v_id)) = seg.stack.pop() {
        let span = spans.span(v_id);
        if span.start >= hi || span.end <= lo {
            continue;
        }
        let owned = span.start >= lo;
        if owned {
            seg.build_work += TRAVERSAL_UNIT;
        }
        let u = sys.ta.node(u_id);
        let v = sys.ta.node(v_id);
        let (s, e) = ((span.start.max(lo) - lo) as u32, (span.end.min(hi) - lo) as u32);

        if u.is_leaf() {
            // Fig. 3 checks leafness *before* distance: leaf–leaf pairs
            // are always exact, independent of V — resolve the whole span
            seg.sdiff[s as usize] += 1;
            seg.sdiff[e as usize] -= 1;
            seg.near_emits.push((s, e, u_id));
            continue;
        }
        let d = u.centroid.dist(v.centroid);
        let resolve = if v.is_leaf() {
            let far = d > (u.radius + v.radius) * mac;
            if record && owned {
                let (branch, allowed) = energy_leaf_branch(u, v, d, mac, k_leaf);
                debug_assert_eq!(branch == Resolve::Far, far);
                seg.certs.push(Cert::new(
                    u_id,
                    v_id,
                    branch,
                    allowed.max(0.0) + ta.drift(u_id) + ta.drift(v_id),
                ));
            }
            if far {
                Resolve::Far
            } else {
                Resolve::NearOrDescend
            }
        } else {
            let (resolve, margin) = internal_branch(
                u,
                v,
                d,
                spans.min_leaf_radius[v_id as usize],
                spans.max_leaf_radius[v_id as usize],
                mac,
            );
            if record && owned {
                let allowed = margin / k_int;
                seg.certs.push(Cert::new(
                    u_id,
                    v_id,
                    resolve,
                    allowed.max(0.0) + ta.drift(u_id) + ta.drift(v_id),
                ));
            }
            resolve
        };
        match resolve {
            Resolve::Far => {
                seg.sdiff[s as usize] += 1;
                seg.sdiff[e as usize] -= 1;
                seg.far_emits.push((s, e, u_id));
            }
            Resolve::NearOrDescend => {
                // u is internal here (leaves resolved above): descend u
                seg.sdiff[s as usize] += 1;
                seg.sdiff[e as usize] -= 1;
                for c in u.children() {
                    seg.stack.push((c, v_id));
                }
            }
            Resolve::DescendDriver => {
                for vc in v.children() {
                    seg.stack.push((u_id, vc));
                }
            }
        }
    }
}

impl EnergyLists {
    /// Empty lists — a reusable slot for [`EnergyLists::rebuild`].
    pub fn empty() -> EnergyLists {
        EnergyLists {
            near_off: Vec::new(),
            near: Vec::new(),
            far_off: Vec::new(),
            far: Vec::new(),
            trav_steps: Vec::new(),
            near_work: Vec::new(),
            near_w: Vec::new(),
            build_work: 0.0,
            certs: Vec::new(),
            track_certs: false,
            content_key: 0,
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
        self.content_key
    }

    /// True when repair-appended certificates outnumber a full build's by
    /// more than 2× (see [`BornLists::cert_overflow`]).
    pub fn cert_overflow(&self) -> bool {
        self.full_build_certs > 0 && self.certs.len() > 2 * self.full_build_certs
    }

    /// Runs the dual-tree walk over `(T_A root, T_A root)` serially; the
    /// second component drives (it stands for the `V` leaves of Fig. 3).
    pub fn build(sys: &GbSystem) -> EnergyLists {
        Self::build_tasks(sys, 1)
    }

    /// Like [`EnergyLists::build`], split into `tasks` independent
    /// driving-leaf-range walks as `rayon::scope` tasks; byte-identical
    /// for any task count or pool size.
    pub fn build_tasks(sys: &GbSystem, tasks: usize) -> EnergyLists {
        let mut lists = EnergyLists::empty();
        let mut scratch = ListScratch::new();
        lists.rebuild(sys, tasks, &mut scratch);
        lists
    }

    /// In-place [`EnergyLists::build_tasks`] reusing this value's buffers
    /// and `scratch` — allocation-free once warmed (with `tasks == 1`).
    pub fn rebuild(&mut self, sys: &GbSystem, tasks: usize, scratch: &mut ListScratch) {
        self.rebuild_with_task_floor(sys, tasks, scratch, MIN_TASK_LEAVES);
    }

    /// [`EnergyLists::rebuild`] with an explicit per-task leaf floor (see
    /// [`BornLists::rebuild_with_task_floor`]).
    pub(crate) fn rebuild_with_task_floor(
        &mut self,
        sys: &GbSystem,
        tasks: usize,
        scratch: &mut ListScratch,
        floor: usize,
    ) {
        let nleaves = sys.ta.num_leaves();
        self.near_off.clear();
        self.near.clear();
        self.far_off.clear();
        self.far.clear();
        self.trav_steps.clear();
        self.near_work.clear();
        self.near_w.clear();
        self.build_work = 0.0;
        self.certs.clear();
        self.full_build_certs = 0;
        if sys.ta.is_empty() {
            self.near_off.resize(nleaves + 1, 0);
            self.far_off.resize(nleaves + 1, 0);
            self.trav_steps.resize(nleaves, 0.0);
            self.near_work.resize(nleaves, 0.0);
            self.content_key =
                fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
            return;
        }
        let mac = sys.params.energy_mac_factor();
        scratch.spans.recompute(&sys.ta);
        // same per-task floor as the Born build (see MIN_TASK_LEAVES): the
        // energy stitch is even heavier relative to its walk
        let ntasks = tasks.max(1).min(nleaves).min((nleaves / floor.max(1)).max(1));
        scratch.ensure_segs(ntasks);
        let bounds = |i: usize| (i * nleaves / ntasks, (i + 1) * nleaves / ntasks);

        let record = self.track_certs;
        let spans = &scratch.spans;
        let segs = &mut scratch.segs[..ntasks];
        if ntasks == 1 {
            energy_walk_range(sys, spans, mac, 0, nleaves, &mut segs[0], record);
        } else {
            rayon::scope(|sc| {
                for (i, seg) in segs.iter_mut().enumerate() {
                    let (lo, hi) = bounds(i);
                    sc.spawn(move |_| energy_walk_range(sys, spans, mac, lo, hi, seg, record));
                }
            });
        }

        for i in 0..ntasks {
            let (lo, hi) = bounds(i);
            let seg = &scratch.segs[i];
            append_csr(hi - lo, &seg.near_emits, &mut self.near_off, &mut self.near,
                &mut scratch.diff, &mut scratch.cursor);
            append_csr(hi - lo, &seg.far_emits, &mut self.far_off, &mut self.far,
                &mut scratch.diff, &mut scratch.cursor);
            let mut run = 0i64;
            for d in seg.sdiff.iter().take(hi - lo) {
                run += d;
                self.trav_steps.push(run as f64);
            }
            self.build_work += seg.build_work;
            self.certs.extend_from_slice(&seg.certs);
        }
        self.near_off.push(self.near.len());
        self.far_off.push(self.far.len());
        self.full_build_certs = self.certs.len();
        // The tail passes below index by partner *ordinal* so the random
        // node-table walks happen once per leaf, not once per near entry.
        // `diff` is free after the CSR stitch and holds the per-ordinal
        // atom counts; `cursor` is free too and holds the per-row merge
        // cursors of the ownership pass.
        let ListScratch { ord_of, near_ords, diff, cursor, .. } = scratch;
        diff.clear();
        diff.extend(sys.ta.leaves().iter().map(|&l| sys.ta.node(l).count() as i64));
        ord_of.clear();
        ord_of.resize(sys.ta.num_nodes(), u32::MAX);
        for (i, &l) in sys.ta.leaves().iter().enumerate() {
            ord_of[l as usize] = i as u32;
        }

        // Sort each ordinal's near partners by ordinal (leaf ordinals
        // follow atom order, so this is the ascending-atom-span order the
        // gathered near tile streams; the LIFO walk emits rows nearly
        // reversed, which pdqsort's descending-run detection handles in
        // O(row)). Sorting the u32 ordinal mirror instead of the node ids
        // keeps the comparator out of the node table; the id column is
        // regenerated from the sorted ordinals.
        near_ords.clear();
        near_ords.extend(self.near.iter().map(|&id| ord_of[id as usize]));
        let leaves = sys.ta.leaves();
        for ord in 0..nleaves {
            let (lo, hi) = (self.near_off[ord], self.near_off[ord + 1]);
            near_ords[lo..hi].sort_unstable();
            for k in lo..hi {
                self.near[k] = leaves[near_ords[k] as usize];
            }
        }

        // Per-ordinal near work from the count table. Counts are ≤ the
        // leaf cap, so the integer sum is exact and the product matches
        // the old per-pair f64 accumulation bit for bit.
        for ord in 0..nleaves {
            let v_count = diff[ord] as f64;
            let row = &near_ords[self.near_off[ord]..self.near_off[ord + 1]];
            let pairs: i64 = row.iter().map(|&uo| diff[uo as usize]).sum();
            self.near_work.push(pairs as f64 * v_count);
        }

        self.annotate_near_ownership(near_ords, cursor);
        self.content_key = fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
    }

    /// Annotates symmetric-pair ownership: a leaf pair listed by both
    /// ordinals is evaluated once, doubled, by exactly one of them.
    /// Rows are ascending by partner ordinal and driving ordinals are
    /// visited in increasing order, so each row's "is `ord` one of my
    /// partners?" queries arrive with `ord` increasing and a per-row
    /// cursor into the row's upper half answers every query with a
    /// monotone advance — O(near) total, no per-entry binary search.
    /// A pure function of `(near_off, near_ords)`, so re-running it after
    /// a repair splice reproduces a rebuild's weights byte for byte.
    fn annotate_near_ownership(&mut self, near_ords: &[u32], cursor: &mut Vec<usize>) {
        let nleaves = self.near_off.len() - 1;
        cursor.clear();
        cursor.extend((0..nleaves).map(|ord| {
            let (lo, hi) = (self.near_off[ord], self.near_off[ord + 1]);
            lo + near_ords[lo..hi].partition_point(|&uo| (uo as usize) <= ord)
        }));
        self.near_w.clear();
        self.near_w.resize(self.near.len(), 1);
        for ord in 0..nleaves {
            for k in self.near_off[ord]..self.near_off[ord + 1] {
                let uo = near_ords[k] as usize;
                if uo >= ord {
                    // self pair keeps weight 1; upper-half partners get
                    // their weight when the mirror ordinal is visited
                    break;
                }
                let mut c = cursor[uo];
                let uhi = self.near_off[uo + 1];
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
                // no match: asymmetric (the walk resolved (V,U) far) —
                // both sides keep weight 1
            }
        }
    }

    /// Incrementally repairs the lists after an in-place tree refit — the
    /// energy-phase mirror of [`BornLists::repair`]: certificate check,
    /// range re-walks of invalidated driving runs, CSR splice, then the
    /// rebuild tail (row sort, near work, ownership annotation) restricted
    /// to — or, for the global ownership pass, re-run over — the affected
    /// rows. Byte-identical to a rebuild at `drift_tol == 0`.
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
        let ta = &sys.ta;
        assert!(self.track_certs, "EnergyLists::repair requires cert tracking");
        let nleaves = ta.num_leaves();
        assert_eq!(self.trav_steps.len(), nleaves, "repair requires unchanged tree topology");
        scratch.spans.recompute(ta);
        let mut stats = RepairStats { rows_total: nleaves, ..RepairStats::default() };
        let mac = sys.params.energy_mac_factor();
        let k_leaf = (2.0 + 2.0 * mac) * CERT_PAD;
        let k_int = (3.0 + 2.0 * mac) * CERT_PAD;
        let spans = &scratch.spans;
        let bail_after = bail_fraction_to_count(bail_tripped_fraction, self.certs.len());
        let (checked, rechecked, flipped) = invalidate_certs(&mut self.certs, ta, ta, spans,
            drift_tol, nleaves, &mut scratch.diff, &mut scratch.runs, bail_after,
            |u_id, v_id, was| {
                let u = ta.node(u_id);
                let v = ta.node(v_id);
                let d = u.centroid.dist(v.centroid);
                let (now, allowed) = if v.is_leaf() {
                    energy_leaf_branch(u, v, d, mac, k_leaf)
                } else {
                    let (r, m) = internal_branch(
                        u,
                        v,
                        d,
                        spans.min_leaf_radius[v_id as usize],
                        spans.max_leaf_radius[v_id as usize],
                        mac,
                    );
                    (r, m / k_int)
                };
                (now == was).then_some(allowed)
            })?;
        stats.certs_checked = checked;
        stats.certs_rechecked = rechecked;
        stats.certs_violated = flipped;
        if scratch.runs.is_empty() {
            self.build_work = 0.0;
            return Some(stats);
        }
        scratch.ensure_segs(1);
        let ListScratch {
            spans, segs, diff, cursor, ord_of, near_ords, runs,
            far_off2, far2, near_off2, near2,
        } = scratch;
        near_off2.clear();
        near2.clear();
        far_off2.clear();
        far2.clear();
        let mut walk_work = 0.0;
        let mut prev = 0usize;
        for &(rs, re) in runs.iter() {
            let (lo, hi) = (rs as usize, re as usize);
            copy_csr_rows(&self.near_off, &self.near, prev, lo, near_off2, near2);
            copy_csr_rows(&self.far_off, &self.far, prev, lo, far_off2, far2);
            let seg = &mut segs[0];
            energy_walk_range(sys, spans, mac, lo, hi, seg, true);
            append_csr(hi - lo, &seg.near_emits, near_off2, near2, diff, cursor);
            append_csr(hi - lo, &seg.far_emits, far_off2, far2, diff, cursor);
            // stage raw step counts (range-independent, final as-is: the
            // rebuild stores them unscaled)
            let mut run_steps = 0i64;
            for (k, d) in seg.sdiff.iter().take(hi - lo).enumerate() {
                run_steps += d;
                self.trav_steps[lo + k] = run_steps as f64;
            }
            walk_work += seg.build_work;
            self.certs.extend_from_slice(&seg.certs);
            stats.rows_rewalked += hi - lo;
            prev = hi;
        }
        copy_csr_rows(&self.near_off, &self.near, prev, nleaves, near_off2, near2);
        copy_csr_rows(&self.far_off, &self.far, prev, nleaves, far_off2, far2);
        near_off2.push(near2.len());
        far_off2.push(far2.len());
        std::mem::swap(&mut self.near_off, near_off2);
        std::mem::swap(&mut self.near, near2);
        std::mem::swap(&mut self.far_off, far_off2);
        std::mem::swap(&mut self.far, far2);

        // rebuild tail: regenerate the ordinal mirror over the new `near`,
        // sort only the re-walked rows (copied rows are already sorted) and
        // rewrite their id column from the sorted ordinals
        ord_of.clear();
        ord_of.resize(ta.num_nodes(), u32::MAX);
        for (i, &l) in ta.leaves().iter().enumerate() {
            ord_of[l as usize] = i as u32;
        }
        near_ords.clear();
        near_ords.extend(self.near.iter().map(|&id| ord_of[id as usize]));
        let leaves = ta.leaves();
        for &(rs, re) in runs.iter() {
            for ord in rs as usize..re as usize {
                let (lo, hi) = (self.near_off[ord], self.near_off[ord + 1]);
                near_ords[lo..hi].sort_unstable();
                for k in lo..hi {
                    self.near[k] = leaves[near_ords[k] as usize];
                }
            }
        }
        'detect: for &(rs, re) in runs.iter() {
            for ord in rs as usize..re as usize {
                if self.near[self.near_off[ord]..self.near_off[ord + 1]]
                    != near2[near_off2[ord]..near_off2[ord + 1]]
                    || self.far[self.far_off[ord]..self.far_off[ord + 1]]
                        != far2[far_off2[ord]..far_off2[ord + 1]]
                {
                    stats.changed = true;
                    break 'detect;
                }
            }
        }
        // per-ordinal near work of the re-walked rows (same count-table
        // arithmetic as the rebuild, so values match bit for bit)
        diff.clear();
        diff.extend(ta.leaves().iter().map(|&l| ta.node(l).count() as i64));
        for &(rs, re) in runs.iter() {
            for ord in rs as usize..re as usize {
                let v_count = diff[ord] as f64;
                let row = &near_ords[self.near_off[ord]..self.near_off[ord + 1]];
                let pairs: i64 = row.iter().map(|&uo| diff[uo as usize]).sum();
                self.near_work[ord] = pairs as f64 * v_count;
            }
        }
        // ownership is a global property — one changed row can flip mirror
        // rows' weights, so the annotation pass re-runs in full (O(near))
        self.annotate_near_ownership(near_ords, cursor);
        if stats.changed {
            self.content_key =
                fold_csr_key(&self.far_off, &self.far, &self.near_off, &self.near);
        }
        self.build_work = walk_work;
        Some(stats)
    }

    /// The near CSR: `(offsets, leaf ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn near_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.near_off, &self.near)
    }

    /// The far CSR: `(offsets, node ids)` grouped by driving-leaf ordinal.
    #[inline]
    pub fn far_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.far_off, &self.far)
    }

    /// Per-ordinal traversal-step counts (work bookkeeping arrays).
    #[inline]
    pub fn step_and_near_work(&self) -> (&[f64], &[f64]) {
        (&self.trav_steps, &self.near_work)
    }

    /// Number of driving `T_A` leaves.
    #[inline]
    pub fn num_vleaves(&self) -> usize {
        self.trav_steps.len()
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
    /// `inv_f_gb` sequence, and every pass is either plain Rust (identical
    /// machine code at every `GB_SIMD` level) or a bit-identical packed
    /// kernel — so the result is `to_bits()`-stable across levels.
    fn near_tile_raw<M: MathMode>(
        &self,
        sys: &GbSystem,
        radii_tree: &[f64],
        ord: usize,
        scratch: &mut EnergyExecScratch,
    ) -> (f64, f64) {
        let v_leaf = sys.ta.leaves()[ord];
        let v = sys.ta.node(v_leaf);
        let work = TRAVERSAL_UNIT * self.trav_steps[ord] + self.near_work[ord];
        scratch.tx.clear();
        scratch.ty.clear();
        scratch.tz.clear();
        scratch.tq.clear();
        scratch.tr.clear();
        for k in self.near_off[ord]..self.near_off[ord + 1] {
            let w = self.near_w[k];
            if w == 0 {
                continue; // mirror ordinal owns this symmetric pair
            }
            let n = sys.ta.node(self.near[k]);
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
        let fars = &self.far[self.far_off[ord]..self.far_off[ord + 1]];
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
            pair_count: self.far.len() as u64,
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
            for &u_id in &self.far[self.far_off[ord]..self.far_off[ord + 1]] {
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
                let far_nnz: f64 = self.far[self.far_off[ord]..self.far_off[ord + 1]]
                    .iter()
                    .map(|&u| bins.num_nonzero(u) as f64)
                    .sum();
                TRAVERSAL_UNIT * self.trav_steps[ord] + self.near_work[ord] + far_nnz * v_nnz
            })
            .collect()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.far_off.capacity() + self.near_off.capacity()) * std::mem::size_of::<usize>()
            + (self.far.capacity() + self.near.capacity()) * std::mem::size_of::<NodeId>()
            + (self.trav_steps.capacity() + self.near_work.capacity())
                * std::mem::size_of::<f64>()
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
/// plus a scalar tail, combined pairwise. Plain Rust, so identical machine
/// code (and bits) at every `GB_SIMD` level; the fixed stride fixes the
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

/// Exact energy sum of one ordered `(U leaf, V leaf)` pair over the
/// struct-of-arrays atom streams, four-way accumulated. No zero-distance
/// guard: `f_GB(0, R_u R_v) = √(R_u R_v)` is finite and the self terms are
/// part of Eq. 2. Superseded in production by the gathered near tile
/// ([`EnergyLists::execute_leaf`]); kept as the per-pair reference kernel
/// the property tests mirror the tile against.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
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
    let lanes = SimdLevel::active() != SimdLevel::Scalar;
    if M::LANE_ENERGY && lanes {
        // whole-pair ZMM kernel (one masked 8-lane sweep per row, register
        // constants broadcast once per pair); answers only at `Avx512`
        let ur = u.range();
        if let Some(r) = crate::simd::energy_pair8(
            &sys.a_soa.x[ur.clone()],
            &sys.a_soa.y[ur.clone()],
            &sys.a_soa.z[ur.clone()],
            &sys.charge_tree[ur.clone()],
            &radii_tree[ur],
            vx,
            vy,
            vz,
            vq,
            vb,
        ) {
            return r;
        }
    }
    let mut raw = 0.0;
    for ui in u.range() {
        let (ux, uy, uz) = (sys.a_soa.x[ui], sys.a_soa.y[ui], sys.a_soa.z[ui]);
        let qu = sys.charge_tree[ui];
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
        if lanes {
            // Same four accumulators and the same per-lane → accumulator
            // mapping as the scalar stride-4 loop; only the 1/f_GB
            // evaluations are grouped into one 4-lane call. Bit-identical
            // to the scalar path (the default lane kernel *is* four scalar
            // evaluations; VectorMath's packed override is bit-identical
            // to its own scalar form by construction).
            if M::LANE_ENERGY {
                // whole-row packed kernel (distances + 1/f_GB in one AVX2
                // call); consumes whole chunks, 0 when Avx2 isn't active
                k = crate::simd::energy_row4(vx, vy, vz, vq, vb, [ux, uy, uz], ru, &mut s);
            }
            while k + 4 <= m {
                let mut r_sq = [0.0f64; 4];
                let mut rr = [0.0f64; 4];
                for l in 0..4 {
                    let dx = vx[k + l] - ux;
                    let dy = vy[k + l] - uy;
                    let dz = vz[k + l] - uz;
                    r_sq[l] = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
                    rr[l] = ru * vb[k + l];
                }
                let inv = M::inv_f_gb4(r_sq, rr);
                s[0] += vq[k] * inv[0];
                s[1] += vq[k + 1] * inv[1];
                s[2] += vq[k + 2] * inv[2];
                s[3] += vq[k + 3] * inv[3];
                k += 4;
            }
        } else {
            while k + 4 <= m {
                s[0] += term(k);
                s[1] += term(k + 1);
                s[2] += term(k + 2);
                s[3] += term(k + 3);
                k += 4;
            }
        }
        while k < m {
            s[0] += term(k);
            k += 1;
        }
        raw += qu * ((s[0] + s[1]) + (s[2] + s[3]));
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::energy_for_leaf;
    use crate::fastmath::{ApproxMath, ExactMath};
    use crate::gbmath::{R4, R6};
    use crate::integrals::{accumulate_qleaf, push_integrals_to_atoms};
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};

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
                for (a, b) in b1.leaf_work.iter().zip(&bt.leaf_work) {
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
        let expect = (b.far_off.capacity() + b.near_off.capacity())
            * std::mem::size_of::<usize>()
            + (b.far.capacity() + b.near.capacity()) * std::mem::size_of::<NodeId>()
            + b.leaf_work.capacity() * std::mem::size_of::<f64>()
            + b.certs.capacity() * std::mem::size_of::<Cert>();
        assert_eq!(b.memory_bytes(), expect);
        assert!(b.memory_bytes() > 0);
        let e = EnergyLists::build(&sys);
        let expect = (e.far_off.capacity() + e.near_off.capacity())
            * std::mem::size_of::<usize>()
            + (e.far.capacity() + e.near.capacity()) * std::mem::size_of::<NodeId>()
            + (e.trav_steps.capacity() + e.near_work.capacity()) * std::mem::size_of::<f64>()
            + e.near_w.capacity() * std::mem::size_of::<u8>()
            + e.certs.capacity() * std::mem::size_of::<Cert>();
        assert_eq!(e.memory_bytes(), expect);
        // scratch reports spans + per-task buffers + expansion arrays +
        // repair runs and double buffers
        let mut scratch = ListScratch::new();
        let mut lists = BornLists::empty();
        lists.rebuild_with_task_floor(&sys, 3, &mut scratch, 1);
        let expect = scratch.spans.memory_bytes()
            + scratch.segs.iter().map(WalkSeg::memory_bytes).sum::<usize>()
            + scratch.segs.capacity() * std::mem::size_of::<WalkSeg>()
            + scratch.diff.capacity() * std::mem::size_of::<i64>()
            + (scratch.cursor.capacity()
                + scratch.far_off2.capacity()
                + scratch.near_off2.capacity())
                * std::mem::size_of::<usize>()
            + (scratch.ord_of.capacity() + scratch.near_ords.capacity())
                * std::mem::size_of::<u32>()
            + scratch.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + (scratch.far2.capacity() + scratch.near2.capacity())
                * std::mem::size_of::<NodeId>();
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
    /// microkernel with the packed exp pinned to an explicit `GB_SIMD`
    /// level — the in-process mirror of what `far_tile_raw::<VectorMath>`
    /// runs at that level.
    fn eval_tile_at(level: SimdLevel, fd2: &[f64], frr: &[f64], fw: &[f64]) -> f64 {
        let t = fd2.len();
        let mut arg = vec![0.0; t];
        let mut ex = vec![0.0; t];
        for i in 0..t {
            arg[i] = (-fd2[i]) / (4.0 * frr[i]);
        }
        crate::simd::vector_exp_block_at(level, &arg, &mut ex);
        for i in 0..t {
            ex[i] = crate::fastmath::VectorMath::rsqrt(fd2[i] + frr[i] * ex[i]);
        }
        dot8(fw, &ex)
    }

    #[test]
    fn bin_pair_microkernel_matches_scalar_mirror_across_levels() {
        use crate::fastmath::VectorMath;
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
                            let term = qi * qj * inv_f_gb::<VectorMath>(d_sq, rr);
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

                    let mut levels = vec![SimdLevel::Scalar, SimdLevel::Portable];
                    #[cfg(target_arch = "x86_64")]
                    {
                        if is_x86_feature_detected!("avx2") {
                            levels.push(SimdLevel::Avx2);
                        }
                        if is_x86_feature_detected!("avx512f") {
                            levels.push(SimdLevel::Avx512);
                        }
                    }
                    let full0 = eval_tile_at(levels[0], &fd2, &frr, &fw);
                    let conv0 = eval_tile_at(levels[0], &cd2, &crr, &cw);
                    for &lv in &levels {
                        // every GB_SIMD level produces identical bits
                        let full = eval_tile_at(lv, &fd2, &frr, &fw);
                        assert_eq!(full.to_bits(), full0.to_bits(), "K={k} {ci}x{cj} {lv:?}");
                        let conv = eval_tile_at(lv, &cd2, &crr, &cw);
                        assert_eq!(conv.to_bits(), conv0.to_bits(), "K={k} {ci}x{cj} {lv:?}");
                    }
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
        assert!(!cross.near.is_empty());
        assert_rows_ascend(&cross, &sys.ta, "cross receptor x ligand");
        cross.rebuild_cross(&lig.ta, &sys.tq, threshold, &mut scratch);
        assert!(!cross.near.is_empty());
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
            for &a_id in &lists.far[lists.far_off[ord]..lists.far_off[ord + 1]] {
                let delta = qn.centroid - sys.ta.node(a_id).centroid;
                acc.node_s[a_id as usize] +=
                    q_agg.dot(delta) * R6::integrand::<ExactMath>(delta.norm_sq());
            }
            let qr = qn.range();
            for &a_id in &lists.near[lists.near_off[ord]..lists.near_off[ord + 1]] {
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
            for &a_id in &lists.far[lists.far_off[ord]..lists.far_off[ord + 1]] {
                let delta = qn.centroid - ta.node(a_id).centroid;
                acc.node_s[a_id as usize] +=
                    q_agg.dot(delta) * R6::integrand::<ExactMath>(delta.norm_sq());
            }
            for &a_id in &lists.near[lists.near_off[ord]..lists.near_off[ord + 1]] {
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
}

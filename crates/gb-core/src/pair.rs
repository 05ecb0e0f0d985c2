//! Pair-decomposed GB evaluation — the docking fast path.
//!
//! A docking scan evaluates one *receptor* against thousands of rigid
//! *ligand* poses. Rebuilding the merged complex from scratch per pose
//! throws away everything that does not depend on the pose: the receptor's
//! octrees, surface and interaction lists are pose-invariant outright, and
//! the ligand's are pose-invariant *in its own canonical frame* (a rigid
//! transform changes coordinates, not topology). This module keeps the two
//! monomers separate and decomposes the complex evaluation into
//!
//! * **own-surface integrals** — each monomer's surface integrated against
//!   its own atoms, computed once per monomer in its canonical frame and
//!   cached as a flat accumulator image ([`Monomer::self_flat`]);
//! * **cross integrals** — receptor atoms against the *posed* ligand
//!   surface and vice versa, built per pose by
//!   [`BornLists::rebuild_cross`] and run by the same batched executor as
//!   the own-surface lists, over the posed ligand's struct-of-arrays
//!   streams. The two sides are independent (each ends in its monomer's
//!   push and charge bins) and run concurrently on a multi-thread
//!   [`PairScratch`];
//! * **energy** — each monomer's internal terms through its cached energy
//!   lists (with the complex's Born radii), plus the exact cross
//!   atom–atom double sum (`× 2` for both orderings of the raw
//!   all-ordered-pairs sum), each receptor row one energy-tile pass over
//!   the posed ligand's atoms.
//!
//! The decomposition is a *definition* of the pair pipeline, not an
//! approximation layered on the merged-complex pipeline: monomer-internal
//! terms are evaluated in each monomer's canonical frame (the
//! deterministic choice that makes them cacheable — a rigid rotation
//! preserves all pairwise distances, so the canonical-frame value is the
//! physically identical term), and pose-dependent terms are evaluated in
//! the receptor frame. Every step is deterministic, so the same
//! `(receptor, ligand, pose)` always produces bit-identical energies —
//! whether the monomer artifacts came from a cache or were rebuilt — which
//! is the serve layer's warm-vs-cold `to_bits()` contract.

use crate::arena::CachedLists;
use crate::bins::ChargeBins;
use crate::contenthash::{params_key, system_key};
use crate::fastmath::ExactMath;
use crate::gbmath::{finalize_energy, RadiiApprox, R4, R6};
use crate::integrals::{push_integrals_scratch, IntegralAcc};
use crate::interaction::{
    exact_row_raw, AtomStreams, BornLists, EnergyExecScratch, ListScratch, SurfaceStreams,
};
use crate::params::{GbParams, RadiiKind};
use crate::runners::with_kernels;
use crate::system::GbSystem;
use crate::workdiv::{fork_join, segment, segment_count, sum_segments, SegmentPartials};
use gb_geom::{RigidTransform, Soa3, Vec3};
use gb_molecule::Molecule;
use gb_octree::{NodeId, Octree};
use std::sync::Arc;

/// A prepared monomer with every pose-invariant artifact: the system, both
/// interaction lists, the own-surface integral image and the solo (gas- to
/// solvent-phase) energy. This is what the serve cache stores for docking
/// traffic — built once per content key, shared across every pose.
#[derive(Debug)]
pub struct Monomer {
    /// Content key of `(molecule, params)` ([`system_key`]).
    pub key: u64,
    /// Content key of the parameters alone — pair evaluation requires both
    /// monomers to share it.
    pub params_key: u64,
    /// The prepared system in its canonical frame.
    pub sys: Arc<GbSystem>,
    /// Own-surface interaction lists (Born + energy).
    pub lists: Arc<CachedLists>,
    /// Flat accumulator image (`node_s ++ atom_s`) of the own-surface Born
    /// integrals — the starting point of every per-pose accumulation.
    pub self_flat: Vec<f64>,
    /// Billed work of the own-surface phase (list build + integral
    /// execution + push), re-billed per pose so cached and cold paths
    /// account identically.
    pub self_work: f64,
    /// Solo polarization energy of the isolated monomer in kcal/mol.
    pub solo_energy_kcal: f64,
}

impl Monomer {
    /// Prepares a monomer from scratch: system, lists, own-surface
    /// integrals, solo energy.
    pub fn build(molecule: Molecule, params: GbParams) -> Monomer {
        let key = system_key(&molecule, &params);
        let sys = Arc::new(GbSystem::prepare(molecule, params));
        let lists = Arc::new(CachedLists::build(&sys, key));
        Monomer::from_parts(key, sys, lists)
    }

    /// Assembles a monomer from already-cached tiers (tier-1 system and/or
    /// tier-2 lists hits), computing only the own-surface integrals and
    /// solo energy. All paths are deterministic, so the result is
    /// bit-identical to [`Monomer::build`] on the same content.
    pub fn from_parts(key: u64, sys: Arc<GbSystem>, lists: Arc<CachedLists>) -> Monomer {
        assert_eq!(lists.key, key, "lists were built for a different content key");
        let s: &GbSystem = &sys;
        let n = s.num_atoms();
        let mut acc = IntegralAcc::zeros(s);
        let mut work = lists.born.build_work;
        let (mut radii, mut stack) = (vec![0.0; n], Vec::new());
        let born_rows = 0..lists.born.num_qleaves();
        with_kernels!(s.params, K => {
            work += lists.born.execute_range::<ExactMath, K>(s, born_rows, &mut acc);
            work += push_integrals_scratch::<ExactMath, K>(s, &acc, 0..n, &mut radii, &mut stack);
        });
        let self_flat = acc.to_flat();
        let mut bins = ChargeBins::empty();
        bins.recompute(s, &radii);
        let mut exec = EnergyExecScratch::new();
        let (raw, _) = lists.energy.execute_leaves::<ExactMath>(
            s, &bins, &radii, 0..lists.energy.num_vleaves(), &mut exec);
        let solo_energy_kcal = finalize_energy(raw, s.params.tau());
        let pk = params_key(&s.params);
        Monomer {
            key,
            params_key: pk,
            sys,
            lists,
            self_flat,
            self_work: work,
            solo_energy_kcal,
        }
    }

    /// Heap footprint in bytes of the artifacts this monomer owns
    /// exclusively, plus its shares of the `Arc`'d system and lists (billed
    /// here so a cache holding only the `Monomer` still accounts the full
    /// working set).
    pub fn memory_bytes(&self) -> usize {
        self.sys.memory_bytes()
            + self.lists.memory_bytes()
            + self.self_flat.capacity() * std::mem::size_of::<f64>()
    }
}

/// Result of one pair evaluation.
#[derive(Clone, Copy, Debug)]
pub struct PairOutcome {
    /// Polarization energy of the posed complex in kcal/mol.
    pub energy_kcal: f64,
    /// Interaction energy: complex minus both solo energies.
    pub delta_kcal: f64,
    /// Billed work units (own-surface re-bill + cross build/exec + energy).
    pub work: f64,
}

/// Reusable buffers of the per-pose evaluation — one per serve worker, so
/// a warm pose allocates nothing on one thread. Its thread count sets how
/// many threads run a pose: the two Born cross sides run concurrently
/// from 2 threads on, and the energy rows and cross double sum take fixed
/// row segments on every thread. The answer is `to_bits` the same at
/// every count.
#[derive(Debug)]
pub struct PairScratch {
    posed: PosedLigand,
    /// Receptor atoms × posed ligand surface, then posed ligand atoms ×
    /// receptor surface.
    sides: [CrossSide; 2],
    /// One energy tile scratch per thread.
    execs: Vec<EnergyExecScratch>,
    partials: SegmentPartials,
}

impl PairScratch {
    /// Fresh one-thread scratch with no warmed buffers.
    pub fn new() -> PairScratch {
        PairScratch::with_threads(1)
    }

    /// Fresh scratch whose poses run on `threads` threads (0 is taken as
    /// 1): both Born cross sides at once from 2 threads on, and the
    /// energy rows and cross double sum on all of them.
    pub fn with_threads(threads: usize) -> PairScratch {
        PairScratch {
            posed: PosedLigand::new(),
            sides: [CrossSide::new(), CrossSide::new()],
            execs: (0..threads.max(1)).map(|_| EnergyExecScratch::new()).collect(),
            partials: SegmentPartials::new(),
        }
    }
}

impl Default for PairScratch {
    fn default() -> PairScratch {
        PairScratch::new()
    }
}

/// The ligand under the current pose, rewritten in place per pose: both
/// octrees moved rigidly, its atom, q-point and per-point normal streams,
/// and its per-node aggregated normals rotated.
#[derive(Debug)]
pub(crate) struct PosedLigand {
    pub ta: Octree,
    pub tq: Octree,
    atoms: Soa3,
    q: Soa3,
    normals: Soa3,
    agg_normals: Vec<Vec3>,
}

impl PosedLigand {
    pub fn new() -> PosedLigand {
        PosedLigand {
            ta: Octree::build(&[], 1),
            tq: Octree::build(&[], 1),
            atoms: Soa3::default(),
            q: Soa3::default(),
            normals: Soa3::default(),
            agg_normals: Vec::new(),
        }
    }

    /// Poses `sys` by `pose`, reusing every buffer.
    pub fn pose(&mut self, sys: &GbSystem, pose: &RigidTransform) {
        sys.ta.transform_into(pose, &mut self.ta);
        sys.tq.transform_into(pose, &mut self.tq);
        self.atoms.refill(self.ta.points());
        self.q.refill(self.tq.points());
        self.normals.refill_with(sys.q_normal_tree.iter().map(|&v| pose.apply_vector(v)));
        self.agg_normals.clear();
        self.agg_normals.extend(sys.q_normals.iter().map(|&v| pose.apply_vector(v)));
    }

    pub fn atoms(&self) -> AtomStreams<'_> {
        AtomStreams { tree: &self.ta, xyz: &self.atoms }
    }

    /// The posed surface; `sys` is the ligand (its weights do not move).
    pub fn surface<'a>(&'a self, sys: &'a GbSystem) -> SurfaceStreams<'a> {
        SurfaceStreams {
            tree: &self.tq,
            agg_normals: &self.agg_normals,
            xyz: &self.q,
            normals: &self.normals,
            weights: &sys.q_weight_tree,
        }
    }
}

/// One monomer's Born half of a pose: its cross lists against the other
/// monomer's surface, its integrals (cached own-surface image plus the
/// cross terms), the push to Born radii and the charge bins. Each side
/// owns every buffer it writes, so the two run on any threads with the
/// same bits.
#[derive(Debug)]
struct CrossSide {
    lists: BornLists,
    ls: ListScratch,
    acc: IntegralAcc,
    /// Tree-order Born radii of the monomer in the complex.
    radii: Vec<f64>,
    push_stack: Vec<(NodeId, f64)>,
    bins: ChargeBins,
    /// Billed work of the last pose: list build, execution, push.
    work: [f64; 3],
}

impl CrossSide {
    fn new() -> CrossSide {
        CrossSide {
            lists: BornLists::empty(),
            ls: ListScratch::new(),
            acc: IntegralAcc::empty(),
            radii: Vec::new(),
            push_stack: Vec::new(),
            bins: ChargeBins::empty(),
            work: [0.0; 3],
        }
    }

    /// Runs monomer `m`'s half: `atoms` are `m`'s (canonical or posed)
    /// atoms, `surface` the other monomer's.
    fn run<K: RadiiApprox>(&mut self, m: &Monomer, atoms: AtomStreams, surface: SurfaceStreams) {
        let s: &GbSystem = &m.sys;
        let threshold = s.params.radii_mac_threshold();
        self.lists.rebuild_cross(atoms.tree, surface.tree, threshold, &mut self.ls);
        self.acc.reset_for(s);
        self.acc.copy_from_flat(&m.self_flat);
        let ords = 0..self.lists.num_qleaves();
        let exec = self.lists.execute::<K>(atoms, surface, ords, &mut self.acc);
        // the push is topology-only, so it runs in the canonical tree
        // (a posed copy shares it)
        let n = s.num_atoms();
        self.radii.clear();
        self.radii.resize(n, 0.0);
        let (radii, stack) = (&mut self.radii, &mut self.push_stack);
        let push = push_integrals_scratch::<ExactMath, K>(s, &self.acc, 0..n, radii, stack);
        self.bins.recompute(s, &self.radii);
        self.work = [self.lists.build_work, exec, push];
    }
}

/// Evaluates the complex `a + pose(b)` through the pair decomposition.
/// Allocating convenience over [`evaluate_pair_ws`].
pub fn evaluate_pair(a: &Monomer, b: &Monomer, pose: &RigidTransform) -> PairOutcome {
    evaluate_pair_ws(a, b, pose, &mut PairScratch::new())
}

/// [`evaluate_pair`] with caller-owned scratch. `a` is the frame anchor
/// (the receptor); `pose` maps `b`'s canonical frame into `a`'s.
pub fn evaluate_pair_ws(
    a: &Monomer,
    b: &Monomer,
    pose: &RigidTransform,
    scratch: &mut PairScratch,
) -> PairOutcome {
    assert_eq!(a.params_key, b.params_key, "pair evaluation requires shared GB parameters");
    let sa: &GbSystem = &a.sys;
    let sb: &GbSystem = &b.sys;
    let (na, nb) = (sa.num_atoms(), sb.num_atoms());
    scratch.posed.pose(sb, pose);
    let PairScratch { posed, sides, execs, partials } = scratch;
    let posed = &*posed;

    // Born integrals: each monomer starts from its cached own-surface
    // image and adds its posed cross terms, then pushes and bins
    let side = |i: usize, side: &mut CrossSide| {
        with_kernels!(sa.params, K => match i {
            0 => side.run::<K>(a, AtomStreams::of(sa), posed.surface(sb)),
            _ => side.run::<K>(b, posed.atoms(), SurfaceStreams::of(sa)),
        })
    };
    if execs.len() > 1 {
        fork_join(sides, side);
    } else {
        sides.iter_mut().enumerate().for_each(|(i, s)| side(i, s));
    }
    let [sd_a, sd_b] = &*sides;
    let mut work = a.self_work + b.self_work + sd_a.work[0];
    work += sd_a.work[1];
    work += sd_b.work[0];
    work += sd_b.work[1];
    work += sd_a.work[2];
    work += sd_b.work[2];

    // Energy: monomer-internal terms through the cached lists (complex
    // radii), cross terms as the exact ordered-pair double sum — all
    // three in fixed segments on the scratch's threads.
    let (ra, rb) = (&sd_a.radii, &sd_b.radii);
    let (raw_aa, ew_a) = a.lists.energy.execute_rows::<ExactMath, _>(
        sa, &sd_a.bins, ra, 0..a.lists.energy.num_vleaves(), execs, partials);
    let (raw_bb, ew_b) = b.lists.energy.execute_rows::<ExactMath, _>(
        sb, &sd_b.bins, rb, 0..b.lists.energy.num_vleaves(), execs, partials);

    // receptor atoms are the rows: each is one tile pass over the
    // posed ligand's atoms, and segments of rows combine like the
    // energy rows
    let rows = 0..na;
    let cross_segment = |k: usize, s: &mut EnergyExecScratch| {
        let mut raw = 0.0;
        for i in segment(&rows, k) {
            let p = [sa.a_soa.x[i], sa.a_soa.y[i], sa.a_soa.z[i]];
            raw += sa.charge_tree[i]
                * exact_row_raw::<ExactMath>(p, ra[i], &posed.atoms, &sb.charge_tree, rb, s);
        }
        (raw, 0.0)
    };
    let (raw_cross, _) = sum_segments(execs, partials, segment_count(&rows), cross_segment);
    work += ew_a + ew_b + (na * nb) as f64;

    // raw sums count ordered pairs, so the A×B block appears twice
    let raw = raw_aa + raw_bb + 2.0 * raw_cross;
    let energy_kcal = finalize_energy(raw, sa.params.tau());
    PairOutcome {
        energy_kcal,
        delta_kcal: energy_kcal - a.solo_energy_kcal - b.solo_energy_kcal,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::MathMode;
    use gb_geom::Vec3;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn monomer(n: usize, seed: u64) -> Monomer {
        Monomer::build(
            synthesize_protein(&SyntheticParams::with_atoms(n, seed)),
            GbParams::default(),
        )
    }

    /// What a pose produces: both monomers' tree-order Born radii in the
    /// complex, its energy and the interaction energy.
    struct PoseResult {
        radii: [Vec<f64>; 2],
        energy_kcal: f64,
        delta_kcal: f64,
    }

    /// Reference Born cross execution: one scalar `(q-point, atom)` loop
    /// nest per near entry over the AoS posed trees, with no streams and
    /// no batching. `agg`, `normals` and `weights` are `tq`'s per-node
    /// aggregated normals, per-point normals and per-point weights.
    fn scalar_cross(
        lists: &BornLists,
        ta: &Octree,
        tq: &Octree,
        (agg, normals, weights): (&[Vec3], &[Vec3], &[f64]),
        acc: &mut IntegralAcc,
    ) {
        let ((far_off, far), (near_off, near)) = (lists.far_csr(), lists.near_csr());
        for ord in 0..lists.num_qleaves() {
            let q_leaf = tq.leaves()[ord];
            let qn = tq.node(q_leaf);
            for &a_id in &far[far_off[ord]..far_off[ord + 1]] {
                let delta = qn.centroid - ta.node(a_id).centroid;
                acc.node_s[a_id as usize] += agg[q_leaf as usize].dot(delta)
                    * R6::integrand(delta.norm_sq());
            }
            for &a_id in &near[near_off[ord]..near_off[ord + 1]] {
                for k in qn.range() {
                    for i in ta.node(a_id).range() {
                        let d = tq.points()[k] - ta.points()[i];
                        let d2 = d.norm_sq();
                        if d2 > 0.0 {
                            acc.atom_s[i] +=
                                weights[k] * d.dot(normals[k]) * R6::integrand(d2);
                        }
                    }
                }
            }
        }
    }

    /// Independent pose oracle: the scalar Born cross loops above over
    /// freshly posed trees, and the cross energy as a plain
    /// row-by-row double sum over AoS points. Only the list build, the
    /// push and the monomer-internal energy rows are shared with the pair
    /// path.
    fn pose_oracle(a: &Monomer, b: &Monomer, pose: &RigidTransform) -> PoseResult {
        let (sa, sb): (&GbSystem, &GbSystem) = (&a.sys, &b.sys);
        let moved = |tree: &Octree| {
            let mut out = Octree::build(&[], 1);
            tree.transform_into(pose, &mut out);
            out
        };
        let (tb_a, tb_q) = (moved(&sb.ta), moved(&sb.tq));
        let rotate = |v: &[Vec3]| v.iter().map(|&n| pose.apply_vector(n)).collect::<Vec<_>>();
        let (agg_b, normals_b) = (rotate(&sb.q_normals), rotate(&sb.q_normal_tree));
        let radii = |m: &Monomer, ta: &Octree, tq: &Octree, surface| {
            let s: &GbSystem = &m.sys;
            let mut lists = BornLists::empty();
            let threshold = s.params.radii_mac_threshold();
            lists.rebuild_cross(ta, tq, threshold, &mut ListScratch::new());
            let mut acc = IntegralAcc::zeros(s);
            acc.copy_from_flat(&m.self_flat);
            scalar_cross(&lists, ta, tq, surface, &mut acc);
            let mut radii = vec![0.0; s.num_atoms()];
            let all = 0..s.num_atoms();
            push_integrals_scratch::<ExactMath, R6>(s, &acc, all, &mut radii, &mut Vec::new());
            radii
        };
        let ra = radii(a, &sa.ta, &tb_q, (&agg_b, &normals_b, &sb.q_weight_tree));
        let rb = radii(b, &tb_a, &sa.tq, (&sa.q_normals, &sa.q_normal_tree, &sa.q_weight_tree));
        let internal = |m: &Monomer, radii: &[f64]| {
            let bins = ChargeBins::compute(&m.sys, radii);
            let rows = 0..m.lists.energy.num_vleaves();
            let mut exec = EnergyExecScratch::new();
            m.lists.energy.execute_leaves::<ExactMath>(&m.sys, &bins, radii, rows, &mut exec).0
        };
        let mut cross = 0.0;
        for (i, &xi) in sa.ta.points().iter().enumerate() {
            let mut row = 0.0;
            for (j, &xj) in tb_a.points().iter().enumerate() {
                row += sb.charge_tree[j] * ExactMath::inv_f_gb((xi - xj).norm_sq(), ra[i] * rb[j]);
            }
            cross += sa.charge_tree[i] * row;
        }
        let raw = internal(a, &ra) + internal(b, &rb) + 2.0 * cross;
        let energy_kcal = finalize_energy(raw, sa.params.tau());
        PoseResult {
            radii: [ra, rb],
            energy_kcal,
            delta_kcal: energy_kcal - a.solo_energy_kcal - b.solo_energy_kcal,
        }
    }

    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs()
    }

    #[test]
    fn poses_match_the_scalar_oracle() {
        // the batched kernels regroup sums (FMA, strided-8 dot), so the
        // pair path matches the scalar loops to this relative band
        const TOL: f64 = 1e-12;
        let a = monomer(700, 41);
        let b = monomer(70, 42);
        let mut scratch = PairScratch::with_threads(2);
        let mut worst = [0.0f64; 3];
        let mut max_delta = 0.0f64;
        for k in 0..8 {
            let t = k as f64;
            let axis = Vec3::new(0.3 + 0.1 * t, 1.0 - 0.2 * t, 0.5);
            let pose = RigidTransform::rotation_about(Vec3::ZERO, axis, 0.4 + 0.7 * t)
                * RigidTransform::translation(Vec3::new(8.0 + 2.0 * t, -3.0 + t, 2.0 - 0.5 * t));
            let want = pose_oracle(&a, &b, &pose);
            let got = evaluate_pair_ws(&a, &b, &pose, &mut scratch);
            for (side, w) in scratch.sides.iter().zip(&want.radii) {
                for (&g, &w) in side.radii.iter().zip(w) {
                    worst[0] = worst[0].max(rel_err(g, w));
                }
            }
            worst[1] = worst[1].max(rel_err(got.energy_kcal, want.energy_kcal));
            worst[2] = worst[2].max(rel_err(got.delta_kcal, want.delta_kcal));
            max_delta = max_delta.max(want.delta_kcal.abs());
        }
        eprintln!("worst relative radii / E_pol / dE: {worst:?}, max |dE| {max_delta}");
        assert!(worst.iter().all(|&e| e <= TOL), "relative errors {worst:?} past {TOL}");
        // the poses are close enough that the cross terms carry weight
        assert!(max_delta > 1.0, "max |dE| {max_delta} kcal/mol");
    }

    #[test]
    fn pair_evaluation_is_deterministic_and_scratch_independent() {
        let a = monomer(220, 11);
        let b = monomer(60, 12);
        let pose = RigidTransform::rotation_about(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.3, 0.9, 0.1),
            0.7,
        );
        let fresh = evaluate_pair(&a, &b, &pose);
        let mut scratch = PairScratch::new();
        // warm the scratch on a different pose, then re-evaluate
        let other = RigidTransform::translation(Vec3::new(40.0, 0.0, 0.0));
        let _ = evaluate_pair_ws(&a, &b, &other, &mut scratch);
        let warm = evaluate_pair_ws(&a, &b, &pose, &mut scratch);
        assert_eq!(fresh.energy_kcal.to_bits(), warm.energy_kcal.to_bits());
        assert_eq!(fresh.work.to_bits(), warm.work.to_bits());
    }

    #[test]
    fn pair_evaluation_is_bitwise_independent_of_the_thread_count() {
        let a = monomer(1500, 31);
        let b = monomer(80, 32);
        let pose = RigidTransform::rotation_about(
            Vec3::new(-14.0, 2.0, 0.5),
            Vec3::new(0.2, 0.4, 0.9),
            1.1,
        );
        let one = evaluate_pair_ws(&a, &b, &pose, &mut PairScratch::new());
        for threads in [1usize, 2, 3] {
            let mut scratch = PairScratch::with_threads(threads);
            for run in 0..2 {
                let out = evaluate_pair_ws(&a, &b, &pose, &mut scratch);
                let what = format!("{threads} threads, run {run}");
                assert_eq!(out.energy_kcal.to_bits(), one.energy_kcal.to_bits(), "{what}");
                assert_eq!(out.delta_kcal.to_bits(), one.delta_kcal.to_bits(), "{what}");
                assert_eq!(out.work.to_bits(), one.work.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn cached_monomer_matches_cold_rebuild_bitwise() {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(150, 5));
        let p = GbParams::default();
        let cold = Monomer::build(mol.clone(), p);
        let warm = Monomer::from_parts(
            cold.key,
            Arc::clone(&cold.sys),
            Arc::clone(&cold.lists),
        );
        assert_eq!(
            cold.solo_energy_kcal.to_bits(),
            warm.solo_energy_kcal.to_bits()
        );
        let lig = monomer(40, 6);
        let pose = RigidTransform::translation(Vec3::new(25.0, 3.0, -2.0));
        let e_cold = evaluate_pair(&cold, &lig, &pose);
        let e_warm = evaluate_pair(&warm, &lig, &pose);
        assert_eq!(e_cold.energy_kcal.to_bits(), e_warm.energy_kcal.to_bits());
    }

    #[test]
    fn distant_ligand_interaction_energy_is_small() {
        // a ligand far outside the receptor's reach perturbs the complex
        // energy only weakly — sanity that the decomposition wires the
        // cross terms with the right sign and scale
        let a = monomer(200, 21);
        let b = monomer(50, 22);
        let near = evaluate_pair(&a, &b, &RigidTransform::translation(Vec3::new(20.0, 0.0, 0.0)));
        let far =
            evaluate_pair(&a, &b, &RigidTransform::translation(Vec3::new(4000.0, 0.0, 0.0)));
        assert!(far.delta_kcal.abs() < near.delta_kcal.abs() + 1e-6,
            "far {} vs near {}", far.delta_kcal, near.delta_kcal);
        assert!(far.delta_kcal.abs() < 1e-2, "far delta {}", far.delta_kcal);
    }
}

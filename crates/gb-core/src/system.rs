//! [`GbSystem`]: the prepared state every runner consumes.
//!
//! Preparation = sample the molecular surface, build the two octrees
//! (`T_A` over atoms, `T_Q` over quadrature points) and precompute the
//! per-`T_Q`-node pseudo-quadrature-point aggregates
//! `ñ_Q = Σ_{q∈Q} w_q n_q` that the far-field Born integral needs. The
//! paper treats all of this as reusable preprocessing (§IV-C Step 1): the
//! same trees serve every ε, every runner, and — via rigid transforms —
//! every docking pose.

use crate::params::GbParams;
use gb_geom::{Soa3, Vec3};
use gb_molecule::Molecule;
use gb_octree::{Octree, RefitReport, RefitScratch};
use gb_surface::{sample_surface, QuadraturePoints};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mean-leaf-ball drift ratio past which [`GbSystem::refit_frame`] gives
/// up on in-place refits and re-prepares from scratch (see
/// [`Octree::needs_rebuild`]).
const REBUILD_DRIFT_RATIO: f64 = 1.5;

/// Process-global frame-nonce source. Starts at 1 so nonce 0 can mean
/// "no parent frame" unambiguously.
static FRAME_NONCE: AtomicU64 = AtomicU64::new(1);

fn next_frame_nonce() -> u64 {
    FRAME_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Reusable scratch of [`GbSystem::refit_frame`]: per-atom displacements
/// plus both trees' refit scratches. Allocation-free once warmed.
#[derive(Clone, Debug, Default)]
pub struct FrameScratch {
    /// Per-atom displacement of the current frame (original order).
    atom_disp: Vec<Vec3>,
    refit_a: RefitScratch,
    refit_q: RefitScratch,
}

impl FrameScratch {
    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.atom_disp.capacity() * std::mem::size_of::<Vec3>()
            + self.refit_a.memory_bytes()
            + self.refit_q.memory_bytes()
    }
}

/// What [`GbSystem::refit_frame`] did with a new set of positions.
#[derive(Clone, Copy, Debug)]
pub enum FrameUpdate {
    /// Both trees were refitted in place — topology, permutations and all
    /// derived per-point attributes survive. A frame-mode workspace reuses
    /// its interaction lists while the refits' summed displacement bound
    /// stays within its `drift_tol`, and rebuilds them into its warm arenas
    /// otherwise (see [`crate::arena::Workspace::enable_frame_tracking`]).
    Refit(RefitSummary),
    /// Accumulated drift crossed the rebuild threshold: the system was
    /// fully re-prepared (fresh surface, fresh trees, new topology).
    /// Everything derived from the old system must be rebuilt.
    Rebuilt,
}

/// Per-tree refit reports of one frame update.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefitSummary {
    /// Atom tree (`T_A`) refit report.
    pub atoms: RefitReport,
    /// Quadrature tree (`T_Q`) refit report.
    pub quads: RefitReport,
}

/// Prepared system state: molecule, surface, both octrees, aggregates.
#[derive(Clone, Debug)]
pub struct GbSystem {
    /// The input molecule.
    pub molecule: Molecule,
    /// Surface quadrature set `Q`.
    pub surface: QuadraturePoints,
    /// Octree over atom centers (`T_A`).
    pub ta: Octree,
    /// Octree over quadrature points (`T_Q`).
    pub tq: Octree,
    /// Parameters the system was prepared with.
    pub params: GbParams,
    /// Per-`T_Q`-node `Σ w_q n_q` (pseudo-quadrature-point normals).
    pub q_normals: Vec<Vec3>,
    /// Quadrature normals permuted to `T_Q` tree order.
    pub q_normal_tree: Vec<Vec3>,
    /// Quadrature weights permuted to `T_Q` tree order.
    pub q_weight_tree: Vec<f64>,
    /// Atom charges permuted to `T_A` tree order.
    pub charge_tree: Vec<f64>,
    /// Atom vdW radii permuted to `T_A` tree order.
    pub vdw_tree: Vec<f64>,
    /// `T_A` tree-order atom positions as three coordinate streams — the
    /// batched leaf kernels' unit-stride mirror of `ta.points()`.
    pub a_soa: Soa3,
    /// `T_Q` tree-order quadrature positions as coordinate streams.
    pub q_soa: Soa3,
    /// `T_Q` tree-order quadrature normals as coordinate streams.
    pub q_normal_soa: Soa3,
    /// Born-radius cap used when an integral degenerates (Å). Frozen at
    /// preparation; in-place refits keep it so frame results depend only
    /// on geometry, not on the refit/rebuild history.
    pub born_cap: f64,
    /// Identity of the current frame's geometry — unique across every
    /// `prepare`/`refit_frame` in the process, so caches can prove "same
    /// geometry" by nonce equality alone.
    pub frame_nonce: u64,
    /// The frame this geometry was refitted *from* (0 = freshly prepared
    /// or rebuilt — nothing derived from an older frame is reusable).
    pub frame_parent_nonce: u64,
    /// Refit reports of the step from `frame_parent_nonce` to this frame
    /// (all zero when the system was freshly prepared or rebuilt).
    pub last_refit: RefitSummary,
    /// Reusable frame-update scratch.
    frame_scratch: FrameScratch,
}

/// Output of a full GB evaluation.
#[derive(Clone, Debug)]
pub struct GbResult {
    /// Polarization energy in kcal/mol.
    pub energy_kcal: f64,
    /// Born radii by *original* atom index (Å).
    pub born_radii: Vec<f64>,
}

impl GbSystem {
    /// Prepares a system: samples the surface and builds both octrees.
    pub fn prepare(molecule: Molecule, params: GbParams) -> GbSystem {
        let surface = sample_surface(&molecule, &params.surface);
        Self::prepare_with_surface(molecule, surface, params)
    }

    /// Prepares a system from an existing quadrature set (used when the
    /// surface comes from a file or a transformed pose).
    pub fn prepare_with_surface(
        molecule: Molecule,
        surface: QuadraturePoints,
        params: GbParams,
    ) -> GbSystem {
        let ta = Octree::build(molecule.positions(), params.leaf_cap);
        let tq = Octree::build(surface.positions(), params.leaf_cap);

        // Permute per-point attributes into tree order once; every kernel
        // then walks contiguous memory.
        let q_normal_tree: Vec<Vec3> =
            (0..tq.num_points()).map(|i| surface.normals()[tq.point_index(i)]).collect();
        let q_weight_tree: Vec<f64> =
            (0..tq.num_points()).map(|i| surface.weights()[tq.point_index(i)]).collect();
        let charge_tree: Vec<f64> =
            (0..ta.num_points()).map(|i| molecule.charges()[ta.point_index(i)]).collect();
        let vdw_tree: Vec<f64> =
            (0..ta.num_points()).map(|i| molecule.radii()[ta.point_index(i)]).collect();

        // ñ_Q per node: bottom-up aggregate of w_q n_q.
        let q_normals = {
            #[derive(Clone, Default)]
            struct Acc(Vec3);
            tq.aggregate(
                |range| {
                    let mut s = Vec3::ZERO;
                    for i in range {
                        s += q_normal_tree[i] * q_weight_tree[i];
                    }
                    Acc(s)
                },
                |a, b| a.0 += b.0,
            )
            .into_iter()
            .map(|a| a.0)
            .collect()
        };

        // Born radii may never exceed the system scale by much; cap at 100×
        // the bounding-sphere diameter (effectively "no solvent screening").
        let born_cap = 200.0 * ta.bbox().circumradius().max(1.0);

        let a_soa = Soa3::from_vec3s(ta.points());
        let q_soa = Soa3::from_vec3s(tq.points());
        let q_normal_soa = Soa3::from_vec3s(&q_normal_tree);

        GbSystem {
            molecule,
            surface,
            ta,
            tq,
            params,
            q_normals,
            q_normal_tree,
            q_weight_tree,
            charge_tree,
            vdw_tree,
            a_soa,
            q_soa,
            q_normal_soa,
            born_cap,
            frame_nonce: next_frame_nonce(),
            frame_parent_nonce: 0,
            last_refit: RefitSummary::default(),
            frame_scratch: FrameScratch::default(),
        }
    }

    /// Advances the system to a new frame given updated atom positions
    /// (original atom order).
    ///
    /// The cheap path refits both octrees in place: quadrature points ride
    /// rigidly with their owning atom (the sampler's per-point `owners`
    /// channel), so the surface translates piecewise without resampling,
    /// and tree topology, permutations and all permuted per-point
    /// attributes (charges, radii, weights, normals, `ñ_Q` aggregates)
    /// survive untouched. Only positions — `ta`/`tq` geometry and the SoA
    /// mirrors — change. `frame_parent_nonce` then names the frame the
    /// geometry came from and `last_refit` how far it moved, which is what
    /// lets [`crate::arena::Workspace`] reuse interaction lists across
    /// frames.
    ///
    /// When accumulated drift makes refitted bounds too loose
    /// ([`Octree::needs_rebuild`] at ratio 1.5 on either tree), the system
    /// re-prepares from scratch and returns [`FrameUpdate::Rebuilt`]:
    /// everything derived from the old frame is invalid.
    pub fn refit_frame(&mut self, new_positions: &[Vec3]) -> FrameUpdate {
        assert_eq!(
            new_positions.len(),
            self.molecule.len(),
            "refit_frame: position count must match atom count"
        );
        assert!(
            self.surface.has_owners(),
            "refit_frame requires per-quadrature-point atom owners"
        );

        // Per-atom displacement in original order, then move the surface
        // rigidly with its owning atoms.
        let disp = &mut self.frame_scratch.atom_disp;
        disp.clear();
        disp.extend(
            new_positions.iter().zip(self.molecule.positions()).map(|(&n, &o)| n - o),
        );
        self.molecule.set_positions(new_positions);
        let disp = std::mem::take(&mut self.frame_scratch.atom_disp);
        self.surface.displace_by_owners(&disp);
        self.frame_scratch.atom_disp = disp;

        let atoms = self.ta.refit_with(self.molecule.positions(), &mut self.frame_scratch.refit_a);
        let quads = self.tq.refit_with(self.surface.positions(), &mut self.frame_scratch.refit_q);

        if self.ta.needs_rebuild(REBUILD_DRIFT_RATIO) || self.tq.needs_rebuild(REBUILD_DRIFT_RATIO)
        {
            self.reprepare();
            return FrameUpdate::Rebuilt;
        }

        self.a_soa.refill(self.ta.points());
        self.q_soa.refill(self.tq.points());

        self.frame_parent_nonce = self.frame_nonce;
        self.frame_nonce = next_frame_nonce();
        self.last_refit = RefitSummary { atoms, quads };
        FrameUpdate::Refit(self.last_refit)
    }

    /// Rebuilds the whole system from the molecule's current positions —
    /// fresh surface sample, fresh trees, new topology. The frame lineage
    /// is cut (`frame_parent_nonce = 0`).
    pub fn reprepare(&mut self) {
        let molecule = std::mem::take(&mut self.molecule);
        let params = self.params;
        *self = GbSystem::prepare(molecule, params);
    }

    /// Number of atoms `M`.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.molecule.len()
    }

    /// Number of quadrature points `N`.
    #[inline]
    pub fn num_qpoints(&self) -> usize {
        self.surface.len()
    }

    /// Maps Born radii from `T_A` tree order back to original atom order.
    pub fn radii_to_original(&self, radii_tree: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.radii_to_original_into(radii_tree, &mut out);
        out
    }

    /// [`Self::radii_to_original`] into a reused buffer (cleared,
    /// capacity kept).
    pub fn radii_to_original_into(&self, radii_tree: &[f64], out: &mut Vec<f64>) {
        assert_eq!(radii_tree.len(), self.num_atoms());
        out.clear();
        out.resize(radii_tree.len(), 0.0);
        for (pos, &r) in radii_tree.iter().enumerate() {
            out[self.ta.point_index(pos)] = r;
        }
    }

    /// Maps per-atom values from original order into `T_A` tree order.
    pub fn to_tree_order(&self, original: &[f64]) -> Vec<f64> {
        assert_eq!(original.len(), self.num_atoms());
        (0..self.num_atoms()).map(|pos| original[self.ta.point_index(pos)]).collect()
    }

    /// Replicated memory footprint of one rank's copy of the system, in
    /// bytes — what a real MPI process would hold (the paper's §V-B
    /// 8.2 GB-vs-1.4 GB accounting).
    pub fn memory_bytes(&self) -> usize {
        self.molecule.memory_bytes()
            + self.surface.memory_bytes()
            + self.ta.memory_bytes()
            + self.tq.memory_bytes()
            + self.q_normals.capacity() * std::mem::size_of::<Vec3>()
            + self.q_normal_tree.capacity() * std::mem::size_of::<Vec3>()
            + (self.q_weight_tree.capacity()
                + self.charge_tree.capacity()
                + self.vdw_tree.capacity())
                * std::mem::size_of::<f64>()
            + self.a_soa.memory_bytes()
            + self.q_soa.memory_bytes()
            + self.q_normal_soa.memory_bytes()
            + self.frame_scratch.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn small_system() -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(300, 4));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn preparation_builds_consistent_trees() {
        let sys = small_system();
        assert_eq!(sys.ta.num_points(), sys.num_atoms());
        assert_eq!(sys.tq.num_points(), sys.num_qpoints());
        assert!(sys.num_qpoints() > 0);
        sys.ta.validate().unwrap();
        sys.tq.validate().unwrap();
        assert_eq!(sys.q_normals.len(), sys.tq.num_nodes());
        assert_eq!(sys.charge_tree.len(), sys.num_atoms());
        assert_eq!(sys.a_soa.len(), sys.num_atoms());
        assert_eq!(sys.q_soa.len(), sys.num_qpoints());
        assert_eq!(sys.q_normal_soa.len(), sys.num_qpoints());
        for pos in 0..sys.num_atoms() {
            assert_eq!(sys.a_soa.get(pos), sys.ta.points()[pos]);
        }
        for pos in 0..sys.num_qpoints() {
            assert_eq!(sys.q_soa.get(pos), sys.tq.points()[pos]);
            assert_eq!(sys.q_normal_soa.get(pos), sys.q_normal_tree[pos]);
        }
    }

    #[test]
    fn root_aggregate_is_total_weighted_normal() {
        let sys = small_system();
        let mut total = Vec3::ZERO;
        for k in 0..sys.surface.len() {
            total += sys.surface.normals()[k] * sys.surface.weights()[k];
        }
        let root = sys.q_normals[0];
        assert!((total - root).norm() < 1e-6 * total.norm().max(1.0));
    }

    #[test]
    fn closed_surface_normals_nearly_cancel() {
        // ∮ n dS = 0 over a closed surface; the aggregate at the root should
        // be tiny relative to the total area.
        let sys = small_system();
        let area = sys.surface.total_area();
        assert!(sys.q_normals[0].norm() < 0.05 * area, "surface normals do not cancel");
    }

    #[test]
    fn permutation_roundtrip() {
        let sys = small_system();
        let original: Vec<f64> = (0..sys.num_atoms()).map(|i| i as f64).collect();
        let tree = sys.to_tree_order(&original);
        let back = sys.radii_to_original(&tree);
        assert_eq!(back, original);
        // charge_tree really is the permuted charges
        for pos in 0..sys.num_atoms() {
            assert_eq!(sys.charge_tree[pos], sys.molecule.charges()[sys.ta.point_index(pos)]);
        }
    }

    #[test]
    fn refit_frame_translation_preserves_derived_state_bitwise() {
        let mut sys = small_system();
        let baseline = small_system_clone_fields(&sys);
        let shift = Vec3::new(0.25, -0.5, 1.0);
        let moved: Vec<Vec3> = sys.molecule.positions().iter().map(|&p| p + shift).collect();
        let nonce0 = sys.frame_nonce;

        match sys.refit_frame(&moved) {
            FrameUpdate::Refit(s) => {
                assert!(s.atoms.max_displacement > 0.0);
                assert!(s.quads.max_displacement > 0.0);
            }
            FrameUpdate::Rebuilt => panic!("small translation must not force a rebuild"),
        }

        // Lineage: parent is the old frame, nonce is fresh.
        assert_eq!(sys.frame_parent_nonce, nonce0);
        assert_ne!(sys.frame_nonce, nonce0);

        // Topology-derived state is untouched bit for bit.
        assert_eq!(sys.ta.order(), baseline.order_a.as_slice());
        assert_eq!(sys.tq.order(), baseline.order_q.as_slice());
        assert_eq!(sys.charge_tree, baseline.charge_tree);
        assert_eq!(sys.vdw_tree, baseline.vdw_tree);
        assert_eq!(sys.q_weight_tree, baseline.q_weight_tree);
        assert_eq!(sys.q_normal_tree, baseline.q_normal_tree);
        // ñ_Q is translation-invariant (Σ w n doesn't see positions).
        for (a, b) in sys.q_normals.iter().zip(&baseline.q_normals) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(sys.born_cap.to_bits(), baseline.born_cap.to_bits());

        // Positions moved rigidly everywhere: tree points, SoA mirrors,
        // surface points.
        for pos in 0..sys.num_atoms() {
            let expect = baseline.pts_a[pos] + shift;
            assert!((sys.ta.points()[pos] - expect).norm() < 1e-12);
            assert!((sys.a_soa.get(pos) - expect).norm() < 1e-12);
        }
        for pos in 0..sys.num_qpoints() {
            let expect = baseline.pts_q[pos] + shift;
            assert!((sys.tq.points()[pos] - expect).norm() < 1e-12);
            assert!((sys.q_soa.get(pos) - expect).norm() < 1e-12);
        }
    }

    struct Baseline {
        order_a: Vec<u32>,
        order_q: Vec<u32>,
        charge_tree: Vec<f64>,
        vdw_tree: Vec<f64>,
        q_weight_tree: Vec<f64>,
        q_normal_tree: Vec<Vec3>,
        q_normals: Vec<Vec3>,
        born_cap: f64,
        pts_a: Vec<Vec3>,
        pts_q: Vec<Vec3>,
    }

    fn small_system_clone_fields(sys: &GbSystem) -> Baseline {
        Baseline {
            order_a: sys.ta.order().to_vec(),
            order_q: sys.tq.order().to_vec(),
            charge_tree: sys.charge_tree.clone(),
            vdw_tree: sys.vdw_tree.clone(),
            q_weight_tree: sys.q_weight_tree.clone(),
            q_normal_tree: sys.q_normal_tree.clone(),
            q_normals: sys.q_normals.clone(),
            born_cap: sys.born_cap,
            pts_a: sys.ta.points().to_vec(),
            pts_q: sys.tq.points().to_vec(),
        }
    }

    #[test]
    fn refit_frame_identity_is_a_noop_frame() {
        let mut sys = small_system();
        let same: Vec<Vec3> = sys.molecule.positions().to_vec();
        let nonce0 = sys.frame_nonce;
        match sys.refit_frame(&same) {
            FrameUpdate::Refit(s) => {
                assert_eq!(s.atoms.max_displacement, 0.0);
                assert_eq!(s.quads.max_displacement, 0.0);
                assert_eq!(s.atoms.dirty_nodes, 0);
                assert_eq!(s.quads.dirty_nodes, 0);
            }
            FrameUpdate::Rebuilt => panic!("identity refit must not rebuild"),
        }
        assert_eq!(sys.frame_parent_nonce, nonce0);
        assert_eq!(sys.last_refit.atoms.dirty_nodes, 0);
    }

    #[test]
    fn nan_position_is_motion_not_a_stale_frame() {
        use crate::runners::serial::run_serial_ws;
        use crate::Workspace;

        let mut sys = GbSystem::prepare(
            synthesize_protein(&SyntheticParams::with_atoms(600, 4)),
            GbParams::default(),
        );
        let mut ws = Workspace::new();
        ws.enable_frame_tracking(0.0);
        let e0 = run_serial_ws(&sys, &mut ws).energy_kcal;
        assert!(e0.is_finite());
        let mut moved = sys.molecule.positions().to_vec();
        moved[17].x = f64::NAN;
        match sys.refit_frame(&moved) {
            FrameUpdate::Refit(s) => assert!(!s.atoms.max_displacement.is_finite()),
            FrameUpdate::Rebuilt => panic!("a single NaN must not re-prepare"),
        }
        let pos = sys.ta.order().iter().position(|&o| o == 17).unwrap();
        assert!(sys.ta.points()[pos].x.is_nan(), "the tree must hold the NaN");
        // no panic, no stale energy: the frame rebuilds and comes out NaN
        let e1 = run_serial_ws(&sys, &mut ws).energy_kcal;
        assert_eq!(ws.last_energy_path, crate::ListPath::Rebuilt);
        assert_ne!(e1.to_bits(), e0.to_bits());
        assert!(!e1.is_finite());
    }

    #[test]
    fn refit_frame_nonces_chain_across_frames() {
        let mut sys = small_system();
        let mut parent = sys.frame_nonce;
        for k in 0..3 {
            let moved: Vec<Vec3> = sys
                .molecule
                .positions()
                .iter()
                .map(|&p| p + Vec3::new(0.01 * (k + 1) as f64, 0.0, 0.0))
                .collect();
            match sys.refit_frame(&moved) {
                FrameUpdate::Refit(_) => {}
                FrameUpdate::Rebuilt => panic!("tiny drift must not rebuild"),
            }
            assert_eq!(sys.frame_parent_nonce, parent);
            assert!(sys.frame_nonce > parent);
            parent = sys.frame_nonce;
        }
    }

    #[test]
    fn refit_frame_rebuilds_on_large_scatter() {
        use gb_geom::DetRng;
        let mut sys = small_system();
        let mut rng = DetRng::new(99);
        // Scatter atoms across a much larger box than the original system —
        // refitted leaf balls become useless, forcing a rebuild.
        let scattered: Vec<Vec3> = (0..sys.num_atoms())
            .map(|_| {
                Vec3::new(
                    rng.f64_in(-500.0, 500.0),
                    rng.f64_in(-500.0, 500.0),
                    rng.f64_in(-500.0, 500.0),
                )
            })
            .collect();
        match sys.refit_frame(&scattered) {
            FrameUpdate::Rebuilt => {}
            FrameUpdate::Refit(_) => panic!("scatter should trigger a rebuild"),
        }
        // Rebuild cuts the lineage and yields a coherent fresh system.
        assert_eq!(sys.frame_parent_nonce, 0);
        sys.ta.validate().unwrap();
        sys.tq.validate().unwrap();
        assert_eq!(sys.charge_tree.len(), sys.num_atoms());
        for pos in 0..sys.num_atoms() {
            assert_eq!(sys.a_soa.get(pos), sys.ta.points()[pos]);
        }
    }

    #[test]
    fn memory_accounting_positive_and_scaling() {
        let small = small_system();
        let big = GbSystem::prepare(
            synthesize_protein(&SyntheticParams::with_atoms(2_000, 4)),
            GbParams::default(),
        );
        assert!(small.memory_bytes() > 0);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}

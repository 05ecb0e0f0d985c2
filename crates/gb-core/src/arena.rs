//! Reusable phase arenas — the "allocation-free superstep" layer.
//!
//! A [`Workspace`] owns every buffer the pipeline phases need between
//! supersteps: the interaction lists (rebuilt in place), the sweep scratch,
//! the integral accumulators, the Born-radii vectors, the charge bins and
//! the work-division ranges. Running a step through the `_ws` runner
//! variants (e.g. [`run_serial_ws`](crate::runners::serial::run_serial_ws))
//! touches the heap only until the capacities warm to the problem size;
//! after that a steady-state superstep performs **zero allocations** on the
//! serial path (verified by `tests/zero_alloc.rs`).
//!
//! Exclusions from the zero-alloc contract, by design:
//! * spawning scope threads for a phase run on more than one thread (the
//!   shared runner, a hybrid rank) allocates inside `std::thread`; the
//!   per-thread partials themselves live in the warm [`ChunkSlot`]s and
//!   the energy step's segment partials in [`Workspace::energy_partials`];
//! * a cluster rank's node-based energy split reads the per-leaf energy
//!   costs ([`EnergyLists::leaf_costs`]), a fresh vector per step;
//! * the simulated collectives (`allreduce`, `allgatherv`) return fresh
//!   vectors, as a real MPI library would manage its own buffers.

use crate::bins::ChargeBins;
use crate::commplan::CommPlan;
use crate::integrals::IntegralAcc;
use crate::interaction::{BornLists, EnergyExecScratch, EnergyLists, ListScratch};
use crate::system::GbSystem;
use crate::workdiv::SegmentPartials;
use gb_octree::NodeId;
use std::ops::Range;
use std::sync::Arc;

/// Immutable own-surface interaction lists shared across workspaces — the
/// tier-2 artifact of the serving layer's content-hash cache. Built once
/// per `(molecule, params)` content key and injected into any number of
/// [`Workspace`]s via [`Workspace::inject_lists`]; because list builds are
/// deterministic, the injected copy is byte-identical to what the
/// workspace would have rebuilt itself, so caching changes wall-clock
/// only — never results and never the billed work units (`build_work`
/// rides along inside the cloned lists).
#[derive(Debug)]
pub struct CachedLists {
    /// Content key ([`crate::contenthash::system_key`]) the lists were
    /// built for — callers must only inject into a workspace about to run
    /// a system with the same key.
    pub key: u64,
    /// Born-phase lists of the full system.
    pub born: BornLists,
    /// Energy-phase lists of the full system.
    pub energy: EnergyLists,
}

impl CachedLists {
    /// Builds both phase lists for `sys`, tagged with its content key.
    pub fn build(sys: &GbSystem, key: u64) -> CachedLists {
        CachedLists {
            key,
            born: BornLists::build(sys),
            energy: EnergyLists::build(sys),
        }
    }

    /// Heap footprint in bytes — what the serve cache's LRU budget charges
    /// for a tier-2 entry.
    pub fn memory_bytes(&self) -> usize {
        self.born.memory_bytes() + self.energy.memory_bytes()
    }
}

/// Per-thread scratch of a multithreaded phase: sub-segment `t` owns slot
/// `t` while it runs, and the in-order merge reads the slots afterwards
/// (the energy step's thread `t` only borrows the tile scratch).
pub struct ChunkSlot {
    /// Partial integral accumulator of the chunk's Born range.
    pub acc: IntegralAcc,
    /// Work units recorded while filling `acc`.
    pub acc_work: f64,
    /// Born radii of the chunk's atom range (`radii[i]` = tree position
    /// `range.start + i`).
    pub radii: Vec<f64>,
    /// Work units of the chunk's push traversal.
    pub push_work: f64,
    /// Traversal stack of the chunk's push phase.
    pub push_stack: Vec<(NodeId, f64)>,
    /// Tile scratch of the thread's energy segments.
    pub energy_exec: EnergyExecScratch,
}

impl AsMut<EnergyExecScratch> for ChunkSlot {
    fn as_mut(&mut self) -> &mut EnergyExecScratch {
        &mut self.energy_exec
    }
}

impl ChunkSlot {
    fn new() -> ChunkSlot {
        ChunkSlot {
            acc: IntegralAcc::empty(),
            acc_work: 0.0,
            radii: Vec::new(),
            push_work: 0.0,
            push_stack: Vec::new(),
            energy_exec: EnergyExecScratch::new(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.acc.memory_bytes()
            + self.radii.capacity() * std::mem::size_of::<f64>()
            + self.push_stack.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.energy_exec.memory_bytes()
    }
}

/// Superstep checkpoint of the distributed pipeline: the state at the last
/// completed phase boundary, kept in the [`Workspace`] so a self-healing
/// replay (`SimCluster::with_recovery`) restarts the rank program there
/// instead of recomputing every phase. Two boundaries are recorded:
///
/// * `step == 3` — the combined integral accumulator (the partial-integral
///   slots after the allreduce / sparse exchange) plus the work billed so
///   far;
/// * `step == 5` — additionally the full tree-order Born radii exactly as
///   the allgatherv delivered them, so a restart reproduces steps 6–7
///   `to_bits()`-identically.
///
/// `step == 0` means "no checkpoint". The buffers are arenas like any
/// other workspace member: cleared and refilled in place, counted by
/// [`Workspace::memory_bytes`], never shrunk.
pub struct SuperstepCheckpoint {
    /// Deepest completed pipeline step (0 = none, 3 or 5).
    pub step: u8,
    /// Flat image of the combined integral accumulator (`step >= 3`).
    pub flat: Vec<f64>,
    /// Full tree-order Born radii (`step >= 5`).
    pub radii_tree: Vec<f64>,
    /// Ledger work units billed up to the checkpoint; re-billed on restore
    /// so a recovered run's accounting stays comparable to a fault-free
    /// run's.
    pub work: f64,
    /// Run-shape guard: atom count the checkpoint was taken for.
    pub atoms: usize,
    /// Run-shape guard: `T_A` node count.
    pub nodes: usize,
    /// Run-shape guard: rank count.
    pub ranks: usize,
}

impl SuperstepCheckpoint {
    fn new() -> SuperstepCheckpoint {
        SuperstepCheckpoint {
            step: 0,
            flat: Vec::new(),
            radii_tree: Vec::new(),
            work: 0.0,
            atoms: 0,
            nodes: 0,
            ranks: 0,
        }
    }

    /// Discards the checkpoint (buffers keep their capacity). Called at
    /// the start of every *fresh* run attempt so a replay can only ever
    /// restore state from an earlier attempt of the same run.
    pub fn invalidate(&mut self) {
        self.step = 0;
    }

    /// The deepest completed step this checkpoint can restore for a run of
    /// the given shape (0 when the shape does not match — e.g. a reused
    /// workspace whose last run had a different system or rank count).
    pub fn valid_step(&self, atoms: usize, nodes: usize, ranks: usize) -> u8 {
        if self.atoms == atoms && self.nodes == nodes && self.ranks == ranks {
            self.step
        } else {
            0
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.flat.capacity() + self.radii_tree.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Result of a workspace-backed pipeline step. The Born radii stay in the
/// workspace (`radii_out`, original atom order) so the steady-state step
/// returns only scalars.
#[derive(Clone, Copy, Debug)]
pub struct WsOutput {
    /// Polarization energy in kcal/mol.
    pub energy_kcal: f64,
    /// Work units of the Born phase (list build + execution + push).
    pub born_work: f64,
    /// Work units of the energy phase (list build + execution).
    pub energy_work: f64,
}

/// All reusable state of one pipeline instance. See the module docs for
/// the allocation contract.
pub struct Workspace {
    /// Born-phase interaction lists, rebuilt in place each superstep.
    pub born: BornLists,
    /// Energy-phase interaction lists, rebuilt in place each superstep.
    pub energy: EnergyLists,
    /// Sweep scratch of the Born list build.
    pub born_scratch: ListScratch,
    /// Sweep scratch of the energy list build.
    pub energy_scratch: ListScratch,
    /// Tile scratch of the single-threaded energy execution (the chunk
    /// slots carry their own, one per thread).
    pub energy_exec: EnergyExecScratch,
    /// Integral accumulators (full system size).
    pub acc: IntegralAcc,
    /// Energy-phase charge bins, recomputed in place.
    pub bins: ChargeBins,
    /// Born radii in `T_A` tree order (also doubles as the per-rank push
    /// buffer in the distributed runners).
    pub radii_tree: Vec<f64>,
    /// Born radii in original atom order — the step's vector result.
    pub radii_out: Vec<f64>,
    /// Traversal stack of the push phase.
    pub push_stack: Vec<(NodeId, f64)>,
    /// Flat accumulator image for the allreduce step.
    pub flat: Vec<f64>,
    /// Work-balanced driving-leaf segments.
    pub seg_ranges: Vec<Range<usize>>,
    /// Even atom segments of the push phase.
    pub atom_ranges: Vec<Range<usize>>,
    /// Per-thread sub-segments of a multithreaded phase.
    pub leaf_ranges: Vec<Range<usize>>,
    /// Per-thread slots of a multithreaded phase.
    pub slots: Vec<ChunkSlot>,
    /// Segment partials of a multithreaded energy step.
    pub energy_partials: SegmentPartials,
    /// Cached communication plan of the sparse cluster paths
    /// (produced/consumed slot sets, keyed on the list structure).
    pub plan: CommPlan,
    /// Owner-side reduction buffer of the sparse path (this rank's owned
    /// slot interval).
    pub owned_vals: Vec<f64>,
    /// Superstep checkpoint of the distributed pipeline (recovery restart
    /// state; `step == 0` outside self-healing runs).
    pub checkpoint: SuperstepCheckpoint,
    /// Whether this workspace's rank already billed the replicated-memory
    /// footprint — replication is a property of the resident arenas, so it
    /// is charged once per workspace lifetime, not once per superstep.
    pub replicated_billed: bool,
    /// Injected pre-built interaction lists (the serve layer's tier-2 cache
    /// hit). When set, [`Workspace::ready_born_lists`] /
    /// [`Workspace::ready_energy_lists`] clone from here instead of walking
    /// the trees. Not counted by [`Workspace::memory_bytes`] — the `Arc` is
    /// shared and the cache bills it once.
    pub cached: Option<Arc<CachedLists>>,
    /// Frame mode on/off (see [`Workspace::enable_frame_tracking`]).
    frame_tracking: bool,
    /// Displacement bound up to which frames reuse their lists (0.0 =
    /// exact mode: only identity frames reuse).
    drift_tol: f64,
    /// Frame provenance of `self.born`.
    born_frame: ListFrame,
    /// Frame provenance of `self.energy`.
    energy_frame: ListFrame,
    /// How the last [`Workspace::ready_born_lists`] call was satisfied.
    pub last_born_path: ListPath,
    /// How the last [`Workspace::ready_energy_lists`] call was satisfied.
    pub last_energy_path: ListPath,
    /// Telemetry of the last Born-list reuse.
    pub last_born_repair: RepairStats,
    /// Telemetry of the last energy-list reuse.
    pub last_energy_repair: RepairStats,
}

/// Frame provenance of one phase's resident lists.
#[derive(Clone, Copy, Debug, Default)]
struct ListFrame {
    /// Frame nonce the lists are current for (0 = unknown provenance).
    nonce: u64,
    /// List-shape parameter fingerprint the lists were built with.
    params_key: u64,
    /// Displacement bound summed, from zero, over the frames that reused
    /// the lists since they were built (Å).
    disp: f64,
}

impl ListFrame {
    /// Resolves a frame-mode list ready for `sys`, whose refit moved any
    /// node pair this phase's decisions compare by at most `frame_disp`
    /// jointly: skip on the frame the lists were built for, reuse them
    /// while the lineage holds and the summed displacement stays within
    /// `drift_tol`, and rebuild (restarting the sum) otherwise. A NaN or
    /// infinite displacement fails the bound, so such a frame rebuilds.
    fn advance(
        &mut self,
        sys: &GbSystem,
        params_key: u64,
        same_shape: bool,
        frame_disp: f64,
        drift_tol: f64,
    ) -> ListPath {
        let current = self.nonce != 0 && self.params_key == params_key && same_shape;
        if current && self.nonce == sys.frame_nonce {
            return ListPath::Skipped;
        }
        let disp = self.disp + frame_disp;
        let reuse = current && self.nonce == sys.frame_parent_nonce && disp <= drift_tol;
        let disp = if reuse { disp } else { 0.0 };
        *self = ListFrame { nonce: sys.frame_nonce, params_key, disp };
        if reuse {
            ListPath::Repaired
        } else {
            ListPath::Rebuilt
        }
    }
}

/// Telemetry of a frame's list reuse, kept in the shape the trajectory
/// bench reads. A reuse keeps the lists whole, so it re-walks no row.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepairStats;

impl RepairStats {
    /// Fraction of driving rows a reuse re-swept: always 0.
    pub fn rewalk_fraction(&self) -> f64 {
        0.0
    }
}

/// How a `ready_*_lists` call made the workspace's lists current.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListPath {
    /// Full row sweep into the warm arenas (cold start, shape/param
    /// change, cut lineage, displacement past `drift_tol`, or frame mode
    /// off).
    Rebuilt,
    /// Cloned from an injected [`CachedLists`] artifact.
    Injected,
    /// The previous frame's lists reused as they stand: the lineage holds
    /// and the displacement summed since their build is within
    /// `drift_tol`.
    Repaired,
    /// Lists were already current for this exact frame — nothing ran.
    Skipped,
}

impl Workspace {
    /// Fresh workspace with no warmed buffers.
    pub fn new() -> Workspace {
        Workspace {
            born: BornLists::empty(),
            energy: EnergyLists::empty(),
            born_scratch: ListScratch::new(),
            energy_scratch: ListScratch::new(),
            energy_exec: EnergyExecScratch::new(),
            acc: IntegralAcc::empty(),
            bins: ChargeBins::empty(),
            radii_tree: Vec::new(),
            radii_out: Vec::new(),
            push_stack: Vec::new(),
            flat: Vec::new(),
            seg_ranges: Vec::new(),
            atom_ranges: Vec::new(),
            leaf_ranges: Vec::new(),
            slots: Vec::new(),
            energy_partials: SegmentPartials::new(),
            plan: CommPlan::new(),
            owned_vals: Vec::new(),
            checkpoint: SuperstepCheckpoint::new(),
            replicated_billed: false,
            cached: None,
            frame_tracking: false,
            drift_tol: 0.0,
            born_frame: ListFrame::default(),
            energy_frame: ListFrame::default(),
            last_born_path: ListPath::Rebuilt,
            last_energy_path: ListPath::Rebuilt,
            last_born_repair: RepairStats,
            last_energy_repair: RepairStats,
        }
    }

    /// Turns on frame mode. Subsequent [`Workspace::ready_born_lists`] /
    /// [`Workspace::ready_energy_lists`] calls skip when the system is
    /// still on the frame their lists were built for, *reuse* the lists
    /// when it is a [`GbSystem::refit_frame`] descendant and the refits'
    /// summed [`max_displacement`] bound since the build stays within
    /// `drift_tol` Å (atoms + quadrature points per frame for Born, twice
    /// the atoms' for energy), and rebuild into the warm arenas otherwise.
    /// `drift_tol == 0.0` is exact mode: only identity frames reuse, so
    /// every frame's lists equal a scratch rebuild byte for byte.
    /// Idempotent; repeated calls only refresh the tolerance.
    ///
    /// [`max_displacement`]: gb_octree::RefitReport::max_displacement
    pub fn enable_frame_tracking(&mut self, drift_tol: f64) {
        self.frame_tracking = true;
        self.drift_tol = drift_tol.max(0.0);
    }

    /// Whether frame tracking is on.
    pub fn frame_tracking(&self) -> bool {
        self.frame_tracking
    }

    /// Grows the chunk-slot pool to at least `n` entries (never shrinks —
    /// slot capacities stay warm across supersteps).
    pub fn ensure_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(ChunkSlot::new());
        }
    }

    /// Injects pre-built lists for the next run (tier-2 cache hit), or
    /// clears the injection with `None`. The caller owns the key contract:
    /// the lists must have been built for a system with the same content
    /// key as the one about to run.
    pub fn inject_lists(&mut self, cached: Option<Arc<CachedLists>>) {
        self.cached = cached;
    }

    /// Makes `self.born` current for `sys`: clones from the injected cached
    /// artifact when present, otherwise rebuilds in place — or, in frame
    /// mode, skips or reuses (see [`Workspace::enable_frame_tracking`]).
    /// Every runner calls this instead of rebuilding directly, so an
    /// injected artifact flows through serial, distributed and hybrid paths
    /// alike. Clone and rebuild produce byte-identical lists (builds are
    /// deterministic and `build_work` travels inside the clone), so work
    /// accounting and energies cannot observe which branch ran.
    pub fn ready_born_lists(&mut self, sys: &GbSystem) {
        if let Some(c) = &self.cached {
            debug_assert_eq!(c.born.num_qleaves(), sys.tq.num_leaves(),
                "injected Born lists were built for a different system");
            self.born.clone_from(&c.born);
            self.born_frame = ListFrame::default();
            self.last_born_path = ListPath::Injected;
            return;
        }
        self.last_born_path = if self.frame_tracking {
            let r = &sys.last_refit;
            self.born_frame.advance(
                sys,
                sys.params.radii_mac_threshold().to_bits(),
                self.born.num_qleaves() == sys.tq.num_leaves(),
                r.atoms.max_displacement + r.quads.max_displacement,
                self.drift_tol,
            )
        } else {
            self.born_frame = ListFrame::default();
            ListPath::Rebuilt
        };
        match self.last_born_path {
            ListPath::Rebuilt => self.born.rebuild(sys, &mut self.born_scratch),
            ListPath::Repaired => self.born.build_work = 0.0,
            _ => {}
        }
    }

    /// [`Workspace::ready_born_lists`] for the energy-phase lists, whose
    /// node summaries all live in `T_A`.
    pub fn ready_energy_lists(&mut self, sys: &GbSystem) {
        if let Some(c) = &self.cached {
            debug_assert_eq!(c.energy.num_vleaves(), sys.ta.num_leaves(),
                "injected energy lists were built for a different system");
            self.energy.clone_from(&c.energy);
            self.energy_frame = ListFrame::default();
            self.last_energy_path = ListPath::Injected;
            return;
        }
        self.last_energy_path = if self.frame_tracking {
            self.energy_frame.advance(
                sys,
                sys.params.energy_mac_factor().to_bits(),
                self.energy.num_vleaves() == sys.ta.num_leaves(),
                2.0 * sys.last_refit.atoms.max_displacement,
                self.drift_tol,
            )
        } else {
            self.energy_frame = ListFrame::default();
            ListPath::Rebuilt
        };
        match self.last_energy_path {
            ListPath::Rebuilt => self.energy.rebuild(sys, &mut self.energy_scratch),
            ListPath::Repaired => self.energy.build_work = 0.0,
            _ => {}
        }
    }

    /// Drops both phases' frame provenance, so the next ready call
    /// rebuilds. Atom-based division calls this before it sweeps a rank's
    /// partial lists into `born`/`energy`: no later frame-mode or
    /// node-division call can then take them for full ones.
    pub fn forget_list_frames(&mut self) {
        self.born_frame = ListFrame::default();
        self.energy_frame = ListFrame::default();
    }

    /// Heap footprint in bytes across every component arena.
    pub fn memory_bytes(&self) -> usize {
        self.born.memory_bytes()
            + self.energy.memory_bytes()
            + self.born_scratch.memory_bytes()
            + self.energy_scratch.memory_bytes()
            + self.energy_exec.memory_bytes()
            + self.acc.memory_bytes()
            + self.bins.memory_bytes()
            + (self.radii_tree.capacity() + self.radii_out.capacity() + self.flat.capacity())
                * std::mem::size_of::<f64>()
            + self.push_stack.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + (self.seg_ranges.capacity()
                + self.atom_ranges.capacity()
                + self.leaf_ranges.capacity())
                * std::mem::size_of::<Range<usize>>()
            + self.slots.iter().map(ChunkSlot::memory_bytes).sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<ChunkSlot>()
            + self.energy_partials.memory_bytes()
            + self.plan.memory_bytes()
            + self.owned_vals.capacity() * std::mem::size_of::<f64>()
            + self.checkpoint.memory_bytes()
    }
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::serial::{run_serial, run_serial_ws};
    use crate::system::GbSystem;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 33));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn workspace_run_is_bitwise_identical_to_plain_serial() {
        let s = sys(400);
        let plain = run_serial(&s);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            // twice: the second pass runs over warmed buffers
            let out = run_serial_ws(&s, &mut ws);
            assert_eq!(
                plain.result.energy_kcal.to_bits(),
                out.energy_kcal.to_bits()
            );
            assert_eq!(plain.born_work.to_bits(), out.born_work.to_bits());
            assert_eq!(plain.energy_work.to_bits(), out.energy_work.to_bits());
            for (a, b) in plain.result.born_radii.iter().zip(&ws.radii_out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn workspace_survives_changing_system_sizes() {
        let mut ws = Workspace::new();
        for n in [250usize, 60, 400] {
            let s = sys(n);
            let plain = run_serial(&s);
            let out = run_serial_ws(&s, &mut ws);
            assert_eq!(
                plain.result.energy_kcal.to_bits(),
                out.energy_kcal.to_bits(),
                "n={n}"
            );
            assert_eq!(ws.radii_out.len(), n);
        }
    }

    #[test]
    fn exact_frames_rebuild_and_match_scratch_bitwise() {
        use crate::runners::frame::run_frame_serial;
        use crate::system::FrameUpdate;
        use gb_geom::{DetRng, Vec3};

        let mut s = sys(320);
        let mut ws = Workspace::new();
        ws.enable_frame_tracking(0.0);
        // Frame 0: cold start → rebuild.
        run_serial_ws(&s, &mut ws);
        assert_eq!(ws.last_born_path, ListPath::Rebuilt);
        assert_eq!(ws.last_energy_path, ListPath::Rebuilt);
        // Same frame again → both phases skip.
        run_serial_ws(&s, &mut ws);
        assert_eq!(ws.last_born_path, ListPath::Skipped);
        assert_eq!(ws.last_energy_path, ListPath::Skipped);

        let mut rng = DetRng::new(5);
        for frame in 0..3 {
            let jittered: Vec<Vec3> = s
                .molecule
                .positions()
                .iter()
                .map(|&p| p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.005)
                .collect();
            let out = run_frame_serial(&mut s, &jittered, 0.0, &mut ws);
            assert!(matches!(out.update, FrameUpdate::Refit(_)), "frame {frame}");
            // Exact mode reuses nothing that moved.
            assert_eq!(ws.last_born_path, ListPath::Rebuilt, "frame {frame}");
            assert_eq!(ws.last_energy_path, ListPath::Rebuilt, "frame {frame}");
            let cold = run_serial_ws(&s, &mut Workspace::new());
            assert_eq!(out.output.energy_kcal.to_bits(), cold.energy_kcal.to_bits(), "frame {frame}");
            assert_eq!(out.output.born_work.to_bits(), cold.born_work.to_bits(), "frame {frame}");
        }
    }

    #[test]
    fn param_change_forces_rebuild_in_frame_mode() {
        let mut s = sys(260);
        let mut ws = Workspace::new();
        ws.enable_frame_tracking(0.0);
        run_serial_ws(&s, &mut ws);
        assert_eq!(ws.last_born_path, ListPath::Rebuilt);
        // Different MAC ⇒ the resident lists describe the wrong geometry
        // predicate; a skip or repair would be unsound.
        s.params = GbParams::default().with_epsilons(0.7, 0.7);
        run_serial_ws(&s, &mut ws);
        assert_eq!(ws.last_born_path, ListPath::Rebuilt);
        assert_eq!(ws.last_energy_path, ListPath::Rebuilt);
    }

    #[test]
    fn memory_bytes_grows_after_warming() {
        let s = sys(300);
        let mut ws = Workspace::new();
        let cold = ws.memory_bytes();
        run_serial_ws(&s, &mut ws);
        let warm = ws.memory_bytes();
        assert!(
            warm > cold,
            "warming must materialize arenas: {cold} -> {warm}"
        );
        // a second run must not grow the footprint
        run_serial_ws(&s, &mut ws);
        assert_eq!(ws.memory_bytes(), warm);
    }

    #[test]
    fn frame_mode_holds_no_more_memory_than_a_plain_workspace() {
        use crate::runners::frame::run_frame_serial;
        use gb_geom::Vec3;

        // both workspaces see the same frames, so their arenas warm alike;
        // frame mode may add no state of its own on top
        let mut s = sys(500);
        let mut frames = Workspace::new();
        frames.enable_frame_tracking(0.0);
        let mut plain = Workspace::new();
        run_serial_ws(&s, &mut frames);
        run_serial_ws(&s, &mut plain);
        for k in 1..=3 {
            let moved: Vec<Vec3> = s
                .molecule
                .positions()
                .iter()
                .enumerate()
                .map(|(i, &p)| p + Vec3::new((i as f64 * 0.37 + k as f64).sin(), 0.0, 0.0) * 0.01)
                .collect();
            run_frame_serial(&mut s, &moved, 0.0, &mut frames);
            assert_eq!(frames.last_born_path, ListPath::Rebuilt);
            run_serial_ws(&s, &mut plain);
        }
        assert!(
            frames.memory_bytes() <= plain.memory_bytes(),
            "frame mode {} B vs plain {} B",
            frames.memory_bytes(),
            plain.memory_bytes()
        );
    }
}

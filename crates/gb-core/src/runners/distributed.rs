//! The distributed-memory runner — the `OCT_MPI` analog: the paper's
//! 7-step algorithm (Fig. 4) on the simulated cluster.
//!
//! Per rank:
//! 1. hold a replicated copy of the system (octrees, surface, molecule) —
//!    accounted via `record_replicated`;
//! 2. `APPROX-INTEGRALS` for this rank's segment of `T_Q` leaves
//!    (node-based division, executed from the replicated interaction lists
//!    with rank boundaries balanced by measured list work) or atoms
//!    (atom-based, from lists swept with `T_A` clipped to the rank's atom
//!    range);
//! 3. combine the partial integral vectors — either the paper's dense
//!    `MPI_Allreduce`, or (the default) the plan-driven sparse
//!    reduce-scatter + targeted allgatherv of
//!    [`commplan`](crate::commplan). Both modes produce bit-identical
//!    integrals (same ascending-rank summation order);
//! 4. `PUSH-INTEGRALS-TO-ATOMS` for this rank's atom segment;
//! 5. allgather of the Born radii (dense on purpose: the energy phase's
//!    bin recomputation reads the full radii vector on every rank);
//! 6. `APPROX-EPOL` for this rank's segment of `T_A` leaves (atom-based:
//!    the leaves starting in its atom range, from lists swept for those
//!    rows only);
//! 7. reduce of the partial energies to the master.
//!
//! The same rank program is the hybrid runner's (`OCT_MPI+CILK`): steps 2,
//! 4 and 6 (node division) are the [phase steps](crate::runners) the serial
//! and shared runners run, called over the rank's segment at
//! `threads_per_rank` threads. With more than one thread the Born and
//! push steps cut the segment into fixed sub-segments, balanced by the
//! same measured work that cuts ranks, and merge them in order; the
//! energy step's threads take fixed row segments and add them in segment
//! order. So the result never depends on the schedule. One thread per
//! rank runs inline, so the distributed runner spawns nothing.

use crate::arena::Workspace;
use crate::commplan::CommMode;
use crate::error::GbError;
use crate::fastmath::{ApproxMath, ExactMath, MathMode};
use crate::gbmath::{finalize_energy, RadiiApprox, R4, R6};
use crate::params::{MathKind, RadiiKind};
use crate::runners::sparse::{publish_to_consumers, reduce_pairs_to_owners, reduce_to_owners_single};
use crate::runners::{bin_build_work, execute_born, execute_energy, push_segment, with_kernels};
use crate::system::{GbResult, GbSystem};
use crate::workdiv::{even_ranges_into, work_balanced_segments_into, WorkDivision};
use gb_cluster::{Comm, CommError, RunReport, SimCluster};
use parking_lot::Mutex;

/// Runs the 7-step distributed algorithm on `ranks` single-threaded ranks.
///
/// Returns the master's result and the cluster accounting report. The
/// energy is identical on every rank (deterministic rank-order reduction),
/// and — for node-based division — identical to the serial runner's.
///
/// Panics if the cluster runtime fails beneath the job; use
/// [`try_run_distributed`] to get a typed [`GbError`] instead.
pub fn run_distributed(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
) -> (GbResult, RunReport) {
    try_run_distributed(sys, cluster, ranks, division)
        .unwrap_or_else(|e| panic!("distributed run failed: {e}"))
}

/// Fallible variant of [`run_distributed`]: a rank death, injected fault
/// or collective timeout degrades into a [`GbError`] carrying every rank's
/// last-op diagnostics, instead of panicking the process.
pub fn try_run_distributed(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
) -> Result<(GbResult, RunReport), GbError> {
    try_run_distributed_mode(sys, cluster, ranks, division, CommMode::default())
}

/// [`try_run_distributed`] with an explicit integral-combine mode:
/// [`CommMode::Dense`] forces the paper's full allreduce (the baseline the
/// equivalence tests and the bench's `comm_bytes_dense` column measure),
/// [`CommMode::Sparse`] — the default — runs the communication plan.
pub fn try_run_distributed_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
    mode: CommMode,
) -> Result<(GbResult, RunReport), GbError> {
    let workspaces: Vec<Mutex<Workspace>> =
        (0..ranks).map(|_| Mutex::new(Workspace::new())).collect();
    try_run_distributed_ws_mode(sys, cluster, ranks, division, mode, &workspaces)
}

/// [`try_run_distributed_mode`] over caller-owned per-rank [`Workspace`]s
/// (`workspaces[rank]`): ranks reuse their lists, accumulators, scratch
/// and — on the sparse path — the cached [`CommPlan`] across supersteps,
/// so steady-state supersteps skip the slot-set derivation. Collective
/// results (`allreduce`, `allgatherv`) still arrive in fresh buffers —
/// that traffic belongs to the simulated MPI library, not the phase arenas.
///
/// [`CommPlan`]: crate::commplan::CommPlan
pub fn try_run_distributed_ws_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<(GbResult, RunReport), GbError> {
    try_run_ranks(sys, cluster, ranks, 1, division, mode, workspaces)
}

/// Runs the rank program on `ranks` ranks of `threads` threads each over
/// per-rank workspaces — the one entry under both the distributed
/// (`threads == 1`) and the hybrid runner.
pub(crate) fn try_run_ranks(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads: usize,
    division: WorkDivision,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<(GbResult, RunReport), GbError> {
    assert!(workspaces.len() >= ranks, "need one workspace per rank");
    let (mut results, report) = cluster.try_run(ranks, threads, |comm| {
        let mut ws = workspaces[comm.rank()].lock();
        rank_body_dispatch(sys, comm, division, mode, &mut ws)
    })?;
    Ok((results.swap_remove(0), report))
}

/// One job of a fused superstep batch: a prepared system plus its per-rank
/// workspaces (`workspaces[rank]`, one per rank like
/// [`try_run_distributed_ws_mode`]). The serve layer keys workspace pools
/// by system content hash, so a job's checkpoints and cached plans always
/// describe the same system the job runs.
pub struct BatchJob<'a> {
    /// The system to evaluate.
    pub sys: &'a GbSystem,
    /// Per-rank workspaces for this job.
    pub workspaces: &'a [Mutex<Workspace>],
}

/// Runs several jobs as **one fused superstep** on the cluster: a single
/// `try_run` whose rank program executes each job's 7-step pipeline
/// (node-based division, default [`CommMode`]) in sequence. Compared to one
/// `try_run` per job this saves the per-run spawn/join and keeps ranks hot
/// across jobs — the batching lever of the serving layer.
///
/// Ordering is identical on every rank (jobs run in slice order inside
/// one collective context), so each job's result is bit-identical to what
/// [`try_run_distributed_ws_mode`] would produce for it alone: a job's
/// collectives see exactly the same peers, contributions and summation
/// order, batched or not. Under recovery a mid-batch rank death replays
/// the whole rank program; completed jobs replay through their superstep
/// checkpoints and in-flight jobs renegotiate their restart step exactly
/// as in the single-job path — co-batched jobs observe nothing but
/// wall-clock.
///
/// Returns the master-rank results in job order plus the batch's combined
/// accounting report.
pub fn try_run_batch_distributed(
    cluster: &SimCluster,
    ranks: usize,
    jobs: &[BatchJob<'_>],
) -> Result<(Vec<GbResult>, RunReport), GbError> {
    for job in jobs {
        assert!(job.workspaces.len() >= ranks, "need one workspace per rank per job");
    }
    let (mut per_rank, report) = cluster.try_run(ranks, 1, |comm| {
        let mut out = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut ws = job.workspaces[comm.rank()].lock();
            out.push(rank_body_dispatch(
                job.sys,
                comm,
                WorkDivision::NodeNode,
                CommMode::default(),
                &mut ws,
            )?);
        }
        Ok(out)
    })?;
    Ok((per_rank.swap_remove(0), report))
}

fn rank_body_dispatch(
    sys: &GbSystem,
    comm: &mut Comm,
    division: WorkDivision,
    mode: CommMode,
    ws: &mut Workspace,
) -> Result<GbResult, CommError> {
    with_kernels!(sys.params, M, K => rank_body::<M, K>(sys, comm, division, mode, ws))
}

/// The rank program, generic over the math mode; `comm.threads_per_rank()`
/// sets the sub-segment split (see the module docs).
fn rank_body<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    comm: &mut Comm,
    division: WorkDivision,
    mode: CommMode,
    ws: &mut Workspace,
) -> Result<GbResult, CommError> {
    let rank = comm.rank();
    let p = comm.size();
    let threads = comm.threads_per_rank();

    // Step 1: replicated data (shared read-only here; a real MPI process
    // would hold its own copy — the accounting reflects that). Replication
    // is a property of the resident arenas, so a reused workspace bills it
    // once per lifetime, not once per superstep — except on a recovery
    // replay, whose ledger was reset by the heal and must re-bill it.
    if !ws.replicated_billed || comm.attempt() > 0 {
        comm.record_replicated(sys.memory_bytes() as u64);
        ws.replicated_billed = true;
    }

    // Recovery restart negotiation. A *fresh* attempt invalidates any
    // checkpoint a reused workspace may carry (a replay must only restore
    // state from an earlier attempt of this same run); a replay restarts
    // from the deepest superstep boundary *every* rank completed — the
    // team-wide minimum, taken as an allreduce-max of the negated step.
    // Fault-free runs never reach this collective, so their op stream is
    // byte-for-byte the legacy one.
    if comm.attempt() == 0 {
        ws.checkpoint.invalidate();
    }
    if division == WorkDivision::AtomNode {
        ws.forget_list_frames(); // partial lists are swept below
    }
    let restart_step = if comm.attempt() > 0 {
        let mine = ws
            .checkpoint
            .valid_step(sys.num_atoms(), sys.ta.num_nodes(), p);
        let mut neg = [-(f64::from(mine))];
        comm.try_allreduce_max(&mut neg)?;
        (-neg[0]) as u8
    } else {
        0
    };

    // Steps 2–3: partial integrals for this rank's share, combined either
    // densely (full allreduce) or through the communication plan. A replay
    // restarting at (or past) this boundary restores the combined
    // accumulator from the checkpoint instead.
    ws.acc.reset_for(sys);
    even_ranges_into(sys.num_atoms(), p, &mut ws.atom_ranges);
    let mut work = 0.0;
    if restart_step >= 3 {
        if restart_step < 5 {
            ws.acc.copy_from_flat(&ws.checkpoint.flat);
        }
        comm.record_work(ws.checkpoint.work);
    } else {
        match division {
            WorkDivision::NodeNode => {
                // Replicated preprocessing: every rank performs the same list
                // sweep (like the bin build), so segments agree without
                // communication, and ranks are cut by *measured* list work.
                ws.ready_born_lists(sys);
                work += ws.born.build_work;
                work_balanced_segments_into(ws.born.leaf_work(), p, &mut ws.seg_ranges);
                let seg = ws.seg_ranges[rank].clone();
                work += execute_born::<M, K>(sys, threads, ws, seg);
            }
            WorkDivision::AtomNode => {
                // Atom-based division: every rank sweeps *all* T_Q rows with
                // T_A clipped to its atom range (`BornLists::rebuild_part`):
                // far-field terms are only taken at nodes wholly inside the
                // range, so range boundaries change the approximation pattern —
                // the P-dependent-error effect the paper reports for atom-based
                // division. Only the execution work is billed: each row's work
                // is the clipped per-leaf traversal's tally, visits included.
                let (rows, clip) = (0..sys.tq.num_leaves(), ws.atom_ranges[rank].clone());
                ws.born.rebuild_part(sys, rows, clip, ws.build_tasks, &mut ws.born_scratch);
                work += ws.born.execute_range::<M, K>(sys, 0..ws.born.num_qleaves(), &mut ws.acc);
            }
        }
        if p > 1 {
            match mode {
                CommMode::Dense => {
                    ws.acc.to_flat_into(&mut ws.flat);
                    comm.try_allreduce_sum(&mut ws.flat)?;
                    ws.acc.copy_from_flat(&ws.flat);
                }
                CommMode::Sparse => {
                    match division {
                        // node division's producer sets follow from the
                        // replicated lists, so every rank derives every
                        // rank's manifests and stage 1 ships values only
                        WorkDivision::NodeNode => {
                            let (born, segs) = (&ws.born, &ws.seg_ranges);
                            ws.plan.ensure_node_node(sys, born, segs, &ws.atom_ranges);
                            reduce_to_owners_single(comm, &ws.plan, &ws.acc, &mut ws.owned_vals)?;
                        }
                        // a rank's producer set follows from its own clipped
                        // lists only, which its peers never sweep, so stage 1
                        // ships (slot, value) pairs found by a non-zero-bits
                        // scan
                        WorkDivision::AtomNode => {
                            ws.plan.ensure_consumers(sys, &ws.atom_ranges);
                            reduce_pairs_to_owners(
                                comm,
                                ws.plan.num_slots,
                                ws.plan.num_nodes,
                                &ws.acc,
                                &mut ws.owned_vals,
                            )?;
                        }
                    }
                    publish_to_consumers(comm, &ws.plan, &ws.owned_vals, &mut ws.acc)?;
                }
            }
        }
        comm.record_work(work);
        if comm.recovery_enabled() {
            // Superstep boundary: the combined accumulator (as *this rank*
            // sees it — on the sparse path only consumed slots are final,
            // which is exactly what step 4 reads) plus the work billed so
            // far. A replay that gets this far restores instead of recomputing.
            ws.checkpoint.step = 3;
            ws.checkpoint.atoms = sys.num_atoms();
            ws.checkpoint.nodes = sys.ta.num_nodes();
            ws.checkpoint.ranks = p;
            ws.checkpoint.work = work;
            ws.acc.to_flat_into(&mut ws.checkpoint.flat);
        }
    }

    let radii_tree = if restart_step >= 5 {
        // Steps 4–5 already completed on an earlier attempt: the full
        // tree-order radii vector is exactly what the allgatherv delivered.
        ws.checkpoint.radii_tree.clone()
    } else {
        // Step 4: Born radii for this rank's atom segment, written into a
        // buffer sized for the segment alone (no full-length scratch).
        let my_atoms = ws.atom_ranges[rank].clone();
        let w = push_segment::<M, K>(sys, threads, ws, my_atoms);
        comm.record_work(w);

        // Step 5: allgather radii (variable-length segments, rank order ==
        // atom-segment order, so concatenation is the full tree-order vector).
        let radii_tree = comm.try_allgatherv(&ws.radii_tree)?;
        if comm.recovery_enabled() {
            ws.checkpoint.step = 5;
            ws.checkpoint.work += w;
            ws.checkpoint.radii_tree.clear();
            ws.checkpoint.radii_tree.extend_from_slice(&radii_tree);
        }
        radii_tree
    };
    debug_assert_eq!(radii_tree.len(), sys.num_atoms());

    // Step 6: partial energy for this rank's T_A leaf segment. Bins are
    // recomputed locally from the (replicated) radii instead of being
    // communicated. Atom-based division owns the leaves that start in its
    // atom range (a leaf straddling a boundary goes to the lower rank) —
    // a contiguous run of ordinals, swept as a part build.
    ws.bins.recompute(sys, &radii_tree);
    comm.record_work(bin_build_work(sys));
    let (raw, w) = match division {
        WorkDivision::NodeNode => {
            ws.ready_energy_lists(sys);
            let costs = ws.energy.leaf_costs(sys, &ws.bins);
            work_balanced_segments_into(&costs, p, &mut ws.seg_ranges);
            let seg = ws.seg_ranges[rank].clone();
            let (raw, exec) = execute_energy::<M>(sys, threads, ws, &radii_tree, seg);
            (raw, ws.energy.build_work + exec)
        }
        // execution work only, as for the clipped Born lists
        WorkDivision::AtomNode => {
            let atom_ords = leaves_starting_in(sys, &ws.atom_ranges[rank]);
            ws.energy.rebuild_part(sys, atom_ords.clone(), ws.build_tasks, &mut ws.energy_scratch);
            execute_energy::<M>(sys, threads, ws, &radii_tree, atom_ords)
        }
    };
    comm.record_work(w);

    // Step 7: master accumulates partial energies; broadcast back so every
    // rank returns the same result (convenient for callers and tests).
    let mut total = vec![raw];
    comm.try_allreduce_sum(&mut total)?;
    let energy_kcal = finalize_energy(total[0], sys.params.tau());

    Ok(GbResult {
        energy_kcal,
        born_radii: sys.radii_to_original(&radii_tree),
    })
}

/// Ordinals of the `T_A` leaves whose first atom lies in `atoms` — a
/// contiguous run, since leaves are in tree order.
fn leaves_starting_in(sys: &GbSystem, atoms: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    let leaves = sys.ta.leaves();
    let first = |pos: usize| leaves.partition_point(|&l| (sys.ta.node(l).begin as usize) < pos);
    first(atoms.start)..first(atoms.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::serial::run_serial;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 55));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn single_rank_equals_serial() {
        // one rank's clip is every atom, so atom division runs the full lists
        let s = sys(400);
        let serial = run_serial(&s);
        for division in [WorkDivision::NodeNode, WorkDivision::AtomNode] {
            let (dist, _) = run_distributed(&s, &SimCluster::single_node(), 1, division);
            assert_eq!(serial.result.energy_kcal.to_bits(), dist.energy_kcal.to_bits());
            assert_eq!(serial.result.born_radii, dist.born_radii, "{division:?}");
        }
    }

    #[test]
    fn atom_supersteps_leave_no_lists_for_node_supersteps() {
        // frame mode skips lists already current for the frame, so the
        // partial lists of an atom-division superstep must never be taken
        // for full ones by a later superstep on the same workspaces
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let workspaces: Vec<Mutex<Workspace>> = (0..3)
            .map(|_| {
                let mut ws = Workspace::new();
                ws.enable_frame_tracking(0.0);
                Mutex::new(ws)
            })
            .collect();
        use WorkDivision::{AtomNode, NodeNode};
        for division in [NodeNode, AtomNode, NodeNode, AtomNode, NodeNode] {
            let (fresh, _) = run_distributed(&s, &cluster, 3, division);
            let mode = CommMode::default();
            let (r, _) = try_run_distributed_ws_mode(&s, &cluster, 3, division, mode, &workspaces)
                .expect("fault-free");
            assert_eq!(fresh.energy_kcal.to_bits(), r.energy_kcal.to_bits(), "{division:?}");
            assert_eq!(fresh.born_radii, r.born_radii, "{division:?}");
        }
    }

    #[test]
    fn reused_rank_workspaces_give_identical_bits() {
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let (fresh, _) = run_distributed(&s, &cluster, 3, WorkDivision::NodeNode);
        let workspaces: Vec<Mutex<Workspace>> =
            (0..3).map(|_| Mutex::new(Workspace::new())).collect();
        for pass in 0..2 {
            let (r, _) = try_run_distributed_ws_mode(
                &s,
                &cluster,
                3,
                WorkDivision::NodeNode,
                CommMode::default(),
                &workspaces,
            )
            .expect("fault-free");
            assert_eq!(
                fresh.energy_kcal.to_bits(),
                r.energy_kcal.to_bits(),
                "pass {pass}"
            );
            assert_eq!(fresh.born_radii, r.born_radii, "pass {pass}");
        }
    }

    #[test]
    fn node_division_energy_independent_of_rank_count() {
        // the paper's key property: node-based division always processes
        // whole tree nodes, so the approximation — and hence the energy —
        // does not depend on P.
        let s = sys(500);
        let cluster = SimCluster::single_node();
        let baseline = run_distributed(&s, &cluster, 1, WorkDivision::NodeNode)
            .0
            .energy_kcal;
        for p in [2usize, 3, 5, 8, 12] {
            let (r, _) = run_distributed(&s, &cluster, p, WorkDivision::NodeNode);
            assert!(
                (r.energy_kcal - baseline).abs() < 1e-9 * baseline.abs(),
                "P={p}: {} vs {baseline}",
                r.energy_kcal
            );
        }
    }

    #[test]
    fn atom_division_energy_varies_with_rank_count() {
        // ... while atom-based division splits tree nodes differently for
        // different P, so the energy wobbles (paper §IV).
        let s = sys(900);
        let cluster = SimCluster::single_node();
        let energies: Vec<f64> = [1usize, 3, 5, 9]
            .iter()
            .map(|&p| {
                run_distributed(&s, &cluster, p, WorkDivision::AtomNode)
                    .0
                    .energy_kcal
            })
            .collect();
        let spread = (energies.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - energies.iter().copied().fold(f64::INFINITY, f64::min))
            / energies[0].abs();
        assert!(
            spread > 1e-12,
            "atom-based energies did not vary: {energies:?}"
        );
        // ... but stays a sane approximation
        let serial = run_serial(&s).result.energy_kcal;
        for e in &energies {
            assert!(
                ((e - serial) / serial).abs() < 0.05,
                "{e} vs serial {serial}"
            );
        }
    }

    #[test]
    fn radii_identical_across_rank_counts_node_division() {
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let base = run_distributed(&s, &cluster, 1, WorkDivision::NodeNode)
            .0
            .born_radii;
        let many = run_distributed(&s, &cluster, 6, WorkDivision::NodeNode)
            .0
            .born_radii;
        // identical traversals; only the summation grouping differs (rank
        // partials reduced in rank order), so agreement is to round-off
        for (a, b) in base.iter().zip(&many) {
            assert!((a - b).abs() < 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn work_is_distributed() {
        let s = sys(600);
        let (_, report) =
            run_distributed(&s, &SimCluster::single_node(), 4, WorkDivision::NodeNode);
        // every rank did nonzero work, and no rank did everything
        let total: f64 = report.ledgers.iter().map(|l| l.work_units).sum();
        for l in &report.ledgers {
            assert!(l.work_units > 0.0);
            assert!(l.work_units < 0.9 * total);
        }
        // load imbalance should be moderate for leaf-count division
        assert!(report.imbalance() < 3.0, "imbalance {}", report.imbalance());
    }

    #[test]
    fn injected_fault_degrades_to_typed_error() {
        // a rank killed mid-job must surface as GbError::Comm with
        // per-rank diagnostics, not a panic or a hang
        let s = sys(300);
        let cluster =
            SimCluster::single_node().with_fault_plan(gb_cluster::FaultPlan::new().kill_rank(1, 0));
        let err = crate::runners::try_run_distributed(&s, &cluster, 4, WorkDivision::NodeNode)
            .expect_err("killed rank must fail the job");
        let crate::error::GbError::Comm(e) = &err;
        assert_eq!(e.rank, 1, "{err}");
        assert_eq!(e.rank_states.len(), 4, "{err}");
        // and the fault-free path still works on the same cluster config
        // minus the plan
        let ok = crate::runners::try_run_distributed(
            &s,
            &SimCluster::single_node(),
            4,
            WorkDivision::NodeNode,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn try_run_matches_run_on_fault_free_path() {
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let (plain, _) = run_distributed(&s, &cluster, 3, WorkDivision::NodeNode);
        let (fallible, _) =
            crate::runners::try_run_distributed(&s, &cluster, 3, WorkDivision::NodeNode)
                .expect("fault-free");
        assert_eq!(plain.energy_kcal.to_bits(), fallible.energy_kcal.to_bits());
        assert_eq!(plain.born_radii, fallible.born_radii);
    }

    #[test]
    fn replicated_memory_scales_with_ranks() {
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let (_, r1) = run_distributed(&s, &cluster, 1, WorkDivision::NodeNode);
        let (_, r12) = run_distributed(&s, &cluster, 12, WorkDivision::NodeNode);
        let ratio = r12.total_replicated_bytes() as f64 / r1.total_replicated_bytes() as f64;
        assert!((ratio - 12.0).abs() < 0.5, "replication ratio {ratio}");
    }
}

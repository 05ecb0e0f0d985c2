//! The hybrid runner — the `OCT_MPI+CILK` analog: message passing across
//! ranks, randomized work stealing across the threads inside each rank.
//!
//! Structure per rank is the same 7-step algorithm as
//! [`distributed`](crate::runners::distributed), but steps 2 and 6 fan the
//! rank's leaf segment out to a [`StealPool`] of `threads_per_rank` workers
//! (task = one leaf, the granularity the paper's cilk++ loops spawn at).
//! Worker partials merge in worker order, so the rank's contribution — and
//! therefore the final energy — is identical to the distributed runner's.
//! Work division is node-based only; the atom-based ablation runs on the
//! distributed runner.

use crate::arena::Workspace;
use crate::commplan::CommMode;
use crate::error::GbError;
use crate::fastmath::{ApproxMath, ExactMath, MathMode};
use crate::gbmath::{finalize_energy, RadiiApprox, R4, R6};
use crate::integrals::{push_integrals_scratch, IntegralAcc};
use crate::interaction::EnergyExecScratch;
use crate::params::{MathKind, RadiiKind};
use crate::runners::sparse::{publish_to_consumers, reduce_to_owners_single};
use crate::runners::{bin_build_work, with_kernels};
use crate::system::{GbResult, GbSystem};
use crate::workdiv::{even_ranges_into, work_balanced_segments_into};
use gb_cluster::{Comm, CommError, RunReport, SimCluster, StealPool};
use gb_octree::NodeId;
use parking_lot::Mutex;

/// Runs the hybrid algorithm: `ranks` ranks × `threads_per_rank` stealing
/// workers (the paper's production shape on Lonestar4: 2 ranks × 6 threads
/// per node).
///
/// Panics if the cluster runtime fails beneath the job; use
/// [`try_run_hybrid`] to get a typed [`GbError`] instead.
pub fn run_hybrid(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
) -> (GbResult, RunReport) {
    try_run_hybrid(sys, cluster, ranks, threads_per_rank)
        .unwrap_or_else(|e| panic!("hybrid run failed: {e}"))
}

/// Fallible variant of [`run_hybrid`]: rank failures degrade into a
/// [`GbError`] with per-rank diagnostics instead of panicking.
pub fn try_run_hybrid(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
) -> Result<(GbResult, RunReport), GbError> {
    try_run_hybrid_mode(sys, cluster, ranks, threads_per_rank, CommMode::default())
}

/// [`try_run_hybrid`] with an explicit integral-combine mode (see
/// [`CommMode`]). The hybrid runner uses the single-shot sparse path —
/// two staged exchanges, no send pipeline — because its integral chunks
/// already interleave nondeterministically across the steal pool's
/// workers.
pub fn try_run_hybrid_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    mode: CommMode,
) -> Result<(GbResult, RunReport), GbError> {
    let workspaces: Vec<Mutex<Workspace>> = (0..ranks)
        .map(|_| Mutex::new(Workspace::with_build_tasks(threads_per_rank)))
        .collect();
    try_run_hybrid_ws_mode(sys, cluster, ranks, threads_per_rank, mode, &workspaces)
}

/// [`try_run_hybrid`] over caller-owned per-rank [`Workspace`]s: each rank
/// reuses its interaction lists, accumulators and bins across supersteps.
/// The steal pool's per-worker slots stay per-call (they belong to the
/// scheduler, not the phase arenas).
pub fn try_run_hybrid_ws(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    workspaces: &[Mutex<Workspace>],
) -> Result<(GbResult, RunReport), GbError> {
    try_run_hybrid_ws_mode(sys, cluster, ranks, threads_per_rank, CommMode::default(), workspaces)
}

/// [`try_run_hybrid_ws`] with an explicit [`CommMode`].
pub fn try_run_hybrid_ws_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<(GbResult, RunReport), GbError> {
    assert!(threads_per_rank >= 1);
    assert!(workspaces.len() >= ranks, "need one workspace per rank");
    let (mut results, report) = cluster.try_run(ranks, threads_per_rank, |comm| {
        let mut ws = workspaces[comm.rank()].lock();
        with_kernels!(sys.params, M, K =>
            hybrid_rank_body::<M, K>(sys, comm, mode, &mut ws))
    })?;
    Ok((results.swap_remove(0), report))
}

fn hybrid_rank_body<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    comm: &mut Comm,
    mode: CommMode,
    ws: &mut Workspace,
) -> Result<GbResult, CommError> {
    let rank = comm.rank();
    let p = comm.size();
    let threads = comm.threads_per_rank();
    let pool = StealPool::new(threads);
    let steal_seed = 0xC11F_u64 ^ (rank as u64) << 8;

    // Replication is a property of the resident arenas: a reused workspace
    // bills it once per lifetime, not once per superstep — except on a
    // recovery replay, whose ledger was reset by the heal.
    if !ws.replicated_billed || comm.attempt() > 0 {
        comm.record_replicated(sys.memory_bytes() as u64);
        ws.replicated_billed = true;
    }

    // Recovery restart negotiation (see the distributed runner): replays
    // resume from the deepest superstep boundary every rank checkpointed;
    // fault-free runs never reach this collective.
    if comm.attempt() == 0 {
        ws.checkpoint.invalidate();
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
    even_ranges_into(sys.num_atoms(), p, &mut ws.atom_ranges);

    if restart_step >= 3 {
        if restart_step < 5 {
            ws.acc.reset_for(sys);
            ws.acc.copy_from_flat(&ws.checkpoint.flat);
        }
        comm.record_work(ws.checkpoint.work);
    } else {
        run_integral_phase::<M, K>(sys, comm, mode, ws, &pool, steal_seed)?;
    }

    // ---- Step 4: push for this rank's atom segment, split across
    // threads, each thread writing into a buffer sized for its own
    // sub-range (no full-length scratch per worker).
    let radii_tree = if restart_step >= 5 {
        // the >= 3 restore above already re-billed the checkpointed work,
        // which at step 5 includes the push phase
        ws.checkpoint.radii_tree.clone()
    } else {
        run_push_and_allgather::<M, K>(sys, comm, ws, &pool, steal_seed)?
    };

    finish_energy_phase::<M>(sys, comm, ws, &pool, steal_seed, radii_tree)
}

/// Steps 2–3 of [`hybrid_rank_body`]: pool-parallel integrals plus the
/// dense-or-sparse combine, checkpointed at the superstep boundary.
fn run_integral_phase<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    comm: &mut Comm,
    mode: CommMode,
    ws: &mut Workspace,
    pool: &StealPool,
    steal_seed: u64,
) -> Result<(), CommError> {
    let rank = comm.rank();
    let p = comm.size();
    // ---- Step 2: integrals over this rank's driving-leaf segment, one
    // task per leaf ordinal, per-worker accumulators merged in worker
    // order. The interaction lists are rebuilt in place per rank
    // (replicated preprocessing, like the bins), and the rank boundaries
    // are cut by measured list work.
    ws.ready_born_lists(sys);
    work_balanced_segments_into(ws.born.leaf_work(), p, &mut ws.seg_ranges);
    let seg = ws.seg_ranges[rank].clone();
    let born = &ws.born;
    let worker_accs: Vec<Mutex<(IntegralAcc, f64)>> = (0..pool.workers())
        .map(|_| Mutex::new((IntegralAcc::zeros(sys), 0.0)))
        .collect();
    let seg_start = seg.start;
    let stats = pool.run(seg.len(), steal_seed, |wid, task| {
        let ord = seg_start + task;
        let mut slot = worker_accs[wid].lock();
        let (acc, work) = &mut *slot;
        *work += born.execute_range::<M, K>(sys, ord..ord + 1, acc);
    });
    comm.record_steals(stats.steals);
    ws.acc.reset_for(sys);
    let mut work = ws.born.build_work;
    for slot in &worker_accs {
        let guard = slot.lock();
        ws.acc.add(&guard.0);
        work += guard.1;
    }
    drop(worker_accs);
    comm.record_work(work);

    // ---- Step 3: combine partial integrals — dense allreduce, or the
    // communication plan's two staged sparse exchanges (single-shot: the
    // steal pool's nondeterministic task order rules out the distributed
    // runner's chunk/send pipeline, but the manifests are identical).
    if p > 1 {
        match mode {
            CommMode::Dense => {
                ws.acc.to_flat_into(&mut ws.flat);
                comm.try_allreduce_sum(&mut ws.flat)?;
                ws.acc.copy_from_flat(&ws.flat);
            }
            CommMode::Sparse => {
                ws.plan
                    .ensure_node_node(sys, &ws.born, &ws.seg_ranges, &ws.atom_ranges, 1);
                reduce_to_owners_single(comm, &ws.plan, &ws.acc, &mut ws.owned_vals)?;
                publish_to_consumers(comm, &ws.plan, &ws.owned_vals, &mut ws.acc)?;
            }
        }
    }
    if comm.recovery_enabled() {
        // Superstep boundary: this rank's combined accumulator plus the
        // work billed so far.
        ws.checkpoint.step = 3;
        ws.checkpoint.atoms = sys.num_atoms();
        ws.checkpoint.nodes = sys.ta.num_nodes();
        ws.checkpoint.ranks = p;
        ws.checkpoint.work = work;
        ws.acc.to_flat_into(&mut ws.checkpoint.flat);
    }
    Ok(())
}

/// Steps 4–5 of [`hybrid_rank_body`]: pool-parallel push into the rank's
/// radii segment, then the allgatherv — checkpointed as step 5 so a replay
/// can skip straight to the energy phase.
fn run_push_and_allgather<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    comm: &mut Comm,
    ws: &mut Workspace,
    pool: &StealPool,
    steal_seed: u64,
) -> Result<Vec<f64>, CommError> {
    let rank = comm.rank();
    let threads = comm.threads_per_rank();
    // ---- Step 4: push for this rank's atom segment, split across
    // threads, each thread writing into a buffer sized for its own
    // sub-range (no full-length scratch per worker).
    let my_atoms = ws.atom_ranges[rank].clone();
    even_ranges_into(my_atoms.len(), threads, &mut ws.leaf_ranges);
    let sub = &ws.leaf_ranges;
    let acc = &ws.acc;
    type PushPart = Mutex<(Vec<f64>, f64, Vec<(NodeId, f64)>)>;
    let push_parts: Vec<PushPart> = sub
        .iter()
        .map(|s| Mutex::new((vec![0.0; s.len()], 0.0, Vec::new())))
        .collect();
    pool.run(threads, steal_seed ^ 0x9, |_wid, t| {
        let range = my_atoms.start + sub[t].start..my_atoms.start + sub[t].end;
        let mut slot = push_parts[t].lock();
        let (values, w, stack) = &mut *slot;
        *w += push_integrals_scratch::<M, K>(sys, acc, range, values, stack);
    });
    ws.radii_tree.clear();
    ws.radii_tree.resize(my_atoms.len(), 0.0);
    let mut push_work = 0.0;
    for (t, slot) in push_parts.iter().enumerate() {
        let guard = slot.lock();
        comm.record_work(guard.1);
        push_work += guard.1;
        ws.radii_tree[sub[t].clone()].copy_from_slice(&guard.0);
    }
    drop(push_parts);

    // ---- Step 5: allgather radii.
    let radii_tree = comm.try_allgatherv(&ws.radii_tree)?;
    if comm.recovery_enabled() {
        ws.checkpoint.step = 5;
        ws.checkpoint.work += push_work;
        ws.checkpoint.radii_tree.clear();
        ws.checkpoint.radii_tree.extend_from_slice(&radii_tree);
    }
    Ok(radii_tree)
}

/// Steps 6–7 of [`hybrid_rank_body`]: pool-parallel energy over the rank's
/// leaf segment and the final rank-order reduction.
fn finish_energy_phase<M: MathMode>(
    sys: &GbSystem,
    comm: &mut Comm,
    ws: &mut Workspace,
    pool: &StealPool,
    steal_seed: u64,
    radii_tree: Vec<f64>,
) -> Result<GbResult, CommError> {
    let rank = comm.rank();
    let p = comm.size();
    // ---- Step 6: energy over this rank's T_A leaf-ordinal segment via
    // the pool, boundaries balanced by the precomputed per-leaf list cost.
    ws.bins.recompute(sys, &radii_tree);
    comm.record_work(bin_build_work(sys));
    ws.ready_energy_lists(sys);
    let bins = &ws.bins;
    let energy = &ws.energy;
    let costs = energy.leaf_costs(sys, bins);
    work_balanced_segments_into(&costs, p, &mut ws.seg_ranges);
    let seg = ws.seg_ranges[rank].clone();
    let energy_parts: Vec<Mutex<(f64, f64, EnergyExecScratch)>> = (0..pool.workers())
        .map(|_| Mutex::new((0.0, 0.0, EnergyExecScratch::new())))
        .collect();
    let seg_start = seg.start;
    let stats = pool.run(seg.len(), steal_seed ^ 0x77, |wid, task| {
        let mut slot = energy_parts[wid].lock();
        let (raw, w, scratch) = &mut *slot;
        let (r, dw) = energy.execute_leaf::<M>(sys, bins, &radii_tree, seg_start + task, scratch);
        *raw += r;
        *w += dw;
    });
    comm.record_steals(stats.steals);
    comm.record_work(energy.build_work);
    let mut raw = 0.0;
    for slot in &energy_parts {
        let guard = slot.lock();
        raw += guard.0;
        comm.record_work(guard.1);
    }

    // ---- Step 7: combine.
    let mut total = vec![raw];
    comm.try_allreduce_sum(&mut total)?;
    let energy_kcal = finalize_energy(total[0], sys.params.tau());

    Ok(GbResult {
        energy_kcal,
        born_radii: sys.radii_to_original(&radii_tree),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::distributed::run_distributed;
    use crate::runners::serial::run_serial;
    use crate::workdiv::WorkDivision;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 66));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn hybrid_1x1_equals_serial() {
        let s = sys(300);
        let serial = run_serial(&s);
        let (hyb, _) = run_hybrid(&s, &SimCluster::single_node(), 1, 1);
        // same kernels, same segment (everything), but worker-merge order
        // may differ from serial accumulation — allow fp-roundoff slack
        assert!(
            (serial.result.energy_kcal - hyb.energy_kcal).abs()
                < 1e-9 * serial.result.energy_kcal.abs()
        );
    }

    #[test]
    fn hybrid_matches_distributed_energy() {
        let s = sys(500);
        let cluster = SimCluster::single_node();
        let (dist, _) = run_distributed(&s, &cluster, 2, WorkDivision::NodeNode);
        let (hyb, _) = run_hybrid(&s, &cluster, 2, 6);
        assert!(
            (dist.energy_kcal - hyb.energy_kcal).abs() < 1e-9 * dist.energy_kcal.abs(),
            "dist {} vs hybrid {}",
            dist.energy_kcal,
            hyb.energy_kcal
        );
        for (a, b) in dist.born_radii.iter().zip(&hyb.born_radii) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn hybrid_uses_fewer_ranks_for_same_cores() {
        // 12 cores: hybrid 2×6 must move fewer collective bytes than
        // distributed 12×1 (the paper's motivation for hybrid parallelism).
        let s = sys(400);
        let cluster = SimCluster::single_node();
        let (_, dist) = run_distributed(&s, &cluster, 12, WorkDivision::NodeNode);
        let (_, hyb) = run_hybrid(&s, &cluster, 2, 6);
        let dist_bytes: u64 = dist.ledgers.iter().map(|l| l.bytes_moved).sum();
        let hyb_bytes: u64 = hyb.ledgers.iter().map(|l| l.bytes_moved).sum();
        assert!(
            hyb_bytes < dist_bytes,
            "hybrid {hyb_bytes} vs distributed {dist_bytes}"
        );
        // replicated memory: 12 copies vs 2 copies — the paper's 5.86×
        let ratio = dist.total_replicated_bytes() as f64 / hyb.total_replicated_bytes() as f64;
        assert!((ratio - 6.0).abs() < 0.5, "memory ratio {ratio}");
    }

    #[test]
    fn hybrid_energy_independent_of_thread_count() {
        let s = sys(400);
        let cluster = SimCluster::single_node();
        let e1 = run_hybrid(&s, &cluster, 2, 1)
            .0
            .energy_kcal;
        let e6 = run_hybrid(&s, &cluster, 2, 6)
            .0
            .energy_kcal;
        assert!((e1 - e6).abs() < 1e-9 * e1.abs());
    }
}

//! The data-distributed runner — the paper's second §VI future-work item:
//! *"Distributing data as well as computation is also an interesting
//! approach to explore."*
//!
//! Unlike [`distributed`](crate::runners::distributed), where every rank
//! holds a full replicated copy of the molecule, surface and both octrees,
//! each rank here owns only:
//!
//! * the octree **skeletons** — node geometry (centroid, radius, ranges,
//!   child links) and the per-node pseudo-particle aggregates, O(nodes)
//!   and cheap to replicate (this is the classic *locally essential tree*
//!   compromise);
//! * its **shard**: the quadrature points under its segment of `T_Q`
//!   leaves, and the atoms under its segment of `T_A` leaves (leaf
//!   segments are contiguous in tree order, so each shard is a contiguous
//!   range of the permuted point arrays).
//!
//! Every interaction decision comes from the list engine: a rank sweeps
//! the Born rows of its `T_Q` leaves and the energy rows of its `T_A`
//! leaves over the replicated skeleton ([`BornLists::rebuild_part`],
//! [`EnergyLists::rebuild_part`]). Far terms read only the skeleton — the
//! Born far CSR's pseudo-particle terms and [`EnergyLists::execute_far`]'s
//! histogram contractions. Point payloads a rank does not own are fetched
//! through a **halo exchange**: the near CSR names the remote leaves, one
//! sparse exchange carries the request lists to their owners, and a second
//! carries the flattened payloads back. Two halos occur per run — atom
//! positions for the Born phase, `(position, charge, Born radius)` triples
//! for the energy phase. The near loops run over the shard and ghost
//! buffers, because the shared near kernels read whole-system arrays a
//! shard does not hold. Born radii themselves stay distributed: only the
//! O(nodes × bins) charge histograms are allreduced, never the O(M) radii
//! vector.
//!
//! The interaction decisions are those of the replicated runners
//! (node-based division); only summation grouping differs. The near loops
//! sum per atom where the shared kernels stream batched runs, and the
//! energy near loop has no symmetric halving. On a 500-atom protein
//! (P ∈ {1, 2, 4, 7}) the radii agree with the serial runner to 1.3e-15
//! relative and `E_pol` to 7e-15. Per-rank replicated memory drops from
//! O(M + N) payloads to O((M + N)/P + halo) — the tests and the
//! `data_distribution` study measure exactly that.
//!
//! Recovery: ranks here are stateless between attempts (shards, ghost
//! tables and radii are rebuilt from `sys` deterministically, and
//! `record_replicated` re-bills on every attempt), so the self-healing
//! supervisor's whole-run replay needs no superstep checkpoints — a healed
//! replay recomputes the identical bits from scratch.

use crate::bins::ChargeBins;
use crate::commplan::{CommMode, CommPlan};
use crate::error::GbError;
use crate::fastmath::{ApproxMath, ExactMath, MathMode};
use crate::gbmath::{finalize_energy, pair_term, RadiiApprox, R4, R6};
use crate::integrals::{push_integrals_scratch, IntegralAcc};
use crate::interaction::{BornLists, EnergyExecScratch, EnergyLists, ListScratch};
use crate::params::{MathKind, RadiiKind};
use crate::runners::sparse::{publish_to_consumers, reduce_pairs_to_owners};
use crate::runners::with_kernels;
use crate::system::{GbResult, GbSystem};
use crate::workdiv::leaf_segments;
use gb_cluster::{Comm, CommError, RunReport, SimCluster};
use gb_geom::Vec3;
use gb_octree::{NodeId, Octree};
use std::collections::HashMap;
use std::ops::Range;

/// Runs the data-distributed algorithm on `ranks` single-threaded ranks.
///
/// Node-based work division only (the scheme whose leaf segments align
/// with contiguous data shards).
///
/// Panics if the cluster runtime fails beneath the job; use
/// [`try_run_data_distributed`] to get a typed [`GbError`] instead.
pub fn run_data_distributed(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
) -> (GbResult, RunReport) {
    try_run_data_distributed(sys, cluster, ranks)
        .unwrap_or_else(|e| panic!("data-distributed run failed: {e}"))
}

/// Fallible variant of [`run_data_distributed`]: rank failures — including
/// a rank lost mid-halo — degrade into a [`GbError`] with per-rank
/// diagnostics instead of panicking.
pub fn try_run_data_distributed(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
) -> Result<(GbResult, RunReport), GbError> {
    try_run_data_distributed_mode(sys, cluster, ranks, CommMode::default())
}

/// [`try_run_data_distributed`] with an explicit integral-combine mode:
/// the sparse path ships `(slot, value)` pairs of the accumulator's
/// non-zero slots to per-slot owners (a rank's produced slots follow from
/// lists only it sweeps), then a targeted exchange delivers each
/// rank exactly its push traversal's read set. The mode changes only the
/// integral combine: both halos ride the sparse exchange either way.
pub fn try_run_data_distributed_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    mode: CommMode,
) -> Result<(GbResult, RunReport), GbError> {
    let (mut results, report) = cluster.try_run(
        ranks,
        1,
        |comm| with_kernels!(sys.params, M, K => rank_body::<M, K>(sys, comm, mode)),
    )?;
    Ok((results.swap_remove(0), report))
}

/// The point positions under a contiguous segment of leaves: from the
/// first leaf's begin to the next leaf's (or the end of the points). An
/// empty segment is an empty range where the segment sits, so the ranges of
/// a partition of the leaves stay sorted and contiguous.
fn segment_range(tree: &Octree, seg: &Range<usize>) -> Range<usize> {
    let start_of = |ord: usize| {
        tree.leaves().get(ord).map_or(tree.num_points(), |&l| tree.node(l).begin as usize)
    };
    start_of(seg.start)..start_of(seg.end)
}

/// One rank's owned data (real copies — the shared `GbSystem` stands in
/// for parallel input I/O; after construction the kernels only touch the
/// shard and the ghosts).
struct Shard {
    /// Owned `T_Q` leaf ordinals and the tree-position range they cover.
    q_seg: Range<usize>,
    q_range: Range<usize>,
    q_pos: Vec<Vec3>,
    q_nrm: Vec<Vec3>,
    q_wgt: Vec<f64>,
    /// Owned `T_A` leaf ordinals and their atom range.
    a_seg: Range<usize>,
    a_range: Range<usize>,
    a_pos: Vec<Vec3>,
    a_charge: Vec<f64>,
    a_vdw: Vec<f64>,
}

impl Shard {
    fn build(sys: &GbSystem, rank: usize, ranks: usize) -> Shard {
        let q_seg = leaf_segments(&sys.tq, ranks)[rank].clone();
        let a_seg = leaf_segments(&sys.ta, ranks)[rank].clone();
        let q_range = segment_range(&sys.tq, &q_seg);
        let a_range = segment_range(&sys.ta, &a_seg);
        Shard {
            q_seg,
            q_pos: sys.tq.points()[q_range.clone()].to_vec(),
            q_nrm: sys.q_normal_tree[q_range.clone()].to_vec(),
            q_wgt: sys.q_weight_tree[q_range.clone()].to_vec(),
            q_range,
            a_seg,
            a_pos: sys.ta.points()[a_range.clone()].to_vec(),
            a_charge: sys.charge_tree[a_range.clone()].to_vec(),
            a_vdw: sys.vdw_tree[a_range.clone()].to_vec(),
            a_range,
        }
    }

    /// Bytes of point payload this rank owns.
    fn payload_bytes(&self) -> usize {
        (self.q_pos.len() + self.q_nrm.len()) * std::mem::size_of::<Vec3>()
            + self.q_wgt.len() * 8
            + self.a_pos.len() * std::mem::size_of::<Vec3>()
            + (self.a_charge.len() + self.a_vdw.len()) * 8
    }
}

/// Which rank owns a `T_A` leaf / atom position, from the segment table.
struct Ownership {
    /// Atom range per rank: sorted and contiguous, empty ranks included.
    a_ranges: Vec<Range<usize>>,
}

impl Ownership {
    fn build(sys: &GbSystem, ranks: usize) -> Ownership {
        let a_ranges = leaf_segments(&sys.ta, ranks)
            .iter()
            .map(|seg| segment_range(&sys.ta, seg))
            .collect();
        Ownership { a_ranges }
    }

    /// Owner rank of the atom at tree position `pos`: the first range
    /// ending past it (an empty range never does).
    fn owner_of_atom_pos(&self, pos: usize) -> usize {
        self.a_ranges.partition_point(|r| r.end <= pos)
    }

    /// The remote leaves among `leaves`, grouped by owner, sorted and
    /// deduplicated — one halo's request lists.
    fn remote_leaves(&self, sys: &GbSystem, me: usize, leaves: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut needed: Vec<Vec<NodeId>> = vec![Vec::new(); self.a_ranges.len()];
        for &leaf in leaves {
            let owner = self.owner_of_atom_pos(sys.ta.node(leaf).begin as usize);
            if owner != me {
                needed[owner].push(leaf);
            }
        }
        for list in &mut needed {
            list.sort_unstable();
            list.dedup();
        }
        needed
    }
}

/// Halo exchange: every rank asks each owner for the leaves it needs and
/// answers the requests it receives, in two sparse exchanges. The
/// `needed_by_owner` lists name remote leaves only, so no rank sends to
/// itself. `payload(leaf)` flattens one owned leaf; returns the ghost table
/// `leaf id -> flattened payload`. A dead or wedged peer surfaces as a
/// [`CommError`] (the runtime poison or the watchdog), never a hang.
fn halo_exchange(
    comm: &mut Comm,
    needed_by_owner: &[Vec<NodeId>],
    mut payload: impl FnMut(NodeId) -> Vec<f64>,
) -> Result<HashMap<NodeId, Vec<f64>>, CommError> {
    // 1) request lists to every owner (empty allowed)
    let requests: Vec<Vec<f64>> = needed_by_owner
        .iter()
        .map(|needed| needed.iter().map(|&l| l as f64).collect())
        .collect();
    let incoming = comm.try_sparse_exchange(&requests)?;
    // 2) answer each request list with [leaf, len, data...] streams
    let responses: Vec<Vec<f64>> = incoming
        .iter()
        .map(|req| {
            let mut response = Vec::new();
            for &leaf_f in req {
                let data = payload(leaf_f as NodeId);
                response.push(leaf_f);
                response.push(data.len() as f64);
                response.extend(data);
            }
            response
        })
        .collect();
    // 3) build the ghost table from the answers
    let mut ghosts = HashMap::new();
    for resp in comm.try_sparse_exchange(&responses)? {
        let mut cursor = 0;
        while cursor < resp.len() {
            let leaf = resp[cursor] as NodeId;
            let len = resp[cursor + 1] as usize;
            cursor += 2;
            ghosts.insert(leaf, resp[cursor..cursor + len].to_vec());
            cursor += len;
        }
    }
    Ok(ghosts)
}

fn rank_body<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    comm: &mut Comm,
    mode: CommMode,
) -> Result<GbResult, CommError> {
    let rank = comm.rank();
    let ranks = comm.size();
    let shard = Shard::build(sys, rank, ranks);
    let ownership = Ownership::build(sys, ranks);
    let mut scratch = ListScratch::new();

    // Skeleton bytes (nodes + aggregates) are replicated; payloads are not.
    let skeleton_bytes = (sys.ta.num_nodes() + sys.tq.num_nodes())
        * (std::mem::size_of::<gb_octree::Node>() + std::mem::size_of::<Vec3>());
    let svec_bytes = (sys.ta.num_nodes() + sys.num_atoms()) * 8;
    let mut ghost_bytes = 0usize;
    comm.record_replicated((skeleton_bytes + svec_bytes + shard.payload_bytes()) as u64);

    // ---- Born rows of the owned T_Q leaves; their near entries name the
    // remote T_A leaves the near field needs. Rows are billed at their
    // execution work (visits, far terms, exact pairs), as one traversal.
    let mut born = BornLists::empty();
    born.rebuild_part(sys, shard.q_seg.clone(), 0..sys.num_atoms(), &mut scratch);
    let (far_off, far) = born.far_csr();
    let (near_off, near) = born.near_csr();
    let needed = ownership.remote_leaves(sys, rank, near);

    // ---- Halo #1: atom positions of needed remote leaves.
    let atom_ghosts = halo_exchange(comm, &needed, |leaf| {
        let n = sys.ta.node(leaf);
        let mut out = Vec::with_capacity(n.count() * 3);
        for pos in n.range() {
            let p = shard.a_pos[pos - shard.a_range.start];
            out.extend_from_slice(&[p.x, p.y, p.z]);
        }
        out
    })?;
    ghost_bytes += atom_ghosts.values().map(|v| v.len() * 8).sum::<usize>();

    // ---- Born phase: far field from the skeleton, near field from shard
    // + ghosts.
    let mut acc = IntegralAcc::zeros(sys);
    for ord in shard.q_seg.clone() {
        let q = sys.tq.leaves()[ord];
        let qn = sys.tq.node(q);
        let q_agg = sys.q_normals[q as usize];
        for &a_id in &far[far_off[ord]..far_off[ord + 1]] {
            let delta = qn.centroid - sys.ta.node(a_id).centroid;
            acc.node_s[a_id as usize] += q_agg.dot(delta) * K::integrand::<M>(delta.norm_sq());
        }
        // near field: exact sums against owned or ghosted atom positions
        let q_lo = qn.begin as usize - shard.q_range.start;
        let q_hi = qn.end as usize - shard.q_range.start;
        for &a_id in &near[near_off[ord]..near_off[ord + 1]] {
            let a = sys.ta.node(a_id);
            let owned = ownership.owner_of_atom_pos(a.begin as usize) == rank;
            let ghost = if owned { None } else { Some(&atom_ghosts[&a_id]) };
            for (k, pos) in a.range().enumerate() {
                let xa = match ghost {
                    None => shard.a_pos[pos - shard.a_range.start],
                    Some(g) => Vec3::new(g[3 * k], g[3 * k + 1], g[3 * k + 2]),
                };
                let mut s = 0.0;
                for qk in q_lo..q_hi {
                    let delta = shard.q_pos[qk] - xa;
                    let d2 = delta.norm_sq();
                    if d2 > 0.0 {
                        s += shard.q_wgt[qk] * shard.q_nrm[qk].dot(delta) * K::integrand::<M>(d2);
                    }
                }
                acc.atom_s[pos] += s;
            }
        }
    }
    comm.record_work(born.leaf_work()[shard.q_seg.clone()].iter().sum());

    // ---- Combine partial integrals. Dense: the O(nodes + M) allreduce of
    // the replicated algorithm. Sparse (default): pair-protocol reduce to
    // per-slot owners, then a targeted exchange of exactly each rank's
    // push-traversal read set (the node slots intersecting its owned atom
    // range, plus its own atom slots) — bit-identical, same ascending-rank
    // summation order.
    if ranks > 1 {
        match mode {
            CommMode::Dense => {
                let mut flat = acc.to_flat();
                comm.try_allreduce_sum(&mut flat)?;
                acc = IntegralAcc::from_flat(&flat, sys.ta.num_nodes());
            }
            CommMode::Sparse => {
                let mut plan = CommPlan::new();
                plan.ensure_consumers(sys, &ownership.a_ranges);
                let mut owned_vals = Vec::new();
                reduce_pairs_to_owners(
                    comm,
                    plan.num_slots,
                    plan.num_nodes,
                    &acc,
                    &mut owned_vals,
                )?;
                publish_to_consumers(comm, &plan, &owned_vals, &mut acc)?;
            }
        }
    }
    let acc = acc;

    // ---- Push integrals to own atoms only: radii stay distributed.
    let mut my_radii = vec![0.0; shard.a_range.len()];
    let push_work = push_integrals_scratch::<M, K>(
        sys,
        &acc,
        shard.a_range.clone(),
        &mut my_radii,
        &mut Vec::new(),
    );
    comm.record_work(push_work);

    // ---- Distributed bins: local histograms over owned atoms, allreduced.
    // Bin geometry needs the global radius extremes — a tiny allreduce.
    let (r_min, r_max) = {
        let lo = my_radii.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = my_radii.iter().copied().fold(0.0f64, f64::max);
        // min via negated max-reduction
        let mut v = vec![-lo, hi];
        comm.try_allreduce_max(&mut v)?;
        (-v[0], v[1])
    };
    // `compute_distributed` takes an infallible reduction closure; stash
    // any CommError and surface it right after.
    let mut hist_err: Option<CommError> = None;
    let bins = ChargeBins::compute_distributed(
        sys,
        &my_radii,
        shard.a_range.clone(),
        &shard.a_charge,
        r_min,
        r_max,
        |hist| {
            if let Err(e) = comm.try_allreduce_sum(hist) {
                hist_err = Some(e);
            }
        },
    );
    if let Some(e) = hist_err {
        return Err(e);
    }
    comm.record_work(shard.a_range.len() as f64 * 0.5);

    // ---- Energy rows of the owned T_A leaves; their near entries name the
    // remote leaves the exact pairs need.
    let mut energy = EnergyLists::empty();
    energy.rebuild_part(sys, shard.a_seg.clone(), &mut scratch);
    let (near_off, near) = energy.near_csr();
    let needed = ownership.remote_leaves(sys, rank, near);

    // ---- Halo #2: (position, charge, radius) of needed remote leaves.
    let energy_ghosts = halo_exchange(comm, &needed, |leaf| {
        let n = sys.ta.node(leaf);
        let mut out = Vec::with_capacity(n.count() * 5);
        for pos in n.range() {
            let local = pos - shard.a_range.start;
            let p = shard.a_pos[local];
            out.extend_from_slice(&[p.x, p.y, p.z, shard.a_charge[local], my_radii[local]]);
        }
        out
    })?;
    ghost_bytes += energy_ghosts.values().map(|v| v.len() * 8).sum::<usize>();
    comm.record_replicated(
        (skeleton_bytes + svec_bytes + shard.payload_bytes() + ghost_bytes) as u64,
    );

    // ---- Energy phase: far field as histogram contractions over the
    // skeleton, near field as exact pairs, U atoms owned or ghosted.
    let (mut raw, _) =
        energy.execute_far::<M>(sys, &bins, shard.a_seg.clone(), &mut EnergyExecScratch::new());
    for ord in shard.a_seg.clone() {
        let vn = sys.ta.node(sys.ta.leaves()[ord]);
        for &u_id in &near[near_off[ord]..near_off[ord + 1]] {
            let u = sys.ta.node(u_id);
            let owned = ownership.owner_of_atom_pos(u.begin as usize) == rank;
            for k in 0..u.count() {
                let (xu, qu, ru) = if owned {
                    let local = u.begin as usize + k - shard.a_range.start;
                    (shard.a_pos[local], shard.a_charge[local], my_radii[local])
                } else {
                    let g = &energy_ghosts[&u_id];
                    (
                        Vec3::new(g[5 * k], g[5 * k + 1], g[5 * k + 2]),
                        g[5 * k + 3],
                        g[5 * k + 4],
                    )
                };
                let mut row = 0.0;
                for vpos in vn.range() {
                    let local = vpos - shard.a_range.start;
                    let r_sq = xu.dist_sq(shard.a_pos[local]);
                    row += pair_term::<M>(shard.a_charge[local], r_sq, ru * my_radii[local]);
                }
                raw += qu * row;
            }
        }
    }
    comm.record_work(energy.leaf_costs(sys, &bins)[shard.a_seg.clone()].iter().sum());

    // ---- Combine energies; gather radii only to assemble the caller's
    // result (output collection, not part of the algorithm's working set).
    let mut total = vec![raw];
    comm.try_allreduce_sum(&mut total)?;
    let energy_kcal = finalize_energy(total[0], sys.params.tau());
    let radii_tree = comm.try_allgatherv(&my_radii)?;
    Ok(GbResult {
        energy_kcal,
        born_radii: sys.radii_to_original(&radii_tree),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::serial::run_serial;
    use gb_cluster::OpKind;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn system(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 88));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn matches_serial_energy_and_radii() {
        let sys = system(500);
        let serial = run_serial(&sys);
        for ranks in [1usize, 2, 4, 7] {
            let (res, _) = run_data_distributed(&sys, &SimCluster::single_node(), ranks);
            assert!(
                (res.energy_kcal - serial.result.energy_kcal).abs()
                    < 1e-9 * serial.result.energy_kcal.abs(),
                "ranks={ranks}: {} vs {}",
                res.energy_kcal,
                serial.result.energy_kcal
            );
            for (a, b) in res.born_radii.iter().zip(&serial.result.born_radii) {
                assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "ranks={ranks}");
            }
        }
    }

    /// An extended rod-shaped molecule: spatial shards have *local* halos,
    /// so data distribution pays off (on a small globule the ~40 Å exact
    /// zone covers everything and every rank ghosts most of the molecule —
    /// which the run handles correctly but without memory savings).
    fn rod_system(n: usize) -> GbSystem {
        use gb_geom::DetRng;
        use gb_molecule::{Atom, Element, Molecule};
        let mut rng = DetRng::new(123);
        let atoms = (0..n).map(|i| {
            let x = i as f64 * 0.7;
            let pos = Vec3::new(x, rng.f64_in(-4.0, 4.0), rng.f64_in(-4.0, 4.0));
            Atom::new(
                pos,
                rng.f64_in(1.2, 1.9),
                rng.f64_in(-0.5, 0.5),
                Element::Carbon,
            )
        });
        GbSystem::prepare(Molecule::from_atoms("rod", atoms), GbParams::default())
    }

    #[test]
    fn per_rank_payload_shrinks_with_ranks_on_extended_molecules() {
        let sys = rod_system(3_000);
        let cluster = SimCluster::single_node();
        let max_replicated = |ranks: usize| {
            let (_, report) = run_data_distributed(&sys, &cluster, ranks);
            report
                .ledgers
                .iter()
                .map(|l| l.replicated_bytes)
                .max()
                .unwrap()
        };
        let one = max_replicated(1);
        let eight = max_replicated(8);
        assert!(
            (eight as f64) < 0.75 * one as f64,
            "per-rank bytes should shrink: {one} -> {eight}"
        );
        // and the rod still computes the same physics
        let serial = run_serial(&sys);
        let (res, _) = run_data_distributed(&sys, &cluster, 8);
        assert!(
            (res.energy_kcal - serial.result.energy_kcal).abs()
                < 1e-9 * serial.result.energy_kcal.abs()
        );
    }

    #[test]
    fn uses_less_memory_than_replicated_runner() {
        let sys = system(1_200);
        let cluster = SimCluster::single_node();
        let (_, data_report) = run_data_distributed(&sys, &cluster, 8);
        let (_, repl_report) = crate::runners::distributed::run_distributed(
            &sys,
            &cluster,
            8,
            crate::workdiv::WorkDivision::NodeNode,
        );
        let data_bytes = data_report.total_replicated_bytes();
        let repl_bytes = repl_report.total_replicated_bytes();
        assert!(
            (data_bytes as f64) < 0.7 * repl_bytes as f64,
            "data-distributed {data_bytes} vs replicated {repl_bytes}"
        );
    }

    #[test]
    fn more_ranks_than_leaves_leave_the_extra_ranks_empty() {
        // 9 atoms in 5 T_A leaves: ranks past the last leaf own nothing and
        // must neither receive halo requests nor index their empty shards
        let mol = synthesize_protein(&SyntheticParams::with_atoms(9, 3));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let serial = run_serial(&sys).result;
        for ranks in [8usize, 12] {
            assert!(ranks > sys.ta.num_leaves());
            let (res, _) = try_run_data_distributed(&sys, &SimCluster::single_node(), ranks)
                .expect("valid input");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            assert!(close(res.energy_kcal, serial.energy_kcal), "ranks={ranks}");
            for (a, b) in res.born_radii.iter().zip(&serial.born_radii) {
                assert!(close(*a, *b), "ranks={ranks}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn halo_traffic_is_recorded() {
        // Dense mode combines the integrals with allreduces, so the halos
        // are the only sparse exchanges of the run
        let sys = system(600);
        let (_, report) =
            try_run_data_distributed_mode(&sys, &SimCluster::single_node(), 4, CommMode::Dense)
                .expect("fault-free run");
        for l in &report.ledgers {
            assert!(l.bytes_for(OpKind::SparseExchange) > 0, "{l:?}");
        }
    }

    #[test]
    fn rank_killed_in_its_halo_degrades_to_typed_error() {
        // rank 1 dies entering halo #1 (its first op): every peer wakes
        // from the poison with diagnostics instead of wedging the job
        let sys = system(400);
        let cluster =
            SimCluster::single_node().with_fault_plan(gb_cluster::FaultPlan::new().kill_rank(1, 0));
        let err = try_run_data_distributed(&sys, &cluster, 3)
            .expect_err("a rank lost mid-halo must fail the job");
        let crate::error::GbError::Comm(e) = &err;
        assert_eq!(e.op, Some(OpKind::SparseExchange), "{err}");
        assert_eq!(e.rank_states.len(), 3, "{err}");
    }

    #[test]
    fn works_with_r4_and_fast_math() {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(300, 89));
        let params = GbParams::default()
            .with_radii_kind(crate::params::RadiiKind::R4)
            .with_math(MathKind::Approximate);
        let sys = GbSystem::prepare(mol, params);
        let serial = run_serial(&sys);
        let (res, _) = run_data_distributed(&sys, &SimCluster::single_node(), 3);
        assert!(
            (res.energy_kcal - serial.result.energy_kcal).abs()
                < 1e-9 * serial.result.energy_kcal.abs()
        );
    }
}

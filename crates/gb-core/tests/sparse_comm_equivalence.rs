//! Sparse ≡ dense equivalence: the communication plan must be a pure
//! traffic optimization. Energies and Born radii are compared with
//! `to_bits()` — not a tolerance — across both work divisions and rank
//! counts, on cold and warm plan caches, for all three plan-capable
//! runners; the same runs must also show the traffic actually shrinking.

use gb_core::arena::Workspace;
use gb_core::commplan::CommMode;
use gb_core::params::GbParams;
use gb_core::runners::{
    try_run_data_distributed_mode, try_run_distributed_mode, try_run_distributed_ws_mode,
    try_run_hybrid_mode,
};
use gb_core::system::GbSystem;
use gb_core::workdiv::WorkDivision;
use gb_cluster::{OpKind, SimCluster};
use gb_molecule::{synthesize_protein, SyntheticParams};
use parking_lot::Mutex;

fn sys(n: usize, seed: u64) -> GbSystem {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
    GbSystem::prepare(mol, GbParams::default())
}

fn assert_bit_identical(
    a: &gb_core::system::GbResult,
    b: &gb_core::system::GbResult,
    label: &str,
) {
    assert_eq!(
        a.energy_kcal.to_bits(),
        b.energy_kcal.to_bits(),
        "{label}: energy {} vs {}",
        a.energy_kcal,
        b.energy_kcal
    );
    assert_eq!(a.born_radii.len(), b.born_radii.len(), "{label}");
    for (i, (x, y)) in a.born_radii.iter().zip(&b.born_radii).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: radius {i}: {x} vs {y}");
    }
}

#[test]
fn distributed_sparse_matches_dense_bitwise_across_divisions_and_ranks() {
    let s = sys(900, 77);
    let cluster = SimCluster::single_node();
    for division in [WorkDivision::NodeNode, WorkDivision::AtomNode] {
        for p in [2usize, 4, 8] {
            let (dense, _) =
                try_run_distributed_mode(&s, &cluster, p, division, CommMode::Dense)
                    .expect("dense");
            let (sparse, _) =
                try_run_distributed_mode(&s, &cluster, p, division, CommMode::Sparse)
                    .expect("sparse");
            assert_bit_identical(&dense, &sparse, &format!("{division:?} P={p}"));
        }
    }
}

#[test]
fn sparse_is_bit_stable_across_cold_and_warm_plan_cache() {
    let s = sys(600, 78);
    let cluster = SimCluster::single_node();
    for division in [WorkDivision::NodeNode, WorkDivision::AtomNode] {
        let p = 4;
        let (dense, _) = try_run_distributed_mode(&s, &cluster, p, division, CommMode::Dense)
            .expect("dense");
        let workspaces: Vec<Mutex<Workspace>> =
            (0..p).map(|_| Mutex::new(Workspace::new())).collect();
        for pass in ["cold", "warm", "warm2"] {
            let (sparse, _) = try_run_distributed_ws_mode(
                &s,
                &cluster,
                p,
                division,
                CommMode::Sparse,
                &workspaces,
            )
            .expect("sparse");
            assert_bit_identical(&dense, &sparse, &format!("{division:?} {pass} cache"));
        }
    }
}

#[test]
fn hybrid_sparse_matches_dense_bitwise() {
    // Bitwise comparison needs one worker per rank: with threads > 1 the
    // steal pool's task→worker assignment is timing-dependent, so even two
    // *dense* hybrid runs differ at ULP level — that is pre-existing hybrid
    // behavior, not a property of the comm path.
    let s = sys(700, 79);
    let cluster = SimCluster::single_node();
    for p in [2usize, 4] {
        let (dense, _) =
            try_run_hybrid_mode(&s, &cluster, p, 1, CommMode::Dense)
                .expect("dense");
        let (sparse, _) =
            try_run_hybrid_mode(&s, &cluster, p, 1, CommMode::Sparse)
                .expect("sparse");
        assert_bit_identical(&dense, &sparse, &format!("hybrid P={p}"));
    }
}

#[test]
fn hybrid_sparse_matches_dense_with_worker_pools() {
    // The pooled path (threads > 1) still runs the full sparse exchange;
    // only the tolerance is relaxed to cover steal-order rounding noise.
    let s = sys(700, 79);
    let cluster = SimCluster::single_node();
    let (dense, _) =
        try_run_hybrid_mode(&s, &cluster, 2, 3, CommMode::Dense)
            .expect("dense");
    let (sparse, _) =
        try_run_hybrid_mode(&s, &cluster, 2, 3, CommMode::Sparse)
            .expect("sparse");
    let rel = ((dense.energy_kcal - sparse.energy_kcal) / dense.energy_kcal).abs();
    assert!(rel < 1e-9, "pooled hybrid energies drifted: rel {rel}");
    for (i, (x, y)) in dense.born_radii.iter().zip(&sparse.born_radii).enumerate() {
        assert!(((x - y) / x).abs() < 1e-9, "pooled hybrid radius {i}: {x} vs {y}");
    }
}

#[test]
fn data_distributed_sparse_matches_dense_bitwise() {
    let s = sys(600, 80);
    let cluster = SimCluster::single_node();
    for p in [2usize, 4, 8] {
        let (dense, _) = try_run_data_distributed_mode(&s, &cluster, p, CommMode::Dense)
            .expect("dense");
        let (sparse, _) = try_run_data_distributed_mode(&s, &cluster, p, CommMode::Sparse)
            .expect("sparse");
        assert_bit_identical(&dense, &sparse, &format!("data-distributed P={p}"));
    }
}

/// An extended rod-shaped molecule: spatial locality keeps each rank's
/// interaction lists (and hence its produced/consumed slot sets) narrow,
/// which is the geometry the sparse plan is built for. Mirrors the rod
/// used by the data-distributed scaling tests.
fn rod(n: usize) -> GbSystem {
    use gb_geom::{DetRng, Vec3};
    use gb_molecule::{Atom, Element, Molecule};
    let mut rng = DetRng::new(123);
    let atoms = (0..n).map(|i| {
        let x = i as f64 * 0.7;
        let pos = Vec3::new(x, rng.f64_in(-4.0, 4.0), rng.f64_in(-4.0, 4.0));
        Atom::new(pos, rng.f64_in(1.2, 1.9), rng.f64_in(-0.5, 0.5), Element::Carbon)
    });
    GbSystem::prepare(Molecule::from_atoms("rod", atoms), GbParams::default())
}

#[test]
fn sparse_moves_fewer_integral_bytes_than_dense() {
    let s = rod(3_000);
    let cluster = SimCluster::single_node();
    let p = 8;
    let (_, dense) =
        try_run_distributed_mode(&s, &cluster, p, WorkDivision::NodeNode, CommMode::Dense)
            .expect("dense");
    let (_, sparse) =
        try_run_distributed_mode(&s, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse)
            .expect("sparse");
    // integral-phase traffic: the dense flat allreduce vs the plan's
    // nonblocking sends + two staged exchanges (the scalar energy
    // allreduce rides along in the dense column; it is 8 bytes per rank)
    let dense_bytes = dense.bytes_for_op(OpKind::AllreduceSum);
    let sparse_bytes = sparse.bytes_for_op(OpKind::Isend)
        + sparse.bytes_for_op(OpKind::SparseExchange)
        + sparse.bytes_for_op(OpKind::AllreduceSum);
    assert!(
        (sparse_bytes as f64) < 0.6 * dense_bytes as f64,
        "sparse {sparse_bytes} vs dense {dense_bytes}"
    );
    // and the pipeline actually overlapped sends behind compute
    assert!(sparse.ledgers.iter().any(|l| l.overlap_seconds > 0.0));
}

#[test]
fn killed_rank_mid_sparse_run_degrades_to_typed_error_naming_the_op() {
    let s = sys(400, 82);
    let cluster = SimCluster::single_node()
        .with_fault_plan(gb_cluster::FaultPlan::new().kill_rank(1, 0));
    let err = try_run_distributed_mode(&s, &cluster, 4, WorkDivision::NodeNode, CommMode::Sparse)
        .expect_err("killed rank must fail the job");
    let gb_core::error::GbError::Comm(e) = &err;
    assert_eq!(e.rank, 1, "{err}");
    assert_eq!(e.rank_states.len(), 4, "{err}");
    let op = e.op.expect("diagnostics must name the failing op");
    assert!(
        matches!(op, OpKind::Isend | OpKind::Irecv | OpKind::SparseExchange),
        "first sparse-path op should be a plan op, got {op}"
    );
}

#[test]
fn replicated_memory_is_billed_once_per_workspace_lifetime() {
    let s = sys(300, 83);
    let cluster = SimCluster::single_node();
    let p = 3;
    let workspaces: Vec<Mutex<Workspace>> =
        (0..p).map(|_| Mutex::new(Workspace::new())).collect();
    let (_, first) = try_run_distributed_ws_mode(
        &s,
        &cluster,
        p,
        WorkDivision::NodeNode,
        CommMode::Sparse,
        &workspaces,
    )
    .expect("first");
    assert!(
        first.total_replicated_bytes() >= p as u64 * s.memory_bytes() as u64,
        "fresh workspaces must bill replication"
    );
    // a reused workspace holds the same resident arenas — billing again
    // would double-count the footprint in superstep studies
    let (_, second) = try_run_distributed_ws_mode(
        &s,
        &cluster,
        p,
        WorkDivision::NodeNode,
        CommMode::Sparse,
        &workspaces,
    )
    .expect("second");
    assert_eq!(
        second.total_replicated_bytes(),
        0,
        "reused workspaces must not re-bill replication"
    );
}

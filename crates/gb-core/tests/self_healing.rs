//! End-to-end self-healing: a fault-injected distributed run with
//! recovery enabled must *complete* — and, for the deterministic runners,
//! produce `to_bits()`-identical energies and Born radii to the fault-free
//! run. Kills are placed early, mid-stream and late in the victim's op
//! stream so replays exercise both full recompute (no checkpoint yet) and
//! the superstep-checkpoint restore paths (restart at step 3 / step 5).

use gb_cluster::{FaultPlan, SimCluster};
use gb_core::arena::Workspace;
use gb_core::commplan::CommMode;
use gb_core::params::GbParams;
use gb_core::runners::{
    try_run_data_distributed_mode, try_run_distributed_mode, try_run_distributed_ws_mode,
    try_run_hybrid_mode,
};
use gb_core::system::{GbResult, GbSystem};
use gb_core::workdiv::WorkDivision;
use gb_molecule::{synthesize_protein, SyntheticParams};
use parking_lot::Mutex;

fn sys(n: usize, seed: u64) -> GbSystem {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
    GbSystem::prepare(mol, GbParams::default())
}

fn assert_bit_identical(a: &GbResult, b: &GbResult, label: &str) {
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

/// Early / mid / late kill sites within the victim's fault-free op stream.
fn kill_sites(ops: u64) -> Vec<u64> {
    let mut sites = vec![0, ops / 2, ops.saturating_sub(1)];
    sites.dedup();
    sites
}

#[test]
fn distributed_kill_recovery_is_bit_identical_in_both_comm_modes() {
    let s = sys(500, 91);
    for mode in [CommMode::Dense, CommMode::Sparse] {
        for p in [2usize, 4] {
            let division = WorkDivision::NodeNode;
            let label = format!("distributed/{mode:?}/P={p}");
            let (clean, clean_report) =
                try_run_distributed_mode(&s, &SimCluster::single_node(), p, division, mode)
                    .expect("fault-free run");
            assert_eq!(clean_report.recoveries, 0, "{label}");
            let victim = p / 2;
            for at_op in kill_sites(clean_report.ledgers[victim].ops_started) {
                let cluster = SimCluster::single_node()
                    .with_recovery(2)
                    .with_fault_plan(FaultPlan::new().kill_rank(victim, at_op));
                let (healed, report) =
                    try_run_distributed_mode(&s, &cluster, p, division, mode)
                        .unwrap_or_else(|e| panic!("{label} op {at_op}: must complete: {e}"));
                assert!(report.recoveries >= 1, "{label} op {at_op}: no heal");
                assert_bit_identical(&clean, &healed, &format!("{label} op {at_op}"));
            }
        }
    }
}

#[test]
fn distributed_atom_division_kill_recovery_is_bit_identical() {
    let s = sys(400, 92);
    let p = 4;
    let division = WorkDivision::AtomNode;
    let (clean, clean_report) = try_run_distributed_mode(
        &s,
        &SimCluster::single_node(),
        p,
        division,
        CommMode::Sparse,
    )
    .expect("fault-free run");
    let victim = 1;
    for at_op in kill_sites(clean_report.ledgers[victim].ops_started) {
        let cluster = SimCluster::single_node()
            .with_recovery(2)
            .with_fault_plan(FaultPlan::new().kill_rank(victim, at_op));
        let (healed, report) =
            try_run_distributed_mode(&s, &cluster, p, division, CommMode::Sparse)
                .unwrap_or_else(|e| panic!("AtomNode op {at_op}: must complete: {e}"));
        assert!(report.recoveries >= 1, "AtomNode op {at_op}: no heal");
        assert_bit_identical(&clean, &healed, &format!("AtomNode op {at_op}"));
    }
}

/// Warm workspaces across supersteps: a kill in superstep 2 of 3 must heal
/// without contaminating the neighbouring fault-free supersteps, and an
/// attempt-0 superstep must never restore a stale checkpoint left behind
/// by the previous superstep's recovery.
#[test]
fn warm_workspace_supersteps_heal_independently() {
    let s = sys(500, 93);
    let p = 4;
    let clean_cluster = SimCluster::single_node();
    let (clean, clean_report) = try_run_distributed_mode(
        &s,
        &clean_cluster,
        p,
        WorkDivision::NodeNode,
        CommMode::Sparse,
    )
    .expect("fault-free run");
    let workspaces: Vec<Mutex<Workspace>> = (0..p).map(|_| Mutex::new(Workspace::new())).collect();
    // mid-stream of the victim's op sequence, so the kill always fires
    let at_op = clean_report.ledgers[1].ops_started / 2;
    let faulty = SimCluster::single_node()
        .with_recovery(2)
        .with_fault_plan(FaultPlan::new().kill_rank(1, at_op));
    for (step, cluster) in [
        ("superstep-1", &clean_cluster),
        ("superstep-2(kill)", &faulty),
        ("superstep-3", &clean_cluster),
    ] {
        let (res, report) = try_run_distributed_ws_mode(
            &s,
            cluster,
            p,
            WorkDivision::NodeNode,
            CommMode::Sparse,
            &workspaces,
        )
        .unwrap_or_else(|e| panic!("{step}: must complete: {e}"));
        if step == "superstep-2(kill)" {
            assert!(report.recoveries >= 1, "{step}: no heal");
        } else {
            assert_eq!(report.recoveries, 0, "{step}");
        }
        assert_bit_identical(&clean, &res, step);
    }
}

/// Hybrid is the distributed rank program on fixed per-thread
/// sub-segments, so a healed run reproduces the fault-free bits too.
#[test]
fn hybrid_kill_recovery_completes() {
    let s = sys(500, 94);
    let (clean, clean_report) = try_run_hybrid_mode(
        &s,
        &SimCluster::single_node(),
        2,
        4,
        CommMode::Sparse,
    )
    .expect("fault-free run");
    for at_op in kill_sites(clean_report.ledgers[1].ops_started) {
        let cluster = SimCluster::single_node()
            .with_recovery(2)
            .with_fault_plan(FaultPlan::new().kill_rank(1, at_op));
        let (healed, report) =
            try_run_hybrid_mode(&s, &cluster, 2, 4, CommMode::Sparse)
                .unwrap_or_else(|e| panic!("hybrid op {at_op}: must complete: {e}"));
        assert!(report.recoveries >= 1, "hybrid op {at_op}: no heal");
        assert_bit_identical(&clean, &healed, &format!("hybrid op {at_op}"));
    }
}

/// Data-distributed ranks are stateless between attempts (shards and
/// ghosts rebuild deterministically), so whole-run replay recovers the
/// exact bits with no checkpoints at all.
#[test]
fn data_distributed_kill_recovery_is_bit_identical() {
    let s = sys(400, 95);
    let p = 3;
    let (clean, clean_report) =
        try_run_data_distributed_mode(&s, &SimCluster::single_node(), p, CommMode::Sparse)
            .expect("fault-free run");
    for at_op in kill_sites(clean_report.ledgers[1].ops_started) {
        let cluster = SimCluster::single_node()
            .with_recovery(2)
            .with_fault_plan(FaultPlan::new().kill_rank(1, at_op));
        let (healed, report) = try_run_data_distributed_mode(&s, &cluster, p, CommMode::Sparse)
            .unwrap_or_else(|e| panic!("data-distributed op {at_op}: must complete: {e}"));
        assert!(report.recoveries >= 1, "data-distributed op {at_op}: no heal");
        assert_bit_identical(&clean, &healed, &format!("data-distributed op {at_op}"));
    }
}

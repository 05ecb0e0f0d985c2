//! Determinism-under-batching contract of the serving layer.
//!
//! A tenant's `E_pol` must be `to_bits()`-identical whether the request
//! runs solo on a fresh cluster, rides a fused superstep batched with
//! strangers, or is served warm from the tiered cache — and even when a
//! rank dies mid-batch and recovery heals and replays beneath the whole
//! fused rank program. The service runs node-based division with the
//! default comm mode; dense ≡ sparse is pinned by gb-core's
//! `sparse_comm_equivalence` and `self_healing` suites.

use gb_cluster::{FaultPlan, SimCluster};
use gb_core::runners::distributed::try_run_distributed_mode;
use gb_core::{CommMode, GbParams, GbSystem, WorkDivision};
use gb_molecule::{synthesize_protein, Molecule, SyntheticParams};
use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig};
use std::sync::Arc;

const RANKS: usize = 2;
const DIVISION: WorkDivision = WorkDivision::NodeNode;

fn mol(n: usize, seed: u64) -> Arc<Molecule> {
    Arc::new(synthesize_protein(&SyntheticParams::with_atoms(n, seed)))
}

/// The fleet of tenant molecules: distinct sizes and seeds so every job
/// has its own content key (no accidental cache sharing between tenants).
fn fleet() -> Vec<Arc<Molecule>> {
    vec![mol(60, 101), mol(90, 102), mol(120, 103), mol(75, 104)]
}

/// Solo reference: the same molecule through the plain distributed runner
/// on a private fault-free cluster — no service, no batch, no cache.
fn solo_bits(molecule: &Molecule) -> u64 {
    let sys = GbSystem::prepare(molecule.clone(), GbParams::default());
    let cluster = SimCluster::single_node();
    let (res, _) = try_run_distributed_mode(&sys, &cluster, RANKS, DIVISION, CommMode::default())
        .expect("reference run");
    res.energy_kcal.to_bits()
}

fn single(molecule: &Arc<Molecule>) -> EvalRequest {
    EvalRequest::Single { molecule: Arc::clone(molecule), params: GbParams::default() }
}

/// Submits the whole fleet concurrently (one tenant per molecule) and
/// waits for every outcome, in fleet order. A long-running "plug" request
/// is submitted first so the scheduler is busy while the wave enqueues —
/// the wave then drains together into one fused superstep.
fn eval_wave(service: &GbService, wave: &[Arc<Molecule>]) -> Vec<EvalOutcome> {
    let plug = mol(200, 999);
    let plug_ticket = service.submit("plug-tenant", single(&plug)).expect("admit plug");
    let tickets: Vec<_> = wave
        .iter()
        .enumerate()
        .map(|(i, m)| {
            service.submit(&format!("tenant-{i}"), single(m)).expect("admit wave")
        })
        .collect();
    plug_ticket.wait().expect("plug outcome");
    tickets.into_iter().map(|t| t.wait().expect("wave outcome")).collect()
}

fn cfg() -> ServeConfig {
    ServeConfig { ranks: RANKS, ..ServeConfig::default() }
}

#[test]
fn batched_and_warm_energies_match_solo_bits() {
    let wave = fleet();
    let reference: Vec<u64> = wave.iter().map(|m| solo_bits(m)).collect();

    let service = GbService::start(cfg());
    // cold round: batched with strangers, every artifact built fresh
    let cold = eval_wave(&service, &wave);
    for (i, (out, want)) in cold.iter().zip(&reference).enumerate() {
        assert_eq!(out.energy_kcal.to_bits(), *want, "molecule {i} batched-with-strangers != solo");
    }
    // warm round: same requests again, now served from the cache
    let warm = eval_wave(&service, &wave);
    for (i, (out, want)) in warm.iter().zip(&reference).enumerate() {
        assert_eq!(out.energy_kcal.to_bits(), *want, "molecule {i} warm-cache != solo");
        assert!(out.report.tier1_hit, "warm round must hit tier 1");
        assert!(out.report.tier2_hit, "warm round must hit tier 2");
        assert!(out.report.tier3_hit, "warm round must hit tier 3");
    }
    let stats = service.stats();
    assert!(
        stats.batch_occupancy() > 1.0,
        "the wave should have fused into shared supersteps (occupancy {})",
        stats.batch_occupancy()
    );
    service.shutdown();
}

#[test]
fn mid_batch_rank_kill_is_invisible_to_co_batched_tenants() {
    let wave = fleet();
    let reference: Vec<u64> = wave.iter().map(|m| solo_bits(m)).collect();

    // place the kill mid-stream: halfway through the ops a single
    // pipeline run performs, so it lands inside the first job of
    // whichever fused batch the victim rank is executing
    let victim = RANKS - 1;
    let probe = GbSystem::prepare(Molecule::clone(&wave[0]), GbParams::default());
    let (_, clean) = try_run_distributed_mode(
        &probe,
        &SimCluster::single_node(),
        RANKS,
        DIVISION,
        CommMode::default(),
    )
    .expect("clean probe run");
    let at_op = clean.ledgers[victim].ops_started / 2;

    let cluster = SimCluster::single_node()
        .with_recovery(2)
        .with_fault_plan(FaultPlan::new().kill_rank(victim, at_op));
    let service = GbService::start_with_cluster(cfg(), cluster);
    let outcomes = eval_wave(&service, &wave);
    for (i, (out, want)) in outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(out.energy_kcal.to_bits(), *want, "molecule {i} changed under a mid-batch kill");
    }
    let stats = service.stats();
    assert!(
        stats.recoveries >= 1,
        "the fault plan should have fired at least once (recoveries {})",
        stats.recoveries
    );
    assert_eq!(stats.failed, 0, "recovery must absorb the kill");
    service.shutdown();
}

//! Degenerate service configurations: a zero rank count or batch bound is
//! taken as 1, so every admitted request is still answered — docking
//! poses included, on one thread.
//!
//! Each wait is bounded on a helper thread, so a wedged scheduler fails the
//! test instead of hanging the suite.

use gb_core::pair::{evaluate_pair_ws, Monomer, PairScratch};
use gb_core::GbParams;
use gb_geom::{RigidTransform, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig, ServeError, Ticket};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(30);

fn single(n: usize, seed: u64) -> EvalRequest {
    let molecule = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(n, seed)));
    EvalRequest::Single { molecule, params: GbParams::default() }
}

/// Submits two singles and requires both answered with a finite energy
/// within [`LIMIT`]. A service that never answers is leaked, not dropped:
/// dropping it would join a scheduler that never returns.
fn assert_both_answered(cfg: ServeConfig, label: &str) {
    let service = GbService::start(cfg);
    let tickets: Vec<Ticket> = [(60, 1), (70, 2)]
        .into_iter()
        .map(|(n, seed)| service.submit("tenant", single(n, seed)).expect("admit"))
        .collect();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcomes: Vec<Result<EvalOutcome, ServeError>> =
            tickets.into_iter().map(Ticket::wait).collect();
        let _ = tx.send(outcomes);
    });
    let Ok(outcomes) = rx.recv_timeout(LIMIT) else {
        std::mem::forget(service);
        panic!("{label}: requests not answered within {LIMIT:?}");
    };
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let out = outcome.unwrap_or_else(|e| panic!("{label}: request {i} failed: {e:?}"));
        assert!(out.energy_kcal.is_finite(), "{label}: request {i}");
    }
    service.shutdown();
}

#[test]
fn zero_max_batch_still_drains_requests() {
    assert_both_answered(ServeConfig { max_batch: 0, ..ServeConfig::default() }, "max_batch 0");
}

#[test]
fn zero_ranks_runs_on_one_rank() {
    assert_both_answered(ServeConfig { ranks: 0, ..ServeConfig::default() }, "ranks 0");
}

#[test]
fn zero_ranks_serves_docking_on_one_thread() {
    let receptor = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(300, 11)));
    let ligand = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(40, 12)));
    let params = GbParams::default();
    let pose = RigidTransform::translation(Vec3::new(18.0, 0.0, 2.0));
    let want = evaluate_pair_ws(
        &Monomer::build((*receptor).clone(), params),
        &Monomer::build((*ligand).clone(), params),
        &pose,
        &mut PairScratch::with_threads(1),
    );
    let service = GbService::start(ServeConfig { ranks: 0, ..ServeConfig::default() });
    let ticket = service
        .submit("dock", EvalRequest::Docking { receptor, ligand, pose, params })
        .expect("admit");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    let Ok(outcome) = rx.recv_timeout(LIMIT) else {
        std::mem::forget(service);
        panic!("ranks 0: docking pose not answered within {LIMIT:?}");
    };
    let out = outcome.expect("ranks 0: docking pose failed");
    assert_eq!(out.energy_kcal.to_bits(), want.energy_kcal.to_bits(), "ranks 0 docking energy");
    service.shutdown();
}

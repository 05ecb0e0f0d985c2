//! The frame path end to end: after a [`GbSystem::refit_frame`] step,
//! workspaces skip, reuse or rebuild their interaction lists. In exact mode
//! (`drift_tol == 0`) every frame that moved rebuilds into the warm arenas,
//! so every runner, comm mode and rank count must produce the same
//! `to_bits()` energy and radii as a cold scratch run over the very same
//! refitted system. Also covered: mid-frame rank kills healing onto the
//! rebuilt lists, identity frames reusing lists and the CommPlan, and the
//! slack-mode reuse bound.

use gb_cluster::{FaultPlan, SimCluster};
use gb_core::arena::{ListPath, Workspace};
use gb_core::commplan::CommMode;
use gb_core::params::GbParams;
use gb_core::runners::frame::run_frame_serial;
use gb_core::runners::serial::run_serial_ws;
use gb_core::runners::shared::run_shared_ws;
use gb_core::runners::{try_run_distributed_ws_mode, try_run_hybrid_ws_mode};
use gb_core::system::{FrameUpdate, GbSystem};
use gb_core::workdiv::WorkDivision;
use gb_geom::{DetRng, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use parking_lot::Mutex;

fn prepare(n: usize, seed: u64) -> GbSystem {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
    GbSystem::prepare(mol, GbParams::default())
}

fn jitter(positions: &[Vec3], rng: &mut DetRng, amp: f64) -> Vec<Vec3> {
    positions
        .iter()
        .map(|&p| p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * amp)
        .collect()
}

fn frame_pool(ranks: usize) -> Vec<Mutex<Workspace>> {
    (0..ranks)
        .map(|_| {
            let mut ws = Workspace::new();
            ws.enable_frame_tracking(0.0);
            Mutex::new(ws)
        })
        .collect()
}

fn refit(sys: &mut GbSystem, positions: &[Vec3]) {
    match sys.refit_frame(positions) {
        FrameUpdate::Refit(_) => {}
        FrameUpdate::Rebuilt => panic!("small motion must refit"),
    }
}

/// Exact-mode frames: serial, shared, and distributed (Dense/Sparse × P ∈
/// {2, 4}) each agree bit for bit with a cold scratch run of the same
/// runner over the same refitted system, frame after frame.
#[test]
fn exact_frames_bitwise_across_runners_comm_modes_and_ranks() {
    let mut sys = prepare(500, 91);
    let cluster = SimCluster::single_node();
    let mut serial_ws = Workspace::new();
    serial_ws.enable_frame_tracking(0.0);
    let mut shared_ws = Workspace::new();
    shared_ws.enable_frame_tracking(0.0);
    let pools: Vec<(usize, Vec<Mutex<Workspace>>)> =
        [2usize, 4].iter().map(|&p| (p, frame_pool(p))).collect();
    let hybrid_pool = frame_pool(2);

    // Frame 0: cold builds everywhere.
    run_serial_ws(&sys, &mut serial_ws);
    run_shared_ws(&sys, &mut shared_ws);
    for (p, pool) in &pools {
        try_run_distributed_ws_mode(
            &sys, &cluster, *p, WorkDivision::NodeNode, CommMode::Sparse, pool,
        )
        .expect("frame 0");
    }
    try_run_hybrid_ws_mode(
        &sys, &cluster, 2, 3, CommMode::Sparse, &hybrid_pool,
    )
    .expect("frame 0 hybrid");

    let mut rng = DetRng::new(17);
    for frame in 1..=2 {
        let moved = jitter(sys.molecule.positions(), &mut rng, 0.02);
        refit(&mut sys, &moved);

        let reference = run_serial_ws(&sys, &mut serial_ws);
        assert_eq!(serial_ws.last_born_path, ListPath::Rebuilt, "frame {frame}");
        assert_eq!(serial_ws.last_energy_path, ListPath::Rebuilt, "frame {frame}");
        let cold = run_serial_ws(&sys, &mut Workspace::new());
        assert_eq!(
            reference.energy_kcal.to_bits(),
            cold.energy_kcal.to_bits(),
            "frame {frame}: serial frame vs scratch"
        );

        let shared = run_shared_ws(&sys, &mut shared_ws);
        assert_eq!(shared_ws.last_born_path, ListPath::Rebuilt, "frame {frame}");
        let cold = run_shared_ws(&sys, &mut Workspace::new());
        assert_eq!(
            shared.energy_kcal.to_bits(),
            cold.energy_kcal.to_bits(),
            "frame {frame}: shared frame vs scratch"
        );

        for (p, pool) in &pools {
            for (i, mode) in [CommMode::Dense, CommMode::Sparse].into_iter().enumerate() {
                let tag = format!("frame {frame} P={p} {mode:?}");
                let (warm, _) = try_run_distributed_ws_mode(
                    &sys, &cluster, *p, WorkDivision::NodeNode, mode, pool,
                )
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
                // the first run of the frame rebuilds, the second skips
                let expect = if i == 0 { ListPath::Rebuilt } else { ListPath::Skipped };
                assert_eq!(pool[0].lock().last_born_path, expect, "{tag}");

                let cold_pool: Vec<Mutex<Workspace>> =
                    (0..*p).map(|_| Mutex::new(Workspace::new())).collect();
                let (cold, _) = try_run_distributed_ws_mode(
                    &sys, &cluster, *p, WorkDivision::NodeNode, mode, &cold_pool,
                )
                .unwrap_or_else(|e| panic!("{tag} scratch: {e}"));
                assert_eq!(warm.energy_kcal.to_bits(), cold.energy_kcal.to_bits(), "{tag}");
                for (k, (a, b)) in warm.born_radii.iter().zip(&cold.born_radii).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}: radius {k}");
                }
            }
        }

        // Hybrid threads merge fixed sub-segments: bitwise equal to its own
        // scratch run, and equal to the serial runner up to that grouping.
        let (hyb, _) = try_run_hybrid_ws_mode(
            &sys, &cluster, 2, 3, CommMode::Sparse, &hybrid_pool,
        )
        .unwrap_or_else(|e| panic!("frame {frame} hybrid: {e}"));
        assert_eq!(hybrid_pool[0].lock().last_born_path, ListPath::Rebuilt);
        let (cold, _) = try_run_hybrid_ws_mode(
            &sys, &cluster, 2, 3, CommMode::Sparse, &frame_pool(2),
        )
        .unwrap_or_else(|e| panic!("frame {frame} hybrid scratch: {e}"));
        assert_eq!(hyb.energy_kcal.to_bits(), cold.energy_kcal.to_bits(), "frame {frame}: hybrid");
        for (k, (a, b)) in hyb.born_radii.iter().zip(&cold.born_radii).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "frame {frame}: hybrid radius {k}");
        }
        assert!(
            (reference.energy_kcal - hyb.energy_kcal).abs()
                < 1e-12 * reference.energy_kcal.abs(),
            "frame {frame}: hybrid {} vs serial {}",
            hyb.energy_kcal,
            reference.energy_kcal
        );
    }
}

/// A rank killed mid-frame must heal onto the frame's *rebuilt* lists —
/// the superstep checkpoints and the replay must reproduce the fault-free
/// frame bit for bit (never resurrect the previous frame's lists).
#[test]
fn mid_frame_rank_kill_heals_onto_rebuilt_lists() {
    let p = 4;
    let victim = 1;
    // Two identical warm pools: one plays the clean frame, the other the
    // faulted one, so both enter the frame with the same resident lists.
    let clean_pool = frame_pool(p);
    let faulty_pool = frame_pool(p);
    let clean_cluster = SimCluster::single_node();

    let mut sys = prepare(450, 92);
    for pool in [&clean_pool, &faulty_pool] {
        try_run_distributed_ws_mode(
            &sys, &clean_cluster, p, WorkDivision::NodeNode, CommMode::Sparse, pool,
        )
        .expect("frame 0");
    }

    let mut rng = DetRng::new(23);
    let moved = jitter(sys.molecule.positions(), &mut rng, 0.02);
    refit(&mut sys, &moved);

    let (clean, clean_report) = try_run_distributed_ws_mode(
        &sys, &clean_cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &clean_pool,
    )
    .expect("clean frame 1");
    assert_eq!(clean_pool[0].lock().last_born_path, ListPath::Rebuilt);

    // Early, mid and late kill sites in the victim's op stream: replays
    // exercise full recompute and both checkpoint restore paths, all on a
    // workspace whose lists were rebuilt at attempt 0 of this same frame.
    let ops = clean_report.ledgers[victim].ops_started;
    for at_op in [0, ops / 2, ops.saturating_sub(1)] {
        let cluster = SimCluster::single_node()
            .with_recovery(2)
            .with_fault_plan(FaultPlan::new().kill_rank(victim, at_op));
        let (healed, report) = try_run_distributed_ws_mode(
            &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &faulty_pool,
        )
        .unwrap_or_else(|e| panic!("kill at op {at_op}: must complete: {e}"));
        assert!(report.recoveries >= 1, "kill at op {at_op}: no heal");
        assert_eq!(
            clean.energy_kcal.to_bits(),
            healed.energy_kcal.to_bits(),
            "kill at op {at_op}"
        );
        for (i, (a, b)) in clean.born_radii.iter().zip(&healed.born_radii).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "kill at op {at_op}: radius {i}");
        }
    }
}

/// An identity frame (same positions, new nonce) reuses every rank's lists
/// without a sweep, so the lists' content key — and with it the cached
/// CommPlan — survives, provable via the plan's rebuild counter.
#[test]
fn identity_frame_reuses_lists_and_commplan() {
    let p = 3;
    let pool = frame_pool(p);
    let cluster = SimCluster::single_node();
    let mut sys = prepare(400, 93);

    let (first, _) = try_run_distributed_ws_mode(
        &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &pool,
    )
    .expect("frame 0");
    let before: Vec<(u64, u64)> = pool
        .iter()
        .map(|ws| {
            let ws = ws.lock();
            (ws.plan.rebuilds(), ws.born.content_key())
        })
        .collect();
    assert!(before.iter().all(|&(r, _)| r >= 1));

    let same = sys.molecule.positions().to_vec();
    refit(&mut sys, &same);
    let (second, _) = try_run_distributed_ws_mode(
        &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &pool,
    )
    .expect("identity frame");
    for (&(rebuilds, key), ws) in before.iter().zip(&pool) {
        let ws = ws.lock();
        assert_eq!(ws.last_born_path, ListPath::Repaired);
        assert_eq!(ws.last_energy_path, ListPath::Repaired);
        assert_eq!(ws.born.build_work, 0.0, "a reused frame sweeps nothing");
        assert_eq!(ws.energy.build_work, 0.0, "a reused frame sweeps nothing");
        assert_eq!(ws.born.content_key(), key);
        assert_eq!(ws.plan.rebuilds(), rebuilds, "identity frame must not rebuild the CommPlan");
    }
    assert_eq!(first.energy_kcal.to_bits(), second.energy_kcal.to_bits());
}

/// Slack mode reuses the lists while the displacement summed since their
/// build stays within `drift_tol`; the first frame past the bound rebuilds
/// (bitwise equal to scratch) and restarts the sum from zero. Rigid
/// translations script the per-frame displacement exactly: every atom and
/// quadrature point moves by `d`, so each frame adds `2d` to both phases'
/// sums (atoms + quadrature points for Born, twice the atoms for energy).
#[test]
fn slack_frames_reuse_lists_within_the_displacement_bound() {
    const D: [f64; 8] = [0.04, 0.04, 0.04, 0.3, 0.015, 0.015, 0.2, 0.04];
    let (r, b) = (ListPath::Repaired, ListPath::Rebuilt);
    let expected = [
        (0.0, [b, b, b, b, b, b, b, b]),
        // sums 0.08 | 0.16 → 0.08 | 0.68 → 0.03, 0.06 | 0.46 → 0.08
        (0.1, [r, b, r, b, r, r, b, r]),
        // sums 0.08, 0.16, 0.24 | 0.84 → 0.03, 0.06, 0.46 | 0.54
        (0.5, [r, r, r, b, r, r, r, b]),
        (2.0, [r, r, r, r, r, r, r, r]),
    ];
    let sys0 = prepare(300, 94);
    let mut last_rebuilds = usize::MAX;
    for (tol, paths) in expected {
        let mut sys = sys0.clone();
        let mut ws = Workspace::new();
        ws.enable_frame_tracking(tol);
        run_serial_ws(&sys, &mut ws);
        let mut rebuilds = 0;
        for (frame, (&d, &path)) in D.iter().zip(&paths).enumerate() {
            let tag = format!("tol={tol} frame {frame}");
            let moved: Vec<Vec3> =
                sys.molecule.positions().iter().map(|&p| p + Vec3::new(d, 0.0, 0.0)).collect();
            let out = run_frame_serial(&mut sys, &moved, tol, &mut ws);
            assert!(matches!(out.update, FrameUpdate::Refit(_)), "{tag}");
            assert_eq!(ws.last_born_path, path, "{tag}: Born");
            assert_eq!(ws.last_energy_path, path, "{tag}: energy");
            if path == ListPath::Rebuilt {
                rebuilds += 1;
                let cold = run_serial_ws(&sys, &mut Workspace::new());
                assert_eq!(out.output.energy_kcal.to_bits(), cold.energy_kcal.to_bits(), "{tag}");
            } else {
                assert!(out.output.energy_kcal.is_finite(), "{tag}");
            }
        }
        assert!(rebuilds <= last_rebuilds, "tol={tol}: {rebuilds} rebuilds, more than a smaller tol");
        last_rebuilds = rebuilds;
    }
}

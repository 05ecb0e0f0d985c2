//! Synthetic-MD trajectory benchmark — the incremental-recompute story
//! end to end, and the bench behind `BENCH_trajectory.json` and the
//! `GB_BENCH_TRAJECTORY` perf-smoke gate.
//!
//! Three sections:
//!
//! 1. **Tree update** (absorbed from the old `md_refit` example): per-step
//!    octree refit vs. a cutoff neighbour list rebuilt every step — the
//!    paper's §II octree-vs-nblist update argument.
//! 2. **Warm frames**: the full pipeline stepped with
//!    `run_frame_shared` (slack-margin refit + list rebuild into the warm
//!    arenas + execution over one warm workspace) against the full-rebuild
//!    baseline (`GbSystem::prepare` from scratch + run, per frame). In
//!    exact mode (`drift_tol = 0`) every frame's energy must be
//!    `to_bits()`-identical to a cold scratch run over the same refitted
//!    system.
//! 3. **Slack sweep**: `drift_tol` ∈ {0.1, 0.5, 2.0} replaying the same
//!    trajectory — frames reuse their lists while the displacement summed
//!    since the last build stays within the tolerance, so the fraction of
//!    frames rebuilt falls monotonically with it while the energy drifts
//!    only within the approximation band.
//!
//! The JSON keeps the `*_rewalk_fraction*` names the perf-smoke gate reads:
//! a frame either reuses its lists whole (0 rows re-walked) or rebuilds
//! them (all rows), so each value is the fraction of frames rebuilt.
//!
//! ```text
//! cargo run --release --example trajectory [n_atoms] [frames] > BENCH_trajectory.json
//! ```

use gb_polarize::baselines::NbList;
use gb_polarize::core::arena::{ListPath, Workspace};
use gb_polarize::core::runners::shared::{run_shared, run_shared_ws};
use gb_polarize::geom::{DetRng, Vec3};
use gb_polarize::octree::Octree;
use gb_polarize::prelude::*;
use std::time::Instant;

const JITTER_RMS: f64 = 0.05; // Å per axis per frame, the usual MD scale

fn jitter_in_place(positions: &mut [Vec3], rng: &mut DetRng) {
    for p in positions.iter_mut() {
        *p += Vec3::new(rng.normal(), rng.normal(), rng.normal()) * JITTER_RMS;
    }
}

fn molecule_at(template: &Molecule, positions: &[Vec3]) -> Molecule {
    let atoms: Vec<_> = template
        .atoms()
        .zip(positions)
        .map(|(mut a, &p)| {
            a.position = p;
            a
        })
        .collect();
    Molecule::from_atoms(template.name.as_str(), atoms)
}

struct FrameRow {
    incr_ms: f64,
    energy: f64,
    /// 1 when the frame rebuilt its Born lists, 0 when it reused them.
    born_rewalk: f64,
    rebuilt: bool,
}

/// Steps one system/workspace pair through the trajectory, returning one
/// row per frame. The trajectory is regenerated from `seed` so every
/// tolerance replays identical coordinates.
fn run_trajectory(
    template: &Molecule,
    params: GbParams,
    frames: usize,
    drift_tol: f64,
    seed: u64,
) -> Vec<FrameRow> {
    let mut sys = GbSystem::prepare(template.clone(), params);
    let mut ws = Workspace::new();
    ws.enable_frame_tracking(drift_tol);
    run_shared_ws(&sys, &mut ws); // frame 0: cold build
    let mut positions = template.positions().to_vec();
    let mut rng = DetRng::new(seed);
    let mut rows = Vec::with_capacity(frames);
    for _ in 0..frames {
        jitter_in_place(&mut positions, &mut rng);
        let t0 = Instant::now();
        let out = run_frame_shared(&mut sys, &positions, drift_tol, &mut ws);
        let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
        let rebuilt = matches!(out.update, FrameUpdate::Rebuilt);
        rows.push(FrameRow {
            incr_ms,
            energy: out.output.energy_kcal,
            born_rewalk: if ws.last_born_path == ListPath::Repaired {
                ws.last_born_repair.rewalk_fraction()
            } else {
                1.0
            },
            rebuilt,
        });
    }
    rows
}

fn main() {
    let n_atoms: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let frames: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed = 404u64;

    let template = synthesize_protein(&SyntheticParams::with_atoms(n_atoms, 77));
    let params = GbParams::default();

    // ---- Section 1: tree update — octree refit vs nblist rebuild.
    let mut positions = template.positions().to_vec();
    let mut rng = DetRng::new(seed);
    let t0 = Instant::now();
    let mut tree = Octree::build(&positions, 8);
    let tree_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut tree_rebuilds = 0usize;
    let t0 = Instant::now();
    for _ in 0..frames {
        jitter_in_place(&mut positions, &mut rng);
        tree.refit(&positions);
        if tree.needs_rebuild(1.5) {
            tree = Octree::build(&positions, 8);
            tree_rebuilds += 1;
        }
    }
    let refit_ms = t0.elapsed().as_secs_f64() * 1e3 / frames as f64;
    tree.validate().expect("tree stays valid across the trajectory");

    let cutoff = 12.0;
    let t0 = Instant::now();
    let mut nblist_pairs = 0u64;
    for _ in 0..frames {
        nblist_pairs = NbList::build(&positions, cutoff).total_pairs();
    }
    let nblist_ms = t0.elapsed().as_secs_f64() * 1e3 / frames as f64;

    // ---- Section 2: exact-mode warm frames vs full rebuild per frame.
    let t0 = Instant::now();
    let mut sys = GbSystem::prepare(template.clone(), params);
    let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut ws = Workspace::new();
    ws.enable_frame_tracking(0.0);
    run_shared_ws(&sys, &mut ws);

    let mut positions = template.positions().to_vec();
    let mut rng = DetRng::new(seed);
    let mut baseline_ws = Workspace::new(); // warm exec arenas: charitable baseline
    let mut incr_ms_total = 0.0;
    let mut full_ms_total = 0.0;
    let mut full_warm_ms_total = 0.0;
    let mut exact_bitwise = true;
    let mut frames_rebuilt = 0usize;
    let mut born_rewalk_sum = 0.0;
    let mut energy_rewalk_sum = 0.0;
    let mut exact_energies = Vec::with_capacity(frames);
    for _ in 0..frames {
        jitter_in_place(&mut positions, &mut rng);

        let t0 = Instant::now();
        let out = run_frame_shared(&mut sys, &positions, 0.0, &mut ws);
        incr_ms_total += t0.elapsed().as_secs_f64() * 1e3;
        if matches!(out.update, FrameUpdate::Rebuilt) {
            frames_rebuilt += 1;
        }
        if ws.last_born_path == ListPath::Repaired {
            born_rewalk_sum += ws.last_born_repair.rewalk_fraction();
            energy_rewalk_sum += ws.last_energy_repair.rewalk_fraction();
        } else {
            born_rewalk_sum += 1.0;
            energy_rewalk_sum += 1.0;
        }
        exact_energies.push(out.output.energy_kcal);

        // Full-rebuild baseline: prepare the frame's coordinates from
        // scratch (surface sample, trees, permutations) and run through the
        // public entry point — the path a caller without the frame pipeline
        // actually takes per frame.
        let t0 = Instant::now();
        let frame_mol = molecule_at(&template, &positions);
        let frame_sys = GbSystem::prepare(frame_mol, params);
        run_shared(&frame_sys);
        full_ms_total += t0.elapsed().as_secs_f64() * 1e3;
        // Second, more charitable baseline column: the same from-scratch
        // run but over one warm workspace reused across frames (no prepare
        // in the timer) — isolates how much of the win is list reuse vs.
        // just avoiding prepare + cold allocation.
        let t0 = Instant::now();
        run_shared_ws(&frame_sys, &mut baseline_ws);
        full_warm_ms_total += t0.elapsed().as_secs_f64() * 1e3;

        // Bitwise gate: scratch list rebuild over the *same* refitted
        // system must reproduce the frame pipeline exactly.
        let scratch = run_shared_ws(&sys, &mut Workspace::new());
        exact_bitwise &=
            scratch.energy_kcal.to_bits() == out.output.energy_kcal.to_bits();
    }
    let incr_ms = incr_ms_total / frames as f64;
    let full_ms = full_ms_total / frames as f64;
    let full_warm_ms = full_warm_ms_total / frames as f64;

    // ---- Section 3: slack sweep over the same trajectory.
    let tols = [0.1f64, 0.5, 2.0];
    let mut slack_rows = Vec::new();
    for &tol in &tols {
        let rows = run_trajectory(&template, params, frames, tol, seed);
        let n = rows.len() as f64;
        let rewalk = rows.iter().map(|r| r.born_rewalk).sum::<f64>() / n;
        let ms = rows.iter().map(|r| r.incr_ms).sum::<f64>() / n;
        let drift = rows
            .iter()
            .zip(&exact_energies)
            .map(|(r, &e)| ((r.energy - e) / e).abs())
            .fold(0.0f64, f64::max);
        let rebuilt = rows.iter().filter(|r| r.rebuilt).count();
        slack_rows.push((tol, rewalk, drift, ms, rebuilt));
    }

    // ---- JSON report (stdout; progress went nowhere — keep it parseable).
    println!("{{");
    println!("  \"n_atoms\": {n_atoms},");
    println!("  \"frames\": {frames},");
    println!("  \"jitter_rms\": {JITTER_RMS},");
    println!("  \"tree_update\": {{");
    println!("    \"build_ms\": {tree_build_ms:.3},");
    println!("    \"refit_ms_per_step\": {refit_ms:.3},");
    println!("    \"rebuilds\": {tree_rebuilds},");
    println!("    \"nblist_ms_per_step\": {nblist_ms:.3},");
    println!("    \"nblist_pairs\": {nblist_pairs}");
    println!("  }},");
    println!("  \"pipeline\": {{");
    println!("    \"prepare_ms\": {prepare_ms:.3},");
    println!("    \"incremental_ms_per_frame\": {incr_ms:.3},");
    println!("    \"full_rebuild_ms_per_frame\": {full_ms:.3},");
    println!("    \"full_run_warm_ws_ms_per_frame\": {full_warm_ms:.3},");
    println!("    \"warm_speedup\": {:.3},", full_ms / incr_ms);
    println!("    \"frames_rebuilt\": {frames_rebuilt},");
    println!("    \"born_rewalk_fraction_mean\": {:.4},", born_rewalk_sum / frames as f64);
    println!(
        "    \"energy_rewalk_fraction_mean\": {:.4},",
        energy_rewalk_sum / frames as f64
    );
    println!("    \"exact_bitwise\": {exact_bitwise}");
    println!("  }},");
    println!("  \"slack\": [");
    for (i, (tol, rewalk, drift, ms, rebuilt)) in slack_rows.iter().enumerate() {
        let comma = if i + 1 < slack_rows.len() { "," } else { "" };
        println!(
            "    {{\"drift_tol\": {tol}, \"born_rewalk_fraction\": {rewalk:.4}, \
             \"max_rel_energy_drift\": {drift:.3e}, \"ms_per_frame\": {ms:.3}, \
             \"frames_rebuilt\": {rebuilt}}}{comma}"
        );
    }
    println!("  ]");
    println!("}}");
}

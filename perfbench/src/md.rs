//! `md-10k`: exact-mode incremental frames, closed loop with one caller.
//!
//! Each op is one `run_frame_serial` frame (`drift_tol = 0`) of a 10k-atom
//! protein under seeded 0.05 Å RMS jitter, over one warm `Workspace`. The
//! octree refit and the list repair path do the work here; the surface
//! sample, octree build and prepare do almost none.
//!
//! Frame cost depends on the frame index (the workspace's dense-streak
//! probe rebuilds tracked lists on a fixed period, and drift accumulates),
//! so every run replays the same seeded trajectory from frame 0 and
//! measures whole replays only, never a time-bounded prefix.

use crate::layers;
use crate::protein::seeded_shift;
use crate::trace::Tracer;
use crate::{median, ms_since, peak_rss_mb, quantile, rel_err, Outcome, RunCfg, SETUP_REPEATS};
use gb_core::arena::{ListPath, Workspace};
use gb_core::naive::naive_full;
use gb_core::runners::run_frame_serial;
use gb_core::runners::serial::run_serial_ws;
use gb_core::{FrameUpdate, GbParams, GbSystem};
use gb_geom::{DetRng, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use std::time::Instant;

const ATOMS: usize = 10_000;
/// Frames per replay: one full period of the workspace's dense-streak
/// probe, so every replay has the same mix of repair, untracked-rebuild
/// and probe frames.
const FRAMES: usize = 8;
const JITTER_RMS: f64 = 0.05;
/// Exact mode: repaired lists are byte-identical to a scratch rebuild.
const DRIFT_TOL: f64 = 0.0;

struct Setup {
    /// The prepared frame-0 system every replay starts from.
    sys0: GbSystem,
    /// Positions of frames 1..=FRAMES.
    traj: Vec<Vec<Vec3>>,
    ws: Workspace,
    /// Frame-0 energy from the set-up's cold run.
    energy0: f64,
}

/// Inputs generated, system prepared, first (cold) frame done.
fn setup(cfg: &RunCfg) -> (Setup, f64) {
    let t0 = Instant::now();
    let mut rng = DetRng::new(cfg.seed);
    // Shifted, not rotated, by the seed: `energy_rel_err` is measured on
    // frame 0 and so stays a property of the kernels (see
    // `protein::seeded_shift`).
    let template = synthesize_protein(&SyntheticParams::with_atoms(ATOMS, cfg.structure_seed))
        .transformed(&seeded_shift(&mut rng));
    let mut pos = template.positions().to_vec();
    let traj = (0..FRAMES)
        .map(|_| {
            for p in pos.iter_mut() {
                *p += Vec3::new(rng.normal(), rng.normal(), rng.normal()) * JITTER_RMS;
            }
            pos.clone()
        })
        .collect();
    let sys0 = GbSystem::prepare(template, GbParams::default());
    let mut ws = Workspace::new();
    ws.enable_frame_tracking(DRIFT_TOL);
    let energy0 = run_serial_ws(&sys0, &mut ws).energy_kcal;
    (
        Setup {
            sys0,
            traj,
            ws,
            energy0,
        },
        t0.elapsed().as_secs_f64(),
    )
}

/// One replay's per-frame record.
#[derive(Default)]
struct Replay {
    frame_ms: Vec<f64>,
    energies: Vec<f64>,
    born_work: Vec<f64>,
    energy_work: Vec<f64>,
    /// Per phase and frame: whether the list ready repaired, and the
    /// re-walked row fraction (1 when the lists were rebuilt).
    repaired: Vec<bool>,
    rewalk: Vec<f64>,
    rebuilt_frames: usize,
}

/// Replays the trajectory from frame 0 over `s.ws`. With a tracer, each
/// frame runs through the layer-by-layer copy of the frame step instead of
/// `run_frame_serial`. With a checker workspace, the first and last frame
/// are checked `to_bits` against a scratch `run_serial_ws` over the same
/// refitted system, outside the frame timer.
fn replay(
    s: &mut Setup,
    mut checker: Option<&mut Workspace>,
    tracer: Option<&mut Tracer>,
    op_base: u64,
    out: &mut Outcome,
) -> Replay {
    let mut sys = s.sys0.clone();
    // Frame 0 restarts the workspace's frame state: a system with no parent
    // frame makes both list readies rebuild with certificates on.
    s.ws.enable_frame_tracking(DRIFT_TOL);
    run_serial_ws(&sys, &mut s.ws);
    let mut tree = tracer.as_ref().map(|_| s.sys0.ta.clone());
    let mut tracer = tracer;
    let mut r = Replay::default();
    for (f, pos) in s.traj.iter().enumerate() {
        let op = op_base + f as u64;
        let t = Instant::now();
        let (update, output) = match tracer.as_deref_mut() {
            None => {
                let o = run_frame_serial(&mut sys, pos, DRIFT_TOL, &mut s.ws);
                (o.update, o.output)
            }
            Some(tr) => {
                let root = tr.begin("frame", op);
                let update = tr.span("system.refit_frame", op, || sys.refit_frame(pos));
                s.ws.enable_frame_tracking(DRIFT_TOL);
                let output = layers::serial_traced(&sys, &mut s.ws, tr, op);
                tr.end(root);
                (update, output)
            }
        };
        r.frame_ms.push(ms_since(t));
        if let (Some(tr), Some(tree)) = (tracer.as_deref_mut(), tree.as_mut()) {
            // The atom-tree refit on its own, outside the frame span:
            // `refit_frame` does it internally, out of reach of a span.
            tr.span("octree.refit", op, || tree.refit(pos));
        }
        out.ops += 1;
        if !output.energy_kcal.is_finite() {
            out.ops_failed += 1;
            eprintln!("frame {f}: non-finite energy {}", output.energy_kcal);
        }
        r.energies.push(output.energy_kcal);
        r.born_work.push(output.born_work);
        r.energy_work.push(output.energy_work);
        r.rebuilt_frames += usize::from(matches!(update, FrameUpdate::Rebuilt));
        for (path, stats) in [
            (s.ws.last_born_path, &s.ws.last_born_repair),
            (s.ws.last_energy_path, &s.ws.last_energy_repair),
        ] {
            let repaired = path == ListPath::Repaired;
            r.repaired.push(repaired);
            r.rewalk.push(if repaired {
                stats.rewalk_fraction()
            } else {
                1.0
            });
        }
        if let Some(checker) = checker.as_deref_mut().filter(|_| f == 0 || f + 1 == FRAMES) {
            let scratch = run_serial_ws(&sys, checker).energy_kcal;
            out.check(scratch.to_bits() == output.energy_kcal.to_bits(), || {
                format!(
                    "frame {f}: incremental {} != scratch {scratch}",
                    output.energy_kcal
                )
            });
        }
    }
    r
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut s = None;
    for _ in 0..repeats {
        let (next, secs) = setup(cfg);
        setup_s.push(secs);
        s = Some(next);
    }
    let mut s = s.expect("at least one set-up");

    let mut checker = Workspace::new();
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut plain: Vec<Replay> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds
        || plain.is_empty()
        || (tracer.is_some() && traced.is_empty())
    {
        // With tracing on, replays alternate plain and traced.
        let tr = tracer.as_mut().filter(|_| n % 2 == 1);
        let is_traced = tr.is_some();
        // The first replay is checked against scratch runs; every later one
        // must reproduce it bit for bit, which carries the check over.
        let check = (n == 0).then_some(&mut checker);
        let r = replay(&mut s, check, tr, n * FRAMES as u64, &mut out);
        if let Some(first) = plain.first() {
            let same = first
                .energies
                .iter()
                .zip(&r.energies)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            out.check(same, || format!("replay {n} energies differ from replay 0"));
        }
        if is_traced { &mut traced } else { &mut plain }.push(r);
        n += 1;
    }

    out.metrics.insert("peak_rss_mb", peak_rss_mb()?);
    let frame_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.frame_ms.iter().copied())
        .collect();
    let first = &plain[0];
    let energy_rel_err = rel_err(s.energy0, naive_full(&s.sys0).energy_kcal);

    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert(
        "throughput_per_s",
        frame_ms.len() as f64 * 1e3 / frame_ms.iter().sum::<f64>(),
    );
    m.insert("latency_p50_ms", median(&frame_ms));
    m.insert("latency_p95_ms", quantile(&frame_ms, 0.95));
    m.insert("energy_rel_err", energy_rel_err);

    if let Some(tr) = tracer {
        let traced_ms: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.frame_ms.iter().copied())
            .collect();
        let per_frame = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let m = &mut out.metrics;
        layers::report_layers(&tr, m);
        m.insert("surface.qpoints", s.sys0.num_qpoints() as f64);
        m.insert(
            "octree.refit_ms",
            median(&tr.self_ms_per_op("octree.refit")),
        );
        m.insert(
            "system.refit_frame_ms",
            median(&tr.self_ms_per_op("system.refit_frame")),
        );
        m.insert("born.work_units", per_frame(&first.born_work));
        m.insert("energy.work_units", per_frame(&first.energy_work));
        let repaired = first.repaired.iter().filter(|&&b| b).count();
        m.insert(
            "frame.repaired_frac",
            repaired as f64 / first.repaired.len() as f64,
        );
        m.insert("frame.rewalk_frac", per_frame(&first.rewalk));
        m.insert("frame.rebuilt_frames", first.rebuilt_frames as f64);
        m.insert("trace.unattributed_frac", tr.unattributed_frac("frame"));
        m.insert(
            "trace.overhead_frac",
            median(&traced_ms) / median(&frame_ms) - 1.0,
        );
        out.tracer = Some(tr);
    }
    Ok(out)
}

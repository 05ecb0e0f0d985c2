//! Open-loop load generator for the `gb-serve` layer — the serving
//! benchmark behind `BENCH_serve.json` and the `GB_BENCH_SERVE` perf-smoke
//! gate.
//!
//! Three phases, all against real service instances:
//!
//! 1. **Warm docking scan** (the killer path): one receptor × many ligand
//!    poses with tier-2/3 caching on — receptor artifacts built once,
//!    cross terms per pose.
//! 2. **Cold docking baseline**: the same requests against a service with
//!    `caching: false`, every pose rebuilding both monomers from scratch
//!    (a subset of the poses — cold is the slow path being beaten).
//!    Energies must be `to_bits()`-identical to the warm phase.
//! 3. **Singles mix**: an open-loop multi-tenant burst of small
//!    molecules fused into shared cluster supersteps.
//!
//! A host probe times the exact O(M²) energy of the receptor:
//! `naive_energy` at its intrinsic radii, run once on each of the
//! service's `ranks` threads at the same time (the threads a docking pose
//! runs on), median of 3 samples. The warm scan runs in `SLICES` slices of
//! its poses with the probe before, between and after them, and each
//! slice's per-job time and p99 are taken over the mean of the probes on
//! either side of it. The reported `warm_job_over_probe` and
//! `p99_over_probe` are the medians of those per-slice ratios: ratios
//! taken within one process and a fraction of a second apart, which a
//! slower or faster host moves together, unlike the absolute jobs/sec and
//! p99. (A probe taken once around the whole scan swung ~30 % between
//! processes.)
//!
//! ```text
//! cargo run --release --example serve_load > BENCH_serve.json
//! ```
//!
//! Knobs (env): `GB_SERVE_POSES` (500), `GB_SERVE_RECEPTOR_ATOMS` (3000),
//! `GB_SERVE_LIGAND_ATOMS` (80), `GB_SERVE_COLD_POSES` (24),
//! `GB_SERVE_SINGLES` (96), `GB_SERVE_TENANTS` (8).

use gb_polarize::core::naive::naive_energy;
use gb_polarize::molecule::docking::PoseScan;
use gb_polarize::prelude::*;
use gb_polarize::serve::ServeStats;
use std::sync::Arc;
use std::time::Instant;

/// Slices of the warm scan, each timed between two probes.
const SLICES: usize = 5;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Latency of one request as the service experienced it: admission→drain
/// plus drain→completion.
fn latency_ms(out: &EvalOutcome) -> f64 {
    out.report.queue_wait_ms + out.report.service_ms
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Phase {
    outcomes: Vec<EvalOutcome>,
    elapsed_s: f64,
    stats: ServeStats,
}

impl Phase {
    fn jobs_per_sec(&self) -> f64 {
        self.outcomes.len() as f64 / self.elapsed_s
    }
    fn latencies(&self) -> Vec<f64> {
        let mut l: Vec<f64> = self.outcomes.iter().map(latency_ms).collect();
        l.sort_by(|a, b| a.partial_cmp(b).unwrap());
        l
    }
}

/// Submits every request up front (open loop), then collects in order.
fn run_open_loop(
    service: &GbService,
    requests: Vec<(String, EvalRequest)>,
) -> Phase {
    let t0 = Instant::now();
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|(tenant, req)| service.submit(&tenant, req).expect("admission"))
        .collect();
    let outcomes: Vec<EvalOutcome> =
        tickets.into_iter().map(|t| t.wait().expect("outcome")).collect();
    Phase { outcomes, elapsed_s: t0.elapsed().as_secs_f64(), stats: service.stats() }
}

fn main() {
    let n_poses = env_usize("GB_SERVE_POSES", 500);
    let receptor_atoms = env_usize("GB_SERVE_RECEPTOR_ATOMS", 3_000);
    let ligand_atoms = env_usize("GB_SERVE_LIGAND_ATOMS", 80);
    let cold_poses = env_usize("GB_SERVE_COLD_POSES", 24).min(n_poses);
    let n_singles = env_usize("GB_SERVE_SINGLES", 96);
    let n_tenants = env_usize("GB_SERVE_TENANTS", 8).max(1);

    let receptor = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(receptor_atoms, 7)));
    let ligand = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(ligand_atoms, 8)));
    let params = GbParams::default();
    let centroid = {
        let mut c = gb_polarize::geom::Vec3::ZERO;
        for &p in ligand.positions() {
            c += p;
        }
        c / ligand.len() as f64
    };
    let scan = PoseScan {
        center: receptor.bounding_box().center(),
        standoff: receptor.bounding_box().circumradius() + 8.0,
        n_poses,
        seed: 99,
    };
    let poses = scan.poses(centroid);

    // ---- host probe: the receptor's exact energy on every docking
    // thread at once, median of 3 samples
    let probe_sys = GbSystem::prepare(Molecule::clone(&receptor), params);
    let probe = || {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..ServeConfig::default().ranks {
                        s.spawn(|| naive_energy(&probe_sys, probe_sys.molecule.radii()));
                    }
                });
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[1]
    };
    let dock_req = |pose| EvalRequest::Docking {
        receptor: Arc::clone(&receptor),
        ligand: Arc::clone(&ligand),
        pose,
        params,
    };

    // ---- phase 1: warm docking scan (tiered cache on), in slices timed
    // between probes
    let warm_service = GbService::start(ServeConfig::default());
    let slice_len = n_poses.div_ceil(SLICES).max(1);
    let mut probes = vec![probe()];
    let (mut job_ratios, mut p99_ratios) = (Vec::new(), Vec::new());
    let mut warm = Phase { outcomes: Vec::new(), elapsed_s: 0.0, stats: ServeStats::default() };
    for slice in poses.chunks(slice_len) {
        let part = run_open_loop(
            &warm_service,
            slice.iter().map(|p| ("dock".to_string(), dock_req(*p))).collect(),
        );
        probes.push(probe());
        let around = 0.5 * (probes[probes.len() - 2] + probes[probes.len() - 1]);
        job_ratios.push(part.elapsed_s * 1e3 / part.outcomes.len() as f64 / around);
        p99_ratios.push(percentile(&part.latencies(), 0.99) / around);
        warm.outcomes.extend(part.outcomes);
        warm.elapsed_s += part.elapsed_s;
        warm.stats = part.stats;
    }
    warm_service.shutdown();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(v, 0.5)
    };
    let probe_ms = median(&mut probes);

    // ---- phase 2: cold baseline (caching off, subset of the same poses)
    let cold_service =
        GbService::start(ServeConfig { caching: false, ..ServeConfig::default() });
    let cold = run_open_loop(
        &cold_service,
        poses[..cold_poses].iter().map(|p| ("dock".to_string(), dock_req(*p))).collect(),
    );
    cold_service.shutdown();

    let bitwise_match = warm.outcomes[..cold_poses]
        .iter()
        .zip(&cold.outcomes)
        .all(|(w, c)| w.energy_kcal.to_bits() == c.energy_kcal.to_bits());

    // ---- phase 3: multi-tenant singles burst
    let singles: Vec<(String, EvalRequest)> = (0..n_singles)
        .map(|i| {
            // a small pool of distinct molecules so the cache matters but
            // every superstep still mixes tenants
            let mol = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(
                60 + 10 * (i % 4),
                200 + (i % 12) as u64,
            )));
            (
                format!("tenant-{}", i % n_tenants),
                EvalRequest::Single { molecule: mol, params },
            )
        })
        .collect();
    let singles_service = GbService::start(ServeConfig::default());
    let mix = run_open_loop(&singles_service, singles);
    singles_service.shutdown();

    // ---- report
    let wl = warm.latencies();
    let ml = mix.latencies();
    let wstats = &warm.stats;
    let mstats = &mix.stats;
    println!("{{");
    println!("  \"receptor_atoms\": {},", receptor.len());
    println!("  \"ligand_atoms\": {},", ligand.len());
    println!("  \"docking\": {{");
    println!("    \"poses\": {n_poses},");
    println!("    \"cold_poses\": {cold_poses},");
    println!("    \"jobs_per_sec_warm\": {:.2},", warm.jobs_per_sec());
    println!("    \"jobs_per_sec_cold\": {:.2},", cold.jobs_per_sec());
    println!(
        "    \"speedup_warm_over_cold\": {:.3},",
        warm.jobs_per_sec() / cold.jobs_per_sec()
    );
    println!("    \"p50_ms\": {:.3},", percentile(&wl, 0.50));
    println!("    \"p99_ms\": {:.3},", percentile(&wl, 0.99));
    println!("    \"probe_ms\": {probe_ms:.3},");
    println!("    \"slices\": {},", job_ratios.len());
    println!("    \"warm_job_over_probe\": {:.4},", median(&mut job_ratios));
    println!("    \"p99_over_probe\": {:.3},", median(&mut p99_ratios));
    println!("    \"full_row_poses\": {},", wstats.docking_full_rows);
    println!(
        "    \"tier1_hit_rate\": {:.4},",
        ServeStats::hit_rate(wstats.cache.tier1_hits, wstats.cache.tier1_misses)
    );
    println!(
        "    \"tier2_hit_rate\": {:.4},",
        ServeStats::hit_rate(wstats.cache.tier2_hits, wstats.cache.tier2_misses)
    );
    println!("    \"bitwise_match_cold\": {bitwise_match}");
    println!("  }},");
    println!("  \"singles\": {{");
    println!("    \"jobs\": {n_singles},");
    println!("    \"tenants\": {n_tenants},");
    println!("    \"jobs_per_sec\": {:.2},", mix.jobs_per_sec());
    println!("    \"p50_ms\": {:.3},", percentile(&ml, 0.50));
    println!("    \"p99_ms\": {:.3},", percentile(&ml, 0.99));
    println!("    \"batch_occupancy\": {:.3},", mstats.batch_occupancy());
    println!(
        "    \"tier3_hit_rate\": {:.4}",
        ServeStats::hit_rate(mstats.cache.tier3_hits, mstats.cache.tier3_misses)
    );
    println!("  }}");
    println!("}}");
}

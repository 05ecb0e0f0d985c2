//! `serve-mix`: an open loop at one fixed arrival rate against
//! `GbService::start(ServeConfig::default())`.
//!
//! Traffic: docking poses from two ~3k-atom receptors with an 80-atom
//! ligand (tier-2 cache reads served by `gb_core::pair`), and singles from
//! eight tenants (60–400 atoms), a quarter of them fresh molecules (cache
//! writes: prepare + list build + insert, fused into 2-rank supersteps).
//! This is the only workload where `gb-serve` and `gb_core::pair` carry
//! the work while the large-molecule kernels barely run.

use crate::layers;
use crate::protein::{self, seeded_shift, SERIAL_AGREEMENT};
use crate::trace::Tracer;
use crate::{median, ms_since, peak_rss_mb, quantile, rel_err, Outcome, RunCfg, SETUP_REPEATS};
use gb_cluster::{RunReport, SimCluster};
use gb_core::arena::Workspace;
use gb_core::naive::naive_full;
use gb_core::pair::{evaluate_pair_ws, Monomer, PairScratch};
use gb_core::runners::run_serial;
use gb_core::{GbParams, GbSystem};
use gb_geom::{DetRng, RigidTransform, Vec3};
use gb_molecule::docking::PoseScan;
use gb_molecule::{synthesize_protein, Molecule, SyntheticParams};
use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig, ServeError, ServeStats, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranks of `ServeConfig::default()`.
pub const RANKS: usize = 2;
/// Fixed arrival rate (requests/s): about a quarter of the ~40 req/s this
/// mix sustains on a 2-core host. At half capacity, queueing amplified the
/// host's own speed drift into 30–40% run-to-run spreads of p50 and p95.
pub const RATE_PER_S: f64 = 10.0;
/// Consecutive stretches of the schedule `latency_p95_ms` is the median of.
const P95_STRETCHES: usize = 3;
/// Requests per arrival block (see `generate`).
const ARRIVAL_BLOCK: usize = 10;
/// At least this many requests per run, so that 10 samples lie beyond p95.
const MIN_REQUESTS: usize = 200;
const RECEPTORS: usize = 2;
const RECEPTOR_ATOMS: usize = 3_000;
const LIGAND_ATOMS: usize = 80;
const TENANTS: usize = 8;
/// Distinct repeat molecules per tenant (cache reads once warm).
const POOL_PER_TENANT: usize = 3;
/// Share of requests that are docking poses; of the singles, a quarter are
/// fresh molecules. With most requests docking, the median sits inside the
/// docking latency mode rather than on the edge between two modes.
const DOCK_SHARE: f64 = 0.6;
const FRESH_SHARE: f64 = 0.25;
const POSES_PER_RECEPTOR: usize = 512;
/// Every n-th docking request is re-evaluated through `evaluate_pair_ws`.
const DOCK_CHECK_EVERY: usize = 8;
/// Fresh singles decomposed layer by layer in the traced run.
const PROBE_SINGLES: usize = 8;
/// Latency charged to a failed or refused request: over any limit.
const FAILED_LATENCY_MS: f64 = 1e9;

/// Atom count of the `j`-th of `n` single molecules: evenly spread over
/// 60–400, so every run serves the same sizes.
fn single_atoms(j: usize, n: usize) -> usize {
    60 + 340 * j / n.saturating_sub(1).max(1)
}

enum Kind {
    Dock {
        receptor: usize,
        pose: RigidTransform,
    },
    Pooled {
        index: usize,
    },
    Fresh {
        molecule: Arc<Molecule>,
    },
}

struct Request {
    /// Seconds after the start of the measured phase.
    due_s: f64,
    tenant: usize,
    kind: Kind,
}

struct Inputs {
    receptors: Vec<Arc<Molecule>>,
    ligand: Arc<Molecule>,
    /// `pool[t * POOL_PER_TENANT + j]` belongs to tenant `t`.
    pool: Vec<Arc<Molecule>>,
    /// One pose per receptor for the set-up's warm-up request.
    warm_poses: Vec<RigidTransform>,
    schedule: Vec<Request>,
}

fn generate(cfg: &RunCfg) -> Inputs {
    let ss = cfg.structure_seed;
    let synth = |atoms, seed| synthesize_protein(&SyntheticParams::with_atoms(atoms, seed));
    let receptors: Vec<Arc<Molecule>> = (0..RECEPTORS)
        .map(|r| Arc::new(synth(RECEPTOR_ATOMS, ss + 1 + r as u64)))
        .collect();
    let ligand = Arc::new(synth(LIGAND_ATOMS, ss + 1 + RECEPTORS as u64));
    // The pool is fixed by the structure seed; the workload seed only shifts
    // it (see `protein::seeded_shift`), since `energy_rel_err` is measured
    // on the pool's warm-up answers.
    let mut rng = DetRng::new(cfg.seed);
    let shift = seeded_shift(&mut rng);
    let n_pool = TENANTS * POOL_PER_TENANT;
    let pool = (0..n_pool)
        .map(|i| Arc::new(synth(single_atoms(i, n_pool), ss * 1000 + i as u64).transformed(&shift)))
        .collect();

    let centroid = {
        let mut c = Vec3::ZERO;
        for &p in ligand.positions() {
            c += p;
        }
        c / ligand.len() as f64
    };
    let poses: Vec<Vec<RigidTransform>> = receptors
        .iter()
        .enumerate()
        .map(|(r, rec)| {
            PoseScan {
                center: rec.bounding_box().center(),
                standoff: rec.bounding_box().circumradius() + 8.0,
                n_poses: POSES_PER_RECEPTOR,
                seed: ss.wrapping_mul(31).wrapping_add(r as u64),
            }
            .poses(centroid)
        })
        .collect();
    let warm_poses = poses.iter().map(|p| p[POSES_PER_RECEPTOR - 1]).collect();

    // The mix is exact — every run has the same counts of docking, pooled
    // and fresh requests, the same docking poses (their cost varies up to
    // 2x with the pose) and the same fresh sizes — and the seed shuffles
    // their order.
    let n = ((cfg.seconds * RATE_PER_S).ceil() as usize).max(MIN_REQUESTS);
    let n_dock = (n as f64 * DOCK_SHARE).round() as usize;
    let n_fresh = ((n - n_dock) as f64 * FRESH_SHARE).round() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }

    // Arrivals: seeded exponential gaps, rescaled block by block so that
    // every `ARRIVAL_BLOCK` requests span exactly `ARRIVAL_BLOCK / RATE_PER_S`
    // seconds — a Poisson stream conditioned on its count per block. The
    // offered load is then the same in every run and in every stretch of a
    // run; bursts stay, but no seed piles a long one onto its tail.
    let mut gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.f64()).ln()).collect();
    for block in gaps.chunks_mut(ARRIVAL_BLOCK) {
        let scale = block.len() as f64 / RATE_PER_S / block.iter().sum::<f64>();
        block.iter_mut().for_each(|g| *g *= scale);
    }
    let mut due_s = 0.0;
    let schedule = order
        .into_iter()
        .zip(&gaps)
        .map(|(slot, gap)| {
            let tenant = rng.usize_below(TENANTS);
            let kind = if slot < n_dock {
                let receptor = slot % RECEPTORS;
                Kind::Dock {
                    receptor,
                    pose: poses[receptor][slot / RECEPTORS % POSES_PER_RECEPTOR],
                }
            } else if slot < n_dock + n_fresh {
                let j = slot - n_dock;
                let seed = (cfg.seed << 24) ^ (1 << 23) ^ j as u64;
                Kind::Fresh {
                    molecule: Arc::new(synth(single_atoms(j, n_fresh), seed)),
                }
            } else {
                Kind::Pooled {
                    index: tenant * POOL_PER_TENANT + rng.usize_below(POOL_PER_TENANT),
                }
            };
            let r = Request {
                due_s,
                tenant,
                kind,
            };
            due_s += gap;
            r
        })
        .collect();
    Inputs {
        receptors,
        ligand,
        pool,
        warm_poses,
        schedule,
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn request_of(inputs: &Inputs, kind: &Kind) -> EvalRequest {
    let params = GbParams::default();
    match kind {
        Kind::Dock { receptor, pose } => EvalRequest::Docking {
            receptor: Arc::clone(&inputs.receptors[*receptor]),
            ligand: Arc::clone(&inputs.ligand),
            pose: *pose,
            params,
        },
        Kind::Pooled { index } => EvalRequest::Single {
            molecule: Arc::clone(&inputs.pool[*index]),
            params,
        },
        Kind::Fresh { molecule } => EvalRequest::Single {
            molecule: Arc::clone(molecule),
            params,
        },
    }
}

struct Setup {
    inputs: Inputs,
    service: GbService,
    /// Energies of the pool molecules from the warm-up (cache writes);
    /// every later cache read must reproduce them `to_bits`.
    pool_energy: Vec<f64>,
}

/// Inputs generated, service started, receptors and pool warmed (the
/// first, cold, ops).
fn setup(cfg: &RunCfg) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let inputs = generate(cfg);
    let service = GbService::start(ServeConfig::default());
    assert_eq!(ServeConfig::default().ranks, RANKS);
    let warm = |req| service.submit("warm-up", req).and_then(Ticket::wait);
    for (receptor, &pose) in inputs.warm_poses.iter().enumerate() {
        let kind = Kind::Dock { receptor, pose };
        warm(request_of(&inputs, &kind)).map_err(|e| format!("receptor warm-up: {e}"))?;
    }
    let tickets: Vec<Ticket> = (0..inputs.pool.len())
        .map(|index| service.submit("warm-up", request_of(&inputs, &Kind::Pooled { index })))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("pool warm-up: {e}"))?;
    let pool_energy = tickets
        .into_iter()
        .map(|t| t.wait().map(|o| o.energy_kcal))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("pool warm-up: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Setup {
            inputs,
            service,
            pool_energy,
        },
        secs,
    ))
}

/// One request's fate in the measured phase.
struct Served {
    /// Due time to completion (ms), or [`FAILED_LATENCY_MS`].
    latency_ms: f64,
    late_ms: f64,
    result: Result<EvalOutcome, ServeError>,
}

/// Submits the schedule on time from this thread, then collects every
/// answer. A request's latency runs from its due time to its completion:
/// the submit delay seen here plus the queue wait and service time the
/// service stamps on the answer (both on the same monotonic clock), so a
/// request answered while an earlier one is still awaited is not charged
/// for the wait.
fn open_loop(s: &Setup) -> (Vec<Served>, f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let mut pending = Vec::with_capacity(s.inputs.schedule.len());
    for req in &s.inputs.schedule {
        let due = start + Duration::from_secs_f64(req.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        let ticket = s
            .service
            .submit(&tenant_name(req.tenant), request_of(&s.inputs, &req.kind));
        pending.push((late_ms, ticket));
    }
    let mut end_ms = 0.0f64;
    let served = pending
        .into_iter()
        .zip(&s.inputs.schedule)
        .map(|((late_ms, ticket), req)| {
            let result = ticket.and_then(Ticket::wait);
            let latency_ms = match &result {
                Ok(o) => late_ms + o.report.queue_wait_ms + o.report.service_ms,
                Err(_) => FAILED_LATENCY_MS,
            };
            if result.is_ok() {
                end_ms = end_ms.max(req.due_s * 1e3 + latency_ms);
            }
            Served {
                latency_ms,
                late_ms,
                result,
            }
        })
        .collect();
    (served, end_ms)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut s = None;
    for _ in 0..repeats {
        // Each set-up starts a service of its own; the previous one shuts
        // down (and joins its scheduler) when it is replaced.
        let (next, secs) = setup(cfg)?;
        setup_s.push(secs);
        s = Some(next);
    }
    let s = s.expect("at least one set-up");

    let before = s.service.stats();
    let (served, end_ms) = open_loop(&s);
    let after = s.service.stats();
    out.metrics.insert("peak_rss_mb", peak_rss_mb()?);

    // Checks, outside every timer.
    let mut latencies = Vec::with_capacity(served.len());
    let mut lates = Vec::with_capacity(served.len());
    let mut fresh: Vec<(Arc<Molecule>, f64)> = Vec::new();
    let mut docks: Vec<(usize, RigidTransform, f64)> = Vec::new();
    for (i, (sv, req)) in served.iter().zip(&s.inputs.schedule).enumerate() {
        out.ops += 1;
        latencies.push(sv.latency_ms);
        lates.push(sv.late_ms);
        let energy = match &sv.result {
            Ok(o) if o.energy_kcal.is_finite() => o.energy_kcal,
            Ok(o) => {
                out.ops_failed += 1;
                eprintln!("request {i}: non-finite energy {}", o.energy_kcal);
                continue;
            }
            Err(e) => {
                out.ops_failed += 1;
                eprintln!("request {i}: {e}");
                continue;
            }
        };
        match &req.kind {
            Kind::Pooled { index } => {
                let want = s.pool_energy[*index];
                out.check(energy.to_bits() == want.to_bits(), || {
                    format!("request {i}: cached single {energy} != first answer {want}")
                });
            }
            Kind::Fresh { molecule } => fresh.push((Arc::clone(molecule), energy)),
            Kind::Dock { receptor, pose } => docks.push((*receptor, *pose, energy)),
        }
    }

    // A fused batch is bit-identical to running each job alone on the
    // same ranks.
    let params = GbParams::default();
    let cluster = SimCluster::single_node();
    for (i, (mol, energy)) in fresh.iter().enumerate() {
        let sys = GbSystem::prepare(Molecule::clone(mol), params);
        let alone = solo_run(&sys, &cluster)?.0;
        out.check(alone.to_bits() == energy.to_bits(), || {
            format!("fresh single {i}: served {energy} != run alone {alone}")
        });
    }
    // Approximation error of the pool's warm-up answers against naive.
    let (mut err_sum, mut ref_sum) = (0.0, 0.0);
    for (mol, energy) in s.inputs.pool.iter().zip(&s.pool_energy) {
        let naive = naive_full(&GbSystem::prepare(Molecule::clone(mol), params)).energy_kcal;
        err_sum += (energy - naive).abs();
        ref_sum += naive.abs();
    }

    let mut monomer_ms = Vec::new();
    let mut monomer = |mol: &Molecule| {
        let t = Instant::now();
        let m = Monomer::build(mol.clone(), params);
        monomer_ms.push(ms_since(t));
        m
    };
    let receptors: Vec<Monomer> = s.inputs.receptors.iter().map(|r| monomer(r)).collect();
    let ligand = monomer(&s.inputs.ligand);
    monomer_ms.pop(); // the ligand is not a receptor warm-up
    let mut scratch = PairScratch::new();
    let mut pair_ms = Vec::new();
    for (receptor, pose, energy) in docks.iter().step_by(DOCK_CHECK_EVERY) {
        let t = Instant::now();
        let want = evaluate_pair_ws(&receptors[*receptor], &ligand, pose, &mut scratch).energy_kcal;
        pair_ms.push(ms_since(t));
        out.check(want.to_bits() == energy.to_bits(), || {
            format!("docking pose: served {energy} != pair path {want}")
        });
    }

    let ok = served.iter().filter(|sv| sv.result.is_ok()).count();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("throughput_per_s", ok as f64 * 1e3 / end_ms);
    m.insert("latency_p50_ms", median(&latencies));
    // The tail moves most when the host slows for a few seconds (queueing
    // amplifies it), so p95 is taken per stretch of the run and the median
    // stretch reported: one slow stretch no longer sets the run's tail.
    let stretch = latencies.len().div_ceil(P95_STRETCHES);
    let p95s: Vec<f64> = latencies
        .chunks(stretch)
        .map(|w| quantile(w, 0.95))
        .collect();
    m.insert("latency_p95_ms", median(&p95s));
    m.insert("energy_rel_err", err_sum / ref_sum);
    out.notes.push(("rate_per_s", RATE_PER_S));
    out.notes.push(("requests", served.len() as f64));

    if cfg.trace {
        let mut tr = Tracer::new();
        probe_singles(&fresh, &mut tr, &mut out)?;
        let reports: Vec<_> = served
            .iter()
            .filter_map(|sv| sv.result.as_ref().ok())
            .map(|o| &o.report)
            .collect();
        let queue: Vec<f64> = reports.iter().map(|r| r.queue_wait_ms).collect();
        let service: Vec<f64> = reports.iter().map(|r| r.service_ms).collect();
        let batch = reports.iter().map(|r| r.batch_size as f64).sum::<f64>() / reports.len() as f64;
        let c = |f: fn(&ServeStats) -> u64| (f(&after) - f(&before)) as f64;
        let m = &mut out.metrics;
        m.insert("pair.eval_ms", median(&pair_ms));
        m.insert("pair.monomer_build_ms", median(&monomer_ms));
        m.insert("serve.queue_wait_ms_p50", median(&queue));
        m.insert("serve.service_ms_p50", median(&service));
        m.insert("serve.batch_size_mean", batch);
        for ([rate, hit, miss], hits, misses) in [
            (
                [
                    "serve.tier1_hit_rate",
                    "serve.tier1_hits",
                    "serve.tier1_misses",
                ],
                c(|s| s.cache.tier1_hits),
                c(|s| s.cache.tier1_misses),
            ),
            (
                [
                    "serve.tier2_hit_rate",
                    "serve.tier2_hits",
                    "serve.tier2_misses",
                ],
                c(|s| s.cache.tier2_hits),
                c(|s| s.cache.tier2_misses),
            ),
            (
                [
                    "serve.tier3_hit_rate",
                    "serve.tier3_hits",
                    "serve.tier3_misses",
                ],
                c(|s| s.cache.tier3_hits),
                c(|s| s.cache.tier3_misses),
            ),
        ] {
            m.insert(rate, ServeStats::hit_rate(hits as u64, misses as u64));
            m.insert(hit, hits);
            m.insert(miss, misses);
        }
        m.insert("serve.rejected", c(|s| s.rejected));
        m.insert("cluster.recoveries", c(|s| s.recoveries));
        m.insert("gen.late_ms_p99", quantile(&lates, 0.99));
        // The open loop itself carries no spans (the layer probes run after
        // it), so tracing costs the measured phase nothing.
        m.insert("trace.overhead_frac", 0.0);
        out.tracer = Some(tr);
    }
    Ok(out)
}

fn solo_run(sys: &GbSystem, cluster: &SimCluster) -> Result<(f64, RunReport), String> {
    protein::run_op(sys, cluster).map_err(|e| format!("distributed run: {e}"))
}

/// Runs the first fresh singles again layer by layer: the prepare split,
/// the serial phase split (whose energy must match the served one
/// `to_bits`), and one distributed run each for the cluster layer.
fn probe_singles(
    fresh: &[(Arc<Molecule>, f64)],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let params = GbParams::default();
    let cluster = SimCluster::single_node();
    let (mut bytes, mut comm_ops, mut born_work, mut energy_work) = (0.0, 0.0, 0.0, 0.0);
    let mut qpoints = Vec::new();
    for (i, (mol, served)) in fresh.iter().take(PROBE_SINGLES).enumerate() {
        let op = i as u64;
        let root = tr.begin("single", op);
        let sys = layers::prepare_traced(Molecule::clone(mol), params, tr, op);
        let serial_root = tr.begin("serial", op);
        let dec = layers::serial_traced(&sys, &mut Workspace::new(), tr, op);
        tr.end(serial_root);
        tr.end(root);
        let serial = run_serial(&sys).result.energy_kcal;
        out.check(dec.energy_kcal.to_bits() == serial.to_bits(), || {
            format!(
                "fresh single {i}: decomposed {} != run_serial {serial}",
                dec.energy_kcal
            )
        });
        out.check(rel_err(*served, serial) <= SERIAL_AGREEMENT, || {
            format!("fresh single {i}: served {served} vs serial {serial}")
        });
        let (_, report) = tr.span("cluster.run", op, || solo_run(&sys, &cluster))?;
        let (b, o) = protein::comm_totals(&report);
        bytes += b;
        comm_ops += o;
        born_work += dec.born_work;
        energy_work += dec.energy_work;
        qpoints.push(sys.num_qpoints() as f64);
    }
    let serial_ms = tr.wall_ms_per_op("serial");
    let run_ms = tr.wall_ms_per_op("cluster.run");
    let eff: Vec<f64> = serial_ms
        .iter()
        .zip(&run_ms)
        .map(|(s, r)| s / (RANKS as f64 * r))
        .collect();
    let m = &mut out.metrics;
    m.insert("cluster.run_ms", median(&run_ms));
    layers::report_layers(tr, m);
    m.insert("surface.qpoints", median(&qpoints));
    m.insert("born.work_units", born_work);
    m.insert("energy.work_units", energy_work);
    m.insert("cluster.parallel_eff", median(&eff));
    m.insert("comm.bytes", bytes);
    m.insert("comm.ops", comm_ops);
    m.insert("trace.unattributed_frac", tr.unattributed_frac("single"));
    Ok(())
}

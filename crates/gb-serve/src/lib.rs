//! # gb-serve — the async multi-tenant GB serving layer
//!
//! Production front-end over the `gb-core` pipelines: accepts thousands of
//! concurrent [`EvalRequest`]s from many tenants, admits them through a
//! bounded queue with per-tenant round-robin fairness
//! ([`queue::AdmissionQueue`]), and serves them from one long-lived
//! scheduler thread that owns a warm [`SimCluster`] and the tiered
//! content-hash cache ([`cache::TieredCache`]).
//!
//! ## Execution paths
//!
//! * **Singles** — full 7-step pipeline jobs, fused into one cluster
//!   superstep per scheduler cycle
//!   ([`gb_core::runners::distributed::try_run_batch_distributed`]): one
//!   `try_run` whose rank program executes every job in sequence, keeping
//!   ranks hot across jobs. Results are bit-identical to running each job
//!   alone — same collectives, same peers, same summation order.
//! * **Docking poses** — receptor + posed ligand through the
//!   pair-decomposed path ([`gb_core::pair`]): the receptor's system,
//!   lists, own-surface integral image and solo energy are cached once by
//!   content key and reused across every pose; per pose only the cross
//!   receptor×ligand terms are built, and the receptor's internal energy
//!   is its cached solo sum plus a first-order term in the Born-radius
//!   moves (its full energy rows only when a radius moves past
//!   [`gb_core::pair::FIRST_ORDER_GUARD`]; [`ServeStats::docking_full_rows`]
//!   counts those poses). A pose runs on `ranks` threads: its two Born
//!   cross sides at once, then its energy rows and cross double sum in
//!   fixed segments whose partials add in segment order, so the answer
//!   equals a 1-thread [`gb_core::pair::evaluate_pair_ws`] bit for bit. A
//!   monomer assembled on a cache miss runs its solo energy rows and its
//!   radius gradient on the same threads.
//!
//! ## Caching contract
//!
//! Keys are content hashes over atom positions, charges, radii and every
//! GB parameter ([`gb_core::contenthash`]) — a charge-only perturbation
//! misses, a ligand pose change still hits the receptor's entries. Every
//! cached artifact is a deterministic function of its key, so cache hits,
//! misses and evictions change wall-clock only: a request's `E_pol` is
//! `to_bits()`-identical solo, batched with strangers, or served warm.
//!
//! ## Recovery interplay
//!
//! The cluster runs with PR 7 self-healing enabled. A rank death mid-batch
//! replays the whole fused rank program: completed jobs fast-forward
//! through their superstep checkpoints, the in-flight job renegotiates its
//! restart step — co-batched tenants observe only wall-clock (their
//! [`ServeReport::recoveries`] counts the heals that ran beneath them).

pub mod cache;
pub mod queue;
pub mod request;
pub mod stats;

pub use cache::{CacheStats, TieredCache, WorkspacePool};
pub use queue::{AdmissionQueue, Pending};
pub use request::{EvalOutcome, EvalRequest, ServeError, ServeReport};
pub use stats::ServeStats;

use gb_core::arena::{CachedLists, Workspace};
use gb_core::pair::{evaluate_pair_ws, EnergyPath, Monomer, PairScratch};
use gb_core::runners::distributed::{try_run_batch_distributed, BatchJob};
use gb_core::system::GbSystem;
use gb_core::{system_key, GbParams};
use gb_cluster::SimCluster;
use gb_molecule::Molecule;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Ranks of each fused cluster superstep (node-based division, sparse
    /// integral combine), and the threads each docking pose runs on; 0
    /// is taken as 1. Docking answers are `to_bits` the same at every
    /// value.
    pub ranks: usize,
    /// Admission bound: submits beyond this many queued requests are shed
    /// with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests drained into one scheduler cycle; 0 is taken as 1.
    pub max_batch: usize,
    /// Byte budget of the tiered cache's LRU.
    pub cache_budget_bytes: usize,
    /// Whether the tiered cache is consulted at all — `false` is the cold
    /// baseline the serve bench compares against (every request rebuilds
    /// everything; results are bit-identical either way).
    pub caching: bool,
    /// Heal-and-replay budget of the owned cluster
    /// ([`SimCluster::with_recovery`]).
    pub recoveries: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ranks: 2,
            queue_capacity: 4096,
            max_batch: 32,
            cache_budget_bytes: 512 << 20,
            caching: true,
            recoveries: 2,
        }
    }
}

/// A claim on a submitted request's eventual outcome.
pub struct Ticket {
    rx: mpsc::Receiver<Result<EvalOutcome, ServeError>>,
}

impl Ticket {
    /// Blocks until the service answers.
    pub fn wait(self) -> Result<EvalOutcome, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

struct Shared {
    cfg: ServeConfig,
    cluster: SimCluster,
    queue: Mutex<AdmissionQueue>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    stats: Mutex<ServeStats>,
}

/// The service handle: submit from any thread; one scheduler thread owns
/// the cluster and cache. Dropping the handle shuts the scheduler down
/// after it finishes the current cycle (queued-but-undrained requests get
/// [`ServeError::Shutdown`]).
pub struct GbService {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl GbService {
    /// Starts the service on its own single-node simulated cluster with
    /// recovery enabled per `cfg`.
    pub fn start(cfg: ServeConfig) -> GbService {
        let cluster = SimCluster::single_node().with_recovery(cfg.recoveries);
        GbService::start_with_cluster(cfg, cluster)
    }

    /// Starts the service over a caller-built cluster (fault-plan
    /// injection, custom topology). `cfg.recoveries` is ignored here — the
    /// cluster arrives fully configured.
    pub fn start_with_cluster(cfg: ServeConfig, cluster: SimCluster) -> GbService {
        // a zero here would drain nothing per cycle, or run no rank
        let cfg = ServeConfig { ranks: cfg.ranks.max(1), max_batch: cfg.max_batch.max(1), ..cfg };
        let shared = Arc::new(Shared {
            cfg,
            cluster,
            queue: Mutex::new(AdmissionQueue::new(cfg.queue_capacity)),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(ServeStats::default()),
        });
        let worker = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("gb-serve-scheduler".into())
            .spawn(move || scheduler_loop(worker))
            .expect("spawn scheduler");
        GbService { shared, scheduler: Some(scheduler) }
    }

    /// Submits a request for `tenant`; returns a [`Ticket`] immediately or
    /// [`ServeError::QueueFull`] when admission sheds it.
    pub fn submit(&self, tenant: &str, request: EvalRequest) -> Result<Ticket, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            tenant: tenant.to_string(),
            request,
            enqueued_at: Instant::now(),
            reply: tx,
        };
        {
            let mut q = self.shared.queue.lock();
            if q.push(pending).is_err() {
                self.shared.stats.lock().rejected += 1;
                return Err(ServeError::QueueFull);
            }
        }
        self.shared.stats.lock().submitted += 1;
        self.shared.work_ready.notify_one();
        Ok(Ticket { rx })
    }

    /// Submit-and-wait convenience.
    pub fn eval(&self, tenant: &str, request: EvalRequest) -> Result<EvalOutcome, ServeError> {
        self.submit(tenant, request)?.wait()
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> ServeStats {
        *self.shared.stats.lock()
    }

    /// Shuts the scheduler down and joins it. Equivalent to dropping the
    /// handle, but explicit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GbService {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// A drained single job resolved against the cache.
struct SingleJob {
    pending: Pending,
    sys: Arc<GbSystem>,
    #[allow(dead_code)]
    lists: Arc<CachedLists>,
    pool: WorkspacePool,
    tier1: bool,
    tier2: bool,
    tier3: bool,
}

fn scheduler_loop(shared: Arc<Shared>) {
    let cfg = shared.cfg;
    let mut cache = TieredCache::new(cfg.cache_budget_bytes);
    let mut pair_scratch = PairScratch::with_threads(cfg.ranks);
    let mut superstep: u64 = 0;
    let mut drained: Vec<Pending> = Vec::new();
    loop {
        {
            let mut q = shared.queue.lock();
            while q.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                shared.work_ready.wait(&mut q);
            }
            if q.is_empty() && shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            drained.clear();
            q.drain_fair(cfg.max_batch, &mut drained);
        }
        superstep += 1;
        run_cycle(&shared, &mut cache, &mut pair_scratch, superstep, &mut drained);
        // more work may have arrived while the cycle ran
        if !shared.queue.lock().is_empty() {
            shared.work_ready.notify_one();
        }
    }
}

/// A docking request with its receptor and ligand monomers resolved, plus
/// whether both came from tier 1 and whether both came from tier 2.
type ResolvedDocking = (Pending, Arc<Monomer>, Arc<Monomer>, bool, bool);

/// Processes one drained batch: singles as a fused cluster superstep,
/// docking poses through the pair path, all cache tiers consulted per the
/// config.
fn run_cycle(
    shared: &Shared,
    cache: &mut TieredCache,
    pair_scratch: &mut PairScratch,
    superstep: u64,
    drained: &mut Vec<Pending>,
) {
    let cfg = shared.cfg;
    let drain_at = Instant::now();
    let batch_size = drained.len();
    let mut singles: Vec<SingleJob> = Vec::new();
    let mut docking: Vec<Pending> = Vec::new();

    for p in drained.drain(..) {
        match p.request {
            EvalRequest::Single { ref molecule, params } => {
                let molecule = Arc::clone(molecule);
                let job = resolve_single(cache, cfg, &molecule, params, p);
                singles.push(job);
            }
            EvalRequest::Docking { .. } => docking.push(p),
        }
    }

    // resolve docking monomers before anything replies: stats (including
    // cache counters) must be current by the time a tenant can observe
    // its outcome, so `stats()` right after `wait()` is never stale
    let docking: Vec<ResolvedDocking> = docking
        .into_iter()
        .map(|p| {
            let EvalRequest::Docking { receptor, ligand, params, .. } = &p.request else {
                unreachable!("partitioned above");
            };
            let (rm, r_t1, r_t2) = resolve_monomer(cache, cfg, receptor, *params, pair_scratch);
            let (lm, l_t1, l_t2) = resolve_monomer(cache, cfg, ligand, *params, pair_scratch);
            (p, rm, lm, r_t1 && l_t1, r_t2 && l_t2)
        })
        .collect();
    shared.stats.lock().cache = cache.stats;

    // ---- fused cluster superstep over the singles
    let mut recoveries = 0;
    if !singles.is_empty() {
        let jobs: Vec<BatchJob<'_>> = singles
            .iter()
            .map(|j| BatchJob { sys: &j.sys, workspaces: &j.pool })
            .collect();
        let outcome =
            try_run_batch_distributed(&shared.cluster, cfg.ranks, &jobs);
        drop(jobs);
        match outcome {
            Ok((results, report)) => {
                recoveries = report.recoveries;
                let mut st = shared.stats.lock();
                st.cluster_batches += 1;
                st.batched_jobs += singles.len() as u64;
                st.recoveries += u64::from(report.recoveries);
                st.completed += singles.len() as u64;
                drop(st);
                for (job, res) in singles.drain(..).zip(results) {
                    let rep = ServeReport {
                        queue_wait_ms: ms(job.pending.enqueued_at, drain_at),
                        service_ms: ms(drain_at, Instant::now()),
                        superstep_id: superstep,
                        batch_size,
                        recoveries: report.recoveries,
                        tier1_hit: job.tier1,
                        tier2_hit: job.tier2,
                        tier3_hit: job.tier3,
                    };
                    let _ = job.pending.reply.send(Ok(EvalOutcome {
                        energy_kcal: res.energy_kcal,
                        delta_kcal: 0.0,
                        report: rep,
                    }));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                let mut st = shared.stats.lock();
                st.failed += singles.len() as u64;
                drop(st);
                for job in singles.drain(..) {
                    let _ = job.pending.reply.send(Err(ServeError::Cluster(msg.clone())));
                }
            }
        }
    }

    // ---- docking poses through the pair path
    for (p, rm, lm, tier1, tier2) in docking {
        let EvalRequest::Docking { pose, .. } = &p.request else {
            unreachable!("partitioned above");
        };
        let out = evaluate_pair_ws(&rm, &lm, pose, pair_scratch);
        let rep = ServeReport {
            queue_wait_ms: ms(p.enqueued_at, drain_at),
            service_ms: ms(drain_at, Instant::now()),
            superstep_id: superstep,
            batch_size,
            recoveries,
            tier1_hit: tier1,
            tier2_hit: tier2,
            tier3_hit: false,
        };
        let mut st = shared.stats.lock();
        st.docking_jobs += 1;
        st.docking_full_rows += u64::from(out.paths[0] == EnergyPath::FullRows);
        st.completed += 1;
        drop(st);
        let _ = p.reply.send(Ok(EvalOutcome {
            energy_kcal: out.energy_kcal,
            delta_kcal: out.delta_kcal,
            report: rep,
        }));
    }

    let mut st = shared.stats.lock();
    st.supersteps += 1;
    st.cache = cache.stats;
}

/// Resolves a single job's artifacts through the cache tiers (or builds
/// everything fresh when caching is off — the cold baseline).
fn resolve_single(
    cache: &mut TieredCache,
    cfg: ServeConfig,
    molecule: &Arc<Molecule>,
    params: GbParams,
    pending: Pending,
) -> SingleJob {
    let key = system_key(molecule, &params);
    if !cfg.caching {
        let sys = Arc::new(GbSystem::prepare(Molecule::clone(molecule), params));
        let lists = Arc::new(CachedLists::build(&sys, key));
        let pool = fresh_pool(cfg.ranks, &lists);
        return SingleJob { pending, sys, lists, pool, tier1: false, tier2: false, tier3: false };
    }
    let (sys, tier1) = match cache.get_system(key) {
        Some(s) => (s, true),
        None => {
            let s = Arc::new(GbSystem::prepare(Molecule::clone(molecule), params));
            cache.put_system(key, Arc::clone(&s));
            (s, false)
        }
    };
    let (lists, tier2) = match cache.get_lists(key) {
        Some(l) => (l, true),
        None => {
            let l = Arc::new(CachedLists::build(&sys, key));
            cache.put_lists(key, Arc::clone(&l));
            (l, false)
        }
    };
    let (pool, tier3) = match cache.get_pool(key, cfg.ranks) {
        Some(p) => (p, true),
        None => {
            let p = fresh_pool(cfg.ranks, &lists);
            cache.put_pool(key, cfg.ranks, Arc::clone(&p));
            (p, false)
        }
    };
    // (re-)inject: a pool created before the lists were rebuilt after an
    // eviction must point at the current Arc
    for ws in pool.iter() {
        ws.lock().inject_lists(Some(Arc::clone(&lists)));
    }
    SingleJob { pending, sys, lists, pool, tier1, tier2, tier3 }
}

fn fresh_pool(ranks: usize, lists: &Arc<CachedLists>) -> WorkspacePool {
    Arc::new(
        (0..ranks)
            .map(|_| {
                let mut ws = Workspace::new();
                ws.inject_lists(Some(Arc::clone(lists)));
                Mutex::new(ws)
            })
            .collect(),
    )
}

/// Resolves a docking monomer: tier-2 monomer entry first, else tier-1
/// system + fresh lists, caching the assembled monomer. A monomer that is
/// assembled runs its solo energy rows and radius gradient on `scratch`'s
/// threads (the pose threads). Returns `(monomer, tier1_hit, tier2_hit)`.
fn resolve_monomer(
    cache: &mut TieredCache,
    cfg: ServeConfig,
    molecule: &Arc<Molecule>,
    params: GbParams,
    scratch: &mut PairScratch,
) -> (Arc<Monomer>, bool, bool) {
    let key = system_key(molecule, &params);
    if !cfg.caching {
        let sys = Arc::new(GbSystem::prepare(Molecule::clone(molecule), params));
        let lists = Arc::new(CachedLists::build(&sys, key));
        return (Arc::new(Monomer::from_parts(key, sys, lists, scratch)), false, false);
    }
    if let Some(m) = cache.get_monomer(key) {
        return (m, true, true);
    }
    let (sys, tier1) = match cache.get_system(key) {
        Some(s) => (s, true),
        None => {
            let s = Arc::new(GbSystem::prepare(Molecule::clone(molecule), params));
            cache.put_system(key, Arc::clone(&s));
            (s, false)
        }
    };
    let lists = Arc::new(CachedLists::build(&sys, key));
    let m = Arc::new(Monomer::from_parts(key, sys, lists, scratch));
    cache.put_monomer(key, Arc::clone(&m));
    (m, tier1, false)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

//! The repository's benchmark: one command runs a named workload from a
//! seed, checks every result, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload protein-20k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod layers;
mod md;
mod protein;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Structure seed of the generated molecules unless `--structure-seed` is
/// given. The workload seed (`--seed`) drives poses, jitter and traffic; the
/// structure seed picks the molecules themselves, so a claim can be checked
/// on molecules a change was not written against.
const DEFAULT_STRUCTURE_SEED: u64 = 77;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Every end-to-end metric with its unit, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("energy_rel_err", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, printed with `--trace 1`. A layer a
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("surface.sample_ms", "ms"),
    ("surface.qpoints", "count"),
    ("octree.build_ms", "ms"),
    ("octree.refit_ms", "ms"),
    ("system.prepare_ms", "ms"),
    ("system.refit_frame_ms", "ms"),
    ("born.list_build_ms", "ms"),
    ("energy.list_build_ms", "ms"),
    ("born.exec_ms", "ms"),
    ("energy.exec_ms", "ms"),
    ("born.push_ms", "ms"),
    ("bins.recompute_ms", "ms"),
    ("born.work_units", "count"),
    ("energy.work_units", "count"),
    ("frame.repaired_frac", "ratio"),
    ("frame.rewalk_frac", "ratio"),
    ("frame.rebuilt_frames", "count"),
    ("cluster.run_ms", "ms"),
    ("cluster.parallel_eff", "ratio"),
    ("comm.bytes", "bytes"),
    ("comm.ops", "count"),
    ("cluster.recoveries", "count"),
    ("pair.eval_ms", "ms"),
    ("pair.monomer_build_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.tier1_hit_rate", "ratio"),
    ("serve.tier1_hits", "count"),
    ("serve.tier1_misses", "count"),
    ("serve.tier2_hit_rate", "ratio"),
    ("serve.tier2_hits", "count"),
    ("serve.tier2_misses", "count"),
    ("serve.tier3_hit_rate", "ratio"),
    ("serve.tier3_hits", "count"),
    ("serve.tier3_misses", "count"),
    ("serve.rejected", "count"),
    ("gen.late_ms_p99", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One run's settings, from the command line.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub structure_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: op accounting, the metrics it measured, the
/// failed checks and, in a traced run, the spans.
#[derive(Default)]
pub struct Outcome {
    pub ops: u64,
    pub ops_failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts for the stamp line (e.g. the serve-mix arrival rate).
    pub notes: Vec<(&'static str, f64)>,
    /// Why `correct` is false, if it is.
    pub errors: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Thread budget of a workload: the load thread (the caller or the arrival
/// generator) blocks or sleeps while the rank threads compute, so at most
/// `compute` threads run at once.
pub struct Threads {
    pub load: usize,
    pub ranks: usize,
    pub compute: usize,
}

fn threads_of(workload: &str) -> Option<Threads> {
    match workload {
        "protein-20k" => Some(Threads {
            load: 1,
            ranks: protein::RANKS,
            compute: protein::RANKS,
        }),
        "md-10k" => Some(Threads {
            load: 1,
            ranks: 0,
            compute: 1,
        }),
        "serve-mix" => Some(Threads {
            load: 1,
            ranks: serve::RANKS,
            compute: serve::RANKS,
        }),
        _ => None,
    }
}

/// Interpolated quantile `q` ∈ [0, 1] of `values` (need not be sorted).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Relative error `|x − reference| / |reference|`.
pub fn rel_err(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / reference.abs()
}

/// Peak resident set (`VmHWM`) of this process in MB. Workloads read it
/// right after the measured phase, so the checks that follow (naive
/// references, re-runs) do not count.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn parse_args() -> Result<RunCfg, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut structure_seed = DEFAULT_STRUCTURE_SEED;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--structure-seed" => structure_seed = value.parse::<u64>().map_err(|e| bad(&e))?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], got {seconds}"));
    }
    Ok(RunCfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        structure_seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run() -> Result<(), String> {
    let cfg = parse_args()?;
    let threads = threads_of(&cfg.workload).ok_or_else(|| {
        format!(
            "unknown workload {} (protein-20k, md-10k, serve-mix)",
            cfg.workload
        )
    })?;
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads.compute > nproc {
        return Err(format!(
            "{} runs {} compute threads but this host has {nproc}; refusing to oversubscribe",
            cfg.workload, threads.compute
        ));
    }
    let simd = gb_core::simd::SimdLevel::active().name();

    let out = match cfg.workload.as_str() {
        "protein-20k" => protein::run(&cfg)?,
        "md-10k" => md::run(&cfg)?,
        _ => serve::run(&cfg)?,
    };
    if let Some(tr) = &out.tracer {
        let path = std::path::PathBuf::from(format!(
            "perfbench/trace-out/{}-seed{}.jsonl",
            cfg.workload, cfg.seed
        ));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    if out.ops == 0 {
        return Err("no op was attempted".into());
    }

    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", cfg.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }

    let notes: String = out
        .notes
        .iter()
        .map(|(k, v)| format!(", \"{k}\": {v:?}"))
        .collect();
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"structure_seed\": {}, \
         \"seconds\": {:?}, \"trace\": {}, \"nproc\": {nproc}, \"simd\": \"{simd}\", \
         \"load_threads\": {}, \"rank_threads\": {}, \"compute_threads\": {}, \
         \"ops\": {}, \"ops_failed\": {}{notes}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.structure_seed,
        cfg.seconds,
        u8::from(cfg.trace),
        threads.load,
        threads.ranks,
        threads.compute,
        out.ops,
        out.ops_failed,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops,
        out.ops_failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

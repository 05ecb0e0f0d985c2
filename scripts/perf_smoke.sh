#!/usr/bin/env bash
# Perf smoke gate: fails when the interaction-list *build* phase regresses
# more than the allowed factor against scripts/perf_baseline.json, or when
# the sparse communication plan stops beating the dense allreduce.
#
# The build gate is the ratio list_build_ms / traversal_ms per phase,
# measured by examples/bench_interaction on a small system: numerator and
# denominator come from the same process on the same machine, so the gate
# tracks algorithmic regressions (a slower sweep, lost batching) rather
# than runner hardware. Each run's ratio is already best-of-reps; the
# gate takes the minimum over several runs to damp scheduler noise. Besides
# the recorded baseline (with max_regression_factor headroom), each ratio
# has a hard ceiling, born_max_build_over_traversal and
# energy_max_build_over_traversal, set at about half of what the replaced
# dual-tree span walk measured (0.485 / 0.175).
#
# The comm gate runs the bench in GB_BENCH_COMM_ONLY mode at comm_n_atoms
# (the 20k-atom smoke size) and checks comm_bytes_sparse/comm_bytes_dense
# against both the hard cap comm_max_sparse_over_dense (the ≥40%-reduction
# acceptance bar) and the recorded baseline with the same 25% headroom
# factor as the build gate. Cost-model byte counts are deterministic, so
# one run suffices.
#
# The energy-exec gate runs GB_BENCH_ENERGY_ONLY mode at comm_n_atoms and
# asserts energy.exec_speedup_vs_traversal (seed scalar traversal over the
# SIMD-tiled list engine, both best-of-reps in one process) stays at or
# above the hard floor energy_min_exec_speedup — the far-field microkernel
# acceptance bar. Like the build gates, the measurement is repeated and
# the *best* run wins: ambient load can only deflate the ratio, so the
# cleanest window is the algorithmic one.
#
# The Born-exec gate takes the best born.exec_speedup_vs_traversal (seed
# scalar traversal over the list engine) of the default-mode runs at
# n_atoms and asserts the hard floor born_min_exec_speedup. The list
# engine only wins big when each near row is ascending in tree order, so
# that touching leaves coalesce into long atom runs; if the walk's row
# order regresses, every entry becomes its own 3-atom kernel call and
# this gate fails.
#
# GB_BENCH_TRAJECTORY=1 switches to the incremental-frame gate:
# examples/trajectory steps a 0.05 Å RMS jitter trajectory at
# traj_n_atoms through the run_frame_* pipeline and the gate checks
# (a) exact-mode (drift_tol = 0) energies are to_bits()-identical to a
# scratch rebuild on every frame, (b) the slack sweep's re-walked row
# fraction falls monotonically with drift_tol (the speedup/drift
# tradeoff), (c) the octree refit beats a per-step neighbour-list
# rebuild by >= traj_min_refit_speedup, (d) the warm-frame speedup over
# the per-frame full-rebuild path (Molecule + prepare + run_shared)
# stays above the hard floor traj_min_warm_speedup and the recorded
# host baseline traj_warm_speedup / max_regression_factor, and (e) the
# slack-mode (drift_tol = 2) speedup stays above traj_min_slack_speedup
# and its recorded baseline. The report is also copied to
# BENCH_trajectory.json at the repo root. NOTE: on 1-core hosts the
# exact-mode warm-frame ceiling is (prepare + build + exec)/(repair +
# exec); global jitter flips MAC decisions in every CSR row, so exact
# repair degenerates to a rebuild and the measured speedup reflects
# prepare/allocation savings only — see DESIGN.md §12 for the regime
# analysis behind the recorded floors.
#
# GB_BENCH_SERVE=1 switches to the serving gate: examples/serve_load runs
# the docking killer path (1 receptor × serve_poses with tier-2/3 caching
# vs cold per-request rebuilds) plus the multi-tenant singles burst, and
# the gate checks (a) the hard floors serve_min_docking_speedup (warm
# jobs/sec over cold — the ≥3x acceptance bar) and
# serve_min_tier2_hit_rate (docking cache-hit ratio), (b) that warm and
# cold energies are to_bits()-identical, and (c) the recorded host
# baselines serve_jobs_per_sec_warm / serve_p99_ms with the same
# max_regression_factor headroom as the build gates.
#
#   scripts/perf_smoke.sh            # check against the baseline
#   scripts/perf_smoke.sh --update   # rewrite the baseline from this host
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=scripts/perf_baseline.json

if [[ "${GB_BENCH_TRAJECTORY:-0}" == "1" ]]; then
    TRAJ_N=$(python3 -c "import json; print(json.load(open('$BASELINE'))['traj_n_atoms'])")
    TRAJ_FRAMES=$(python3 -c "import json; print(json.load(open('$BASELINE'))['traj_frames'])")
    cargo build --release --example trajectory
    ./target/release/examples/trajectory "$TRAJ_N" "$TRAJ_FRAMES" > BENCH_trajectory.json
    python3 - "$BASELINE" BENCH_trajectory.json "${1:-}" <<'EOF'
import json, sys

baseline_path, traj_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
baseline = json.load(open(baseline_path))
traj = json.load(open(traj_path))
pipe = traj["pipeline"]
tree = traj["tree_update"]
slack = traj["slack"]

refit_speedup = tree["nblist_ms_per_step"] / tree["refit_ms_per_step"]
warm_speedup = pipe["warm_speedup"]
slack_speedup = pipe["full_rebuild_ms_per_frame"] / slack[-1]["ms_per_frame"]

if mode == "--update":
    baseline["traj_warm_speedup"] = round(warm_speedup, 3)
    baseline["traj_slack_speedup"] = round(slack_speedup, 3)
    json.dump(baseline, open(baseline_path, "w"), indent=2)
    open(baseline_path, "a").write("\n")
    print(f"trajectory baseline updated: warm {warm_speedup:.3f}, "
          f"slack {slack_speedup:.3f}")
    sys.exit(0)

factor = baseline["max_regression_factor"]
failed = False

# correctness: exact mode (drift_tol = 0) trades nothing — every frame's
# repaired-pipeline energy must be bit-identical to a scratch rebuild
verdict = "ok" if pipe["exact_bitwise"] else "MISMATCH"
print(f"traj exact-mode bitwise energies: {verdict}")
failed |= not pipe["exact_bitwise"]

# monotone speedup/drift tradeoff: a larger drift tolerance may never
# re-walk MORE rows (ms noise is not gated; row fractions are exact)
fracs = [s["born_rewalk_fraction"] for s in slack]
monotone = all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))
verdict = "ok" if monotone else "NOT MONOTONE"
print(f"traj slack rewalk fractions {fracs}: {verdict}")
failed |= not monotone

# hard floor: per-step octree refit vs a cutoff nblist rebuilt per step
floor = baseline["traj_min_refit_speedup"]
verdict = "ok" if refit_speedup >= floor else "UNDER FLOOR"
print(f"traj refit speedup (nblist/refit): measured {refit_speedup:.1f}  "
      f"floor {floor:.1f}  {verdict}")
failed |= refit_speedup < floor

# hard floor + host baseline: exact-mode warm frames vs the per-frame
# full-rebuild path (see DESIGN.md §12 for the 1-core ceiling analysis)
floor = baseline["traj_min_warm_speedup"]
allowed = baseline["traj_warm_speedup"] / factor
verdict = "ok" if warm_speedup >= max(floor, allowed) else "UNDER FLOOR"
print(f"traj warm speedup (exact): measured {warm_speedup:.3f}  "
      f"floor {floor:.3f}  baseline {baseline['traj_warm_speedup']:.3f}  "
      f"allowed >= {allowed:.3f}  {verdict}")
failed |= warm_speedup < max(floor, allowed)

# hard floor + host baseline: slack mode at the largest tolerance
floor = baseline["traj_min_slack_speedup"]
allowed = baseline["traj_slack_speedup"] / factor
verdict = "ok" if slack_speedup >= max(floor, allowed) else "UNDER FLOOR"
print(f"traj slack speedup (tol={slack[-1]['drift_tol']}): "
      f"measured {slack_speedup:.3f}  floor {floor:.3f}  "
      f"baseline {baseline['traj_slack_speedup']:.3f}  "
      f"allowed >= {allowed:.3f}  {verdict}")
failed |= slack_speedup < max(floor, allowed)

sys.exit(1 if failed else 0)
EOF
    exit $?
fi

if [[ "${GB_BENCH_SERVE:-0}" == "1" ]]; then
    cargo build --release --example serve_load
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
    ./target/release/examples/serve_load > "$OUT/serve.json"
    python3 - "$BASELINE" "$OUT" "${1:-}" <<'EOF'
import json, sys

baseline_path, out_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
baseline = json.load(open(baseline_path))
serve = json.load(open(out_dir + "/serve.json"))
dock = serve["docking"]

if mode == "--update":
    baseline["serve_jobs_per_sec_warm"] = round(dock["jobs_per_sec_warm"], 2)
    baseline["serve_p99_ms"] = round(dock["p99_ms"], 1)
    json.dump(baseline, open(baseline_path, "w"), indent=2)
    open(baseline_path, "a").write("\n")
    print(f"serve baseline updated: jobs/sec {dock['jobs_per_sec_warm']:.2f}, "
          f"p99 {dock['p99_ms']:.1f} ms")
    sys.exit(0)

factor = baseline["max_regression_factor"]
failed = False

# hard floor: tiered caching must beat cold per-request builds by the
# acceptance factor on the docking scan
floor = baseline["serve_min_docking_speedup"]
speedup = dock["speedup_warm_over_cold"]
verdict = "ok" if speedup >= floor else "UNDER FLOOR"
print(f"serve docking speedup (warm/cold): measured {speedup:.3f}  "
      f"floor {floor:.3f}  {verdict}")
failed |= speedup < floor

# hard floor: the docking scan must actually be served from the cache
floor = baseline["serve_min_tier2_hit_rate"]
rate = dock["tier2_hit_rate"]
verdict = "ok" if rate >= floor else "UNDER FLOOR"
print(f"serve docking tier2 hit rate: measured {rate:.4f}  "
      f"floor {floor:.4f}  {verdict}")
failed |= rate < floor

# correctness: cache tiers trade wall-clock only, never bits
verdict = "ok" if dock["bitwise_match_cold"] else "MISMATCH"
print(f"serve warm-vs-cold bitwise energies: {verdict}")
failed |= not dock["bitwise_match_cold"]

# host-baseline regressions (same headroom as the build gates)
allowed = baseline["serve_jobs_per_sec_warm"] / factor
jps = dock["jobs_per_sec_warm"]
verdict = "ok" if jps >= allowed else "REGRESSED"
print(f"serve warm jobs/sec: measured {jps:.2f}  "
      f"baseline {baseline['serve_jobs_per_sec_warm']:.2f}  "
      f"allowed >= {allowed:.2f}  {verdict}")
failed |= jps < allowed

allowed = baseline["serve_p99_ms"] * factor
p99 = dock["p99_ms"]
verdict = "ok" if p99 <= allowed else "REGRESSED"
print(f"serve docking p99: measured {p99:.1f} ms  "
      f"baseline {baseline['serve_p99_ms']:.1f}  allowed <= {allowed:.1f}  {verdict}")
failed |= p99 > allowed

sys.exit(1 if failed else 0)
EOF
    exit $?
fi

N_ATOMS=$(python3 -c "import json; print(json.load(open('$BASELINE'))['n_atoms'])")
RUNS=$(python3 -c "import json; print(json.load(open('$BASELINE'))['runs'])")
COMM_N_ATOMS=$(python3 -c "import json; print(json.load(open('$BASELINE'))['comm_n_atoms'])")

cargo build --release --example bench_interaction

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
for i in $(seq "$RUNS"); do
    ./target/release/examples/bench_interaction "$N_ATOMS" > "$OUT/run$i.json"
done
GB_BENCH_COMM_ONLY=1 ./target/release/examples/bench_interaction "$COMM_N_ATOMS" > "$OUT/comm.json"
for i in $(seq "$RUNS"); do
    GB_BENCH_ENERGY_ONLY=1 ./target/release/examples/bench_interaction "$COMM_N_ATOMS" \
        > "$OUT/energy$i.json"
done

python3 - "$BASELINE" "$OUT" "${1:-}" <<'EOF'
import glob, json, sys

baseline_path, out_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
baseline = json.load(open(baseline_path))
runs = [json.load(open(p)) for p in sorted(glob.glob(out_dir + "/run*.json"))]

ratios = {
    phase + "_build_over_traversal": min(
        r[phase]["list_build_ms"] / r[phase]["traversal_ms"] for r in runs
    )
    for phase in ("born", "energy")
}
comm = json.load(open(out_dir + "/comm.json"))
comm_ratio = comm["comm_bytes_sparse"] / comm["comm_bytes_dense"]
ratios["comm_sparse_over_dense"] = comm_ratio

if mode == "--update":
    for key, val in ratios.items():
        baseline[key] = round(val, 4)
    json.dump(baseline, open(baseline_path, "w"), indent=2)
    open(baseline_path, "a").write("\n")
    print(f"baseline updated: {ratios}")
    sys.exit(0)

factor = baseline["max_regression_factor"]
failed = False
for key, measured in ratios.items():
    allowed = baseline[key] * factor
    verdict = "ok" if measured <= allowed else "REGRESSED"
    print(f"{key}: measured {measured:.4f}  baseline {baseline[key]:.4f}  "
          f"allowed {allowed:.4f}  {verdict}")
    failed |= measured > allowed

# Hard ceilings, independent of the recorded baseline: the row sweep must
# keep each list build well under the per-leaf traversal — about half the
# ratios the dual-tree span walk measured, so bringing it back fails.
for phase in ("born", "energy"):
    measured = ratios[phase + "_build_over_traversal"]
    cap = baseline[phase + "_max_build_over_traversal"]
    verdict = "ok" if measured <= cap else "OVER CAP"
    print(f"{phase}_build_over_traversal hard cap: measured {measured:.4f}  "
          f"cap {cap:.4f}  {verdict}")
    failed |= measured > cap

# Hard cap, independent of the recorded baseline: the sparse plan must
# keep the integral phase at ≤ 60% of the dense allreduce's wire bytes.
cap = baseline["comm_max_sparse_over_dense"]
verdict = "ok" if comm_ratio <= cap else "OVER CAP"
print(f"comm_sparse_over_dense hard cap: measured {comm_ratio:.4f}  "
      f"cap {cap:.4f}  {verdict}")
failed |= comm_ratio > cap

# Hard floor, independent of the recorded baseline: the SIMD-tiled energy
# list engine must beat the seed scalar traversal by the acceptance factor.
speedup = max(
    json.load(open(p))["energy"]["exec_speedup_vs_traversal"]
    for p in sorted(glob.glob(out_dir + "/energy*.json"))
)
floor = baseline["energy_min_exec_speedup"]
verdict = "ok" if speedup >= floor else "UNDER FLOOR"
print(f"energy_exec_speedup hard floor: measured {speedup:.4f}  "
      f"floor {floor:.4f}  {verdict}")
failed |= speedup < floor

# Hard floor, independent of the recorded baseline: the Born list engine
# streams coalesced atom runs and must beat the seed traversal by the
# acceptance factor (best of the default-mode runs).
speedup = max(r["born"]["exec_speedup_vs_traversal"] for r in runs)
floor = baseline["born_min_exec_speedup"]
verdict = "ok" if speedup >= floor else "UNDER FLOOR"
print(f"born_exec_speedup hard floor: measured {speedup:.4f}  "
      f"floor {floor:.4f}  {verdict}")
failed |= speedup < floor
sys.exit(1 if failed else 0)
EOF

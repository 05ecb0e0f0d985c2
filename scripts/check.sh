#!/usr/bin/env bash
# Full pre-merge check: release build, test suite, lints, rustdoc, and a
# build of the benchmark package.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Every member crate's unit and integration tests, release mode. `cargo
# test` at the root tests only the root package; this covers the rest
# (the sweep oracles, runner equivalences, frames, zero-alloc) and runs the
# failure + recovery matrices under the optimizer, since the poison/heal
# protocols are timing-sensitive. The gb-core self_healing suite drives
# every kill site under *both* CommMode::Dense and CommMode::Sparse; the
# gb-cluster matrices cover each of the five collective kinds the runners
# call (barrier, allreduce sum/max, allgatherv, sparse exchange) x P x
# {panic, kill, timeout, retry}.
cargo test --release -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# A dependency no library code imports must go. `--lib` only: dev-deps are
# per target, so checking every target would flag a bench-only crate in the
# tests that do not use it.
cargo clippy --workspace --lib -- -D warnings -D unused-crate-dependencies
# Doc links must resolve: a link to a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# perfbench/ is a package of its own (outside the root workspace), so the
# steps above never compile it; a library change that breaks the frozen
# benchmark fails here, as in CI's separate step.
cargo build --release --manifest-path perfbench/Cargo.toml

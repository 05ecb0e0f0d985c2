#!/usr/bin/env bash
# Full pre-merge check: release build, test suite, lints.
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
# gb-cluster matrices cover every collective kind x P x {panic, kill,
# timeout, retry}.
cargo test --release -q --workspace
cargo clippy --workspace -- -D warnings

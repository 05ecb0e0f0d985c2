#!/usr/bin/env bash
# Full pre-merge check: release build, test suite, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Failure + recovery matrices, release mode: the poison/heal protocols are
# timing-sensitive, so exercise them under the optimizer as well. The
# gb-core self_healing suite drives every kill site under *both*
# CommMode::Dense and CommMode::Sparse; the gb-cluster matrices cover
# every collective kind x P x {panic, kill, timeout, retry}.
cargo test --release -q -p gb-cluster --test failure_matrix --test recovery_matrix
cargo test --release -q -p gb-core --test self_healing
cargo clippy --workspace -- -D warnings

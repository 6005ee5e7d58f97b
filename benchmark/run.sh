#!/usr/bin/env bash
# The benchmark command of /BENCHMARK.json. Builds the program under test
# (`nvwa`, root manifest) and the harness (this directory's own workspace)
# from source, then runs the harness with the arguments given:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh            # every workload, untraced then traced
#   bash benchmark/run.sh --smoke    # every workload at 1/50 size, self-checks
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target), never to
# the root target/ directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Manifests are named outright: cargo would otherwise look for one in the
# directories above a checkout that has none, and the command must fail there.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin nvwa >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/nvwa-bench" --nvwa-bin "$CARGO_TARGET_DIR/release/nvwa" "$@"

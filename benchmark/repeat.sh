#!/usr/bin/env bash
# Runs the full benchmark twice on the checked-out commit and compares the
# two sets: prints, per workload, both values of every end-to-end metric,
# their ratio and the bound, and exits non-zero if a pair disagrees by more
# than its own bound or any exact metric (simulated statistics, work counts,
# accuracy) differs at all. Arguments (--seed, --seconds) go to both runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
bash benchmark/run.sh --out-dir benchmark/out/repeat-1 "$@"
bash benchmark/run.sh --out-dir benchmark/out/repeat-2 "$@"
bash benchmark/run.sh --compare benchmark/out/repeat-1/results.jsonl benchmark/out/repeat-2/results.jsonl

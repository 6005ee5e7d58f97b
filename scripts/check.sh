#!/usr/bin/env sh
# Repo gate: formatting, no hash set or over-aligned type on the simulator's
# per-access path and no ordered or hashed map in its event loop,
# lints, rustdoc links, the tier-1 build+test suite (and, in the release
# binary, popcnt and the tile fill's vpmaxsd / vpmaxsw on ymm and zmm but
# never on xmm), the serving suites again on one busy core, EXPERIMENTS.md's
# quoted `nvwa repro --full` output (every figure and table) against the
# binary, the telemetry artifact
# checks, the benchmark smoke run, the serve smoke tests, the conformance
# sweep and the per-crate line count. Run from the repository root:
# ./scripts/check.sh
#
# ARTIFACTS_DIR (optional): where generated artifacts land. Defaults to a
# temp dir removed on exit; CI points it at a persistent path and uploads
# the contents.
set -eu

cargo fmt --all -- --check
# One binary: every command is an `nvwa` subcommand (src/bin/nvwa/), which
# the tier-1 build builds. A binary in a member crate is built by neither
# tier-1 nor the benchmark, so CI would run a stale copy of it.
if ls -d crates/*/src/bin crates/*/src/main.rs 2>/dev/null ||
    grep -l '^\[\[bin\]\]' crates/*/Cargo.toml; then
    echo "a second binary under crates/: make it an nvwa subcommand" >&2
    exit 1
fi
# The simulator replays every FM-index access of every read through these
# three files (about 1 000 probes per real read): a SipHash set or map back
# on that path passes every test and halves `sim_ablation` (DESIGN.md §16).
# Likewise an over-aligned table: with `#[repr(align(64))]` on the SU table's
# buckets, glibc's aligned allocations fragmented the heap and
# `sim_ablation`'s peak RSS (VmHWM) read 39 and 50 MB on two runs, where the
# naturally aligned buckets read 5.5-6.0 MB, against a bound of +10 %; every
# test still passes. Reference models in `#[cfg(test)]` code may use either.
for f in crates/sim/src/hbm.rs crates/sim/src/spm.rs crates/core/src/units/su.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep 'HashSet\|HashMap'; then
        echo "$f: a hash set or map on the simulator's per-access path" >&2
        exit 1
    fi
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep 'repr(align'; then
        echo "$f: an over-aligned type on the simulator's per-access path" >&2
        exit 1
    fi
done
# The event loop runs once per simulated event (9 000 to 15 000 per `simulate`):
# an ordered or hashed map back in the event queue or the simulator state
# allocates per cycle and gives back the heap's and status words' gain
# (DESIGN.md §16). Reference models in `#[cfg(test)]` code may use them.
for f in crates/sim/src/event.rs crates/core/src/system/simulator/*.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep 'BTreeMap\|HashMap\|HashSet'; then
        echo "$f: an ordered or hashed map in the simulator's event loop" >&2
        exit 1
    fi
done
cargo clippy --workspace --all-targets -- -D warnings
# A doc link to something renamed, deleted or private is an error: a
# deletion that leaves a dangling reference fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo build --release
# The seeding hot path must carry hardware popcount on the plain build
# settings: a helper dropped from the `#[inline(always)]` chain under
# `collect_smems_into` would take its `count_ones()` back to the SWAR
# sequence without failing any test (DESIGN.md §10).
if [ "$(uname -m)" = x86_64 ] && command -v objdump >/dev/null; then
    if [ "$(objdump -d target/release/nvwa | grep -c popcnt)" -eq 0 ]; then
        echo "release nvwa contains no popcnt instruction" >&2
        exit 1
    fi
    # Likewise the GACT tile kernel: each feature-enabled arm's loop must
    # have vectorised at both lane widths, `vpmaxsd` (i32 lanes) and
    # `vpmaxsw` (i16 lanes, every GACT tile) on ymm in the AVX2 arm and on
    # zmm in the AVX-512BW arm, counted inside that symbol's two instances so
    # that no other vectorised max satisfies the check; and neither arm may
    # hold one on xmm. Every diagonal runs whole 32-lane chunks, so a narrow
    # max means a remainder loop is back. A shape LLVM leaves scalar passes
    # every test and halves `offline_long` (DESIGN.md §12). This reads the
    # binary, so it holds on a host without AVX-512 too.
    for arm in avx2:ymm avx512:zmm; do
        sym="extend_wavefront_${arm%%:*}" reg="${arm#*:}"
        fill="$(objdump -d target/release/nvwa |
            awk -v sym="$sym" '/^[0-9a-f]+ <.*>:$/ { inside = index($0, sym) > 0 } inside')"
        for max in vpmaxsd vpmaxsw; do
            if [ "$(echo "$fill" | grep -c "$max.*$reg")" -eq 0 ]; then
                echo "$sym has no $max on $reg: the wavefront fill did not vectorise" >&2
                exit 1
            fi
        done
        if echo "$fill" | grep -q 'vpmaxs[wd].*xmm'; then
            echo "$sym has a vpmaxs on xmm: a diagonal's remainder loop is back" >&2
            exit 1
        fi
    done
fi
cargo test -q

# The two simulator goldens — the tiny Chrome trace and the simulated
# statistics (also part of the suite above; run by name filter so a drift
# fails loudly here even if the suite is filtered).
cargo test -q --test telemetry_integration golden_file

# The serving suites wait for server events, never for time: they must pass
# with the whole run squeezed onto one core that a busy loop also holds, as
# on a loaded CI host. About 90 s on a 2-vCPU host (the suites' binaries are
# already built by the tier-1 run above).
taskset -c 0 sh -c 'while :; do :; done' &
busy_pid=$!
status=0
for suite in serve_integration serve_modes_integration serve_dispatch_integration \
    tenancy_integration observability_integration; do
    taskset -c 0 cargo test -q --test "$suite" || {
        status=$?
        break
    }
done
kill "$busy_pid"
if [ "$status" -ne 0 ]; then
    echo "a serving suite failed on one busy core" >&2
    exit "$status"
fi

if [ -n "${ARTIFACTS_DIR:-}" ]; then
    artifacts_dir="$ARTIFACTS_DIR"
    mkdir -p "$artifacts_dir"
else
    artifacts_dir="$(mktemp -d)"
    trap 'rm -rf "$artifacts_dir"' EXIT
fi

# EXPERIMENTS.md quotes `nvwa repro --full` verbatim between markers, one
# block per command below (`fig2 fig5 fig7 fig9 table1 table2 table3
# headline`, `fig11 fig12`, `fig13`, `fig14`: every experiment), and its
# tables are read off those blocks: a change that moves a printed number
# fails here until the write-up says so (about 4 s). Fig. 14 builds six
# reference indexes, so its block also pins the suffix array, BWT and
# sampled SA of each end to end.
for figs in "fig2 fig5 fig7 fig9 table1 table2 table3 headline" "fig11 fig12" fig13 fig14; do
    name="$(echo "$figs" | tr ' ' _)"
    awk -v marker="$figs" '$0 == "<!-- end: nvwa repro --full " marker " -->" { on = 0 }
        on && !/^```/ { print }
        $0 == "<!-- begin: nvwa repro --full " marker " -->" { on = 1 }' EXPERIMENTS.md \
        > "$artifacts_dir/${name}_quoted.txt"
    # shellcheck disable=SC2086 # one word per figure
    cargo run --release --quiet --bin nvwa -- repro --full $figs > "$artifacts_dir/$name.txt"
    if ! diff "$artifacts_dir/${name}_quoted.txt" "$artifacts_dir/$name.txt"; then
        echo "EXPERIMENTS.md: the quoted nvwa repro --full $figs output is stale" >&2
        exit 1
    fi
done

# Generate fresh telemetry artifacts with the release binary and validate
# them against their schemas.
cargo run --release --quiet --bin nvwa -- sim --reads 500 \
    --trace-out "$artifacts_dir/trace.json" \
    --metrics-out "$artifacts_dir/metrics.json"
cargo run --release --quiet --bin nvwa -- validate \
    "$artifacts_dir/trace.json" "$artifacts_dir/metrics.json"

# The repository benchmark at 1/50 size (all five workloads plus its own
# metric-table self-check), then the harness's unit tests: a crate-API
# change that breaks benchmark/src/adapter.rs fails here, not first in the
# pipeline that judges parent vs change.
bash benchmark/run.sh --smoke
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Serve smoke test: start the server in the background on an ephemeral
# port, push 2 000 reads closed-loop while scraping the in-band `stats`
# endpoint, request a graceful shutdown, and assert (a) the loadgen saw
# zero lost/duplicated responses and no violated SLO target (`nvwa loadgen`
# exits non-zero otherwise), (b) the server drained and exited cleanly,
# (c) the stats response, span log, trace and loadgen report all pass
# validation, (d) at least two mid-run stats snapshots were captured and
# none failed validation (the stats-scrape smoke test). First: the batch
# timer and the shed-storm dump trigger are gone, and so are the loadgen's
# own metrics snapshot and thread pool; asking for any of them is a usage
# error, not a silent default.
[ "$(cargo run --release --quiet --bin nvwa -- serve --batch-wait-us 1 2>&1 || echo "exit $?")" = "nvwa: --batch-wait-us: unknown flag
exit 2" ]
[ "$(cargo run --release --quiet --bin nvwa -- serve --shed-storm 3 2>&1 || echo "exit $?")" = "nvwa: --shed-storm: unknown flag
exit 2" ]
for removed in "--metrics-out x" "--threads 2"; do
    # shellcheck disable=SC2086 # the flag and its value are two words
    [ "$(cargo run --release --quiet --bin nvwa -- loadgen $removed 2>&1 || echo "exit $?")" = "nvwa: ${removed% *}: unknown flag
exit 2" ]
done
# The loadgen counts a mid-run `stats` scrape that fails
# `Kind::StatsResponse` in `scrapes.failures` and drops it: any such
# failure fails the smoke, naming the first error.
require_clean_scrapes() {
    failures="$(sed -n 's/^ *"failures": \([0-9][0-9]*\).*/\1/p' "$1")"
    if [ "$failures" != 0 ]; then
        echo "$1: ${failures:-an unknown number of} stats scrapes failed; first error:" \
            "$(sed -n 's/^ *"first_error": //p' "$1")" >&2
        exit 1
    fi
}
rm -f "$artifacts_dir/serve_addr"
cargo run --release --quiet --bin nvwa -- serve \
    --addr 127.0.0.1:0 --addr-file "$artifacts_dir/serve_addr" \
    --ref-len 60000 --workers 2 \
    --flight-dump "$artifacts_dir/flight" \
    --metrics-out "$artifacts_dir/serve_metrics.json" \
    --span-log-out "$artifacts_dir/serve_spans.json" \
    --trace-out "$artifacts_dir/serve_trace.json" &
serve_pid=$!
cargo run --release --quiet --bin nvwa -- loadgen \
    --addr-file "$artifacts_dir/serve_addr" \
    --reads 2000 --connections 2 --mode closed --window 32 \
    --ref-len 60000 \
    --scrape-ms 20 --stats-out "$artifacts_dir/loadgen_stats.json" \
    --slo lost=0 --slo error_rate=0 \
    --out "$artifacts_dir/loadgen_report.json" --shutdown
wait "$serve_pid"
cargo run --release --quiet --bin nvwa -- validate \
    "$artifacts_dir/serve_metrics.json" \
    "$artifacts_dir/serve_spans.json" \
    "$artifacts_dir/serve_trace.json" \
    "$artifacts_dir/loadgen_report.json"
# The gate can fail: the same report with one more `lost` response than
# it conserves must be refused, by the name of the identity it breaks.
awk '!bumped && match($0, /"lost": [0-9]+/) {
    lost = substr($0, RSTART + 8, RLENGTH - 8) + 1
    $0 = substr($0, 1, RSTART - 1) "\"lost\": " lost substr($0, RSTART + RLENGTH)
    bumped = 1
} { print }' "$artifacts_dir/loadgen_report.json" > "$artifacts_dir/loadgen_lossy.json"
if lossy="$(cargo run --release --quiet --bin nvwa -- validate \
    "$artifacts_dir/loadgen_lossy.json" 2>&1)"; then
    echo "validate accepted a report that does not conserve its requests" >&2
    exit 1
fi
case "$lossy" in
*"conservation: sent sums to"*) echo "validate refuses a lossy report: $lossy" ;;
*)
    echo "validate refused a lossy report without naming conservation: $lossy" >&2
    exit 1
    ;;
esac
scrapes="$(grep -c '"kind": "nvwa-metrics"' "$artifacts_dir/loadgen_stats.json" || true)"
if [ "$scrapes" -lt 2 ]; then
    echo "stats scrape smoke: only $scrapes mid-run snapshots (want >= 2)" >&2
    exit 1
fi
require_clean_scrapes "$artifacts_dir/loadgen_report.json"
echo "serve smoke test: clean drain, zero lost responses, $scrapes stats scrapes"

# Multi-tenant serve smoke (PR 8): two species tenants (one sharded),
# >= 100k requests open-loop in a 3:1 weighted mix. Asserts exactly-once accounting globally and per tenant
# (`nvwa loadgen` exits non-zero on any lost/duplicated response or
# violated SLO), then schema-validates the SLO report — including the
# per-tenant conservation sections — and the server's stats snapshot.
# It scrapes `stats` every 20 ms throughout, and every scrape must
# validate: at 12 k req/s this is where the tenant identities that one
# hub lock keeps exact (`TENANT_ADMITTED`, `TENANT_QUOTA`) are checked
# against a busy server.
# The shard-kill degradation plan runs in the conformance faults and
# registry families below. --registry-budget runs the launch-time check
# (the two 40 kb-floor indexes need ~4.4 MB; the server refuses to start
# over budget).
rm -f "$artifacts_dir/serve_mt_addr"
cargo run --release --quiet --bin nvwa -- serve \
    --addr 127.0.0.1:0 --addr-file "$artifacts_dir/serve_mt_addr" \
    --workers 2 --tenant-scale 0.0 --registry-budget 64000000 \
    --tenant homo_sapiens:2 --tenant caenorhabditis_elegans \
    --metrics-out "$artifacts_dir/serve_mt_metrics.json" &
serve_mt_pid=$!
cargo run --release --quiet --bin nvwa -- loadgen \
    --addr-file "$artifacts_dir/serve_mt_addr" \
    --reads 100000 --connections 4 --mode open --rate 12000 --burst 16 \
    --tenant homo_sapiens:3 --tenant caenorhabditis_elegans:1 \
    --tenant-scale 0.0 --scrape-ms 20 \
    --slo lost=0 --slo error_rate=0 --slo quota_rate=0 \
    --out "$artifacts_dir/loadgen_tenants.json" --shutdown
wait "$serve_mt_pid"
require_clean_scrapes "$artifacts_dir/loadgen_tenants.json"
cargo run --release --quiet --bin nvwa -- validate \
    "$artifacts_dir/loadgen_tenants.json" \
    "$artifacts_dir/serve_mt_metrics.json"
echo "multi-tenant smoke: 100k open-loop requests, per-tenant conservation holds"

# Serving-modes smoke (PR 10): one server fielding all three request
# modes at once — a deterministic 2:1:1 short/long/classify interleave
# pushed closed-loop. The per-mode bins batch the modes apart; the
# conservation law still holds across the mix (`nvwa loadgen` exits
# non-zero on any lost/duplicated response or violated SLO; long-mode
# `unmapped` is a completed result, not an error, and the report
# validator checks the ok + unmapped + shed + ... == received identity).
rm -f "$artifacts_dir/serve_modes_addr"
cargo run --release --quiet --bin nvwa -- serve \
    --addr 127.0.0.1:0 --addr-file "$artifacts_dir/serve_modes_addr" \
    --ref-len 60000 --workers 2 \
    --metrics-out "$artifacts_dir/serve_modes_metrics.json" &
serve_modes_pid=$!
cargo run --release --quiet --bin nvwa -- loadgen \
    --addr-file "$artifacts_dir/serve_modes_addr" \
    --reads 2000 --connections 2 --mode closed --window 16 \
    --ref-len 60000 --request-mode mixed --long-len 2000 \
    --slo lost=0 --slo error_rate=0 \
    --out "$artifacts_dir/loadgen_modes.json" --shutdown
wait "$serve_modes_pid"
cargo run --release --quiet --bin nvwa -- validate \
    "$artifacts_dir/loadgen_modes.json" \
    "$artifacts_dir/serve_modes_metrics.json"
echo "serving-modes smoke: short/long/classify mix conserved end to end"

# Conformance: differential oracles (sw/smem/pipeline/serve-vs-offline
# plus the bit-parallel extension-kernel family), simulator invariants,
# the fault-injection matrix (shard-kill degradation and the request-frame
# fuzzer included), the multi-tenant registry family and the
# long-read family (GACT-tiled fill vs a wide-banded SW oracle on the
# committed window, pinned to the (tiles−1)·overlap·match seam bound),
# over the CI seed list in both the short and long read profiles. Divergence reproducers land in the artifacts dir (uploaded
# by CI on failure); the fault family's flight-recorder dumps land next
# to them for the same upload. First: an unknown family is a usage error
# whose message lists every family from `Family::ALL`.
[ "$(cargo run --release --quiet --bin nvwa -- conformance --family bogus 2>&1 || echo "exit $?")" = 'nvwa: unknown family "bogus" (want one of: diff, extension, invariants, faults, registry, long_read)
exit 2' ]
NVWA_FLIGHT_DIR="$artifacts_dir/flight" \
    cargo run --release --quiet --bin nvwa -- conformance \
    --seed-from-ci --repro-dir "$artifacts_dir/repro"
echo "conformance: all families pass"

# Rust lines per crate, kept with the artifacts so the trajectory of
# ROADMAP aim 2 ("net lines per crate is tracked") can be read off CI.
sh scripts/loc.sh > "$artifacts_dir/loc.txt"
cat "$artifacts_dir/loc.txt"

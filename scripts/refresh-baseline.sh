#!/usr/bin/env bash
# Regenerates the committed CI baselines from fresh runs:
#   - tests/baselines/smoke-manifest.json (smoke-run coverage/cluster gate)
#   - tests/roms/*.json (chained conformance corpus, DESIGN.md §9)
#   - tests/baselines/bench/*.json (bench-trajectory gate, DESIGN.md §10)
#
# One command: after an intentional coverage/cluster/corpus change, run this
# and commit the updated files. The baselines' comparable sections are
# deterministic for the fixed configs, so the files are machine- and
# thread-count-independent; timings vary but are never compared — the bench
# baselines gate counts exactly and timings only as wide self-normalizing
# ratio bands (measured/8 .. measured*8). Floored ratios are the one
# exception: exec_throughput's hifi_over_lofi band min is pinned at 2.0
# in pokemu-bench (ratio_floor), so refreshing baselines can never relax
# the lofi-at-least-2x-hifi requirement.
set -euo pipefail
cd "$(dirname "$0")/.."

POKEMU_RUN_MANIFEST=1 POKEMU_RUN_ID=smoke \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench
mkdir -p tests/baselines
cp target/run/smoke/manifest.json tests/baselines/smoke-manifest.json
echo "baseline refreshed: tests/baselines/smoke-manifest.json"

cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    conformance --roms tests/roms --write
echo "baseline refreshed: tests/roms/"

cargo run --release --offline -q -p pokemu-bench --bin pokemu-bench -- \
    --write-baselines tests/baselines/bench
echo "baseline refreshed: tests/baselines/bench/"

# Fleet merged-manifest baseline (DESIGN.md §13): same workload and shard
# count as the ci.sh fleet gate. The merge is deterministic content only
# (timings and retry history live in fleet-events.jsonl), so the file is
# machine-independent.
rm -rf target/fleet/baseline
POKEMU_HISTORY=0 \
    cargo run --release --offline -p pokemu-bench --bin pokemu-fleet -- \
    run --run-id ci --root target/fleet/baseline --shards 2 --first-byte 0xf7 \
    --max-paths 64 --backoff-ms 10 >/dev/null
cp target/fleet/baseline/merged.json tests/baselines/fleet-merged.json
echo "baseline refreshed: tests/baselines/fleet-merged.json"

# Seed a fresh trend window (DESIGN.md §12): after an intentional change the
# old run-history records describe the previous behavior, so the trend gate
# would flag the new steady state as drift. Drop the local ledger and record
# two clean runs so `pokemu-report trend --check` starts from a passing
# window that reflects the refreshed baselines.
rm -rf target/history
POKEMU_RUN_ID=seed-a \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench >/dev/null
POKEMU_RUN_ID=seed-b \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench >/dev/null
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- trend --check
echo "trend window reseeded: target/history/ledger.jsonl"

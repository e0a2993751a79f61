#!/bin/sh
# Sampled-simulation smoke test, wired into `make check` (and available
# as `make sample-smoke`): run one kernel end to end under --sample,
# check the --metrics document carries the sample section and parses,
# check the run is deterministic for a fixed seed and identical on a
# streamed trace file, check the spec grammar is enforced (exit 2), and
# push one sampled sweep through the grid. Everything under `timeout`.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

fail=0

# --- one sampled run, metrics spliced --------------------------------
timeout 300 "$CLI" simulate -k gzip -s 4000 --sample 200:1800:7 \
    --metrics "$TMP/sampled.json" > "$TMP/first.out"
timeout 300 "$CLI" simulate -k gzip -s 4000 \
    --metrics "$TMP/full.json" > /dev/null

if ! grep -q 'sampled (200:1800:7):' "$TMP/first.out"; then
    echo "FAIL simulate: no sampled summary line"
    fail=1
fi
if ! grep -q '"sample"' "$TMP/sampled.json"; then
    echo "FAIL metrics: no sample section in the JSON document"
    fail=1
fi

if command -v python3 > /dev/null 2>&1; then
    python3 - "$TMP/sampled.json" "$TMP/full.json" <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as handle:
    document = json.load(handle)
sample = document["sample"]
assert sample["spec"] == {"detail": 200, "warmup": 1800, "seed": 7}, \
    sample["spec"]
assert sample["intervals"] >= 2, "too few intervals for a CI"
assert sample["mean_ipc"] > 0.0, "sampled IPC must be positive"
assert sample["ci95"] is not None and sample["ci95"] >= 0.0
assert len(sample["interval_ipc"]) == sample["intervals"]

# The statistical contract: the full run's IPC falls inside the
# sampled run's reported 95% confidence interval.
with open(sys.argv[2]) as handle:
    full_ipc = json.load(handle)["derived"]["ipc"]
lo = sample["mean_ipc"] - sample["ci95"]
hi = sample["mean_ipc"] + sample["ci95"]
assert lo <= full_ipc <= hi, \
    f"full IPC {full_ipc:.4f} outside sampled CI [{lo:.4f}, {hi:.4f}]"
print("sample-smoke: metrics ok "
      f"({sample['intervals']} intervals, "
      f"IPC {sample['mean_ipc']:.4f} +- {sample['ci95']:.4f} "
      f"covers full {full_ipc:.4f})")
EOF
else
    echo "sample-smoke: python3 not available, skipping JSON checks"
fi

# --- determinism: a fixed seed reproduces the report -----------------
timeout 300 "$CLI" simulate -k gzip -s 4000 --sample 200:1800:7 \
    > "$TMP/second.out"
grep 'sampled (' "$TMP/first.out" > "$TMP/first.sampled"
grep 'sampled (' "$TMP/second.out" > "$TMP/second.sampled"
if ! cmp -s "$TMP/first.sampled" "$TMP/second.sampled"; then
    echo "FAIL determinism: two runs with the same seed diverged"
    diff "$TMP/first.sampled" "$TMP/second.sampled" || true
    fail=1
fi

# --- sampling a stream equals sampling the array ---------------------
# The same records from an encoded file (streamed through the chunked
# cursor) give the same sampled report and byte-identical metrics.
timeout 300 "$CLI" tracegen -k gzip -s 4000 -o "$TMP/g.rtr" > /dev/null
timeout 300 "$CLI" simulate -t "$TMP/g.rtr" --sample 200:1800:7 \
    --metrics "$TMP/streamed.json" > "$TMP/streamed.out"
grep 'sampled (' "$TMP/streamed.out" > "$TMP/streamed.sampled"
if ! cmp -s "$TMP/first.sampled" "$TMP/streamed.sampled"; then
    echo "FAIL stream: sampled summary differs from the array run"
    diff "$TMP/first.sampled" "$TMP/streamed.sampled" || true
    fail=1
fi
if ! cmp -s "$TMP/sampled.json" "$TMP/streamed.json"; then
    echo "FAIL stream: sampled metrics differ from the array run"
    fail=1
fi

# --- the spec grammar is enforced before any work --------------------
for bad in nonsense 0:100 100:-1 1:2:3:4; do
    if "$CLI" simulate -k gzip -s 256 --sample "$bad" \
        > /dev/null 2>&1; then
        echo "FAIL spec: --sample $bad was accepted"
        fail=1
    else
        status=$?
        if [ "$status" -ne 2 ]; then
            echo "FAIL spec: --sample $bad exited $status, expected 2"
            fail=1
        fi
    fi
done

# --- sampled sweep through the quick grid ----------------------------
timeout 600 "$CLI" sweep --quick -j 2 --sample 200:1800:7 \
    --metrics "$TMP/sweep.json" > "$TMP/sweep.out"
if ! grep -q '"sample"' "$TMP/sweep.json"; then
    echo "FAIL sweep: no per-job sample sections in the metrics"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "sample-smoke: FAILED"
    exit 1
fi
echo "sample-smoke: all clean"

#!/bin/sh
# Trace-frontier smoke test, wired into `make check` (and available as
# `make trace-smoke`): the foreign-format adapters and the streaming
# path end to end through the CLI.
#
#   1. Both foreign profiles (text, riscv) adapt, lint clean and
#      simulate with nonzero synthesized wrong-path fetches; malformed
#      input exits 1 with an RSM-A file:line diagnostic (never a
#      backtrace) and a missing file exits 2 with RSM-T009. Damaged
#      encoded files exit 3: a truncated payload with RSM-T002, its
#      absolute byte offset and the --degraded hint, a bad magic with
#      RSM-T001.
#   2. Encoded traces always stream through the chunked cursor. A file
#      run produces metrics byte-identical to the generator's in-memory
#      array path (simulate -k K -s N) and the same non-zero
#      bits/instruction; --stream is a no-op for encoded input; counted
#      files, streamed-header files and pipes (-t -) agree.
#   3. Sharded traces (tracegen --records-per-shard) lint clean shard
#      by shard and simulate identically to the unsharded trace.
#   4. A streamed run truncated by --max-cycles writes a checkpoint that
#      --resume (which materializes the trace) completes to exactly the
#      statistics of an uninterrupted run.
#   5. Constant-memory guard: a 2M-record trace streams through the
#      engine within a peak-RSS budget several times below what
#      materializing it costs, so a regression that silently
#      materializes the stream fails the gate.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CLI="$ROOT/_build/default/bin/resim_cli.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [ ! -x "$CLI" ]; then
    (cd "$ROOT" && dune build bin/resim_cli.exe)
fi

fail=0

expect_exit() {
    # expect_exit LABEL WANT STATUS
    if [ "$3" -ne "$2" ]; then
        echo "FAIL $1: exit $3, want $2"
        fail=1
    fi
}

metric() {
    # metric FILE KEY -> integer value
    grep -o "\"$2\":[ ]*[0-9-]*" "$1" | head -1 | grep -o '[0-9-]*$'
}

# --- 1. foreign formats ------------------------------------------------

# Text profile: a loop whose branch at 0x1004 alternates taken (back to
# 0x1000) and not-taken (falls through to 0x1008), so the synthesis
# predictor must mispredict and emit tagged wrong-path blocks.
i=0
while [ $i -lt 100 ]; do
    printf '1000 0 1 2 3\n1004 0 2 1 1\n' >> "$TMP/text.trc"
    if [ $((i % 2)) -eq 1 ]; then
        printf '1008 0 3 2 1\n' >> "$TMP/text.trc"
    fi
    i=$((i + 1))
done

# RISC-V profile: lw / mul / sw / bne loop, taken five times then
# falling through to a nop.
i=0
while [ $i -lt 6 ]; do
    printf '1000 0005a503 mem %x\n' $((32768 + 8 * i)) >> "$TMP/riscv.trc"
    printf '1004 02c58533\n1008 00a62023 mem %x\n100c fed61ae3\n' \
        $((36864 + 8 * i)) >> "$TMP/riscv.trc"
    i=$((i + 1))
done
printf '1010 00000013\n' >> "$TMP/riscv.trc"

for fmt in text riscv; do
    status=0
    timeout 60 "$CLI" lint "$TMP/$fmt.trc" --format "$fmt" \
        > "$TMP/lint.out" 2>&1 || status=$?
    expect_exit "$fmt lint clean" 0 $status
    status=0
    timeout 60 "$CLI" simulate -t "$TMP/$fmt.trc" --format "$fmt" \
        --metrics "$TMP/m_$fmt.json" > /dev/null 2>&1 || status=$?
    expect_exit "$fmt simulate" 0 $status
    wrong=$(metric "$TMP/m_$fmt.json" fetched_wrong_path)
    if [ "${wrong:-0}" -le 0 ]; then
        echo "FAIL $fmt: fetched_wrong_path=$wrong, want > 0 (synthesized wrong path must reach the engine)"
        fail=1
    fi
done

# Malformed foreign input: typed RSM-A with file:line, exit 1, and
# never an uncaught exception.
printf '1000 0 1 2 3\n1004 9 1 2 3\n' > "$TMP/bad.trc"
status=0
timeout 60 "$CLI" simulate -t "$TMP/bad.trc" --format text \
    > "$TMP/bad.out" 2>&1 || status=$?
expect_exit "malformed text simulate" 1 $status
if ! grep -q 'RSM-A003' "$TMP/bad.out" || ! grep -q 'bad.trc:2' "$TMP/bad.out"; then
    echo "FAIL malformed text: no RSM-A003 file:line diagnostic"
    cat "$TMP/bad.out"
    fail=1
fi
status=0
timeout 60 "$CLI" lint "$TMP/bad.trc" --format text > /dev/null 2>&1 || status=$?
expect_exit "malformed text lint" 1 $status

# Missing trace file: structured RSM-T009, exit 2, no backtrace.
status=0
timeout 60 "$CLI" simulate -t /nonexistent/no-such.rtr \
    > "$TMP/missing.out" 2>&1 || status=$?
expect_exit "missing trace file" 2 $status
if ! grep -q 'RSM-T009' "$TMP/missing.out"; then
    echo "FAIL missing file: no RSM-T009 diagnostic"
    cat "$TMP/missing.out"
    fail=1
fi
if grep -qi 'backtrace\|Fatal error' "$TMP/missing.out"; then
    echo "FAIL missing file: leaked a backtrace"
    fail=1
fi

# Damaged encoded files: the streamed default path keeps the
# materialized path's fault surface (exit 3, RSM-T code, absolute byte
# offset, the --degraded hint for payload damage).
timeout 60 "$CLI" faultgen -k gzip -s 256 --fault truncate-payload \
    -o "$TMP/cut.rtr" > /dev/null
status=0
timeout 60 "$CLI" simulate -t "$TMP/cut.rtr" > "$TMP/cut.out" 2>&1 \
    || status=$?
expect_exit "truncated trace simulate" 3 $status
if ! grep -q 'RSM-T002' "$TMP/cut.out" \
    || ! grep -q 'byte [0-9][0-9]*' "$TMP/cut.out" \
    || ! grep -q 'rerun with --degraded resync' "$TMP/cut.out"; then
    echo "FAIL truncated trace: no RSM-T002 byte-offset diagnostic with hint"
    cat "$TMP/cut.out"
    fail=1
fi
timeout 60 "$CLI" faultgen -k gzip -s 256 --fault bad-magic \
    -o "$TMP/magic.rtr" > /dev/null
status=0
timeout 60 "$CLI" simulate -t "$TMP/magic.rtr" > "$TMP/magic.out" 2>&1 \
    || status=$?
expect_exit "bad-magic trace simulate" 3 $status
if ! grep -q 'RSM-T001' "$TMP/magic.out"; then
    echo "FAIL bad magic: no RSM-T001 diagnostic"
    cat "$TMP/magic.out"
    fail=1
fi

# --- 2. file runs == the generator's in-memory path --------------------

bits() {
    # bits FILE -> the "trace encoding: X bits/instr" figure
    sed -n 's/^trace encoding: \([0-9.]*\) bits\/instr$/\1/p' "$1"
}

timeout 120 "$CLI" tracegen -k gzip -s 4000 -o "$TMP/t.rtr" > /dev/null
timeout 120 "$CLI" simulate -k gzip -s 4000 --metrics "$TMP/k.json" \
    > "$TMP/k.out"
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --metrics "$TMP/a.json" \
    > "$TMP/a.out"
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --stream \
    --metrics "$TMP/b.json" > "$TMP/b.out"
if ! cmp -s "$TMP/k.json" "$TMP/a.json"; then
    echo "FAIL file run: metrics differ from the in-memory kernel run"
    fail=1
fi
if ! cmp -s "$TMP/a.json" "$TMP/b.json"; then
    echo "FAIL file run: --stream changes the metrics"
    fail=1
fi
kbits=$(bits "$TMP/k.out")
if [ -z "$kbits" ] || [ "$kbits" = "0.00" ] \
    || [ "$(bits "$TMP/a.out")" != "$kbits" ] \
    || [ "$(bits "$TMP/b.out")" != "$kbits" ]; then
    echo "FAIL bits/instr: kernel $kbits, file $(bits "$TMP/a.out"), --stream $(bits "$TMP/b.out")"
    fail=1
fi

# Streamed-header file (count unknown to the producer): with and
# without --stream, plus the same trace through a pipe.
timeout 120 "$CLI" tracegen --stream --limit 50000 -k gzip \
    > "$TMP/s.rtr" 2> /dev/null
timeout 120 "$CLI" simulate -t "$TMP/s.rtr" --metrics "$TMP/sa.json" \
    > /dev/null
timeout 120 "$CLI" simulate -t "$TMP/s.rtr" --stream \
    --metrics "$TMP/sb.json" > /dev/null
timeout 120 "$CLI" simulate -t - --metrics "$TMP/sc.json" \
    < "$TMP/s.rtr" > /dev/null
if ! cmp -s "$TMP/sa.json" "$TMP/sb.json" \
    || ! cmp -s "$TMP/sa.json" "$TMP/sc.json"; then
    echo "FAIL streamed header: file/stream/pipe metrics disagree"
    fail=1
fi

# --- 3. shards ---------------------------------------------------------

mkdir "$TMP/shards"
timeout 120 "$CLI" tracegen -k gzip -s 4000 --records-per-shard 512 \
    -o "$TMP/shards/t.rtr" > /dev/null
count=$(ls "$TMP/shards"/t.*.rtr | wc -l)
if [ "$count" -lt 2 ]; then
    echo "FAIL shards: expected several shards, got $count"
    fail=1
fi
for shard in "$TMP/shards"/t.*.rtr; do
    status=0
    timeout 60 "$CLI" lint "$shard" > /dev/null 2>&1 || status=$?
    expect_exit "shard $(basename "$shard") lints alone" 0 $status
done
timeout 120 "$CLI" simulate -t "$TMP/shards/t" --metrics "$TMP/c.json" \
    > /dev/null
if ! cmp -s "$TMP/a.json" "$TMP/c.json"; then
    echo "FAIL shards: concatenated metrics differ from unsharded trace"
    fail=1
fi

# --- 4. checkpoint on the streamed path, resume on the array ------------

# CSV metrics: the counters only, without the engine-identity splice
# (resume replays on the generic engine).
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --metrics "$TMP/full.csv" \
    > /dev/null
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --max-cycles 20000 \
    --checkpoint "$TMP/c.rscp" > /dev/null
status=0
timeout 120 "$CLI" simulate -t "$TMP/t.rtr" --resume "$TMP/c.rscp" \
    --metrics "$TMP/resumed.csv" > /dev/null 2>&1 || status=$?
expect_exit "resume from a streamed checkpoint" 0 $status
if ! cmp -s "$TMP/full.csv" "$TMP/resumed.csv"; then
    echo "FAIL checkpoint round trip: resumed stats differ from an uninterrupted run"
    fail=1
fi

# --- 5. constant-memory guard ------------------------------------------

# 2M records: materializing them costs well over 200 MB peak RSS (the
# --sample/--resume path still does); the streamed path was measured
# at ~19 MB. Budget 64 MB — a silent materialization (or an unbounded
# refill buffer) blows through it.
RSS_BUDGET_KB=65536
timeout 300 "$CLI" tracegen --stream --limit 2000000 -k gzip \
    > "$TMP/big.rtr" 2> /dev/null

# Background the CLI directly (no `timeout` wrapper: $pid must be the
# simulator itself for /proc VmHWM); the poll loop doubles as the
# watchdog.
"$CLI" simulate -t "$TMP/big.rtr" \
    --metrics "$TMP/p.json" > /dev/null 2>&1 &
pid=$!
peak=0
ticks=0
while kill -0 "$pid" 2> /dev/null; do
    v=$(awk '/VmHWM/ { print $2 }' "/proc/$pid/status" 2> /dev/null || echo 0)
    if [ "${v:-0}" -gt "$peak" ]; then peak=$v; fi
    ticks=$((ticks + 1))
    if [ "$ticks" -gt 6000 ]; then
        echo "FAIL constant-memory guard: simulate still running after ~600s"
        kill -9 "$pid" 2> /dev/null || true
        fail=1
        break
    fi
    sleep 0.1
done
status=0
wait "$pid" || status=$?
expect_exit "2M-record streamed simulate" 0 $status
if [ "$peak" -gt "$RSS_BUDGET_KB" ]; then
    echo "FAIL constant-memory guard: peak RSS ${peak} kB > budget ${RSS_BUDGET_KB} kB"
    fail=1
fi
committed=$(metric "$TMP/p.json" committed)
if [ "${committed:-0}" -le 1000000 ]; then
    echo "FAIL constant-memory guard: committed=$committed, want > 1000000"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "trace smoke: FAILED"
    exit 1
fi
echo "trace smoke: OK (foreign formats, damaged files, file==in-memory, shards, checkpoint round trip, peak RSS ${peak} kB <= ${RSS_BUDGET_KB} kB)"

#!/usr/bin/env python3
"""ReSim benchmark: end-to-end host speed, latency and memory of the
real user surfaces, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload replay-file --seed 1 --seconds 20 --trace 0

Workloads, metrics and the reasoning behind them are in
perfbench/README.md. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Everything the
benchmark writes goes under .perfbench_work/ (scratch, emptied every
run) and .perfbench_out/ (results and span logs).

Other modes:
    --write-pins   run every input any seed can draw and rewrite
                   perfbench/pins.json
    --self-test    feed a wrong pin and check that it is caught
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORK = ".perfbench_work"
OUT = ".perfbench_out"
TARGETS = ("bin/resim_cli.exe", "perfbench/perfbench.exe")
CLI, HELPER = (os.path.join("_build", "default", t) for t in TARGETS)
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
WORKLOADS = ("replay-file", "replay-stream", "sweep", "served")
TIMEOUT = 150  # seconds any one child may take

# Replay traces: Table-1 kernels of different branch and memory
# character, each ~1M records. The seed picks an offset of 0-3 steps
# (~1% of the records each) per kernel; vpr's scale is too coarse to
# step, so it is fixed.
REPLAY = [("gzip", 31000, 300), ("parser", 24000, 240),
          ("vortex", 16384, 160), ("vpr", 8, 0)]
TEXT = ("bzip2", 16384, 160)  # text-format foreign trace, replay-stream
STEPS = 4

# Served: five small fixed traces x 48 configurations gives 240
# distinct cache keys; warm-up uses the reference configuration.
SERVED_TRACES = [("gzip", 4608), ("bzip2", 4608), ("parser", 3584),
                 ("vortex", 2560), ("vpr", 1)]
SERVED_CONFIGS = [(w, rob, lsq) for w in (2, 4)
                  for rob in (16, 20, 24, 28, 32, 40, 48, 64)
                  for lsq in (4, 8, 16)]
HIT_EVERY = 4  # every 4th served request resubmits an earlier one
RECONCILE_MISSES = 8  # misses the traced served run replicates
# Served throughput is the median over equal slices of the window, so
# a stall in part of a run does not move it (as for the latency p50).
SLICES = 5

# Paper Table 1, Virtex-5 MIPS (Fytraki & Pnevmatikatos, DATE 2009):
# left = 4-issue, 2-level BP; right = 2-issue, perfect BP, 32 KB L1s.
PAPER_V5 = {
    "gzip": (29.07, 25.55), "bzip2": (34.44, 23.16),
    "parser": (24.92, 20.88), "vortex": (29.46, 21.04),
    "vpr": (25.48, 23.95),
}

# Metric names and units are those of BENCHMARK.json.
with open(os.path.join(os.path.dirname(PINS), "..", "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# Clients, server workers, sweep domains and the helper's pool: one per
# core, never more (checked in main).
JOBS = nproc()


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- children ---------------------------------------------------------

class RusagePopen(subprocess.Popen):
    """Popen that keeps the child's peak RSS from the wait4 that reaps
    it (subprocess reaps through _try_wait on POSIX)."""
    rss_mb = 0.0

    def _try_wait(self, wait_flags):
        try:
            pid, status, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return (self.pid, 0)
        if pid == self.pid:
            self.rss_mb = usage.ru_maxrss / 1024.0
        return (pid, status)


def run(argv, timeout=TIMEOUT, check=True):
    """Run a child to completion; returns (wall s, peak RSS MB, stdout,
    exit code). A non-zero exit raises unless check is False."""
    t0 = time.perf_counter()
    proc = RusagePopen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as e:
        proc.kill()
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"timed out: {' '.join(argv)}")
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {' '.join(argv)}\n"
            f"{err.decode(errors='replace')[-2000:]}")
        if check:
            raise BenchError(f"exit {proc.returncode}: {argv[0]}")
    return wall, proc.rss_mb, out.decode(), proc.returncode


def helper(*args, timeout=TIMEOUT):
    _, _, out, _ = run([HELPER, *map(str, args)], timeout=timeout)
    return json.loads(out.strip().splitlines()[-1])


# --- correctness --------------------------------------------------------

STATS_KEYS = ("counters", "stall_causes", "derived", "commit_width",
              "issue_width", "degraded")


def digest(stats):
    """Pin of one run: cycles, committed and a digest of the Stats JSON
    (only the Stats keys, so added trailer fields do not break pins)."""
    body = json.dumps({k: stats.get(k) for k in STATS_KEYS}, sort_keys=True)
    return {"cycles": stats["counters"]["major_cycles"],
            "committed": stats["counters"]["committed"],
            "digest": hashlib.sha256(body.encode()).hexdigest()[:20]}


class Checker:
    """Compares every result with its pin (or records it, --write-pins)."""

    def __init__(self, write=False, pins=None):
        self.write = write
        if pins is None:
            pins = {}
            if not write and os.path.exists(PINS):
                with open(PINS) as f:
                    pins = json.load(f)
        self.pins = pins
        self.mismatches = []

    def check(self, key, stats):
        got = digest(stats)
        if self.write:
            self.pins[key] = got
            return True
        want = self.pins.get(key)
        if want != got:
            self.mismatches.append({"key": key, "want": want, "got": got})
            return False
        return True


# --- inputs -------------------------------------------------------------

def replay_inputs(rng):
    return [(k, base + step * rng.randrange(STEPS)) for k, base, step in REPLAY]


def text_input(rng):
    k, base, step = TEXT
    return (k, base + step * rng.randrange(STEPS))


def trace_path(kernel, scale, ext="rtr"):
    return os.path.join(WORK, f"{kernel}-{scale}.{ext}")


def generate(jobs, pool):
    """Run helper generation commands, `pool` at a time."""
    pending = list(jobs)
    running = []
    try:
        while pending or running:
            while pending and len(running) < pool:
                argv = [HELPER, *map(str, pending.pop(0))]
                running.append((argv, subprocess.Popen(
                    argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
            argv, proc = running[0]
            _, err = proc.communicate(timeout=TIMEOUT)
            running.pop(0)
            if proc.returncode != 0:
                raise BenchError(f"setup failed: {' '.join(argv)}\n"
                                 f"{err.decode()}")
    finally:
        for _, proc in running:
            proc.kill()
            proc.wait()


# --- replay workloads -----------------------------------------------------

def replay_requests(stream, rng):
    reqs = []
    for kernel, scale in replay_inputs(rng):
        path = trace_path(kernel, scale)
        argv = ["simulate", "-t", path] + (["--stream"] if stream else [])
        reqs.append((f"trace/{kernel}@{scale}", kernel, path, argv))
    if stream:
        kernel, scale = text_input(rng)
        path = trace_path(kernel, scale, "txt")
        reqs.append((f"text/{kernel}@{scale}", None, path,
                     ["simulate", "--stream", "--format", "text", "-t", path]))
    return reqs


def replay_setup(reqs, pool):
    jobs = []
    for key, _, path, _ in reqs:
        kernel, scale = key.split("/")[1].split("@")
        jobs.append(("text" if path.endswith(".txt") else "gen",
                     kernel, scale, path))
    generate(jobs, pool)


def v5_mips(stdout):
    for line in stdout.splitlines():
        if line.startswith("xc5vlx50t"):
            return float(line.split()[1])
    return None


def replay_request(req, checker):
    """One CLI run. A non-zero exit or a missing metrics file is a
    failed request (ok False), not an abort of the run."""
    key, kernel, path, argv = req
    metrics = os.path.join(WORK, "metrics.json")
    if os.path.exists(metrics):
        os.remove(metrics)
    wall, rss, out, code = run([CLI, *argv, "--metrics", metrics],
                               check=False)
    result = {"key": key, "kernel": kernel, "wall": wall, "rss": rss,
              "ok": False, "committed": 0, "v5_mips": None}
    if code != 0 or not os.path.exists(metrics):
        return result
    with open(metrics) as f:
        stats = json.load(f)
    result.update(ok=checker.check(key, stats),
                  committed=stats["counters"]["committed"],
                  v5_mips=v5_mips(out))
    return result


def replay_measure(reqs, seconds, rng, checker):
    """Whole rounds (every request once, seeded order) until the next
    round would overrun the measuring window, so every trace weighs the
    same in the quantiles."""
    results, round_walls = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if round_walls and elapsed + statistics.median(round_walls) > seconds:
            break
        start = time.perf_counter()
        order = list(reqs)
        rng.shuffle(order)
        for r in order:
            results.append(dict(replay_request(r, checker),
                                round=len(round_walls)))
        round_walls.append(time.perf_counter() - start)
    return results


def table1_err(errs):
    """Mean of the per-run errors; None when no Table-1 run succeeded
    (the run is then failed anyway)."""
    return statistics.mean(errs) if errs else None


def replay_metrics(results):
    errs = {}
    for r in results:
        if r["ok"] and r["kernel"] in PAPER_V5 and r["v5_mips"] is not None:
            paper = PAPER_V5[r["kernel"]][0]  # reference config = left
            errs[r["key"]] = abs(r["v5_mips"] - paper) / paper * 100
    rounds = {}
    for r in results:
        rounds.setdefault(r["round"], []).append(r)

    # Every figure is a median over rounds of the round's own figure, so
    # one slow round does not move it.
    def per_round(figure):
        return statistics.median(figure(rnd) for rnd in rounds.values())

    def wall(rnd):
        return sum(r["wall"] for r in rnd)

    def walls_q(q):
        return per_round(lambda rnd: quantile([r["wall"] for r in rnd], q))
    return {
        "host_mips": per_round(
            lambda rnd: sum(r["committed"] for r in rnd) / wall(rnd)) / 1e6,
        "request_p50_ms": walls_q(0.5) * 1000,
        "request_p90_ms": walls_q(0.9) * 1000,
        "jobs_per_s": per_round(
            lambda rnd: sum(r["ok"] for r in rnd) / wall(rnd)),
        "peak_rss_mb": max(r["rss"] for r in results),
        "table1_err_pct": table1_err(list(errs.values())),
    }


# --- sweep workload -------------------------------------------------------

SWEEP_JOBS = 14  # the `sweep --quick` grid


def sweep_request(checker):
    """One CLI sweep. A non-zero exit or a missing metrics file fails
    all its jobs (ok False), not the run."""
    metrics = os.path.join(WORK, "sweep.json")
    if os.path.exists(metrics):
        os.remove(metrics)
    wall, rss, out, code = run([CLI, "sweep", "--quick", "-j", str(JOBS),
                                "--metrics", metrics], check=False)
    result = {"wall": wall, "rss": rss, "ok": [False] * SWEEP_JOBS,
              "err": None, "committed": 0}
    if code != 0 or not os.path.exists(metrics):
        return result
    with open(metrics) as f:
        jobs = json.load(f)["jobs"]
    ok = [j["outcome"] == "ok"
          and checker.check(f"sweep/{i}/{j['label']}", j["metrics"])
          for i, j in enumerate(jobs)]
    ok += [False] * (SWEEP_JOBS - len(ok))  # jobs the report lacks
    errs = []
    for line in out.splitlines():
        cols = line.split()
        if cols and cols[0].startswith("table1-"):
            side, kernel = cols[0].split(":")
            paper = PAPER_V5[kernel][0 if side == "table1-left" else 1]
            errs.append(abs(float(cols[8]) - paper) / paper * 100)
    if len(errs) != 10:  # a Table-1 row is missing: fail them all
        return result
    return dict(result, ok=ok, err=statistics.mean(errs),
                committed=sum(j["metrics"]["counters"]["committed"]
                              for j in jobs if j["metrics"]))


def sweep_measure(seconds, checker):
    results = []
    t0 = time.perf_counter()
    while not results or (time.perf_counter() - t0
                          + statistics.median(r["wall"] for r in results)
                          <= seconds):
        results.append(sweep_request(checker))
    return results


def sweep_metrics(results):
    walls = [r["wall"] for r in results]
    return {
        "host_mips": statistics.median(r["committed"] / r["wall"] / 1e6
                                       for r in results),
        "request_p50_ms": quantile(walls, 0.5) * 1000,
        "request_p90_ms": quantile(walls, 0.9) * 1000,
        "jobs_per_s": statistics.median(sum(r["ok"]) / r["wall"]
                                        for r in results),
        "peak_rss_mb": max(r["rss"] for r in results),
        "table1_err_pct": table1_err([r["err"] for r in results
                                      if r["err"] is not None]),
    }


# --- served workload ------------------------------------------------------

SOCKET = os.path.join(WORK, "resimd.sock")


def served_key(kernel, scale, cfg):
    return f"served/{kernel}@{scale}/" + ("ref" if cfg is None else
                                         "w{}r{}l{}".format(*cfg))


def served_input(key):
    """The helper's TRACE,WIDTH,ROB,LSQ input for a served key."""
    _, trace, cfg = key.split("/")
    kernel, scale = trace.split("@")
    fields = ["-"] * 3 if cfg == "ref" else \
        cfg[1:].replace("r", " ").replace("l", " ").split()
    return ",".join([trace_path(kernel, scale), *fields])


def served_plan(rng, clients):
    """Per client: fresh keys (misses) with every HIT_EVERY-th request
    resubmitting one of that client's earlier requests (a planned hit:
    the client waited for it, so it is cached)."""
    keys = [(k, s, c) for k, s in SERVED_TRACES for c in SERVED_CONFIGS]
    rng.shuffle(keys)
    plan = []
    for client in range(clients):
        mine = keys[client::clients]
        done = []
        for key in mine:
            if done and len(done) % HIT_EVERY == HIT_EVERY - 1:
                plan.append((client, "hit", rng.choice(
                    [d for d in done if d[0] == "miss"])[1]))
                done.append(("hit", None))
            plan.append((client, "miss", key))
            done.append(("miss", key))
    return plan


def write_plan(path, plan):
    with open(path, "w") as f:
        for client, kind, (kernel, scale, cfg) in plan:
            fields = ("-", "-", "-") if cfg is None else cfg
            f.write("{} {} {} {} {} {} {}\n".format(
                client, served_key(kernel, scale, cfg), kind,
                trace_path(kernel, scale), *fields))


class Daemon:
    def __init__(self, workers):
        cache = os.path.join(WORK, "cache")
        shutil.rmtree(cache, ignore_errors=True)  # fresh for every daemon
        os.makedirs(cache)
        if os.path.exists(SOCKET):  # left by a daemon that was killed
            os.remove(SOCKET)
        # At most nproc clients, one request each in flight: a queue of
        # 64 and a quota of 4 per client never refuse at this load.
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", SOCKET, "--workers", str(workers),
             "--max-queue", "64", "--max-per-client", "4",
             "--cache-dir", cache],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.time() + 30
        while not os.path.exists(SOCKET):
            if self.proc.poll() is not None or time.time() > deadline:
                self.stop()
                raise BenchError("resim serve did not come up")
            time.sleep(0.02)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve_load(plan, seconds, name, spans=None):
    plan_path = os.path.join(WORK, f"{name}.plan")
    out = os.path.join(WORK, f"{name}.jsonl")
    write_plan(plan_path, plan)
    args = ["serve-load", SOCKET, plan_path, seconds, out]
    summary = helper(*args, *([spans] if spans else []),
                     timeout=seconds + TIMEOUT)
    with open(out) as f:
        jobs = [json.loads(line) for line in f]
    return summary, jobs


def served_check(jobs, checker):
    for j in jobs:
        j["ok"] = (j["outcome"] == "ok" and j.get("exit") == 0
                   and checker.check(j["key"], json.loads(j["metrics"])))
    return jobs


def served_setup(workers, checker):
    generate([("gen", k, s, trace_path(k, s)) for k, s in SERVED_TRACES],
             workers)
    daemon = Daemon(workers)
    try:
        warm = [(0, "warm", (k, s, None)) for k, s in SERVED_TRACES]
        _, jobs = serve_load(warm, TIMEOUT, "warmup")
        served_check(jobs, checker)
        if len(jobs) != len(warm) or not all(j["ok"] for j in jobs):
            raise BenchError("served warm-up failed")
    except BaseException:
        daemon.stop()
        raise
    errs = [abs(j["v5_mips"] - PAPER_V5[k][0]) / PAPER_V5[k][0] * 100
            for j, (k, _) in zip(jobs, SERVED_TRACES)]
    return daemon, statistics.mean(errs)


def served_metrics(summary, jobs, daemon, err):
    lat = [j["latency_ms"] for j in jobs]
    width = summary["wall_s"] / SLICES
    done, committed = [0] * SLICES, [0] * SLICES
    for j in jobs:
        if not j["ok"]:
            continue
        k = min(int(j["done_s"] / width), SLICES - 1)
        done[k] += 1
        if not j["cached"]:
            committed[k] += json.loads(j["metrics"])["counters"]["committed"]
    return {
        "host_mips": statistics.median(committed) / width / 1e6,
        "request_p50_ms": quantile(lat, 0.5),
        "request_p90_ms": quantile(lat, 0.9),
        "jobs_per_s": statistics.median(done) / width,
        "peak_rss_mb": daemon.peak_rss_mb(),
        "table1_err_pct": err,
    }


def served_layer_metrics(summary, jobs):
    def p50(kind):
        xs = [j["latency_ms"] for j in jobs if j["kind"] == kind]
        if not xs:
            raise BenchError(f"traced served session ran no {kind} job")
        return statistics.median(xs)
    done = [j for j in jobs if j["outcome"] != "rejected"]
    return {
        "serve.accept_ms": statistics.median(
            j["accept_ms"] for j in jobs if j["accept_ms"] is not None),
        "serve.miss_ms": p50("miss"),
        "serve.hit_ms": p50("hit"),
        "serve.cache_hit_ratio": sum(1 for j in done if j.get("cached"))
        / max(1, len(done)),
        "serve.rejected": sum(1 for j in jobs if j["outcome"] == "rejected"),
        "serve.status_rtt_ms": summary["status_rtt_ms"],
    }


# --- orchestration --------------------------------------------------------

def provenance(args):
    def output(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None
    # Only the checkout's own repository, never an enclosing one.
    commit = output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") \
        else None
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                with open(os.path.join(d, name), "rb") as f:
                    h.update(name.encode() + f.read())
    ocaml = output(["ocamlopt", "-version"])
    return {"commit": commit, "source_sha256": h.hexdigest()[:16],
            "nproc": nproc(), "ocaml": ocaml, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "clients": JOBS, "workers": JOBS, "domains": JOBS}


SETUPS = 3  # set-ups per end-to-end pass; setup_s is their median


def set_up(step, times):
    """Run the set-up `step` `times` times; returns (median seconds,
    the last set-up's result)."""
    walls = []
    for _ in range(times):
        t0 = time.perf_counter()
        result = step()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), result


def measure(args, checker, keep_daemon=False, setups=SETUPS):
    """One end-to-end pass; returns (metrics, attempted, failed, detail).
    With keep_daemon, a served pass leaves its daemon running for the
    caller (in detail["daemon"])."""
    rng = random.Random(f"{args.workload}/{args.seed}")
    n = JOBS
    seconds = args.seconds
    detail = {}
    if args.workload in ("replay-file", "replay-stream"):
        stream = args.workload == "replay-stream"
        reqs = replay_requests(stream, rng)
        setup, _ = set_up(lambda: replay_setup(reqs, n), setups)
        results = replay_measure(reqs, seconds, rng, checker)
        m = replay_metrics(results)
        oks = [r["ok"] for r in results]
        detail = {"requests": results, "inputs": reqs}
    elif args.workload == "sweep":
        def warm_up():  # one small simulate per Table-1 kernel
            for kernel in PAPER_V5:
                run([CLI, "simulate", "-k", kernel, "-s", "256"])
        setup, _ = set_up(warm_up, setups)
        results = sweep_measure(seconds, checker)
        m = sweep_metrics(results)
        oks = [ok for r in results for ok in r["ok"]]
        detail = {"sweeps": results}
    else:
        def start():  # each set-up but the last stops its daemon
            started.append(served_setup(n, checker))
            if len(started) < setups:
                started[-1][0].stop()
        started = []
        setup, _ = set_up(start, setups)
        daemon, err = started[-1]
        try:
            summary, jobs = serve_load(served_plan(rng, n), seconds, "load")
            served_check(jobs, checker)
            m = served_metrics(summary, jobs, daemon, err)
            detail = {"summary": summary, "jobs": jobs, "daemon": daemon}
        except BaseException:
            daemon.stop()
            raise
        if not keep_daemon:
            daemon.stop()
        oks = [j["ok"] for j in jobs]
    attempted = len(oks)
    failed = oks.count(False)
    m["setup_s"] = setup
    m["ok_ratio"] = (attempted - failed) / attempted
    return m, attempted, failed, detail


def traced(args, checker):
    """The per-layer run: set-up (on served a short untraced load, for
    the misses to reconcile), the helper's traced layer suite, the
    untraced requests its replicas are reconciled with, and a traced
    served session."""
    n = JOBS
    attempted = failed = 0
    detail = {}
    if args.workload == "served":
        short = argparse.Namespace(**vars(args))
        short.seconds = max(1, int(args.seconds * 0.35))
        _, attempted, failed, detail = measure(short, checker,
                                               keep_daemon=True, setups=1)
    elif args.workload.startswith("replay"):
        detail["inputs"] = replay_requests(
            args.workload == "replay-stream",
            random.Random(f"{args.workload}/{args.seed}"))
        replay_setup(detail["inputs"], n)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    layer_spans = os.path.join(WORK, "layer-spans.jsonl")
    serve_spans = os.path.join(WORK, "serve-spans.jsonl")
    inputs, misses = [], []
    if args.workload.startswith("replay"):
        inputs = [path for _, _, path, _ in detail["inputs"]]
    elif args.workload == "served":
        # The first completed misses, replicated at their own
        # configurations.
        misses = [j for j in detail["jobs"]
                  if j["kind"] == "miss" and j["ok"]][:RECONCILE_MISSES]
        if not misses:
            raise BenchError("traced served pass completed no miss")
        inputs = [served_input(j["key"]) for j in misses]
    try:
        layers = helper("layers", args.workload, WORK, n, layer_spans,
                        *inputs, timeout=TIMEOUT)
        # The CLI requests that the helper's replicas (timed last) and
        # its pool run are reconciled with run right after it, so that a
        # change of host speed between the two does not show as
        # unaccounted time.
        after_oks, after_wall = [], None
        if args.workload.startswith("replay"):
            after = [replay_request(r, checker) for r in detail["inputs"]]
            after_oks = [r["ok"] for r in after]
            after_wall = sum(r["wall"] for r in after)
        elif args.workload == "sweep":
            after = sweep_request(checker)
            after_oks = after["ok"]
            # domain-seconds: the CLI's wall on as many domains
            after_wall = after["wall"] * n
        if args.workload == "served":
            daemon = detail["daemon"]
            rest = served_plan(random.Random(f"traced/{args.seed}"), n)
            used = {j["key"] for j in detail["jobs"]}
            rest = [p for p in rest if served_key(*p[2]) not in used
                    or p[1] == "hit"]
        else:
            generate([("gen", k, s, trace_path(k, s))
                      for k, s in SERVED_TRACES], n)
            daemon = Daemon(n)
            rest = served_plan(random.Random(f"traced/{args.seed}"), n)
        try:
            # at least 4 s, so planned hits (every 4th request) occur
            summary, jobs = serve_load(rest, max(4, int(args.seconds * 0.25)),
                                       "traced", serve_spans)
        finally:
            daemon.stop()
    finally:
        if "daemon" in detail:
            detail["daemon"].stop()
    served_check(jobs, checker)
    out = dict(layers["metrics"])
    out.update(served_layer_metrics(summary, jobs))
    # Reconciliation: traced layer time of the workload's request
    # against the untraced end-to-end wall of the same request.
    if args.workload.startswith("replay"):
        e2e = after_wall
        layer = sum(layers["replica_s"].values())
    elif args.workload == "sweep":
        # job-run time summed over the pool's domains
        e2e = after_wall
        layer = layers["pool_busy_s"]
    else:
        e2e = sum(j["latency_ms"] for j in misses) / 1000
        layer = sum(layers["replica_s"][i] + j["accept_ms"] / 1000
                    for i, j in zip(inputs, misses))
    out["bench.unaccounted_ratio"] = 1 - layer / e2e
    with open(spans, "w") as f:
        for path in (layer_spans, serve_spans):
            with open(path) as src:
                f.write(src.read())
    oks = [j["ok"] for j in jobs] + after_oks
    return out, attempted + len(oks), failed + oks.count(False), {
        "self_s": layers["self_s"], "spans": spans}


def request_log(detail):
    """Every timed request of an end-to-end pass, for the result file."""
    if "requests" in detail:
        return [{k: r[k] for k in ("key", "round", "wall", "rss", "ok")}
                for r in detail["requests"]]
    if "sweeps" in detail:
        return [{"wall": r["wall"], "rss": r["rss"], "ok": all(r["ok"])}
                for r in detail["sweeps"]]
    return [{k: j.get(k) for k in ("client", "key", "kind", "done_s",
                                   "latency_ms", "accept_ms", "cached",
                                   "outcome", "ok")}
            for j in detail["jobs"]]


def prepare():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            raise BenchError(f"not a ReSim checkout: {need} is missing "
                             f"(run from the repository root)")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    # No shared dune cache: the benchmark writes only inside its checkout.
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           capture_output=True, text=True, timeout=900,
                           env={**os.environ, "DUNE_CACHE": "disabled"})
    if build.returncode != 0:
        raise BenchError("build failed:\n" + build.stderr[-4000:])
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(OUT, exist_ok=True)


def write_pins():
    checker = Checker(write=True)
    n = JOBS
    reqs = []
    for kernel, base, step in REPLAY:
        for i in range(STEPS if step else 1):
            s = base + step * i
            reqs.append((f"trace/{kernel}@{s}", kernel, trace_path(kernel, s),
                         ["simulate", "-t", trace_path(kernel, s)]))
    k, base, step = TEXT
    for i in range(STEPS):
        p = trace_path(k, base + step * i, "txt")
        reqs.append((f"text/{k}@{base + step * i}", None, p,
                     ["simulate", "--stream", "--format", "text", "-t", p]))
    replay_setup(reqs, n)
    for r in reqs:
        replay_request(r, checker)
    sweep_request(checker)
    daemon, _ = served_setup(n, checker)
    try:
        plan = [(i % n, "miss", (k, s, c)) for i, (k, s, c) in enumerate(
            (k, s, c) for k, s in SERVED_TRACES for c in SERVED_CONFIGS)]
        _, jobs = serve_load(plan, 10 * TIMEOUT, "pins")
        served_check(jobs, checker)
    finally:
        daemon.stop()
    with open(PINS, "w") as f:
        json.dump(checker.pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(checker.pins)} pins to {PINS}")


def self_test():
    """A wrong pin must be caught: run one small pinned request against
    the real pins (must pass) and against a corrupted copy (must fail)."""
    kernel, scale = SERVED_TRACES[-1]
    key = served_key(kernel, scale, None)
    generate([("gen", kernel, scale, trace_path(kernel, scale))], 1)
    req = (key, None, trace_path(kernel, scale),
           ["simulate", "--stream", "-t", trace_path(kernel, scale)])
    good = Checker()
    if not replay_request(req, good)["ok"]:
        raise BenchError(f"self-test: correct pin rejected: {good.mismatches}")
    for field in ("cycles", "committed", "digest"):
        pins = json.loads(json.dumps(good.pins))
        pins[key][field] = (pins[key][field] + 1 if field != "digest"
                            else "0" * 20)
        bad = Checker(pins=pins)
        if replay_request(req, bad)["ok"] or not bad.mismatches:
            raise BenchError(f"self-test: wrong {field} pin was not caught")
    log("self-test: wrong pins caught (cycles, committed, digest)")


def main():
    # SIGTERM unwinds through the finally blocks that stop the daemon
    # and any helper still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        prepare()
        if args.write_pins:
            return write_pins()
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        prov = provenance(args)
        # Core budget: no tier may oversubscribe the host.
        over = {k: prov[k] for k in ("clients", "workers", "domains")
                if prov[k] > prov["nproc"]}
        if over:
            raise BenchError(f"{over} exceed nproc = {prov['nproc']}")
        checker = Checker()
        if args.trace:
            metrics, attempted, failed, detail = traced(args, checker)
            units = PER_LAYER
        else:
            metrics, attempted, failed, detail = measure(args, checker)
            units = END_TO_END
        prov["runs"] = attempted
        correct = failed == 0 and not checker.mismatches
        record = {"provenance": prov, "metrics": metrics,
                  "attempted": attempted, "failed": failed,
                  "mismatches": checker.mismatches}
        if not args.trace:
            record["requests"] = request_log(detail)
        else:
            record["self_s"] = detail["self_s"]
            record["spans"] = detail["spans"]
            if metrics["bench.unaccounted_ratio"] > 0.5:
                log(f"{args.workload}: layer spans leave "
                    f"{metrics['bench.unaccounted_ratio']:.0%} of the "
                    f"request wall unexplained")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as f:
            json.dump(record, f, indent=1)
        for m in checker.mismatches:
            log(f"pin mismatch: {m}")
        print(json.dumps({"provenance": prov}))
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

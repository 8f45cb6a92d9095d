#!/usr/bin/env python3
"""Benchmark of the rmp analysis system: one-shot synthesis, one-shot
contract synthesis, and the serve daemon under a closed-loop request mix.

    python3 rmpbench/run.py --workload mcva-synth|contracts-tiny|daemon-mix
                            --seed N --seconds S --trace 0|1
    python3 rmpbench/run.py --workload all ...   # every workload, one table
    python3 rmpbench/run.py --self-test          # reduced-size check

Builds the program and the harness (rmpbench/src) from the checkout into
.bench_build, runs the workload, checks its outputs, prints one line per
metric (name, value, unit, sample count), and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, from a separate traced run. README.md in this
directory says what each workload and metric means and why.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
HARNESS = BUILD / "rmpbench"
RMP = BUILD / "tools" / "rmp"

WORKLOADS = ("mcva-synth", "contracts-tiny", "daemon-mix")
ONESHOT = ("mcva-synth", "contracts-tiny")
# No harness process may outlive this, so a run ends within 180 s.
PROC_TIMEOUT = 170
# Set-up-only processes per one-shot run: set-up takes 10-60 ms, so
# twenty more samples steady its median at negligible cost.
SETUP_SAMPLES = 20
# Pool threads a one-shot job runs with (oneshot.cc kJobs).
ONESHOT_JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "determined_frac": "fraction",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "sat.solve_s": "s", "sat.conflicts": "count", "sat.propagations": "count",
    "sat.props_per_s": "1/s", "sat.learned": "count", "sat.gc_passes": "count",
    "bmc.cover_s": "s", "bmc.unroll_s": "s", "bmc.aig_nodes": "count",
    "bmc.cnf_clauses": "count", "bmc.queries": "count",
    "bmc.undetermined": "count", "bmc.core_hits": "count",
    "exec.lanes_built": "count", "exec.lane_busy_frac": "fraction",
    "exec.queue_wait_ms.p50": "ms", "exec.admission_wait_ms": "ms",
    "exec.cache_hit_frac": "fraction",
    "sim.explore_s": "s", "sim.runs": "count", "sim.cycles_per_s": "1/s",
    "sim.taint_s": "s",
    "r2m.synth_s": "s", "r2m.step1_s": "s", "r2m.step4_s": "s",
    "r2m.upaths": "count", "r2m.decisions": "count",
    "designs.build_ms": "ms", "analysis.facts_ms": "ms",
    "analysis.covers_pruned": "count", "analysis.op_ms.p50": "ms",
    "ift.instrument_ms": "ms",
    "slc.analyze_s": "s", "slc.queries": "count",
    "slc.sim_hit_frac": "fraction", "slc.undetermined": "count",
    "contracts.derive_ms": "ms", "contracts.signatures": "count",
    "report.render_ms": "ms",
    "store.hits": "count", "store.misses": "count", "store.writes": "count",
    "store.blob_writes": "count", "store.flush_ms": "ms",
    "serve.compute_ms.p50": "ms", "serve.overhead_ms.p50": "ms",
    "serve.rejected": "count", "serve.drain_ms": "ms",
    "obs.trace_overhead_frac": "fraction",
}
# Share of the traced job's wall time each layer accounts for.
LAYERS = ("sat", "bmc", "exec", "sim", "r2m", "designs", "analysis", "slc",
          "contracts", "report", "store", "serve", "bench")
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_frac"] = "fraction"

# Span name -> layer, for the program's obs spans and the harness's own.
SPAN_LAYER = {
    "sat-solve": "sat",
    "bmc-cover": "bmc", "bmc-unroll": "bmc", "witness-extract": "bmc",
    # parallelFor fans simulation batches (exploration, taint filter).
    "pool-lane": "exec", "pool-batch": "exec", "parallel-for": "sim",
    "store-flush": "store",
    "sim-explore": "sim", "slc-sim-filter": "sim",
    "r2m-synthesize": "r2m", "r2m-explore-all": "r2m",
    "slc-analyze": "slc",
    "job": "bench", "setup": "bench",
    "designs.build": "designs",
    "r2m.construct": "r2m", "r2m.synthesizeAll": "r2m",
    "slc.construct": "slc", "slc.analyze": "slc",
    "contracts.derive": "contracts", "report.render": "report",
}


# Spans that wait on work running on other tracks.
ORCHESTRATION = {"r2m-synthesize", "r2m-explore-all", "pool-batch",
                 "parallel-for", "slc-analyze", "slc-sim-filter"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not produce a result (as opposed to a result
    whose checks failed)."""


# ---------------------------------------------------------------- build

def build():
    """Configure once, then build the program and the harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources next to {HERE.name}/ "
                         f"(expected {ROOT}/CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_build(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DCMAKE_PROJECT_INCLUDE={HERE / 'rmpbench.cmake'}"])
    run_build(["cmake", "--build", str(BUILD), "--target", "rmp",
               "rmpbench", "-j", jobs])


def run_build(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


# ------------------------------------------------------------ processes

def fresh_dir(tag):
    d = WORK / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    d.mkdir(parents=True)
    return d


def run_harness(args, cwd, env_extra=None, timeout=PROC_TIMEOUT):
    """Run the harness in its own process group; returns (rc, last JSON
    line or None, wall seconds). The whole group (a daemon child too) is
    killed if it overruns."""
    env = dict(os.environ)
    env.update(env_extra or {})
    t0 = time.monotonic()
    p = subprocess.Popen([str(HARNESS)] + args, cwd=cwd, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.communicate()
        log(f"rmpbench {' '.join(args)}: timed out after {timeout} s")
        return -1, None, time.monotonic() - t0
    wall = time.monotonic() - t0
    stop_group(p.pid)  # a daemon left behind by a harness that crashed
    if err.strip():
        log(err.rstrip())
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        data = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        data = None
    return p.returncode, data, wall


def stop_group(pgid):
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def checks(self, data, what):
        """One operation per process, failed by any failed check."""
        bad = [c for c in (data or {}).get("checks", []) if not c["ok"]]
        if data is None:
            self.record(False, f"{what}: no result")
        else:
            self.record(not bad, f"{what}: " + "; ".join(
                f"{c['name']} ({c['detail']})" for c in bad))


def program_hash():
    """Content hash of the built harness, which links the whole program:
    outputs are compared across runs of the same build only, since a
    legitimate program change may pick other witnesses."""
    h = hashlib.sha256()
    with HARNESS.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def remember_digest(workload, seed, digest, ops, what):
    """Outputs of one seed must be identical in every run of one build,
    traced or not: compare with (and record into) the checkout's digest
    record, which holds the digests of the current build only."""
    path = BUILD / "digests.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        record = {}
    program = program_hash()
    known = record.get("digests", {}) if record.get("program") == program \
        else {}
    key = f"{workload}|{seed}"
    ops.record(known.get(key, digest) == digest,
               f"{what}: output digest {digest} differs from an earlier run "
               f"of seed {seed} ({known.get(key)})")
    known.setdefault(key, digest)
    path.write_text(json.dumps({"program": program, "digests": known},
                               indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------ statistics

def median(xs):
    return statistics.median(xs)


def pct(xs, q):
    """The q-th percentile (nearest rank) of xs, or None when fewer than
    ten samples lie beyond it."""
    xs = sorted(xs)
    if not xs:
        return None
    k = max(0, math.ceil(q / 100.0 * len(xs)) - 1)
    if len(xs) - 1 - k < 10:
        return None
    return xs[k]


class Table:
    """Metrics with their unit and sample count, printed one per line."""

    def __init__(self, workload):
        self.workload = workload
        self.rows = {}

    def put(self, name, value, unit, n):
        self.rows[name] = (value, unit, n)

    def print(self):
        for name, (value, unit, n) in self.rows.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{self.workload:15s} {name:28s} {shown:>14s} {unit:9s} "
                  f"n={n}")


# ---------------------------------------------------------- one-shot

def oneshot_proc(workload, seed, flags, tag):
    d = fresh_dir(tag)
    try:
        rc, data, wall = run_harness(
            ["oneshot", workload, "--seed", str(seed)] + flags, cwd=d,
            env_extra={"RMP_CACHE_DIR": str(d / "cache")})
    finally:
        shutil.rmtree(d, ignore_errors=True)
    if rc != 0:
        data = None
    return data, wall


def oneshot_timed(workload, seed, seconds, ops, table):
    """Fresh full processes while another one fits in the time budget,
    then set-up-only processes; medians over both."""
    jobs, setups, walls = [], [], []
    t0 = time.monotonic()
    while not jobs or (time.monotonic() - t0 + median(walls) <= seconds):
        data, wall = oneshot_proc(workload, seed, [], "job")
        walls.append(wall)
        ops.checks(data, f"{workload} job")
        if data is None:
            break
        jobs.append(data)
        setups.append(data["setup_ns"] * 1e-9)
    for _ in range(SETUP_SAMPLES):
        data, _ = oneshot_proc(workload, seed, ["--setup-only"], "setup")
        ops.checks(data, f"{workload} set-up")
        if data:
            setups.append(data["setup_ns"] * 1e-9)
    digests = {j["digest"] for j in jobs}
    ops.record(len(digests) == 1,
               f"{workload}: {len(digests)} different outputs for one seed")
    if len(digests) == 1:
        remember_digest(workload, seed, digests.pop(), ops, workload)
    if not jobs or not setups:
        raise BenchError(f"{workload}: no job completed")
    table.put("setup_s", median(setups), "s", len(setups))
    table.put("job_s", median(j["job_ns"] * 1e-9 for j in jobs), "s",
              len(jobs))
    table.put("peak_rss_mb", median(j["maxrss_kb"] / 1024 for j in jobs),
              "MB", len(jobs))
    table.put("determined_frac",
              median(j["decided"] / j["evaluated"] for j in jobs),
              "fraction", len(jobs))
    return jobs


def oneshot_traced(workload, seed, seconds, ops, table):
    """Untraced and traced jobs in alternation (at least one pair), then
    one audited job; per-layer metrics from the last traced job."""
    plain, traced, walls = [], [], []
    t0 = time.monotonic()
    while not traced or (time.monotonic() - t0 + median(walls) <= seconds):
        data, wall = oneshot_proc(workload, seed, [], "plain")
        ops.checks(data, f"{workload} untraced job")
        d = fresh_dir("traced")
        spans, trace = d / "spans.json", d / "trace.json"
        rc, tdata, twall = run_harness(
            ["oneshot", workload, "--seed", str(seed), "--obs", "--spans",
             str(spans), "--trace-out", str(trace)], cwd=d,
            env_extra={"RMP_CACHE_DIR": str(d / "cache")})
        tdata = tdata if rc == 0 else None
        ops.checks(tdata, f"{workload} traced job")
        walls.append(wall + twall)
        if data is None or tdata is None:
            shutil.rmtree(d, ignore_errors=True)
            raise BenchError(f"{workload}: traced pair failed")
        plain.append(data)
        tdata["spans"] = json.loads(spans.read_text())
        tdata["trace"] = json.loads(trace.read_text())["traceEvents"]
        shutil.rmtree(d, ignore_errors=True)
        traced.append(tdata)
    audit, _ = oneshot_proc(workload, seed, ["--audit"], "audit")
    ops.checks(audit, f"{workload} audited job")
    digests = {x["digest"] for x in plain + traced + ([audit] if audit else [])}
    ops.record(len(digests) == 1,
               f"{workload}: traced, untraced and audited outputs differ")
    if len(digests) == 1:
        remember_digest(workload, seed, digests.pop(), ops, workload)

    overhead = (median(x["job_ns"] for x in traced) /
                median(x["job_ns"] for x in plain) - 1.0)
    layer_metrics(table, traced[-1], overhead, len(traced))


def layer_metrics(table, t, overhead, n):
    """Per-layer metrics of one traced one-shot process."""
    tl, reg = t["tallies"], t["registry"]
    spans = t["spans"]
    marker = next(e for e in t["trace"] if e.get("name") == "rmpbench.epoch")
    epoch = t["marker_end_ns"] - int(marker["ts"] * 1000)
    events = [(epoch + int(e["ts"] * 1000), epoch + int(
        (e["ts"] + e["dur"]) * 1000), e["name"], e["tid"])
        for e in t["trace"]
        if e.get("ph") == "X" and e["name"] != "rmpbench.epoch"]
    total = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "job")

    def span_s(name):
        return sum(e[1] - e[0] for e in events if e[2] == name) * 1e-9

    def bench_ms(name):
        return sum(s["t1"] - s["t0"] for s in spans
                   if s["name"] == name) * 1e-6

    solve_s = self_seconds(events, "sat-solve")
    explore_s = self_seconds(events, "sim-explore")
    put = table.put
    put("sat.solve_s", solve_s, "s", n)
    put("sat.conflicts", tl["sat_conflicts"], "count", n)
    put("sat.propagations", tl["sat_propagations"], "count", n)
    put("sat.props_per_s", tl["sat_propagations"] / solve_s if solve_s else 0,
        "1/s", n)
    put("sat.learned", tl["sat_learned"], "count", n)
    put("sat.gc_passes", tl["sat_gc_passes"], "count", n)
    put("bmc.cover_s", span_s("bmc-cover"), "s", n)
    put("bmc.unroll_s", span_s("bmc-unroll"), "s", n)
    put("bmc.aig_nodes", tl["bmc_aig_nodes"], "count", n)
    put("bmc.cnf_clauses", reg["cnf_clauses"], "count", n)
    put("bmc.queries", tl["bmc_queries"], "count", n)
    put("bmc.undetermined", tl["bmc_undetermined"], "count", n)
    put("bmc.core_hits", tl["bmc_core_hits"], "count", n)
    lookups = tl["exec_cache_hits"] + tl["exec_cache_misses"]
    put("exec.lanes_built", tl["exec_lanes_built"], "count", n)
    put("exec.lane_busy_frac", reg["lane_busy_ns"] / (ONESHOT_JOBS * total),
        "fraction", n)
    put("exec.queue_wait_ms.p50", reg["queue_wait_p50_ns"] * 1e-6, "ms",
        reg["queue_waits"])
    put("exec.admission_wait_ms", reg["admission_wait_ns"] * 1e-6, "ms", n)
    put("exec.cache_hit_frac", tl["exec_cache_hits"] / lookups
        if lookups else 0, "fraction", n)
    put("sim.explore_s", explore_s, "s", n)
    put("sim.runs", reg["sim_runs"], "count", n)
    put("sim.cycles_per_s", reg["sim_cycles"] / explore_s if explore_s else 0,
        "1/s", n)
    put("sim.taint_s", span_s("slc-sim-filter"), "s", n)
    put("r2m.synth_s", bench_ms("r2m.synthesizeAll") * 1e-3, "s", n)
    put("r2m.step1_s", tl["r2m_step1_s"], "s", n)
    put("r2m.step4_s", tl["r2m_step4_s"], "s", n)
    put("r2m.upaths", tl["r2m_upaths"], "count", n)
    put("r2m.decisions", tl["r2m_decisions"], "count", n)
    put("designs.build_ms", bench_ms("designs.build"), "ms", n)
    put("analysis.facts_ms", t["facts_ns"] * 1e-6, "ms", n)
    put("analysis.covers_pruned", tl["bmc_static_pruned"], "count", n)
    put("analysis.op_ms.p50", 0, "ms", 0)
    put("ift.instrument_ms", t["instrument_ns"] * 1e-6, "ms", n)
    put("slc.analyze_s", bench_ms("slc.analyze") * 1e-3, "s", n)
    put("slc.queries", tl["slc_queries"], "count", n)
    considered = tl["slc_queries"] + tl["slc_sim_hits"]
    put("slc.sim_hit_frac", tl["slc_sim_hits"] / considered
        if considered else 0, "fraction", n)
    put("slc.undetermined", tl["slc_undetermined"], "count", n)
    put("contracts.derive_ms", bench_ms("contracts.derive"), "ms", n)
    put("contracts.signatures", tl["contracts_signatures"], "count", n)
    put("report.render_ms", bench_ms("report.render"), "ms", n)
    for name in ("store.hits", "store.misses", "store.writes",
                 "store.blob_writes", "store.flush_ms",
                 "serve.compute_ms.p50", "serve.overhead_ms.p50",
                 "serve.rejected", "serve.drain_ms"):
        put(name, 0, PER_LAYER[name], 0)
    put("obs.trace_overhead_frac", overhead, "fraction", n)

    shares = attribute(spans, events)
    for layer in LAYERS:
        put(layer + ".self_frac", shares.get(layer, 0.0), "fraction", n)


def self_seconds(events, name):
    """Seconds spans called @p name spend not covered by a span nested in
    them on the same track (nested same-name spans count once)."""
    total = 0
    for seg in leaf_segments(events).values():
        total += sum(t1 - t0 for t0, t1, label in seg if label == name)
    return total * 1e-9


def leaf_segments(items):
    """Per track: the innermost span at every instant, as (t0, t1, name)
    segments. @p items are (t0, t1, name, track); a span that overhangs
    the span it starts in (clock rounding) is clamped to it."""
    by_track = {}
    for it in items:
        by_track.setdefault(it[3], []).append(it)
    out = {}
    for track, spans in by_track.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        segs, stack, cur = [], [], None

        def close_until(t):
            nonlocal cur
            while stack and stack[-1][0] <= t:
                end, label = stack.pop()
                if end > cur:
                    segs.append((cur, end, label))
                    cur = end

        for t0, t1, name, _ in spans:
            close_until(t0)
            if stack and t0 > cur:
                segs.append((cur, t0, stack[-1][1]))
            cur = t0 if cur is None else max(cur, t0)
            stack.append((min(t1, stack[-1][0]) if stack else t1, name))
        close_until(float("inf"))
        out[track] = segs
    return out


def attribute(spans, events):
    """Split the traced jobs' wall time over layers. At each instant the
    time goes, in equal parts, to the innermost spans running on worker
    tracks (engine lanes, simulation threads); when none runs, to the
    innermost span of the calling thread (the harness's spans and the
    program's spans on that thread). The shares sum to 1."""
    main_tids = {e[3] for e in events if e[2] in ("r2m-synthesize",
                                                  "slc-analyze")}
    shares, total = {}, 0
    for job in (s for s in spans if s["name"] == "job"):
        j0, j1 = job["t0"], job["t1"]
        total += j1 - j0
        main = [(s["t0"], s["t1"], s["name"], "main") for s in spans
                if s["thread"] == 0 and s["t0"] >= j0 and s["t1"] <= j1]
        main += [(max(e[0], j0), min(e[1], j1), e[2], "main")
                 for e in events
                 if e[3] in main_tids and e[1] > j0 and e[0] < j1]
        workers = [(max(e[0], j0), min(e[1], j1), e[2], e[3])
                   for e in events
                   if e[3] not in main_tids and e[1] > j0 and e[0] < j1]
        points = []
        for segs in leaf_segments(workers).values():
            for t0, t1, name in segs:
                points += [(t0, 1, name), (t1, -1, name)]
        for t0, t1, name in leaf_segments(main).get("main", []):
            points += [(t0, 2, name), (t1, -2, name)]
        points.sort(key=lambda p: (p[0], p[1]))
        active, main_now, prev = {}, None, j0
        for t, kind, name in points + [(j1, 0, None)]:
            if t > prev:
                if active:
                    k = sum(active.values())
                    for n, c in active.items():
                        layer = SPAN_LAYER.get(n, "bench")
                        shares[layer] = shares.get(layer, 0) + (t - prev) * c / k
                else:
                    layer = SPAN_LAYER.get(main_now, "bench")
                    shares[layer] = shares.get(layer, 0) + (t - prev)
                prev = t
            if kind == 1:
                active[name] = active.get(name, 0) + 1
            elif kind == -1:
                active[name] -= 1
                if not active[name]:
                    del active[name]
            elif kind == 2:
                main_now = name
            elif kind == -2:
                main_now = None
    return {k: v / total for k, v in shares.items()}


# ------------------------------------------------------------ daemon

def daemon_proc(seed, seconds, flags):
    d = fresh_dir("daemon")
    spans = d / "spans.json"
    try:
        rc, data, wall = run_harness(
            ["daemon", "--rmp", str(RMP), "--dir", str(d), "--seed",
             str(seed), "--seconds", str(seconds), "--spans",
             str(spans)] + flags, cwd=d)
        if rc == 0 and data is not None:
            data["spans"] = json.loads(spans.read_text())
            data["traces"] = [json.loads(p.read_text())["traceEvents"]
                              for p in sorted(d.glob("trace-*.json"))]
        else:
            data = None
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return data


def daemon_ops(data, ops):
    """One operation per pass, as one-shot jobs are one per process: a
    pass fails if any of its requests or checks does."""
    why = {p: [] for p in range(len(data["passes"]))}
    for cls, p, _conn, _ns, ok, _s, op, duv in data["requests"]:
        why.setdefault(p, [])
        if not ok:
            why[p].append(f"{cls} {op} {duv} request failed")
    for c in data["checks"]:
        why.setdefault(c["pass"], [])
        if not c["ok"]:
            why[c["pass"]].append(f"{c['name']} ({c['detail']})")
    for p, bad in sorted(why.items()):
        ops.record(not bad, f"daemon-mix pass {p}: " + "; ".join(bad))


def class_latencies(data, table):
    """Client-seen latency per request class, in ms, and requests per
    second of stream. Report lines only: the gated end-to-end metric set
    is shared by every workload, and these exist only on this one."""
    by = {}
    for cls, _pass, _conn, ns, ok, *_rest in data["requests"]:
        if ok and cls != "warm":
            by.setdefault(cls, []).append(ns * 1e-6)
    for cls in ("hit", "miss", "store", "analysis"):
        xs = by.get(cls, [])
        for q in (50, 90):
            table.put(f"{cls}_ms.p{q}", pct(xs, q), "ms", len(xs))
    passes = data["passes"]
    n = sum(len(v) for v in by.values())
    table.put("req_per_s", n / (sum(p["job_ns"] for p in passes) * 1e-9),
              "1/s", len(passes))


def daemon_timed(seed, seconds, min_passes, ops, table):
    data = daemon_proc(seed, seconds, ["--min-passes", str(min_passes)])
    if data is None or not data["passes"]:
        raise BenchError("daemon-mix: the harness failed")
    daemon_ops(data, ops)
    passes = data["passes"]
    table.put("setup_s", median(p["setup_ns"] * 1e-9 for p in passes), "s",
              len(passes))
    table.put("job_s", median(p["job_ns"] * 1e-9 for p in passes), "s",
              len(passes))
    table.put("peak_rss_mb", median(p["maxrss_kb"] / 1024 for p in passes),
              "MB", len(passes))
    table.put("determined_frac", data["decided"] / data["evaluated"],
              "fraction", 1)
    return data


def daemon_traced(seed, seconds, min_passes, ops, table):
    """An untraced run, then a traced run (daemon --trace) that also
    re-renders every key in-process and DRAT-verifies one store."""
    passes = ["--min-passes", str(min(2, min_passes))]
    plain = daemon_proc(seed, seconds, passes)
    traced = daemon_proc(seed, seconds, passes + ["--obs", "--check-all"])
    if plain is None or traced is None:
        raise BenchError("daemon-mix: the harness failed")
    daemon_ops(plain, ops)
    daemon_ops(traced, ops)
    n = len(traced["passes"])
    overhead = (median(p["job_ns"] for p in traced["passes"]) /
                median(p["job_ns"] for p in plain["passes"]) - 1.0)
    pool, serve = traced["pool"], traced["serve"]
    events = []
    for life, evs in enumerate(traced["traces"]):
        events += [(int(e["ts"] * 1000), int((e["ts"] + e["dur"]) * 1000),
                    e["name"], (life, e["tid"]))
                   for e in evs if e.get("ph") == "X"]
    # Layer shares of the daemon's recorded work: leaf spans on every
    # track of both lives of every pass, leaving out the orchestrating
    # spans whose time overlaps the lane and exploration work they wait
    # on.
    work = [e for e in events if e[2] not in ORCHESTRATION]
    busy = {}
    for segs in leaf_segments(work).values():
        for t0, t1, name in segs:
            layer = SPAN_LAYER.get(name, "bench")
            busy[layer] = busy.get(layer, 0) + (t1 - t0)
    total_busy = sum(busy.values()) or 1

    def span_s(name):
        return sum(e[1] - e[0] for e in events if e[2] == name) * 1e-9

    synth = [r for r in traced["requests"]
             if r[0] in ("hit", "miss", "store") and r[4] and r[5] >= 0]
    analysis = [r[3] * 1e-6 for r in traced["requests"]
                if r[0] == "analysis" and r[4]]
    solve_s = self_seconds(events, "sat-solve")
    explore_s = self_seconds(events, "sim-explore")
    lookups = pool["cache_hits"] + pool["cache_misses"]
    put = table.put
    vals = {
        "sat.solve_s": solve_s,
        "sat.conflicts": pool["sat_conflicts"],
        "sat.propagations": pool["sat_propagations"],
        "sat.props_per_s": pool["sat_propagations"] / solve_s
        if solve_s else 0,
        "sat.learned": pool["sat_learned_clauses"],
        "sat.gc_passes": pool["sat_gc_passes"],
        "bmc.cover_s": span_s("bmc-cover"),
        "bmc.unroll_s": span_s("bmc-unroll"),
        "bmc.queries": pool["solver_queries"],
        "bmc.undetermined": pool["undetermined"],
        "bmc.core_hits": pool["assumption_core_hits"],
        "exec.lanes_built": pool["lanes_built"],
        "exec.admission_wait_ms": serve["admission_wait_ns"] * 1e-6,
        "exec.cache_hit_frac": pool["cache_hits"] / lookups if lookups else 0,
        "sim.explore_s": explore_s,
        "r2m.synth_s": sum(r[5] for r in synth),
        "analysis.covers_pruned": pool["static_pruned"],
        "analysis.op_ms.p50": median(analysis) if analysis else 0,
        "report.render_ms": median(traced["render_ms"]),
        "store.hits": serve["store_hits"],
        "store.misses": serve["store_misses"],
        "store.writes": serve["store_writes"],
        "store.blob_writes": serve["store_blob_writes"],
        "store.flush_ms": span_s("store-flush") * 1e3,
        "serve.compute_ms.p50": median(r[5] * 1e3 for r in synth),
        "serve.overhead_ms.p50": median((r[3] * 1e-9 - r[5]) * 1e3
                                        for r in synth),
        "serve.rejected": serve["rejected"],
        "serve.drain_ms": median(p["drain_ns"] * 1e-6
                                 for p in traced["passes"]),
        "obs.trace_overhead_frac": overhead,
    }
    for name, unit in PER_LAYER.items():
        if name.endswith(".self_frac"):
            layer = name[: -len(".self_frac")]
            put(name, busy.get(layer, 0) / total_busy, unit, n)
        else:
            put(name, vals.get(name, 0), unit, n if name in vals else 0)


# -------------------------------------------------------------- main

def run_workload(workload, seed, seconds, trace, min_passes=3):
    """Run one workload; @p min_passes is the daemon-mix floor (the
    self-test lowers it)."""
    ops, table = Ops(), Table(workload)
    if workload in ONESHOT:
        if trace:
            oneshot_traced(workload, seed, seconds, ops, table)
        else:
            oneshot_timed(workload, seed, seconds, ops, table)
    elif trace:
        daemon_traced(seed, seconds, min_passes, ops, table)
    else:
        class_latencies(daemon_timed(seed, seconds, min_passes, ops, table),
                        table)
    ok_frac = 1 - len(ops.failures) / ops.attempted
    if not trace:
        table.put("ok_frac", ok_frac, "fraction", ops.attempted)
    for why in ops.failures:
        log(f"{workload}: FAILED {why}")
    return ops, table


def result_json(ops, table, names):
    metrics = {}
    for name, unit in names.items():
        value, _unit, _n = table.rows[name]
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not ops.failures, "attempted": ops.attempted,
            "failed": len(ops.failures), "metrics": metrics}


def self_test():
    """Every workload once, traced and untraced, at reduced size: every
    named metric must print with a unit, and ok_frac must be 1."""
    bad = []
    for trace in (0, 1):
        names = PER_LAYER if trace else END_TO_END
        for w in WORKLOADS:
            ops, table = run_workload(w, 1, 1, trace, min_passes=1)
            table.print()
            res = result_json(ops, table, names)
            for name, unit in names.items():
                m = res["metrics"].get(name)
                if (m is None or m["unit"] != unit or
                        not isinstance(m["value"], (int, float))):
                    bad.append(f"{w} trace={trace}: {name} missing")
            if not res["correct"] or (not trace and
                                      res["metrics"]["ok_frac"]["value"] != 1):
                bad.append(f"{w} trace={trace}: ok_frac != 1")
    for b in bad:
        log(f"self-test: {b}")
    print("self-test " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload or --self-test is required")
    try:
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        if a.self_test:
            return self_test()
        names = PER_LAYER if a.trace else END_TO_END
        if a.workload != "all":
            ops, table = run_workload(a.workload, a.seed, a.seconds, a.trace)
            table.print()
            print(json.dumps(result_json(ops, table, names)))
            return 0
        total, merged = Ops(), {}
        for w in WORKLOADS:
            ops, table = run_workload(w, a.seed, a.seconds, a.trace)
            table.print()
            total.attempted += ops.attempted
            total.failures += ops.failures
            for name, m in result_json(ops, table, names)["metrics"].items():
                merged[f"{w}/{name}"] = m
        print(json.dumps({"correct": not total.failures,
                          "attempted": total.attempted,
                          "failed": len(total.failures), "metrics": merged}))
        return 0
    except BenchError as e:
        log(f"rmpbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every row checked.

    python3 perfbench/run.py --workload table1|big_ladder|serve_mixed \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the program from source into
.bench_build (or $CARGO_TARGET_DIR), measures for about S seconds and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (spans recorded around each layer's public calls, see
perfbench/README.md). Details of every run (host fingerprint, sample
counts, the scaling table, spans) go to .bench_out/.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".bench_out")
# ExecutorPool threads of the in-process sweeps. table1 runs on one: its ES
# gains little from a second thread (~1.2x), and whether that thread finds
# a free CPU of a shared host at the same moment spread its row times over
# 21% of their median, against 6% at one thread, measured alternately on a
# 4-CPU host. big_ladder keeps two, for the parallel set-up phases.
SWEEP_THREADS = {"table1": 1, "big_ladder": 2}
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["perfbench_driver", "iddqsyn_server", "iddqsyn_cluster"]

# serve_mixed: small builtins behind a low ES cap, so serving and caching
# dominate; 3 of 4 requests repeat a key warmed during set-up.
SERVE_CIRCUITS = ["c17", "ila4x4", "ila8x8", "mult4", "mult8", "big_dag1k"]
SERVE_GENERATIONS = 10
# Warm seeds per circuit. The larger circuits get more warm keys: with two
# callers on two single-worker backends about 40% of requests queue behind
# the other caller, and an even mix would put the median latency right in
# the gap between queued and unqueued small hits, where it jumps by 10%
# between request orders.
WARM_SEEDS = {"c17": 1, "ila4x4": 1, "ila8x8": 1, "mult4": 1, "mult8": 3,
              "big_dag1k": 3}
BACKEND_PORT = 39401  # backend i of port slot k listens on 39401 + 10k + i
PORT_SLOTS = 8
SWEEP_REQUESTS = 64  # serve_mixed "sweep": this many requests, at the mix

# name -> (circuits, FAST budget, reference file), per --size.
SWEEPS = {
    "table1": {
        "full": (["c1908", "c2670", "c3540", "c5315", "c6288", "c7552"],
                 False, HERE / "reference" / "table1.json"),
        "tiny": (["c1908", "c2670"], True, ROOT / "BENCH_table1.json"),
    },
    "big_ladder": {
        "full": (["big_dag30k", "mult64"], True, ROOT / "BENCH_big.json"),
        "tiny": (["big_dag10k"], True, ROOT / "BENCH_big.json"),
    },
}
TRACE_REQUESTS = {"full": 160, "tiny": 24}  # serve_mixed traced passes
PROBE_REQUESTS = 24  # serving-layer probe inside the sweep workloads' traces
TRACE_SWEEP_BUDGET_S = 120  # keeps a traced sweep run inside 180 s


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics ---

def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------- build ---

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"the repository sources are missing beside {HERE.name}/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    with open(log_path, "w") as build_log:
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator]
            if subprocess.run(cmd, stdout=build_log, stderr=build_log).returncode:
                raise BenchError(f"cmake configure failed, see {log_path}")
        cmd = ["cmake", "--build", str(out), "-j", "4", "--target", *TARGETS]
        if subprocess.run(cmd, stdout=build_log, stderr=build_log).returncode:
            raise BenchError(f"build failed, see {log_path}")
    return {name: str(out / name) for name in TARGETS}


def fingerprint(bins, pool_threads):
    """What a result depends on besides the code; results whose
    fingerprints differ are not comparable (perfbench/compare.py)."""
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    cache = build_dir() / "CMakeCache.txt"
    match = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache.read_text(), re.M)
    if match:
        version = subprocess.run([match.group(1), "--version"],
                                 capture_output=True, text=True).stdout
        compiler = version.splitlines()[0] if version else match.group(1)
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": BUILD_TYPE, "pool_threads": pool_threads}


# ---------------------------------------------------------------- driver ---

def driver(bins, args, fast=False):
    env = dict(os.environ)
    env.pop("IDDQSYN_BENCH_FAST", None)
    env.pop("IDDQ_THREADS", None)
    if fast:
        env["IDDQSYN_BENCH_FAST"] = "1"
    proc = subprocess.run([bins["perfbench_driver"], *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_driver {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def timed_setups(count, setup, teardown=None):
    """Median wall seconds of `count` set-ups; `teardown` (untimed) runs
    between two of them."""
    times = []
    for i in range(count):
        if i and teardown:
            teardown()
        t0 = time.perf_counter()
        setup()
        times.append(time.perf_counter() - t0)
    return median(times)


# ------------------------------------------------------ correctness gate ---

def load_reference(path):
    """Rows keyed by circuit from a BENCH_*.json-style file (one JSON
    document per line; the last document naming a circuit wins)."""
    rows = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            for row in json.loads(line)["rows"]:
                rows[row["circuit"]] = row
    return rows


def gate(rows, reference):
    """Mismatches of `rows` against `reference`, keyed by circuit (never by
    position); "seconds" is ignored. One entry per bad row."""
    bad = []
    for row in rows:
        ref = reference.get(row["circuit"])
        if ref is None:
            bad.append(f"{row['circuit']}: no reference row")
            continue
        fields = (set(row) | set(ref)) - {"seconds"}
        drift = sorted(k for k in fields if row.get(k) != ref.get(k))
        if drift:
            bad.append(f"{row['circuit']}: {', '.join(drift)} differ")
    return bad


# ---------------------------------------------------- the serving stack ---

class Proc:
    """A server or cluster process; its TCP endpoint is read from the
    "listening on" line of its log."""

    def __init__(self, cmd, log_path, owner):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        owner.append(self)  # stopped by its owner even if start-up fails
        deadline = time.monotonic() + 30
        while True:
            text = Path(log_path).read_text()
            match = re.search(r"listening on (\S+):(\d+)", text)
            if match:
                self.endpoint = f"{match.group(1)}:{match.group(2)}"
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"{cmd[0]} did not start: {text.strip()}")
            time.sleep(0.005)

    def peak_rss_mb(self):
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0
        except (OSError, AttributeError):
            return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Conn:
    """One line-JSON protocol session (docs/server.md)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=120)
        self.reader = self.sock.makefile("rb")
        self.bytes = 0
        self.read_event()  # hello

    def read_event(self):
        line = self.reader.readline()
        if not line:
            raise BenchError("connection closed by the server")
        self.bytes += len(line)
        return json.loads(line)

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def submit(self, rid, circuit, seed):
        """Closed-loop call: returns (ok, row events) once sweep_done."""
        self.send({"op": "submit", "id": rid, "circuits": [circuit],
                   "seed": seed})
        rows = []
        while True:
            event = self.read_event()
            kind = event.get("event")
            if event.get("id") != rid:
                continue
            if kind == "row":
                rows.append(event)
            elif kind == "sweep_done":
                return event.get("ok") == 1 and event.get("failed") == 0, rows
            elif kind == "error":
                return False, rows

    def stats(self):
        self.send({"op": "stats"})
        while True:
            event = self.read_event()
            if event.get("event") == "stats":
                return event

    def close(self):
        self.reader.close()
        self.sock.close()


class Stack:
    """Backends (each --workers 1 with its own cache) behind an optional
    cluster front-end; `entry` is where clients connect.

    The cluster places shards on a hash ring built from the backend
    endpoint strings, so backends listen on fixed ports: with ephemeral
    ports the warm keys would split differently over the two backends on
    every run. A taken port moves the pair to the next slot."""

    def __init__(self, bins, workdir, backends, cluster):
        self.procs = []
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        try:
            for slot in range(PORT_SLOTS):
                try:
                    self.backends = [Proc(
                        [bins["iddqsyn_server"], "--listen",
                         f"127.0.0.1:{BACKEND_PORT + 10 * slot + i}",
                         "--workers", "1",
                         "--cache-dir", str(workdir / f"cache{i}"),
                         "--generations", str(SERVE_GENERATIONS)],
                        workdir / f"backend{i}.log", self.procs)
                        for i in range(backends)]
                    break
                except BenchError:
                    if slot + 1 == PORT_SLOTS:
                        raise
                    self.stop()
            if cluster:
                cmd = [bins["iddqsyn_cluster"], "--listen", "127.0.0.1:0"]
                for b in self.backends:
                    cmd += ["--backend", b.endpoint]
                Proc(cmd, workdir / "cluster.log", self.procs)
            self.entry = self.procs[-1].address
        except BaseException:
            self.stop()
            raise

    def warm(self, keys):
        conn = Conn(self.entry)
        try:
            for i, (circuit, seed) in enumerate(keys):
                ok, _ = conn.submit(f"warm{i}", circuit, seed)
                if not ok:
                    raise BenchError(f"warm-up of {circuit} {seed} failed")
        finally:
            conn.close()

    def peak_rss_mb(self):
        return max(b.peak_rss_mb() for b in self.backends)

    def stop(self):
        for p in reversed(self.procs):
            p.stop()
        self.procs = []


def warm_keys():
    return [(c, s) for c in SERVE_CIRCUITS for s in range(1, WARM_SEEDS[c] + 1)]


def serve_requests(seed, count):
    """The serve_mixed request list: (id, circuit, seed, kind). Requests
    come in shuffled blocks: every warm key once (a hit) plus a third as
    many fresh seeds (misses) on circuits dealt from a shuffled deck, so
    every seed draws the same mix."""
    rng = random.Random(seed)
    warm = warm_keys()
    used = {s for _, s in warm}
    deck = []
    out = []
    while len(out) < count:
        block = [("hit", key) for key in warm] + [("miss", None)] * (
            len(warm) // 3)
        rng.shuffle(block)
        for kind, key in block:
            if kind == "miss":
                if not deck:
                    deck = list(SERVE_CIRCUITS)
                    rng.shuffle(deck)
                s = rng.getrandbits(40)
                while s in used:
                    s = rng.getrandbits(40)
                used.add(s)
                key = (deck.pop(), s)
            out.append((f"r{len(out)}", key[0], key[1], kind))
    return out[:count]


def write_requests(path, requests):
    with open(path, "w") as f:
        for circuit, s in warm_keys():
            f.write(f"warm w {circuit} {s}\n")
        for rid, circuit, s, _ in requests:
            f.write(f"req {rid} {circuit} {s}\n")


def row_fields(event):
    keep = ("index", "method", "modules", "violation", "cost", "c",
            "sensor_area", "delay_overhead", "test_overhead", "iterations",
            "evaluations", "feasible")
    return {k: event.get(k) for k in keep}


def sequential_pass(address, requests):
    """One caller, one request at a time: {id: (ms, ok, rows)}, bytes read."""
    conn = Conn(address)
    out = {}
    try:
        for rid, circuit, s, _ in requests:
            t0 = time.perf_counter()
            ok, rows = conn.submit(rid, circuit, s)
            out[rid] = ((time.perf_counter() - t0) * 1000.0, ok,
                        [row_fields(r) for r in rows])
        return out, conn.bytes
    finally:
        conn.close()


# ------------------------------------------------------------- workloads ---

def sweep_inputs(name, size, seed):
    """(circuit order drawn from the seed, FAST budget, reference file,
    driver arguments naming the circuits)."""
    circuits, fast, ref_path = SWEEPS[name][size]
    order = list(circuits)
    random.Random(seed).shuffle(order)
    common = ["--tier", "table1" if name == "table1" else "big",
              "--circuits", ",".join(order)]
    return order, fast, ref_path, common


def sweep_untraced(bins, name, size, seed, seconds):
    order, fast, ref_path, common = sweep_inputs(name, size, seed)
    setup_s = timed_setups(15, lambda: driver(bins, ["setup", *common], fast))
    doc = driver(bins, ["sweep", *common,
                        "--threads", str(SWEEP_THREADS[name]),
                        "--seconds", str(seconds)], fast)
    rows = doc["rows"]
    bad = gate(rows, load_reference(ref_path))
    by_circuit = {}
    for row in rows:
        by_circuit.setdefault(row["circuit"], []).append(row["seconds"])
    first = {}
    for row in rows:
        first.setdefault(row["circuit"], row)
    # One job per circuit. The circuits differ up to 10x in size and a run
    # cannot sample them evenly, so the percentiles are taken over the
    # per-circuit median row times.
    row_ms = [median(v) * 1000.0 for v in by_circuit.values()]
    sweep_s = sum(row_ms) / 1000.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep_s, "s"),
        "job_p50_ms": (median(row_ms), "ms"),
        "job_p99_ms": (percentile(row_ms, 99), "ms"),
        "jobs_per_s": (len(row_ms) / sweep_s, "1/s"),
        "ok_frac": ((len(rows) - len(bad)) / len(rows), "ratio"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "std_area_overhead_pct": (
            statistics.fmean(r["std_area_overhead_pct"] for r in first.values()),
            "%"),
        "cost_evolution_gmean": (
            gmean([r["cost_evolution"] for r in first.values()]), "cost"),
    }
    details = {"order": order, "row_samples": len(rows),
               "samples_per_circuit": {c: len(v) for c, v in by_circuit.items()},
               "mismatches": bad}
    return metrics, len(rows), len(bad), details


def serve_untraced(bins, seed, seconds, workdir):
    stacks = []

    def setup():
        stack = Stack(bins, workdir / f"stack{len(stacks)}", 2, True)
        stacks.append(stack)
        stack.warm(warm_keys())

    try:
        setup_s = timed_setups(5, setup, lambda: stacks[-1].stop())
        stack = stacks[-1]
        requests = serve_requests(seed, 200000)
        lock = threading.Lock()
        cursor = [0]
        done = []  # (end time, ms, ok, request, rows)
        errors = []
        start = time.perf_counter()
        deadline = start + seconds

        def caller():
            try:
                conn = Conn(stack.entry)
            except OSError as e:
                errors.append(str(e))
                return
            try:
                while time.perf_counter() < deadline:
                    with lock:
                        if cursor[0] >= len(requests):
                            return
                        request = requests[cursor[0]]
                        cursor[0] += 1
                    t0 = time.perf_counter()
                    try:
                        ok, rows = conn.submit(request[0], request[1], request[2])
                    except (OSError, BenchError, ValueError) as e:
                        errors.append(str(e))
                        done.append((time.perf_counter(), 0.0, False, request, []))
                        return
                    t1 = time.perf_counter()
                    done.append((t1, (t1 - t0) * 1000.0, ok, request,
                                 [row_fields(r) for r in rows]))
            finally:
                conn.close()

        callers = [threading.Thread(target=caller) for _ in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
        elapsed = max(t for t, *_ in done) - start if done else seconds
        peak_rss = stack.peak_rss_mb()
    finally:
        for s in stacks:
            s.stop()

    if not done:
        raise BenchError(f"no request completed: {errors}")
    # Every served row against the in-process JobService row.
    served = [d[3] for d in done]
    requests_file = workdir / "reference-requests.txt"
    write_requests(requests_file, served)
    ref = driver(bins, ["serve", "--requests", str(requests_file),
                        "--generations", str(SERVE_GENERATIONS),
                        "--workers", "3"])
    reference = {(r["circuit"], r["seed"]): r["rows"] for r in ref["references"]}
    failed = 0
    for _, _, ok, (rid, circuit, s, _), rows in done:
        if not ok or rows != reference.get((circuit, s)):
            failed += 1
    latencies = [ms for _, ms, ok, *_ in done if ok]
    warm = [reference[k] for k in warm_keys()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (SWEEP_REQUESTS * elapsed / len(latencies), "s"),
        "job_p50_ms": (median(latencies), "ms"),
        "job_p99_ms": (percentile(latencies, 99), "ms"),
        "jobs_per_s": (len(latencies) / elapsed, "1/s"),
        "ok_frac": ((len(done) - failed) / len(done), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
        "std_area_overhead_pct": (statistics.fmean(
            (rows[1]["sensor_area"] / rows[0]["sensor_area"] - 1.0) * 100.0
            for rows in warm), "%"),
        "cost_evolution_gmean": (gmean([rows[0]["cost"] for rows in warm]),
                                 "cost"),
    }
    hits = sum(1 for d in done if d[3][3] == "hit")
    classes = {}
    for _, ms, ok, (_, circuit, _, kind), _ in done:
        if ok:
            classes.setdefault(f"{circuit} {kind}", []).append(ms)
    details = {"requests": len(done), "hit_requests": hits,
               "latency_samples": len(latencies),
               "samples_beyond_p99": len(latencies) - math.ceil(
                   0.99 * len(latencies)),
               "latency_deciles_ms": statistics.quantiles(latencies, n=10),
               "median_ms_by_class": {k: [len(v), median(v)]
                                      for k, v in sorted(classes.items())},
               "client_errors": errors}
    return metrics, len(done), failed, details


# ----------------------------------------------------------------- trace ---

def span_metrics(spans, counts, untraced_ms, load_ms):
    """Per-job layer times from perfbench_driver's spans (see README.md)."""
    jobs = [s for s in spans if s["name"] == "job"]
    per_job = max(len(jobs), 1)

    def total_ms(name):
        return sum(s["end_us"] - s["start_us"] for s in spans
                   if s["name"] == name) / 1000.0

    job_ms = sum(s["end_us"] - s["start_us"] for s in jobs) / 1000.0
    children = sum(s["end_us"] - s["start_us"] for s in spans
                   if s["parent"] >= 0) / 1000.0
    evolution_ms = total_ms("core.evolution")
    return {
        "netlist.load_ms": (median(load_ms), "ms"),
        "netlist.oracle_ms": (total_ms("netlist.oracle") / per_job, "ms"),
        "netlist.oracle_entries": (counts["oracle_entries"] / per_job, "count"),
        "electrical.settling_calibrate_ms": (
            total_ms("electrical.settling_calibrate") / per_job, "ms"),
        "partition.context_ms": (total_ms("partition.context") / per_job, "ms"),
        "partition.evaluate_ms": (total_ms("partition.evaluate") / per_job, "ms"),
        "core.size_plan_ms": (total_ms("core.size_plan") / per_job, "ms"),
        "core.evolution_ms": (evolution_ms / per_job, "ms"),
        "core.evolution_evals": (counts["evolution_evals"] / per_job, "count"),
        "core.evolution_evals_per_s": (
            counts["evolution_evals"] / (evolution_ms / 1000.0), "1/s"),
        "core.standard_ms": (total_ms("core.standard") / per_job, "ms"),
        "trace.overhead_pct": (
            (job_ms - sum(untraced_ms)) / sum(untraced_ms) * 100.0, "%"),
        "trace.unattributed_pct": ((job_ms - children) / job_ms * 100.0, "%"),
    }


def serving_trace(bins, requests, workdir):
    """The serving layers on one request list, one request at a time:
    in process (JobService), direct to one TCP backend, and through the
    cluster; each pass on fresh caches warmed with the same keys."""
    requests_file = workdir / "trace-requests.txt"
    write_requests(requests_file, requests)
    inproc = driver(bins, ["serve", "--requests", str(requests_file),
                           "--generations", str(SERVE_GENERATIONS),
                           "--workers", "1", "--trace",
                           "--cache-dir", str(workdir / "inproc-cache")])
    direct_stack = Stack(bins, workdir / "direct", 1, False)
    try:
        direct_stack.warm(warm_keys())
        direct, direct_bytes = sequential_pass(direct_stack.entry, requests)
    finally:
        direct_stack.stop()
    cluster_stack = Stack(bins, workdir / "cluster", 2, True)
    try:
        cluster_stack.warm(warm_keys())
        conn = Conn(cluster_stack.entry)
        before = conn.stats()["submitted"]
        cluster, _ = sequential_pass(cluster_stack.entry, requests)
        retries = conn.stats()["submitted"] - before - len(requests)
        conn.close()
    finally:
        cluster_stack.stop()

    served = {s["id"]: s for s in inproc["served"]}
    failed = list(inproc["mismatches"])
    for rid, *_ in requests:
        ref = served.get(rid)
        for label, run in (("direct", direct), ("cluster", cluster)):
            ms, ok, rows = run[rid]
            if ref is None or not ok or rows != ref["rows"]:
                failed.append(f"{label} {rid}: row differs from JobService")
    ids = [rid for rid, *_ in requests if rid in served]
    lookups = inproc["lookup_us"]
    metrics = {
        "core.cache_lookup_us": (median(lookups), "us"),
        "core.cache_store_us": (median(inproc["store_us"]), "us"),
        "core.cache_hit_ratio": (inproc["cache_hits"] / len(lookups), "ratio"),
        "core.job_queue_wait_ms": (
            median([served[i]["queue_ms"] for i in ids]), "ms"),
        "core.job_run_ms": (median([served[i]["run_ms"] for i in ids]), "ms"),
        "core.job_first_row_ms": (
            median([served[i]["first_row_ms"] for i in ids]), "ms"),
        "core.protocol_overhead_ms": (
            median([direct[i][0] - served[i]["total_ms"] for i in ids]), "ms"),
        "support.bytes_per_job": (direct_bytes / len(requests), "bytes"),
        "cluster.overhead_ms": (
            median([cluster[i][0] - direct[i][0] for i in ids]), "ms"),
        "cluster.retries": (retries, "count"),
    }
    return metrics, inproc, 3 * len(requests), failed


def trace_run(bins, name, size, seed, workdir):
    details = {}
    if name in SWEEPS:
        order, fast, ref_path, common = sweep_inputs(name, size, seed)
        threads = SWEEP_THREADS[name]
        doc = driver(bins, ["sweep", *common, "--threads", str(threads),
                            "--seconds", str(TRACE_SWEEP_BUDGET_S), "--trace"],
                     fast)
        reference = load_reference(ref_path)
        untraced = [r["seconds"] * 1000.0 for r in doc["rows"]]
        engine = span_metrics(doc["spans"], doc, untraced, doc["load_ms"])
        failed = gate(doc["rows"], reference) + gate(doc["traced_rows"],
                                                     reference)
        failed += doc["mismatches"]
        attempted = 2 * len(doc["rows"]) + sum(len(s["rows"])
                                               for s in doc["scaling"])
        scaling = {str(threads): {r["circuit"]: r["seconds"]
                                  for r in doc["rows"]}}
        for entry in doc["scaling"]:
            scaling[str(entry["threads"])] = {r["circuit"]: r["seconds"]
                                              for r in entry["rows"]}
        details["scaling_seconds"] = scaling
        details["scaling_skipped_threads"] = doc["scaling_skipped"]
        if doc["scaling_skipped"]:
            log(f"thread scaling: skipped {doc['scaling_skipped']} threads "
                f"(over the {TRACE_SWEEP_BUDGET_S} s budget)")
        log(f"thread scaling ({name}, seconds per row):")
        for threads in sorted(scaling, key=int):
            row = scaling[threads]
            log(f"  {threads} threads: " + "  ".join(
                f"{c}={row[c]:.2f}" for c in order) +
                f"  sum={sum(row.values()):.2f}")
        requests = serve_requests(seed, PROBE_REQUESTS)
        serving, _, serve_attempted, serve_failed = serving_trace(
            bins, requests, workdir)
        spans = doc["spans"]
    else:
        requests = serve_requests(seed, TRACE_REQUESTS[size])
        serving, inproc, serve_attempted, serve_failed = serving_trace(
            bins, requests, workdir)
        engine = span_metrics(inproc["spans"], inproc, inproc["untraced_ms"],
                              inproc["load_ms"])
        attempted, failed = 0, []
        spans = inproc["spans"]
    metrics = {**engine, **serving}
    failed += serve_failed
    details["mismatches"] = failed
    details["spans"] = spans
    return metrics, attempted + serve_attempted, len(failed), details


# ------------------------------------------------------------------ main ---

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "big_ladder", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test's reduced inputs")
    args = parser.parse_args()
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bins = build()
        fp = fingerprint(bins, SWEEP_THREADS.get(args.workload, 1))
        workdir = OUT / f"work-{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                metrics, attempted, failed, details = trace_run(
                    bins, args.workload, args.size, args.seed, workdir)
            elif args.workload in SWEEPS:
                metrics, attempted, failed, details = sweep_untraced(
                    bins, args.workload, args.size, args.seed, args.seconds)
            else:
                metrics, attempted, failed, details = serve_untraced(
                    bins, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "fingerprint": fp, "result": result, "details": details}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for mismatch in details.get("mismatches", [])[:20]:
        log(f"MISMATCH {mismatch}")
    for key, (value, unit) in metrics.items():
        log(f"  {key:36s} {value:14.6g} {unit}")
    print("fingerprint: " + json.dumps(fp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

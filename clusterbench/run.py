#!/usr/bin/env python3
"""clustersim benchmark.

    python3 clusterbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the simulator library, the sweep/sweepd tools and the harness
(clusterbench/harness.cc) into $CARGO_TARGET_DIR/clusterbench
(.bench_build/clusterbench by default); later runs reuse the build.

Workloads (README.md says why each exists):
    kernel       golden grid, point by point on one thread, in-process
    tournament   tournament preset through runSweep on 4 workers
    served_cold  fig5 through sweepd --workers 4, empty stores
    served_warm  fig5 through sweepd --workers 4, stores populated in set-up

Each run repeats its unit of work until --seconds have passed and
reports medians. With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics. The line
before it is the run record (host, seed, checks, model accuracy); the
record plus every span goes to .bench_out/.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernel", "tournament", "served_cold", "served_warm")
WORKERS = 4

# Run lengths (instructions per point). Reduced from the preset
# defaults so one unit of work takes one to three seconds.
TOURNAMENT_WARMUP, TOURNAMENT_MEASURE = 20000, 20000
# Seed replicas run beside the grid as shipped (see README.md, Seeds).
KERNEL_REPLICAS, TOURNAMENT_REPLICAS = 7, 5
FIG5_WARMUP = 100000
FIG5_MEASURE = 50000        # served_cold, and served_warm's set-up
FIG5_WARM_MEASURE = 60000   # served_warm's measured resubmission

PAPER_EXPLORE_GAIN = 0.11       # over the best static organisation
PAPER_DISABLED_CLUSTERS = 8.3   # of 16

MIN_REPS = 3
SETUP_SAMPLES = 11
TIMEOUT_S = 120


def log(*args):
    print("clusterbench:", *args, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(n, d):
    return n / d if d else 0.0


# --- build ---------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "clusterbench")


def build():
    """Configure (once) and build; returns the binary directory."""
    for need in ("src/CMakeLists.txt", "tools/sweepd.cc", "tools/sweep.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise RuntimeError(f"not a clustersim checkout: {need} missing")
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300, env=env)
    subprocess.run(["cmake", "--build", out, "-j", str(WORKERS)],
                   stdout=sys.stderr, check=True, timeout=900, env=env)
    return out


# --- spans ---------------------------------------------------------------

class Spans:
    """Span recorder for run.py's own spans (served workloads).
    Rows are [name, start, end, parent, rep], as the harness emits."""

    def __init__(self):
        self.rows = []
        self.enabled = False
        self.rep = 0
        self.origin = time.monotonic()

    def open(self, name, parent=-1, start=None):
        if not self.enabled:
            return -1
        t = (start if start is not None else time.monotonic()) - self.origin
        self.rows.append([name, t, t, parent, self.rep])
        return len(self.rows) - 1

    def close(self, sid, end=None):
        if sid >= 0:
            t = end if end is not None else time.monotonic()
            self.rows[sid][2] = t - self.origin


def layer_times(rows):
    """Per-rep totals of each span name and of each layer's self time
    (wall time of a span not covered by any child; concurrent children
    count once). Returns {rep: {metric: seconds}}."""
    children = {}
    for i, r in enumerate(rows):
        if r[3] >= 0:
            children.setdefault(r[3], []).append(i)
    out = {}
    for i, (name, start, end, _, rep) in enumerate(rows):
        acc = out.setdefault(rep, {})
        acc[name + "_s"] = acc.get(name + "_s", 0.0) + (end - start)
        covered, hi = 0.0, start
        for lo2, hi2 in sorted((rows[c][1], rows[c][2])
                               for c in children.get(i, [])):
            lo2 = max(lo2, hi)
            if hi2 > lo2:
                covered += hi2 - lo2
                hi = hi2
        key = name.split(".")[0] + ".self_s"
        acc[key] = acc.get(key, 0.0) + (end - start) - covered
    return out


def span_medians(rows):
    """Median over reps of every per-rep span total."""
    per_rep = layer_times(rows)
    names = {k for acc in per_rep.values() for k in acc}
    return {k: median([acc.get(k, 0.0) for acc in per_rep.values()])
            for k in names}


# --- host record -----------------------------------------------------------

def calibrate(bindir):
    p = subprocess.run([os.path.join(bindir, "clusterbench"), "calibrate"],
                       capture_output=True, text=True, check=True,
                       timeout=TIMEOUT_S)
    return json.loads(p.stdout.strip().splitlines()[-1])


# --- in-process workloads (kernel, tournament) -------------------------------

def harness_args(bindir, workload, args):
    cmd = [os.path.join(bindir, "clusterbench"), workload,
           "--seed", str(args.seed)]
    if workload == "kernel":
        cmd += ["--replicas", str(KERNEL_REPLICAS)]
    else:
        cmd += ["--replicas", str(TOURNAMENT_REPLICAS),
                "--threads", str(WORKERS),
                "--warmup", str(TOURNAMENT_WARMUP),
                "--measure", str(TOURNAMENT_MEASURE)]
    return cmd


def spawn_until_ready(cmd):
    """Start the harness; return (process, seconds until 'ready')."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.monotonic() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"harness did not start: {line!r}")
    return proc, ready


def run_in_process(bindir, workload, args):
    cmd = harness_args(bindir, workload, args)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = spawn_until_ready(cmd + ["--setup-only"])
        proc.wait(timeout=TIMEOUT_S)
        setups.append(ready)
    cmd += ["--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    proc, ready = spawn_until_ready(cmd)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    reps = res["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    threads = res["threads"]
    walls = [r["point_walls"] for r in plain]
    m = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "sim_mips": median([r["instructions"] / r["wall_s"] / 1e6
                            for r in plain]),
        "first_result_s": median([r["first_result_s"] for r in plain]),
        "peak_rss_mb": res["peak_rss_mb"],
        "sim_ipc_geomean": geomean(res["ipcs"]),
    }
    layers = {}
    if args.trace:
        spans = span_medians(res["spans"])
        layers.update({k: v for k, v in spans.items()
                       if not k.startswith("bench.")})
        layers.update(res["counters"])
        tr_cpu = median([r["cpu_s"] for r in traced])
        tr_wall = median([r["wall_s"] for r in traced])
        points_cpu = median([r["points_cpu_s"] for r in traced])
        measure_s = spans.get("core.measure_s", 0.0)
        layers.update({
            "core.ns_per_inst": 1e9 * ratio(measure_s,
                                            res["counters"]["core.committed"]),
            "core.ns_per_cycle": 1e9 * ratio(measure_s,
                                             res["counters"]["core.sim_cycles"]),
            "reconfig.make_share": ratio(spans.get("reconfig.make_s", 0.0),
                                         tr_cpu),
            "sim.points_cpu_s": points_cpu,
            "sim.cpu_unaccounted_frac": 1.0 - ratio(points_cpu, tr_cpu),
            "sim.worker_util": ratio(points_cpu, tr_wall * threads),
            "sim.point_p50_s": median([quantile(w, 0.5) for w in walls]),
            "sim.point_p80_s": median([quantile(w, 0.8) for w in walls]),
            "trace.overhead_frac": ratio(tr_wall, m["wall_s"]) - 1.0,
        })
    record = {"threads": threads, "reps": len(reps),
              "rep_walls_s": [r["wall_s"] for r in reps],
              "setup_samples_s": setups}
    return m, layers, res["attempted"], res["failures"], record, res["spans"]


# --- served workloads --------------------------------------------------------

class Daemon:
    """One sweepd process with its own cache and checkpoint store."""

    def __init__(self, bindir, workdir):
        os.makedirs(workdir)
        port_file = os.path.join(workdir, "port")
        self.log = open(os.path.join(workdir, "sweepd.log"), "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [os.path.join(bindir, "sweepd"), "--port-file", port_file,
             "--cache", os.path.join(workdir, "cache"),
             "--checkpoints", os.path.join(workdir, "ckpt"),
             "--workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            port = None
            while port is None:
                if self.proc.poll() is not None:
                    raise RuntimeError("sweepd exited during start-up")
                if time.monotonic() - t0 > 30:
                    raise RuntimeError("sweepd did not bind")
                try:
                    with open(port_file) as f:
                        text = f.read()
                    if text.endswith("\n"):
                        port = int(text)
                except FileNotFoundError:
                    pass
                if port is None:
                    time.sleep(0.001)
            self.sock = socket.create_connection(("127.0.0.1", port),
                                                 timeout=TIMEOUT_S)
            self.reader = self.sock.makefile("rb")
            hello = self.frame()
            if hello.get("type") != "hello":
                raise RuntimeError(f"unexpected greeting {hello}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - t0

    def frame(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("sweepd closed the connection")
        return json.loads(line)

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def submit(self, spans, parent, warmup, measure):
        """Submit fig5 and stream it to the done frame. Returns the
        done frame, the arrival times of point frames (relative to the
        submit) and the largest gap between frames."""
        t0 = time.monotonic()
        sid = spans.open("serve.submit", parent, t0)
        self.send({"type": "submit", "preset": "fig5",
                   "warmup": warmup, "measure": measure})
        arrivals, errors, last = [], 0, t0
        gap = 0.0
        while True:
            f = self.frame()
            t = time.monotonic()
            spans.close(spans.open("serve.frame", sid, last), t)
            gap = max(gap, t - last)
            last = t
            kind = f.get("type")
            if kind in ("point", "point_error"):
                arrivals.append(t - t0)
                errors += kind == "point_error"
            elif kind == "done":
                break
            elif kind != "accepted":
                raise RuntimeError(f"unexpected frame {f}")
        spans.close(sid, last)
        return {"done": f, "arrivals": arrivals, "errors": errors,
                "gap": gap, "report_s": last - t0 - arrivals[-1]
                if arrivals else 0.0}

    def stats(self):
        self.send({"type": "stats"})
        f = self.frame()
        if f.get("type") != "stats":
            raise RuntimeError(f"unexpected frame {f}")
        return f

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """Shut down gracefully, escalating if needed; always reaps."""
        try:
            if getattr(self, "sock", None):
                self.send({"type": "shutdown"})
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if getattr(self, "sock", None):
                self.reader.close()
                self.sock.close()
                self.sock = None
            self.log.close()


def delta(after, before, section):
    return {k: after[section][k] - before[section].get(k, 0)
            for k in after[section] if isinstance(after[section][k], int)
            and not isinstance(after[section][k], bool)}


def reference_report(bindir, workdir, measure):
    """`sweep --no-timing` for fig5 at the served lengths."""
    out = os.path.join(workdir, f"reference-{measure}.json")
    subprocess.run([os.path.join(bindir, "sweep"), "--preset", "fig5",
                    "--warmup", str(FIG5_WARMUP), "--measure", str(measure),
                    "--threads", str(WORKERS), "--no-timing", "--quiet",
                    "--out", out], check=True, timeout=TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return f.read()


def compare_reports(served, reference, what):
    """Failures (one per differing run entry) of a served report
    against the CLI reference."""
    if served == reference or served + "\n" == reference:
        return []
    a, b = json.loads(served), json.loads(reference)
    bad = [i for i, (x, y) in enumerate(zip(a["runs"], b["runs"])) if x != y]
    bad += list(range(min(len(a["runs"]), len(b["runs"])),
                      max(len(a["runs"]), len(b["runs"]))))
    return [f"{what}: run {i} differs from sweep --no-timing"
            for i in bad] or [f"{what}: report bytes differ"]


def model_accuracy(report):
    """ivl-explore gain over the best static organisation and mean
    disabled clusters, from a fig5 report."""
    runs = json.loads(report)["runs"]
    ipc = {}
    for r in runs:
        ipc.setdefault(r["config"], []).append(r["metrics"]["ipc"])
    best_static = max(geomean(ipc["static-4"]), geomean(ipc["static-16"]))
    active = [r["metrics"]["avg_active_clusters"] for r in runs
              if r["config"] == "ivl-explore"]
    return {"model.explore_gain": geomean(ipc["ivl-explore"]) / best_static
            - 1.0,
            "model.disabled_clusters": 16.0 - statistics.fmean(active)}


def expect_sources(sub, what, **want):
    """Failures where a done frame's counters differ from `want`."""
    done = sub["done"]
    return [f"{what}: done.{k} is {done.get(k)}, expected {v}"
            for k, v in want.items() if done.get(k) != v]


def served_rep(bindir, workroot, warm, measure, spans, recheck):
    """One unit of served work on a fresh daemon and fresh stores.
    Returns the rep record and the submissions whose reports must
    match the run's first report."""
    quiet = Spans()  # set-up and check submissions are not traced
    points = None
    rep_id = spans.open("bench.rep")
    t_setup = time.monotonic()
    d = Daemon(bindir, workroot)
    try:
        spans.close(spans.open("serve.spawn", rep_id, t_setup),
                    t_setup + d.ready_s)
        checked, failures = [], []
        if warm:
            pop = d.submit(quiet, -1, FIG5_WARMUP, FIG5_MEASURE)
            checked.append(pop)
            points = len(pop["arrivals"])
        setup = time.monotonic() - t_setup
        before = d.stats()
        cpu0 = d.cpu_s()
        t0 = time.monotonic()
        timed = [d.submit(spans, rep_id, FIG5_WARMUP, measure)]
        if warm:
            timed.append(d.submit(spans, rep_id, FIG5_WARMUP, measure))
        wall = time.monotonic() - t0
        cpu = d.cpu_s() - cpu0
        after = d.stats()
        rss = d.peak_rss_mb()
        if recheck:
            # Cached resubmission, outside the timed phase: it must
            # replay byte-identical bytes.
            checked.append(d.submit(quiet, -1, FIG5_WARMUP, measure))
    finally:
        d.stop()
        spans.close(rep_id)
        shutil.rmtree(workroot, ignore_errors=True)

    n = points or len(timed[0]["arrivals"])
    if warm:
        failures += expect_sources(timed[0], "warm resubmission",
                                   cache_hits=0, computed=n, warm_hits=n)
        failures += expect_sources(timed[1], "identical resubmission",
                                   cache_hits=n, computed=0)
    else:
        failures += expect_sources(timed[0], "cold submission",
                                   cache_hits=0, computed=n, warm_hits=0)
    first = timed[0]
    rec = {
        "traced": spans.enabled, "setup_s": setup, "ready_s": d.ready_s,
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        "first_result_s": first["arrivals"][0] if first["arrivals"] else wall,
        "instructions": sum(len(s["arrivals"]) for s in timed)
        * (FIG5_WARMUP + measure),
        "arrivals": first["arrivals"], "report_s": first["report_s"],
        "frame_gap_s": max(s["gap"] for s in timed),
        "before": before, "after": after,
    }
    return rec, timed, checked, failures


def run_served(bindir, workload, args):
    warm = workload == "served_warm"
    measure = FIG5_WARM_MEASURE if warm else FIG5_MEASURE
    workroot = os.path.join(build_dir(), "work", workload)
    shutil.rmtree(workroot, ignore_errors=True)
    spans = Spans()
    reps, failures, attempted = [], [], 0
    first_report = None
    start = time.monotonic()
    try:
        while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
            spans.enabled = args.trace and len(reps) % 2 == 1
            spans.rep = len(reps)
            rec, timed, checked, bad = served_rep(
                bindir, workroot, warm, measure, spans,
                recheck=not warm and len(reps) == 0)
            reps.append(rec)
            failures += bad
            for s in checked + timed:
                attempted += len(s["arrivals"])
                if s["errors"] or s["done"].get("status") != "ok":
                    failures.append(f"{workload}: {s['errors']} point errors")
            if first_report is None:
                first_report = timed[0]["done"].get("report", "")
            for s in timed + checked[1 if warm else 0:]:
                if s["done"].get("report", "") != first_report:
                    failures.append(f"{workload}: report differs from the "
                                    "run's first report")
        spans.enabled = False
        os.makedirs(workroot)
        failures += compare_reports(first_report,
                                    reference_report(bindir, workroot, measure),
                                    workload)
        ckpt = None
        if args.trace:
            p = subprocess.run(
                [os.path.join(bindir, "clusterbench"), "checkpoint",
                 "--warmup", str(FIG5_WARMUP), "--measure", str(measure),
                 "--dir", os.path.join(workroot, "inprocess")],
                capture_output=True, text=True, check=True, timeout=TIMEOUT_S)
            ckpt = json.loads(p.stdout.strip().splitlines()[-1])
            failures += ckpt["failures"]
            served_ipcs = [r["metrics"]["ipc"]
                           for r in json.loads(first_report)["runs"]]
            if ckpt["ipcs"] != served_ipcs:
                failures.append(f"{workload}: in-process restore IPCs differ "
                                "from the served report")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    runs = json.loads(first_report)["runs"]
    m = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "sim_mips": median([r["instructions"] / r["wall_s"] / 1e6
                            for r in plain]),
        "first_result_s": median([r["first_result_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "sim_ipc_geomean": geomean([r["metrics"]["ipc"] for r in runs]),
    }
    layers = {}
    model = model_accuracy(first_report)
    if args.trace:
        last = traced[-1]
        cache = delta(last["after"], last["before"], "cache")
        ck = delta(last["after"], last["before"], "checkpoints")
        sched = delta(last["after"], last["before"], "scheduler")
        ck_after = last["after"]["checkpoints"]
        tr_wall = median([r["wall_s"] for r in traced])
        tr_cpu = median([r["cpu_s"] for r in traced])
        layers.update({k: v for k, v in span_medians(spans.rows).items()
                       if not k.startswith("bench.")})
        layers.update({k: v for k, v in span_medians(ckpt["spans"]).items()
                       if not k.startswith("bench.")})
        layers.update(model)
        layers["workload.ops_generated"] = ckpt["ops_generated"]
        layers.update({
            "core.sim_cycles": sum(r["metrics"]["cycles"] for r in runs),
            "core.committed": sum(r["metrics"]["instructions"] for r in runs),
            "reconfig.reconfigurations":
                sum(r["metrics"]["reconfigurations"] for r in runs),
            "reconfig.avg_active_clusters": statistics.fmean(
                r["metrics"]["avg_active_clusters"] for r in runs),
            "serve.ready_s": median([r["ready_s"] for r in traced]),
            "serve.cache_hits": cache["hits"],
            "serve.cache_misses": cache["misses"],
            "serve.cache_hit_ratio": ratio(cache["hits"],
                                           cache["hits"] + cache["misses"]),
            "serve.cache_bytes": last["after"]["cache"]["bytes"],
            "serve.points_computed": sched["points_computed"],
            "serve.points_merged": sched["points_merged"],
            "serve.points_failed": sched["points_failed"],
            "serve.frame_gap_max_s": median([r["frame_gap_s"]
                                             for r in traced]),
            "checkpoint.hits": ck["hits"],
            "checkpoint.misses": ck["misses"],
            "checkpoint.stores": ck["stores"],
            "checkpoint.hit_ratio": ratio(ck["hits"], ck["hits"] + ck["misses"]),
            "checkpoint.bytes_per_entry": ratio(ck_after["bytes"],
                                                ck_after["entries"]),
            "ckpt_mb": ck_after["bytes"] / 1e6,
            "sim.worker_util": ratio(tr_cpu, tr_wall * WORKERS),
            "sim.point_p50_s": median([quantile(r["arrivals"], 0.5)
                                       for r in traced]),
            "sim.point_p80_s": median([quantile(r["arrivals"], 0.8)
                                       for r in traced]),
            "sim.report_s": median([r["report_s"] for r in traced]),
            "trace.overhead_frac": ratio(tr_wall, m["wall_s"]) - 1.0,
        })
    record = {"threads": WORKERS, "reps": len(reps),
              "rep_walls_s": [r["wall_s"] for r in reps],
              "setup_samples_s": [r["setup_s"] for r in reps],
              "model_accuracy": {
                  "lengths": {"warmup": FIG5_WARMUP, "measure": measure},
                  "note": "measured at the benchmark's reduced run lengths, "
                          "not the EXPERIMENTS.md lengths; not gated",
                  "explore_gain": model["model.explore_gain"],
                  "paper_explore_gain": PAPER_EXPLORE_GAIN,
                  "disabled_clusters": model["model.disabled_clusters"],
                  "paper_disabled_clusters": PAPER_DISABLED_CLUSTERS}}
    return m, layers, attempted, failures, record, spans.rows


# --- metrics -------------------------------------------------------------------

def load_metrics():
    """(name, unit) of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in bench[kind]]
                 for kind in ("end_to_end", "per_layer"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        end_to_end, per_layer = load_metrics()
        bindir = build()
        host = calibrate(bindir)
        if args.workload in ("kernel", "tournament"):
            m, layers, attempted, failures, record, rows = run_in_process(
                bindir, args.workload, args)
        else:
            m, layers, attempted, failures, record, rows = run_served(
                bindir, args.workload, args)
        host_after = calibrate(bindir)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    m["ok_frac"] = 1.0 - ratio(len(failures), attempted)
    layers["host.calib_s"] = median([host["calib_s"],
                                     host_after["calib_s"]])
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seed_applies": args.workload in ("kernel", "tournament"),
        "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "compiler": host["compiler"],
                 "build_type": host["build_type"],
                 "calib_s_before": host["calib_s"],
                 "calib_s_after": host_after["calib_s"]},
        "attempted": attempted, "failures": failures,
        "end_to_end": m, "per_layer": layers,
    })
    if not record["seed_applies"]:
        record["seed_note"] = ("fixed-seed: the sweepd protocol carries "
                               "no seed")

    if args.trace:
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer}
    else:
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in end_to_end}
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"record": record, "spans": rows}, f)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

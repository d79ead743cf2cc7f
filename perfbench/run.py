#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper|scale|serve|reference \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (the
armstice libraries, the armstice_serve daemon and perfbench_ops) into
.bench_build/; later runs only re-check the build. Each run checks every
output it times, prints a short report, and prints one JSON object as its
last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
operations. --trace 1 runs one untraced and one traced operation of every
workload and reports the per-layer metrics, each layer's self time and the
tracing overhead; spans go to .bench_run/trace-<workload>-seed<N>.json.
perfbench/README.md says why each workload exists and what each metric
should move.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_run"
OPS = BUILD / "perfbench_ops"
SERVE = BUILD / "armstice_serve"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

WORKLOADS = ("paper", "scale", "serve", "reference")
SERVE_SESSIONS = 5        # daemon sessions per serve run, each serving a window
SERVE_SETUPS = 3          # daemon set-ups per session; setup_s is their median
SERVE_WORKERS = 2
RUN_BUDGET_S = 170        # after the build; a whole run must end within 180 s
APPS = ("hpcg", "minikab", "nekbone", "cosa", "castep", "opensbli")
ARTEFACTS = ("table3", "table4", "table5", "fig1", "fig2", "table6", "fig3",
             "table7", "fig4", "table9", "table10")
SOLVERS = ("hpcg", "minikab", "nekbone", "opensbli", "castep")
SHAPES = ("halo", "spmd")
LAYERS = ("bench", "core", "apps", "simmpi", "sim", "serve", "kern")

# Layer metrics this benchmark cannot measure from outside the program,
# and why. Printed with every traced run.
NOT_MEASURED = {
    "arch/net/util spans": "they run inside Engine construction, Engine::run, "
                           "the sweep runner and the daemon; they get spans "
                           "when tracing moves inside the program",
    "serve per-stage latency (queue, evaluate, encode, write)":
        "stages inside the daemon; outside, only the whole exchange is seen",
    "kern.castep.iters, kern.opensbli.iters":
        "castep_reference returns only OpCounts and opensbli_reference runs "
        "a fixed step count; neither reports iterations",
    "p99_ms as an end-to-end metric": "BENCHMARK.json needs every end-to-end "
        "metric on every workload and only serve holds enough operations for "
        "a p99; it is reported as serve.p99_ms (README.md: steadiness)",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no armstice sources under {ROOT}/src")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    logfile = BUILD / "build.log"
    with open(logfile, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                                  "-DCMAKE_BUILD_TYPE=Release", *gen],
                                 stdout=out, stderr=subprocess.STDOUT, env=env)
            if cfg.returncode != 0:
                raise BenchError(f"cmake configure failed (see {logfile})")
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                              stdout=out, stderr=subprocess.STDOUT, env=env)
    if made.returncode != 0:
        raise BenchError(f"build failed (see {logfile})")


# ---- running operations ----------------------------------------------------

deadline = float("inf")  # monotonic time the run must end by; set after the build


def run_op(args):
    """Run perfbench_ops once; return (spawn time, parsed last line)."""
    spawn = time.monotonic()
    if spawn >= deadline:
        raise BenchError(f"out of time before perfbench_ops {args[0]}")
    proc = subprocess.run([str(OPS), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline - spawn)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench_ops {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return spawn, json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


# ---- output checks ---------------------------------------------------------
# Each returns the list of mismatches for one operation (empty = correct).

def check_paper(rec):
    want = EXPECTED["paper"]
    bad = [f"{k}: {rec.get(k)} != {v}" for k, v in want.items() if rec.get(k) != v]
    bad += [f"fig{i + 1}.csv differs from the committed file"
            for i, same in enumerate(rec.get("figs_equal", [False] * 5)) if not same]
    return bad


def check_scale(rec):
    bad = []
    for shape in SHAPES:
        got = rec.get(shape, {})
        for key, want in EXPECTED["scale"][shape].items():
            if got.get(key) != want:
                bad.append(f"{shape}.{key}: {got.get(key)!r} != {want!r}")
    return bad


def check_reference(rec):
    bad = []
    for solver, want in EXPECTED["reference"].items():
        got = rec.get(solver, {})
        got = dict(got.get("cg", {}), **{k: v for k, v in got.items() if k != "cg"})
        for key, value in want.items():
            if got.get(key) != value:
                bad.append(f"{solver}.{key}: {got.get(key)!r} != {value!r}")
    return bad


CHECKS = {"paper": check_paper, "scale": check_scale, "reference": check_reference}


class Result:
    """What one run measured, printed as its one-line JSON result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.report = []

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def line(self):
        correct = self.failed == 0 and self.attempted > 0
        return json.dumps({"correct": correct, "attempted": max(self.attempted, 1),
                           "failed": self.failed if self.attempted else 1,
                           "metrics": self.metrics})


# ---- paper, scale, reference: one fresh process per operation --------------

def op_args(workload, trace_file=None):
    args = [workload]
    if workload == "paper":
        args += ["--root", str(ROOT)]
    if trace_file:
        args += ["--trace-out", str(trace_file)]
    return args


def one_op(workload, res, trace_file=None):
    """One cold operation in a fresh process, checked; None when it failed."""
    res.attempted += 1
    try:
        spawn, rec = run_op(op_args(workload, trace_file))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
        res.fail(f"{workload} operation: {e}")
        return None
    bad = CHECKS[workload](rec)
    if bad:
        res.fail(f"{workload} output: " + "; ".join(bad[:3]))
        return None
    rec["setup_s"] = rec["ready"] - spawn
    return rec


def run_ops(workload, seconds, res):
    # Back-to-back operations; another starts while it would end (by the
    # last one's duration) less than half an operation past the window.
    start = time.monotonic()
    recs = []
    last = 0.0
    while time.monotonic() - start + last / 2 < seconds:
        t0 = time.monotonic()
        rec = one_op(workload, res)
        last = time.monotonic() - t0
        if rec:
            recs.append(rec)
    if not recs:
        return
    op_ms = [r["op_s"] * 1e3 for r in recs]
    setup = [r["setup_s"] for r in recs]
    rss = [r["rss_kb"] / 1024 for r in recs]
    res.metric("p50_ms", median(op_ms), "ms")
    res.metric("fresh_p50_ms", median(op_ms), "ms")  # every operation is cold
    res.metric("setup_s", median(setup), "s")
    res.metric("peak_rss_mb", median(rss), "MiB")
    name = {"paper": "regen_s", "scale": "run_s", "reference": "solve_s"}[workload]
    res.report.append(f"  {name:13s} median {median(op_ms) / 1e3:.4f} s over "
                      f"{len(recs)} operations (p50_ms, fresh_p50_ms)")
    res.report.append(f"  setup_s       median {median(setup):.5f} s over {len(setup)}")
    res.report.append(f"  peak_rss_mb   median {median(rss):.1f} MiB")


# ---- serve: the daemon as users run it --------------------------------------

class Daemon:
    """armstice_serve on a unix socket with a fresh cache directory."""

    def __init__(self, rundir, tag):
        # Relative to ROOT: unix socket paths are limited to 108 bytes.
        self.socket = os.path.relpath(rundir / f"{tag}.sock", ROOT)
        cache = rundir / f"{tag}-cache"
        self.spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [str(SERVE), "--unix", self.socket, "--workers", str(SERVE_WORKERS),
             "--cache-dir", str(cache)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            self.stop()
            raise BenchError(f"armstice_serve did not start: {line.strip()!r}")

    def warm(self):
        """Compute the hot key set; returns the daemon's set-up time."""
        _, rec = run_op(["serve-warm", "--socket", self.socket])
        return rec["warm_done"] - self.spawn

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup_only(rundir, tag):
    """Set up a daemon and stop it; returns its set-up time."""
    daemon = Daemon(rundir, tag)
    try:
        return daemon.warm()
    finally:
        daemon.stop()


def serve_window(rundir, seed, seconds, res, tag, trace_file=None):
    """Set up a daemon, run one open-loop window against it, check it."""
    daemon = Daemon(rundir, tag)
    try:
        setup = daemon.warm()
        args = ["serve-load", "--socket", daemon.socket, "--seed", str(seed),
                "--seconds-ms", str(int(seconds * 1000))]
        if trace_file:
            args += ["--trace-out", str(trace_file),
                     "--scratch", str(rundir / f"{tag}-store")]
        _, rec = run_op(args)
        rec["setup_s"] = setup
        rec["rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    res.attempted += rec["attempted"]
    for why, n in rec["fail_reasons"].items():
        for _ in range(n):
            res.fail(f"serve request: {why}")
    return rec


def pct(values, q):
    """Percentile by linear interpolation between order statistics."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def pooled(recs):
    """Latency lists of several daemon sessions, pooled."""
    out = {k: [x for r in recs for x in r[k]]
           for k in ("hit_ms", "fresh_ms", "coalesced_ms", "late_ms")}
    out["all_ms"] = out["hit_ms"] + out["fresh_ms"] + out["coalesced_ms"]
    return out


def run_serve(seed, seconds, rundir, res):
    # Several daemon sessions per run, each a fresh process with its own
    # set-up and its own slice of the window: a daemon's latency level varies
    # from process to process, and pooling sessions averages that out. Before
    # each session, extra daemons only set up and stop (~0.1 s each), so
    # setup_s is a median over set-ups spread across the whole run.
    recs, setups = [], []
    for i in range(SERVE_SESSIONS):
        setups += [setup_only(rundir, f"setup{i}-{k}") for k in range(SERVE_SETUPS - 1)]
        recs.append(serve_window(rundir, seed * SERVE_SESSIONS + i,
                                 seconds / SERVE_SESSIONS, res, f"session{i}"))
        setups.append(recs[-1]["setup_s"])
    lat = pooled(recs)
    rss = [r["rss_mb"] for r in recs]
    res.metric("p50_ms", pct(lat["hit_ms"], 0.5), "ms")
    res.metric("fresh_p50_ms", pct(lat["fresh_ms"], 0.5), "ms")
    res.metric("setup_s", median(setups), "s")
    res.metric("peak_rss_mb", median(rss), "MiB")
    n_all = len(lat["all_ms"])
    share = {k: len(lat[f"{k}_ms"]) / max(n_all, 1) for k in ("hit", "fresh", "coalesced")}
    res.report += [
        f"  request mix   hit {share['hit']:.2%}, fresh {share['fresh']:.2%}, "
        f"coalesced {share['coalesced']:.2%} of {n_all} answered requests "
        "(measured; the schedule's shares are assumptions, README.md: serve)",
        f"  hit_p50_ms    {pct(lat['hit_ms'], 0.5):.4f} ms over {len(lat['hit_ms'])} "
        "requests (p50_ms)",
        f"  fresh_p50_ms  {pct(lat['fresh_ms'], 0.5):.3f} ms over {len(lat['fresh_ms'])} "
        "requests",
        f"  p99_ms        {pct(lat['all_ms'], 0.99):.3f} ms over all {n_all} requests, "
        f"{n_all - int(0.99 * n_all)} beyond it (per-layer: serve.p99_ms)",
        f"  setup_s       median {median(setups):.4f} s over {len(setups)} daemon set-ups",
        f"  peak_rss_mb   median {median(rss):.1f} MiB over {len(rss)} serving daemons",
    ]


# ---- traced run ------------------------------------------------------------

def read_spans(path, spans):
    """Append the spans of one span file, re-basing parent indices."""
    base = len(spans)
    for name, t0, t1, parent, req in json.loads(Path(path).read_text()):
        spans.append([name, t0, t1, parent + base if parent >= 0 else -1, req])


def self_times(spans):
    """Each layer's self time: its spans minus the time their children cover."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + max(0.0, (t1 - t0) - covered[i])
    return out


def span_s(spans, name):
    return sum(t1 - t0 for n, t0, t1, _, _ in spans if n == name)


def traced(workload, seed, seconds, rundir, res):
    spans = []
    m = res.metric

    # paper: the untraced operation gives the sweep counts; the traced one
    # calls each artefact function under its own span, then scores.
    plain = one_op("paper", res)
    tfile = rundir / "paper.spans"
    rec = one_op("paper", res, tfile)
    if plain and rec:
        read_spans(tfile, spans)
        m("trace.overhead_ms.paper", (rec["op_s"] - plain["op_s"]) * 1e3, "ms")
        for art in ARTEFACTS:
            m(f"core.{art}_s", span_s(spans, f"core.{art}"), "s")
        m("core.score_s", span_s(spans, "core.score"), "s")
        m("core.sweep.points", plain["sweep_points"], "count")
        m("core.sweep.evaluated", plain["sweep_evaluated"], "count")
        m("core.sweep.memo_hits", plain["sweep_memo_hits"], "count")
        for app in APPS:
            m(f"apps.{app}_ms", span_s(spans, f"apps.{app}") * 1e3, "ms")
            m(f"sim.{app}.classes", rec["apps"][app]["classes"], "count")
            m(f"sim.{app}.split_noise", rec["apps"][app]["split_noise"], "count")

    # scale: spans around program build, bundling, Engine construction and
    # Engine::run, per skeleton.
    plain = one_op("scale", res)
    tfile = rundir / "scale.spans"
    rec = one_op("scale", res, tfile)
    if plain and rec:
        read_spans(tfile, spans)
        m("trace.overhead_ms.scale", (rec["op_s"] - plain["op_s"]) * 1e3, "ms")
        for shape in SHAPES:
            s = rec[shape]
            m(f"simmpi.build_s.{shape}", s["build_s"], "s")
            m(f"simmpi.bundle_s.{shape}", s["bundle_s"], "s")
            m(f"sim.engine_ctor_s.{shape}", s["engine_ctor_s"], "s")
            m(f"sim.run_s.{shape}", s["run_s"], "s")
            m(f"sim.ops_per_s.{shape}", s["ops"] / s["run_s"], "1/s")
            for key in ("classes", "splits", "split_p2p", "split_placement"):
                m(f"sim.{key}.{shape}", s[key], "count")

    # reference: one span per solve, then direct kernel calls.
    plain = one_op("reference", res)
    tfile = rundir / "reference.spans"
    rec = one_op("reference", res, tfile)
    if plain and rec:
        read_spans(tfile, spans)
        m("trace.overhead_ms.reference", (rec["op_s"] - plain["op_s"]) * 1e3, "ms")
        for solver in SOLVERS:
            r = rec[solver]
            m(f"kern.{solver}_s", r["s"], "s")
            if "cg" in r:
                m(f"kern.{solver}.iters", r["cg"]["iters"], "count")
            counts = r["cg"]["counts"] if "cg" in r else r["counts"]
            m(f"kern.{solver}.flops", counts["flops"], "flop")
            m(f"kern.{solver}.bytes", counts["bytes"], "B")
        for k, v in rec["kernels"].items():
            m(f"kern.{k}", v, "ms")

    # serve: two identical windows on fresh daemons, untraced then traced.
    window = max(2.0, seconds / 5)
    plain = serve_window(rundir, seed, window, res, "plain")
    tfile = rundir / "serve.spans"
    rec = serve_window(rundir, seed, window, res, "traced", tfile)
    read_spans(tfile, spans)
    m("trace.overhead_ms.serve",
      pct(rec["hit_ms"], 0.5) - pct(plain["hit_ms"], 0.5), "ms")
    # Both windows together hold ~2,000 requests, ~20 beyond the p99.
    lat = pooled([plain, rec])
    m("serve.p99_ms", pct(lat["all_ms"], 0.99), "ms")
    m("serve.coalesced_p50_ms", pct(lat["coalesced_ms"], 0.5), "ms")
    m("serve.gen_late_p99_ms", pct(lat["late_ms"], 0.99), "ms")
    for key in ("cache_hits", "coalesced", "computed", "retries", "errors"):
        m(f"serve.{key}", rec["stats"][key], "count")
    p = rec["probes"]
    m("serve.canonicalize_us", p["canonicalize_us"], "us")
    m("serve.frame_encode_us", p["frame_encode_us"], "us")
    m("serve.frame_decode_us", p["frame_decode_us"], "us")
    m("core.codec.encode_us", p["codec_encode_us"], "us")
    m("core.cache.store_us", p["cache_store_us"], "us")
    m("core.codec.payload_bytes", p["payload_bytes"], "B")
    m("apps.eval_ms", p["eval_ms"], "ms")

    layers = self_times(spans)
    for layer in LAYERS:
        m(f"self.{layer}_s", layers[layer], "s")
    trace_path = RUNS / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({"spans": spans, "self_s": layers}))
    res.report.append(f"  {len(spans)} spans written to {trace_path.relative_to(ROOT)}")
    for what, why in NOT_MEASURED.items():
        res.report.append(f"  not measured from outside: {what} ({why})")


# ---- main ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    try:
        build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / f"{a.workload}-seed{a.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    res = Result()
    try:
        if a.trace:
            traced(a.workload, a.seed, a.seconds, rundir, res)
        elif a.workload == "serve":
            run_serve(a.seed, a.seconds, rundir, res)
        else:
            run_ops(a.workload, a.seconds, res)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        res.fail(f"{a.workload}: {e}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace}: "
          f"fail_frac {res.failed}/{res.attempted}")
    for line in res.report:
        print(line)
    for p in res.problems[:10]:
        print(f"  FAILED {p}")
    print(res.line(), flush=True)
    return 0 if res.failed == 0 and res.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())

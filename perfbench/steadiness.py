#!/usr/bin/env python3
"""Steadiness evidence behind the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py

Runs, with one build and BENCHMARK.json's run_seconds: two sets of untraced
runs of every workload run.py has (seeds 1..10, workloads interleaved seed by
seed), one held-out seed per workload, and two traced runs of one seed.
Writes perfbench/steadiness.json with, for each (workload, end-to-end
metric), each set's median, quartiles and spread ((q3 - q1) / median, the
statistic the bounds are judged by), the ratio of the two medians, the
held-out value, and whether every timing-independent per-layer count
repeated exactly between the two traced runs. It also records the spread of
serve's p99, which the serve report prints. A workload that BENCHMARK.json
does not list is measured the same way, and its rows say whether it would
stay within the bounds. Takes about 2 * 10 * workloads * (run_seconds + 3) s.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = BENCH / "steadiness.json"
SEEDS = range(1, 11)
HELD_OUT = 1009
# Counts that depend on timing: whether a duplicate fresh request arrives
# while its twin computes (coalesced) or after it finished (cache hit).
TIMING_DEPENDENT = {"serve.cache_hits", "serve.coalesced"}


def run(workload, seed, seconds, trace=0):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    # serve's p99 is in its report, not in the metrics (README.md: p99_ms).
    for line in lines:
        if line.split()[:1] == ["p99_ms"]:
            out["p99_ms"] = float(line.split()[1])
    out["exit"] = proc.returncode
    print(f"{workload:9s} seed {seed:5d} trace {trace}: {out['wall_s']:5.1f} s "
          f"correct={out['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                     if trace == 0), flush=True)
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    seconds = SPEC["run_seconds"]
    gated = {w["name"] for w in SPEC["workloads"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    sets = []
    for _ in range(2):
        runs = {w: [] for w in WORKLOADS}
        for seed in SEEDS:
            for w in WORKLOADS:
                runs[w].append(run(w, seed, seconds))
        sets.append(runs)
    held = {w: run(w, HELD_OUT, seconds) for w in WORKLOADS}
    traced = [run(WORKLOADS[0], 1, seconds, trace=1) for _ in range(2)]

    report = {"seconds": seconds, "seeds": list(SEEDS), "held_out_seed": HELD_OUT,
              "workloads": {}, "ok": True}
    for w in WORKLOADS:
        rows = {}
        for name, bound in bounds.items():
            s1, s2 = (summary([r["metrics"][name]["value"] for r in runs[w]])
                      for runs in sets)
            ratio = s2["median"] / s1["median"]
            row = {"bound": bound, "set1": s1, "set2": s2,
                   "median_ratio": ratio,
                   "held_out": held[w]["metrics"][name]["value"]}
            # The acceptance rule: both spreads within the bound, and the
            # second median no worse than the first by more than it.
            row["within_bound"] = (ratio <= 1 + bound and
                                   max(s1["spread"], s2["spread"]) <= bound)
            row["below_third"] = max(s1["spread"], s2["spread"]) < bound / 3
            rows[name] = row
        if all("p99_ms" in r for r in sets[0][w]):
            s1, s2 = (summary([r["p99_ms"] for r in runs[w]]) for runs in sets)
            rows["p99_ms (report only)"] = {"set1": s1, "set2": s2,
                                            "median_ratio": s2["median"] / s1["median"]}
        walls = [r["wall_s"] for runs in sets for r in runs[w]]
        failed = sum(r["failed"] for runs in sets for r in runs[w])
        within = all(row.get("within_bound", True) for row in rows.values())
        report["workloads"][w] = {"gated": w in gated, "within_bounds": within,
                                  "metrics": rows, "max_wall_s": max(walls),
                                  "median_wall_s": statistics.median(walls),
                                  "failed": failed}
        if w in gated:
            report["ok"] &= within
        report["ok"] &= failed == 0

    counts = {}
    for name, m in traced[0]["metrics"].items():
        if m["unit"] in ("count", "flop", "B") and name not in TIMING_DEPENDENT:
            counts[name] = [t["metrics"][name]["value"] for t in traced]
    repeated = all(v[0] == v[1] for v in counts.values())
    report["counts_repeat_exactly"] = repeated
    report["counts"] = {k: v[0] for k, v in counts.items()}
    report["traced_wall_s"] = [t["wall_s"] for t in traced]
    report["ok"] &= repeated
    OUT.write_text(json.dumps(report, indent=1) + "\n")

    for w, r in report["workloads"].items():
        print(f"{w}: {'gated' if r['gated'] else 'not gated'}, "
              f"{'within' if r['within_bounds'] else 'OUT OF'} bounds")
        for name, row in r["metrics"].items():
            if "bound" not in row:
                print(f"{w:9s} {name} spread {row['set1']['spread']:.3f}/"
                      f"{row['set2']['spread']:.3f} median ratio {row['median_ratio']:.3f}")
                continue
            print(f"{w:9s} {name:13s} bound {row['bound']:.2f} "
                  f"spread {row['set1']['spread']:.3f}/{row['set2']['spread']:.3f} "
                  f"median ratio {row['median_ratio']:.3f} "
                  f"{'ok' if row['within_bound'] else 'OUT OF BOUND'}"
                  f"{'' if row['below_third'] else ' (spread above bound/3)'}")
    print(f"timing-independent counts repeat exactly: {repeated}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

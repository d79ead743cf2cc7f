#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Shows that each failure mode the benchmark must count is counted: a wrong
payload byte, a RETRY_LATER refusal, a lost connection, an ERROR frame and a
point error on the serve path (perfbench_ops selftest drives the workload's
own exchange and byte-compare code against misbehaving servers), and a wrong
output on the paper, scale and reference paths (run.py's checks against
expected.json). Builds perfbench/ first if needed.
"""

import copy
import json
import subprocess
import unittest

import run


def paper_record():
    rec = dict(run.EXPECTED["paper"])
    rec["figs_equal"] = [True] * 5
    return rec


def scale_record():
    return copy.deepcopy(run.EXPECTED["scale"])


def reference_record():
    rec = {}
    for solver, want in run.EXPECTED["reference"].items():
        want = copy.deepcopy(want)
        if "iters" in want:
            rec[solver] = {"s": 0.1, "cg": want}
        else:
            rec[solver] = dict(want, s=0.1)
    return rec


class OutputChecks(unittest.TestCase):
    def test_recorded_outputs_pass(self):
        self.assertEqual(run.check_paper(paper_record()), [])
        self.assertEqual(run.check_scale(scale_record()), [])
        self.assertEqual(run.check_reference(reference_record()), [])

    def test_wrong_figure_byte_fails(self):
        rec = paper_record()
        rec["figs_equal"][2] = False
        self.assertEqual(len(run.check_paper(rec)), 1)

    def test_wrong_scorecard_total_fails(self):
        rec = paper_record()
        rec["within_5pct"] -= 1
        self.assertEqual(len(run.check_paper(rec)), 1)

    def test_one_ulp_makespan_change_fails(self):
        rec = scale_record()
        m = rec["halo"]["makespan"]
        rec["halo"]["makespan"] = m + m * 2 ** -52
        self.assertEqual(len(run.check_scale(rec)), 1)

    def test_class_count_change_fails(self):
        rec = scale_record()
        rec["spmd"]["classes"] += 1
        self.assertEqual(len(run.check_scale(rec)), 1)

    def test_iteration_count_change_fails(self):
        rec = reference_record()
        rec["hpcg"]["cg"]["iters"] += 1
        self.assertEqual(len(run.check_reference(rec)), 1)

    def test_failures_make_the_run_incorrect(self):
        res = run.Result()
        res.attempted = 3
        res.fail("wrong byte")
        line = json.loads(res.line())
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (3, 1))


class ServeFailureAccounting(unittest.TestCase):
    def test_each_failure_mode_counts(self):
        run.build()
        workdir = run.RUNS / "selftest"
        workdir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([str(run.OPS), "selftest", "--dir",
                               str(workdir.relative_to(run.ROOT))],
                              cwd=run.ROOT, capture_output=True, text=True,
                              timeout=120)
        print(proc.stdout, end="")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        cases = {line.split()[1]: line.split()[2]
                 for line in proc.stdout.splitlines()
                 if line.startswith("selftest ") and len(line.split()) > 2}
        for case in ("clean", "wrong-byte", "retry-later", "lost-connection",
                     "error-frame", "point-error"):
            self.assertEqual(cases.get(case), "ok", case)


if __name__ == "__main__":
    unittest.main()

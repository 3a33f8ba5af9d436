"""Self-tests of the benchmark (not of cqmap).

    python3 perfbench/selftest.py

They run ``run.py`` in subprocesses with ``--seconds 0`` (one pass, or one
untraced and one traced pass) and take about three minutes on two cores:

* the gate fails a run whose reference has been corrupted;
* a seed other than the usual ones passes the gate;
* traced and untraced passes write byte-identical outputs, and every count
  repeats exactly between two traced runs;
* per pass, the self times of all spans sum to the root span;
* the tracer restores every binding it wrapped;
* the dominant layer of each workload takes most of its traced time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

DOMINANT = {
    "gap_sweep": "spectral.extreme_eigenpairs.self_s",
    "anneal": "anneal.run_qa.self_s",
    "inverse_map": "mapping.ground_state.self_s",
}


def bench(workload, seed=1, trace=0, *extra):
    """Run the benchmark once; return (exit code, result object, stdout)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout + done.stderr


def tmpdir():
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(dir=SCRATCH)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_and_clipped(self):
        spans = [
            {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0},
            {"id": 3, "name": "c", "parent": 0, "start": 3.5, "end": 12.0},
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 1.0, 1: 2.0, 2: 1.0, 3: 8.5})

    def test_uninstall_restores_every_binding(self):
        inputs.import_cqmap()
        before = tracing.binding_snapshot()
        tracer = tracing.Tracer("selftest")
        tracer.install()
        self.assertNotEqual(tracing.binding_snapshot(), before)
        tracer.uninstall()
        self.assertEqual(tracing.binding_snapshot(), before)


class GateTest(unittest.TestCase):
    def test_corrupted_reference_fails(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        reference["q2c_tf"]["lambda0"] += 1e-6
        path = os.path.join(tmpdir(), "reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        code, result, out = bench("inverse_map", 1, 0, "--reference", path)
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0.0)
        self.assertLess(result["metrics"]["pass_frac"]["value"], 1.0)

    def test_second_seed_passes(self):
        code, result, out = bench("inverse_map", 424242)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in DOMINANT:
            for attempt in range(2):
                code, result, out = bench(workload, 1, 1)
                path = out.split("spans written to ", 1)[1].splitlines()[0]
                with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                    spans = json.load(fh)
                os.unlink(os.path.join(ROOT, path))
                cls.runs[workload, attempt] = (code, result, out, spans)

    def test_traced_outputs_match_untraced(self):
        for (workload, attempt), (code, result, out, _) in self.runs.items():
            with self.subTest(workload=workload, attempt=attempt):
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertNotIn("output files differ", out)

    def test_counts_repeat_between_runs(self):
        for workload in DOMINANT:
            first, second = self.runs[workload, 0][1], self.runs[workload, 1][1]
            for key in tracing.COUNTS:
                with self.subTest(workload=workload, count=key):
                    self.assertEqual(first["metrics"][key]["value"],
                                     second["metrics"][key]["value"])

    def test_self_times_sum_to_root(self):
        for (workload, attempt), (_, _, _, trace) in self.runs.items():
            spans = trace["spans"]
            own = tracing.self_times(spans)
            for root in (s for s in spans if s["name"] == tracing.ROOT_SPAN):
                members, frontier = {root["id"]}, [root["id"]]
                while frontier:
                    parent = frontier.pop()
                    for span in spans:
                        if span["parent"] == parent:
                            members.add(span["id"])
                            frontier.append(span["id"])
                total = sum(own[i] for i in members)
                with self.subTest(workload=workload, attempt=attempt):
                    self.assertAlmostEqual(total, root["end"] - root["start"], delta=1e-9)

    def test_dominant_layer_takes_most_time(self):
        for workload, key in DOMINANT.items():
            metrics = self.runs[workload, 0][1]["metrics"]
            layer_total = sum(m["value"] for name, m in metrics.items()
                              if name.endswith(".self_s"))
            with self.subTest(workload=workload):
                self.assertGreater(metrics[key]["value"], 0.5 * layer_total)


if __name__ == "__main__":
    unittest.main()

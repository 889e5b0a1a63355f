#!/usr/bin/env python3
"""Self-test of the benchmark: quick runs of every workload print every
BENCHMARK.json metric with its unit, corrupted outputs are rejected,
and compare.py classifies moves.

    python3 perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


class QuickRuns(unittest.TestCase):
    def check_metrics(self, workload, trace, kind):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, f"{workload}: {err}{lines[-6:]}")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(result["metrics"]), set(want))
        report = "\n".join(lines[:-1])
        for name, unit in want.items():
            got = result["metrics"][name]
            self.assertEqual(got["unit"], unit, name)
            self.assertIsInstance(got["value"], (int, float), name)
            self.assertIn(name, report)
        record = next(l for l in lines if l.startswith("RECORD "))
        host = json.loads(record[len("RECORD "):])["host"]
        for key in ("nproc", "cpu_model", "isa", "build_type", "commit"):
            self.assertIn(key, host)
        return result, report

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.check_metrics(w, 0, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.assertIn("error_ratio", report)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, report = self.check_metrics(w, 1, "per_layer")
                self.assertIn("ladder", report)
                for name in ("ladder.residual_pct", "trace.overhead_pct",
                             "study.residual_pct"):
                    self.assertIn(name, report)
                self.assertIn("study.sim_cycles", report)
                if w == "entropy-routed":
                    self.assertIn("router.hop_us", report)

    def test_corrupted_output_is_rejected(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, _ = run(w, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any(l.startswith("CHECK FAILED")
                                    for l in lines))
        # The traced run's study checks its streams against the
        # recorded digests.
        code, lines, _ = run(WORKLOADS[0], 1, "--corrupt")
        self.assertNotEqual(code, 0)
        self.assertTrue(any(l.startswith("CHECK FAILED: study:")
                            and "digest_mismatch" in l for l in lines))

    def test_no_result_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            (Path(d) / "BENCHMARK.json").write_text(
                (ROOT / "BENCHMARK.json").read_text())
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


class MonobitRule(unittest.TestCase):
    """A monobit failure is retested once on the next sample."""

    def checks(self, p, retest_p):
        res = {"attempted": 10, "failed": 0, "connected": True,
               "failures": {}, "monobit_bits": 1 << 23, "monobit_p": p,
               "monobit_retest_bits": 1 << 23, "monobit_retest_p": retest_p}
        checks = {"attempted": 0, "failed": 0, "errors": []}
        bench.check_load(res, 0, "entropy", checks)
        return checks

    def test_retest(self):
        self.assertFalse(self.checks(0.5, 0.0)["errors"])
        self.assertFalse(self.checks(0.005, 0.3)["errors"])
        failed = self.checks(0.005, 0.002)
        self.assertTrue(failed["errors"])
        self.assertEqual(failed["failed"], 1)


class Compare(unittest.TestCase):
    INFO = {"better": "higher", "bound": 0.1, "kind": "end_to_end"}

    def test_move_unchanged_unresolved(self):
        base = [100, 101, 99, 100, 102]
        self.assertEqual(compare.verdict(base, [120, 121, 119, 122, 120],
                                         self.INFO)["verdict"], "better")
        worse = compare.verdict(base, [80, 81, 79, 80, 82], self.INFO)
        self.assertEqual(worse["verdict"], "worse")
        self.assertTrue(worse["regression"])
        self.assertEqual(compare.verdict(base, [100, 101, 100, 99, 101],
                                         self.INFO)["verdict"], "unchanged")
        noisy = [60, 140, 100, 80, 120]
        self.assertEqual(compare.verdict(base, noisy, self.INFO)["verdict"],
                         "unresolved")
        self.assertEqual(compare.verdict([100], [120], self.INFO)["verdict"],
                         "unresolved")

    def test_reads_record_lines(self):
        with tempfile.TemporaryDirectory() as d:
            log = Path(d) / "a.log"
            recs = [{"workload": "w", "end_to_end": {"throughput_rps": v},
                     "per_layer": {}} for v in (1.0, 2.0, 3.0)]
            log.write_text("noise\n" + "\n".join(
                "RECORD " + json.dumps(r) for r in recs) + "\n{}\n")
            vals = compare.read_set([d])
            self.assertEqual(vals[("w", "throughput_rps")], [1.0, 2.0, 3.0])


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark harness.

    python3 benchmarks/selftest.py

They run short benchmark processes, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from tracing import Tracer, self_times
from workloads import Figures, Sensitivity

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch() -> Path:
    run.RUNS.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


class ShortRuns(unittest.TestCase):
    def check_line(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, entry in result["metrics"].items():
            self.assertIsInstance(entry["value"], float, name)
        return result

    def test_every_workload_prints_every_end_to_end_metric(self):
        for spec in SPEC["workloads"]:
            with self.subTest(workload=spec["name"]):
                proc = _bench("--workload", spec["name"], "--seed", "3",
                              "--seconds", "0.2", "--trace", "0")
                result = self.check_line(proc, "end_to_end")
                self.assertTrue(result["correct"])
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0.0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        proc = _bench("--workload", "sensitivity", "--seed", "3",
                      "--seconds", "0.4", "--trace", "1")
        metrics = self.check_line(proc, "per_layer")["metrics"]
        self.assertEqual(metrics["sensing.solves_per_shift"]["value"], 64.0)
        self.assertEqual(metrics["cubic.match_to_previous.calls"]["value"], 0.0)

    def test_refuses_a_directory_without_the_program(self):
        bare = _scratch()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "figures", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # 0: [0, 10] with children 1: [1, 4] and 3: [5, 9];
        # 2: [2, 3] inside 1, 4: [6, 7] inside 3
        starts = [0.0, 1.0, 2.0, 5.0, 6.0]
        ends = [10.0, 4.0, 3.0, 9.0, 7.0]
        parents = [-1, 0, 1, 0, 3]
        self.assertEqual(self_times(starts, ends, parents),
                         [3.0, 2.0, 1.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 5.0, 8.0], [-1, 0, 0]
        self.assertEqual(self_times(starts, ends, parents)[0], 3.0)

    def test_wrappers_nest_and_uninstall(self):
        from trimag import cubic, sensing

        original = sensing.cardano_roots
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(sensing.cardano_roots, original)
            tracer.begin_op(0)
            sensing.sensitivity_report(0.025)
        finally:
            tracer.uninstall()
        self.assertIs(sensing.cardano_roots, original)
        self.assertIs(cubic.cardano_roots, original)
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["sensing.solves_per_shift"], 64.0)
        self.assertEqual(metrics["sensing.sensitivity_report.calls"], 1.0)
        root = tracer.names.index("sensing.sensitivity_report")
        self.assertEqual(tracer.parents[root], -1)
        children = ("core.locate_ep3", "sensing.exact_eigenshift",
                    "spectrum.total_output_spectrum", "spectrum.find_dip")
        self.assertAlmostEqual(
            metrics["sensing.sensitivity_report.self_ms"],
            metrics["sensing.sensitivity_report.busy_ms"]
            - sum(metrics[f"{name}.busy_ms"] for name in children), places=9)


class Gates(unittest.TestCase):
    def test_corrupted_golden_counts_as_failed_op(self):
        scratch = _scratch()
        try:
            golden = scratch / "golden"
            shutil.copytree(ROOT / "tests" / "golden", golden)
            victim = golden / "fig4_factors.csv"
            data = bytearray(victim.read_bytes())
            data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
            victim.write_bytes(bytes(data))
            workload = Figures(ROOT, 1, scratch / "out", golden=golden)
            result = run.result_line(run.measure(workload, 0.0), {}, [])
            self.assertEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 1)
            self.assertFalse(result["correct"])
        finally:
            shutil.rmtree(scratch)

    def test_floor_limit_lies_below_the_timed_draws(self):
        scratch = _scratch()
        try:
            workload = Sensitivity(ROOT, 1, scratch)
            limit = workload.floor_limit()
            self.assertGreaterEqual(limit, workload.FIG4_DELTA_B_MHZ[0])
            self.assertLess(limit, workload.DELTA_B_MHZ[0])
            self.assertEqual(workload.run_checked(workload.DELTA_B_MHZ[0])[1], "ok")
        finally:
            shutil.rmtree(scratch)

    def test_predictions_cover_every_per_layer_metric(self):
        predictions = json.loads((ROOT / "benchmarks" / "predictions.json").read_text())
        named = [m for layer in predictions["layers"] for m in layer["metrics"]]
        self.assertEqual(sorted(named), sorted(m["name"] for m in SPEC["per_layer"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(predictions["workloads"]), workloads)
        metrics = {m["name"] for m in SPEC["end_to_end"]}
        for layer in predictions["layers"]:
            for claim in layer["moves"] + layer["unchanged"]:
                metric, _, workload = claim.partition("@")
                self.assertIn(metric, metrics, claim)
                self.assertIn(workload, workloads, claim)


if __name__ == "__main__":
    unittest.main()

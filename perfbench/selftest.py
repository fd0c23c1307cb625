"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a ttpsim checkout:

    python3 perfbench/selftest.py

They run every workload untraced and traced, check that each metric
BENCHMARK.json names is printed with its unit, that the tracer's count
self-check passes, that the gates reject deliberately corrupted outputs,
and that the harness refuses to run without the ttpsim sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gates  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


class SmokeRun(unittest.TestCase):

    def test_every_workload_prints_every_metric(self):
        e2e, layer, names = declared()
        self.assertEqual(sorted(names), sorted(workloads.NAMES))
        for name in names:
            for trace, want in (("0", e2e), ("1", layer)):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", trace, "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    *_, report_line, result_line = proc.stdout.splitlines()
                    result = json.loads(result_line)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], report_line)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    report = json.loads(report_line)
                    self.assertEqual(report["failed_ops_share"]["value"], 0.0)
                    if trace == "1":
                        self.assertTrue(report["trace"]["self_check"]["passed"],
                                        report["trace"]["self_check"])

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "trajectory", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Scaling(unittest.TestCase):
    """Times scaled to the reference speed cancel host drift, not program cost."""

    JOB = {"wall_s": 0.5, "setup_s": 0.01, "solve_s": 0.4, "steps": 1000,
           "ref_s": 0.04, "peak_rss_mb": 30.0}

    def assert_scaled(self, job, factor):
        import run

        base, got = run.scaled(self.JOB), run.scaled(job)
        for key, want in (("wall_s", factor), ("setup_s", factor),
                          ("particle_steps_per_s", 1.0 / factor), ("peak_rss_mb", 1.0)):
            self.assertAlmostEqual(got[key] / base[key], want, places=12, msg=key)

    def test_slower_host_cancels(self):
        self.assert_scaled(dict(self.JOB, wall_s=1.0, setup_s=0.02, solve_s=0.8,
                                ref_s=0.08), 1.0)

    def test_slower_program_shows(self):
        self.assert_scaled(dict(self.JOB, wall_s=1.0, setup_s=0.02, solve_s=0.8), 2.0)


class Gates(unittest.TestCase):
    """Each gate passes on a real output and fails on a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import ttpsim.cli

        cls.outputs = {}
        for name in ("trajectory", "ensemble", "verify"):
            spec = workloads.generate(name, 3, "tiny", os.path.join(SCRATCH, name))
            shutil.rmtree(spec["outdir"], ignore_errors=True)
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    rc = ttpsim.cli.main(spec["argv"])
                finally:
                    sys.stdout = stdout
            assert rc == 0, f"{name}: ttpsim exit {rc}"
            cls.outputs[name] = spec

    def corrupt(self, name, filename, edit):
        spec = self.outputs[name]
        bad = os.path.join(SCRATCH, f"{name}-corrupt")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(spec["outdir"], bad)
        path = os.path.join(bad, filename)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines(keepends=True)
        edit(lines)
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(lines)
        return gates.CHECKS[name](bad, spec)

    def test_clean_outputs_pass(self):
        for name, spec in self.outputs.items():
            attempted, failed, breaches = gates.CHECKS[name](spec["outdir"], spec)
            self.assertEqual((attempted, failed, breaches),
                             (gates.operations(spec), 0, []), name)

    def test_perturbed_ux_fails_the_speed_gate(self):
        def edit(lines):
            cols = lines[5].split(",")
            cols[7] = repr(float(cols[7]) * (1.0 + 1e-9))
            lines[5] = ",".join(cols)
        attempted, failed, breaches = self.corrupt("trajectory", "trajectory.csv", edit)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("|u|", breaches[0])

    def test_truncated_trajectory_fails_the_horizon_gate(self):
        _, failed, breaches = self.corrupt("trajectory", "trajectory.csv",
                                           lambda lines: lines.pop())
        self.assertEqual(failed, 1)
        self.assertIn("rows", " ".join(breaches))

    def test_perturbed_mean_velocity_fails_every_particle(self):
        def edit(lines):
            cols = lines[1].split(",")
            cols[2] = repr(float(cols[2]) + 1e-9)
            lines[1] = ",".join(cols)
        attempted, failed, breaches = self.corrupt("ensemble", "stats.csv", edit)
        self.assertEqual(failed, attempted)
        self.assertIn("mean_v", breaches[0])

    def test_low_order_fails_one_study(self):
        def edit(lines):
            for i, line in enumerate(lines):
                if "fitted order" in line:
                    lines[i] = "  fitted order: 2.000\n"
                    break
        _, failed, breaches = self.corrupt("verify", "verify_report.txt", edit)
        self.assertEqual(failed, 1)
        self.assertIn("tangency_drift_study", breaches[0])


if __name__ == "__main__":
    unittest.main()

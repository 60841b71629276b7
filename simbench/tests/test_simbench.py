#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

Run from the repository root (builds the benchmark first if needed):

    python3 simbench/tests/test_simbench.py

Takes about ten minutes: it runs every workload plain once and traced
twice.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "simbench"))
import run as simbench_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# The modelled outcomes each workload reports on its report line.
MODELLED = {
    "fig7_sweep": {"cmd_latency_p50_s", "cmd_latency_p90_s",
                   "cmd_latency_samples", "tx_per_command", "duty_cycle_pct",
                   "pdr_pct", "coverage_time_s", "max_code_bits",
                   "uncovered_tele_cells"},
    "converge_225": {"coverage_time_s", "max_code_bits", "duty_cycle_pct",
                     "tx_copies"},
    "churn_soak": {"tx_per_command", "retries_per_command", "delivery_pct",
                   "invariant_violations", "command_spans"},
}

_cache = {}


def bench(*args):
    """Runs the benchmark binary once; returns (report line, result line)."""
    out = subprocess.run([os.path.join(ROOT, simbench_run.BINARY)] + list(args),
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def run_workload(workload, seed, trace, *extra):
    """One repetition (--seconds 0), shared by the tests that ask for it."""
    args = ("--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)) + extra
    if args not in _cache:
        _cache[args] = bench(*args)
    return _cache[args]


def setUpModule():
    os.chdir(ROOT)
    if simbench_run.build() != 0:
        raise RuntimeError("benchmark build failed")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        spec = declared()
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in spec[kind]] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], MODELLED)

    def test_every_workload_emits_all_end_to_end_metrics(self):
        expected = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
        for workload in MODELLED:
            with self.subTest(workload=workload):
                report, result = run_workload(workload, 2, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertEqual(units(result["metrics"]), expected)
                for name, metric in result["metrics"].items():
                    self.assertTrue(math.isfinite(metric["value"]), name)
                    self.assertGreater(metric["value"], 0, name)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(report["modelled"]), MODELLED[workload])
                self.assertRegex(report["sim_digest"], r"^[0-9a-f]{16}$")

    def test_traced_run_emits_all_per_layer_metrics(self):
        expected = {m["name"]: m["unit"] for m in declared()["per_layer"]}
        for workload in MODELLED:
            with self.subTest(workload=workload):
                report, result = run_workload(workload, 2, 1)
                self.assertNotIn("exception", report["error"])
                self.assertNotIn("different simulated outputs", report["error"])
                if workload != "churn_soak":
                    # churn_soak's check also depends on the simulator's
                    # ctp.no_loop defect (README, "Workloads").
                    self.assertTrue(result["correct"], report["error"])
                self.assertEqual(units(result["metrics"]), expected)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreaterEqual(metrics["trace.accounted_share"], 0.95)
                self.assertLessEqual(metrics["sim.self_s"],
                                     metrics["phase.warmup_s"] +
                                     metrics["phase.measure_s"])
                self.assertGreater(metrics["sim.events"], 0)
                self.assertGreater(metrics["radio.tx_copies"], 0)
                self.assertTrue(os.path.exists(os.path.join(
                    ROOT, ".bench_build", "simbench-traces",
                    workload + "-seed2.json")))
        _, soak = run_workload("churn_soak", 2, 1)
        self.assertGreater(soak["metrics"]["check.checkpoints"]["value"], 0)


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_exactly(self):
        # A traced run simulates twice (plain and profiled replay), so two
        # traced runs are four independent runs of the same seed. Covers
        # every workload, including those BENCHMARK.json does not gate.
        for workload in MODELLED:
            with self.subTest(workload=workload):
                report_a, result_a = run_workload(workload, 2, 1)
                report_b, result_b = bench("--workload", workload, "--seed", "2",
                                           "--seconds", "0", "--trace", "1")
                self.assertEqual(report_a["sim_digest"], report_b["sim_digest"])
                self.assertEqual(report_a["modelled"], report_b["modelled"])
                for name in ("sim.events", "radio.tx_copies"):
                    self.assertEqual(result_a["metrics"][name],
                                     result_b["metrics"][name])

    def test_plain_and_traced_fig7_agree(self):
        # A traced run fails its check unless the profiled replay hashes to
        # the same digest as run_control_experiment.
        report, result = run_workload("fig7_sweep", 2, 0)
        self.assertTrue(result["correct"], report["error"])
        report_t, result_t = run_workload("fig7_sweep", 2, 1)
        self.assertTrue(result_t["correct"], report_t["error"])
        self.assertEqual(report["sim_digest"], report_t["sim_digest"])
        self.assertEqual(report["modelled"], report_t["modelled"])


class CorrectnessCheck(unittest.TestCase):
    def test_corrupted_path_code_soak_is_a_failed_run(self):
        # A soak can report invariant violations without the fault (see
        # README), so the corruption must add violations to those and fail
        # the run.
        clean, _ = run_workload("churn_soak", 2, 0)
        report, result = run_workload("churn_soak", 2, 0, "--corrupt-path-code")
        self.assertFalse(result["correct"])
        self.assertIn("invariant violations", report["error"])
        self.assertEqual(result["failed"], result["attempted"])
        violations = report["modelled"]["invariant_violations"]["value"]
        clean_violations = clean["modelled"]["invariant_violations"]["value"]
        self.assertGreater(violations, clean_violations)


if __name__ == "__main__":
    unittest.main()

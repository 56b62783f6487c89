#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each workload runs three short times (seed 1 untraced and traced, seed 2
untraced), about a minute and a half in all.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 else None
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    machine = next((json.loads(l[len("machine "):]) for l in lines
                    if l.startswith("machine ")), None)
    notes = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            notes[name] = (float(value), unit)
    return out, result, digest, notes, machine


_runs = {}


def cached(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = run(workload, seed, trace)
    return _runs[key]


class Result(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        out, result, _, _, _ = cached(workload, 1, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in expected))
        for m in expected:
            self.assertRegex(m["name"], NAME)
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    value = cached(w, 1, 0)[1]["metrics"][m["name"]]["value"]
                    self.assertGreater(value, 0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, SPEC["per_layer"])

    def test_failed_frac_zero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, _, notes, _ = cached(w, 1, 0)
                self.assertEqual(notes["failed_frac"], (0.0, "frac"))
                for name, (_, unit) in notes.items():
                    self.assertRegex(name, NAME)
                    self.assertTrue(unit)

    def test_wall_clock_figures_beside_the_cpu_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                notes = cached(w, 1, 0)[3]
                for name in ["setup_wall_s", "throughput_per_s", "latency_ms.p50",
                             "latency_ms.p90", "cpu_per_wall", "host.steal_frac"]:
                    self.assertIn(name, notes)
                self.assertGreater(notes["throughput_per_s"][0], 0)
                self.assertGreater(notes["cpu_per_wall"][0], 0)

    def test_digest_repeats_for_a_seed_and_changes_with_it(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = cached(w, 1, 0)[2]
                self.assertIsNotNone(a)
                self.assertEqual(a, cached(w, 1, 1)[2])
                self.assertNotEqual(a, cached(w, 2, 0)[2])

    def test_machine_records_the_cpus_before_pinning(self):
        cpus = len(os.sched_getaffinity(0))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                machine = cached(w, 1, 0)[4]
                self.assertEqual(machine["nproc"], cpus)
                self.assertEqual(machine["jobs"], cpus)
        machine = cached("serve-mix", 1, 0)[4]
        self.assertEqual(machine["client_threads"], min(2, cpus))
        self.assertEqual(machine["connections"], min(2, cpus))
        self.assertEqual(machine["daemon_workers"], max(1, cpus - 1))

    def test_serve_mix_reaches_every_cache_path(self):
        notes = cached("serve-mix", 1, 0)[3]
        for name in ["serve.sweep_share", "serve.cold_share", "serve.reload_share"]:
            self.assertGreater(notes[name][0], 0, name)
        _, result, _, _, _ = cached("serve-mix", 1, 1)
        metrics = result["metrics"]
        for name in ["serve.cache_hits", "serve.cache_misses", "serve.cache_evictions"]:
            self.assertGreater(metrics[name]["value"], 0, name)

    def test_cpi_mape_matches_mipp_validate(self):
        _, _, _, notes, _ = cached("validate", 1, 0)
        files = sorted(f for f in os.listdir("workloads") if f.endswith(".workload"))
        report = os.path.join(".perfbench", "test-accuracy.json")
        args = [os.path.join("_build", "default", "bin", "mipp.exe"), "validate",
                "--matrix", "sim", "-s", "1", "-o", report]
        for f in files:
            args += ["--spec-file", os.path.join("workloads", f)]
        subprocess.run(args, capture_output=True, timeout=600)
        with open(report) as f:
            mape = json.load(f)["cpi_error"]["mape"]
        os.remove(report)
        self.assertAlmostEqual(notes["cpi_mape"][0] / 100.0, mape, delta=1e-8)

    def test_fails_without_sources(self):
        os.makedirs(".perfbench", exist_ok=True)
        with tempfile.TemporaryDirectory(dir=".perfbench") as d:
            shutil.copy("BENCHMARK.json", d)
            shutil.copytree("perfbench", os.path.join(d, "perfbench"))
            out, result, _, _, _ = run(WORKLOADS[0], 1, 0, cwd=d)
            self.assertNotEqual(out.returncode, 0)
            self.assertIsNone(result)
            self.assertFalse(out.stdout.strip())


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself (smoke scale, about a minute).

    python3 -m unittest perfbench/test_run.py    # from the repository root

Each workload runs untraced and traced at smoke scale; the tests check the
result line's shape, that every metric BENCHMARK.json names is printed with
its unit, that outputs were checked and correct, and that the benchmark
refuses to run without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

# Each workload's own end-to-end figures, printed by name beside the
# BENCHMARK.json metrics.
OWN = {
    "search": ["search_qps", "search_p50_us", "search_p99_us"],
    "suite": ["suite_s"],
    "serve": ["serve_s"],
}


def bench(cwd, workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        p = bench(ROOT, workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in group})
        for m in group:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(p.stdout, rf"(?m)^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$")
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertRegex(p.stdout, r"(?m)^error_rate = 0 fraction \(0/\d+\)$")
        self.assertIn("nproc=", p.stdout)
        if trace == 0:
            for name in OWN[workload]:
                self.assertRegex(p.stdout, rf"(?m)^{name} = \S+ \S+$")
        return result

    def test_search(self):
        self.check("search", 0)
        traced = self.check("search", 1)
        m = traced["metrics"]
        shares = sum(m[k]["value"] for k in ("index.decode_share", "index.score_share",
                                             "core.topk_share", "scm.share",
                                             "core.residual_share"))
        self.assertAlmostEqual(shares, 1.0, places=6)
        self.assertGreater(m["core.blocks_fetched"]["value"], 0)

    def test_suite(self):
        self.check("suite", 0)
        traced = self.check("suite", 1)
        self.assertGreater(traced["metrics"]["engine.executions"]["value"], 0)

    def test_serve(self):
        self.check("serve", 0)
        traced = self.check("serve", 1)
        self.assertGreater(traced["metrics"]["serving.served"]["value"], 0)

    def test_refuses_without_sources(self):
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            p = bench(bare, "search", 0)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark definition and driver.

Run from the repository root:

  python3 rlcbench/test_rlcbench.py           # everything (about 2 minutes)
  python3 rlcbench/test_rlcbench.py --quick   # BENCHMARK.json and the C++ tests

Checks that every name in BENCHMARK.json is legal, that the driver prints
exactly the end-to-end metrics (--trace 0) and the per-layer metrics
(--trace 1) it lists for every workload, that the C++ self-tests pass
(seeded inputs, failure accounting), and that run.py fails without a result
in a directory holding only BENCHMARK.json and rlcbench/.
"""
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the driver under test)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys(self):
        self.assertEqual(sorted(SPEC), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)

    def test_command_and_paths(self):
        self.assertTrue(1 <= len(SPEC["command"]) <= 32)
        for arg in SPEC["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"), arg)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        for path in SPEC["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue((ROOT / path).is_dir(), path)
        self.assertIn(SPEC["command"][1].split("/")[0], SPEC["paths"])
        self.assertTrue(isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60)

    def test_names(self):
        names = []
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        for m in SPEC["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        out = run.build(timeout=run.BUILD_TIMEOUT_S)
        proc = subprocess.run([str(out / "rlcbench_selftest")], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class DriverTest(unittest.TestCase):
    """Every workload prints exactly the metrics BENCHMARK.json lists."""

    def run_driver(self, workload, trace, cwd=ROOT, env=None):
        return subprocess.run(
            [sys.executable, "rlcbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=180)

    def test_metrics_printed(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_driver(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(last), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    listed = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {n: v["unit"] for n, v in last["metrics"].items()}
                    self.assertEqual(printed, listed)
                    if workload == "analytic_design":
                        # The known reduced-model failures are counted, not hidden.
                        self.assertGreater(last["failed"], 0)

    def test_fails_without_sources(self):
        # Both with a build directory of its own and with CARGO_TARGET_DIR
        # pointing at the build this checkout already made: a bare copy
        # must neither reuse that binary nor print a result.
        run.build(timeout=run.BUILD_TIMEOUT_S)
        shared = run.build_dir().parent
        bare = shared / "bare-checkout"
        for target in (None, str(shared)):
            with self.subTest(cargo_target_dir=target):
                shutil.rmtree(bare, ignore_errors=True)
                bare.mkdir(parents=True)
                shutil.copy(ROOT / "BENCHMARK.json", bare)
                shutil.copytree(HERE, bare / "rlcbench",
                                ignore=shutil.ignore_patterns("__pycache__"))
                env = dict(os.environ)
                env.pop("CARGO_TARGET_DIR", None)
                if target is not None:
                    env["CARGO_TARGET_DIR"] = target
                try:
                    proc = self.run_driver("table1_sweep", 0, cwd=bare, env=env)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertNotIn('"metrics"', proc.stdout)
                finally:
                    shutil.rmtree(bare, ignore_errors=True)
                    shutil.rmtree(shared / run.build_dir(bare.resolve()).name,
                                  ignore_errors=True)


if __name__ == "__main__":
    if "--quick" in sys.argv:
        sys.argv.remove("--quick")
        sys.argv += ["BenchmarkJsonTest", "CppSelfTest"]
    unittest.main()

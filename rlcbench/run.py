#!/usr/bin/env python3
"""rlcbench: the repository benchmark (see rlcbench/README.md).

Usage, from the repository root:

  python3 rlcbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 rlcbench/run.py --write-reference

Builds rlcbench/ (and the rlcsim library it compiles from src/) under
$CARGO_TARGET_DIR/rlcbench-<hash of the source root>, default
.bench_build/rlcbench-<hash>, then runs the driver binary in a child process:

  --trace 0  one untraced run (RLCSIM_METRICS=0, no RLCSIM_TRACE) that prints
             every end-to-end metric;
  --trace 1  an untraced run for the overhead baseline, then a traced run
             (RLCSIM_METRICS=1, RLCSIM_TRACE=<build>/trace/...) that prints
             every per-layer metric.

The driver's JSON documents are echoed to stdout; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit status is 0
only when every output check passed.

--write-reference recomputes rlcbench/bus_crosstalk_reference.txt (the
bus_crosstalk sample at 4x segments and dt/4).
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "bus_crosstalk_reference.txt"
WORKLOADS = ("table1_sweep", "table1_batched", "bus_crosstalk", "analytic_design")
BUILD_TIMEOUT_S = 850.0  # the first run in a checkout builds everything
DEADLINE_S = 175.0  # after the build, every run ends (or fails) in this time


SOURCE_ROOTS = (HERE, HERE.parent / "src", HERE.parent / "bench")


def build_dir(source_root=HERE.parent):
    """One build directory per source tree: a CMake cache compiles the tree
    that configured it, so two checkouts sharing CARGO_TARGET_DIR must never
    share a directory."""
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    tag = hashlib.sha256(str(source_root).encode()).hexdigest()[:12]
    return base / f"rlcbench-{tag}"


def up_to_date(binary):
    """True when `binary` exists and is newer than every source it is built
    from. A missing source directory is never up to date."""
    if not binary.exists() or not all(root.is_dir() for root in SOURCE_ROOTS):
        return False
    built = binary.stat().st_mtime
    return all(f.stat().st_mtime < built
               for root in SOURCE_ROOTS for f in root.rglob("*")
               if f.suffix in (".cpp", ".h") or f.name == "CMakeLists.txt")


def git_sha():
    """The checkout's commit for the result manifest, read at every run (a
    build outlives commits), or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse",
                               "--short=12", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (subprocess.SubprocessError, OSError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def build(timeout):
    """Builds the driver unless it is up to date (a no-op build still
    spawns make, whose burst of processes shifts the next process's
    timings)."""
    out = build_dir()
    if up_to_date(out / "rlcbench"):
        return out
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "2"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout)
    return out


def child_env(sha, traced, trace_path=None):
    env = dict(os.environ)
    for knob in ("RLCSIM_TRACE", "RLCSIM_THREADS", "RLCSIM_LANES"):
        env.pop(knob, None)
    env["RLCBENCH_GIT_SHA"] = sha
    env["RLCSIM_METRICS"] = "1" if traced else "0"
    if traced:
        env["RLCSIM_TRACE"] = str(trace_path)
    return env


def run_child(cmd, env, deadline):
    """Runs the driver; echoes its document; returns (exit code, document)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise TimeoutError("no time left for " + " ".join(cmd[:2]))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=remaining)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc


def expected_metrics(key):
    """Metric names BENCHMARK.json lists under `key`, or None without it."""
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.exists():
        return None
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def trace_has_bench_spans(path):
    try:
        events = json.loads(pathlib.Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return any(str(e.get("name", "")).startswith("bench.") for e in events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        out = build(timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as error:
        print(f"rlcbench: build failed: {error}", file=sys.stderr)
        return 2
    sha = git_sha()
    deadline = time.monotonic() + DEADLINE_S
    binary = str(out / "rlcbench")

    if args.write_reference:
        with open(REFERENCE, "w") as f:
            subprocess.run([binary, "reference"], stdout=f, check=True,
                           env=child_env(sha, False))
        return 0

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    checks = []
    if args.trace == 0:
        code, doc = run_child([binary, "run", *common, "--seconds",
                               str(args.seconds), "--reference", str(REFERENCE)],
                              child_env(sha, False), deadline)
        if doc is None:
            print("rlcbench: the driver printed no result", file=sys.stderr)
            return 1
        checks.append(code == 0 and doc["correct"])
        metrics = doc["metrics"]
        expected = expected_metrics("end_to_end")
    else:
        half = str(args.seconds / 2)
        code, base = run_child([binary, "run", *common, "--seconds", half,
                                "--reference", str(REFERENCE)],
                               child_env(sha, False), deadline)
        trace_path = out / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        traced_code, doc = run_child([binary, "layers", *common, "--seconds", half],
                                     child_env(sha, True, trace_path), deadline)
        if base is None or doc is None:
            print("rlcbench: the driver printed no result", file=sys.stderr)
            return 1
        checks.append(code == 0 and base["correct"])
        checks.append(traced_code == 0 and doc["correct"])
        # Tracing must not perturb a single result bit.
        checks.append(doc["result_fnv"] == base["result_fnv"])
        checks.append(trace_has_bench_spans(trace_path))
        untraced = base["metrics"]["points_per_s"]["value"]
        traced = doc["traced_points_per_s"]
        metrics = dict(doc["metrics"])
        overhead = 100.0 * (untraced - traced) / untraced if untraced > 0 else 0.0
        metrics["obs.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        expected = expected_metrics("per_layer")
    if expected is not None:
        checks.append(sorted(expected) == sorted(metrics))
    correct = all(checks)
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, TimeoutError, OSError) as error:
        print(f"rlcbench: {error}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Repository benchmark of the Mithril simulator.

Builds perfbench/ (the simulator sources of this checkout plus the
benchmark driver in perfbench/src) with CMake into .bench_build/, runs
the requested workloads in one process, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1). Exits 1 when a correctness
check failed, 2 when the benchmark could not be built or run.

    python3 perfbench/run.py --workload sys-mix-read --seed 42 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout the whole group
    (compilers under cmake included) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, text=True,
                          **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            fail("timed out: " + " ".join(cmd))
        return proc.returncode, out or ""


def cmake(args, timeout):
    code, out = run(["cmake"] + args, timeout, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed: cmake " + " ".join(args))


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Runs sharing a checkout serialize their builds.
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD_DIR / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
                not in cache.read_text():
            for entry in BUILD_DIR.iterdir():
                if entry.name != "build.lock":
                    shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        if not cache.exists():
            cmake(["-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"],
                  deadline - time.monotonic())
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmake(["--build", str(BUILD_DIR), "--target", "perfbench",
               "-j", jobs], deadline - time.monotonic())
    return BUILD_DIR / "perfbench"


def cpu_info():
    """CPU model and physical core count from /proc/cpuinfo."""
    model, cores, phys, core = "unknown", set(), None, None
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines() + [""]
    except OSError:
        return model, 0
    for line in lines:
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not line.strip():
            if core is not None:
                cores.add((phys, core))
            phys = core = None
        elif key == "model name" and model == "unknown":
            model = value
        elif key == "physical id":
            phys = value
        elif key == "core id":
            core = value
    return model, len(cores) or (os.cpu_count() or 0)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def render(result, machine, why):
    sim = result["sim"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}")
    print(f"   why: {why.get(result['workload'], '')}")
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in machine.items())
          + f", simd={result['meta']['simd']}"
          + f", build_type={result['meta']['build_type']}")
    print(f"   digest={result['digest']}  " +
          "  ".join(f"{k}={v}" for k, v in sim.items()))
    print(f"   attempted={result['attempted']}  failed={result['failed']}")
    for err in result["errors"]:
        print(f"   FAILED: {err}")
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"   {name:<{width}}  {m['value']:>22.10g}  {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"]: m["unit"] for m in
                  spec["per_layer" if args.trace else "end_to_end"]}
        why = {w["name"]: w["why"] for w in spec["workloads"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")

    binary = build()
    workdir = BUILD_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        spans = BUILD_DIR / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run(cmd, max(60.0, RUN_DEADLINE_S -
                                  (time.monotonic() - started)),
                        stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = [json.loads(line[len("PERFBENCH "):])
               for line in out.splitlines()
               if line.startswith("PERFBENCH ")]
    if code not in (0, 1) or not results:
        fail(f"benchmark binary exited with code {code}")

    model, physical = cpu_info()
    machine = {"cpu": model, "logical_cores": os.cpu_count(),
               "physical_cores": physical, "seed": args.seed,
               "commit": git_commit()}
    metrics = {}
    for result in results:
        render(result, machine, why)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, unit in wanted.items():
            m = result["metrics"].get(name)
            if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                fail(f"{result['workload']}: no metric {name} in {unit}")
            metrics[prefix + name] = m
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

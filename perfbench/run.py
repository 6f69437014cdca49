#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the multi-GPU sort stack.

    python3 perfbench/run.py --workload paper_sort --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree. The first run configures and builds
the library sources and the benchmark binary (perfbench/CMakeLists.txt) in
.bench_build/perfbench, a Release build; later runs only check that build is
up to date. It then runs one measurement and prints two JSON lines:

  * a report: the workload, seed, provenance (CPU, nproc, load average,
    compiler, build type, git commit or source digest) and every named
    metric of the workload, including the simulated ones;
  * last, the result: {"correct", "attempted", "failed", "metrics"}, with
    the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

With --trace 1 the spans of the traced units are also written as
Chrome-trace JSON to .bench_build/perfbench/trace-<workload>-<seed>.json.
`--workload all` runs every workload in turn and prints one table of the
named metrics, with their units, instead of the JSON lines.

See perfbench/README.md for the workloads, the metrics and the rules.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mgs_perfbench"
WORKLOADS = ("paper_sort", "trace_distinct", "trace_cached")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group; kills the whole group (the
    compilers a build spawns included) on timeout and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not BINARY.is_file():
        fail("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    """SHA-256 over the library and benchmark sources, so two readings can
    be matched to the same code without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, report, result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(BUILD_DIR / f"trace-{workload}-{seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(f"benchmark exited with {code} and printed no result", 3)
    if set(result) != RESULT_KEYS:
        fail("malformed result line", 3)
    return code, report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_avg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    build()

    if args.workload != "all":
        code, report, result = measure(args.workload, args.seed, args.seconds,
                                       args.trace)
        for key in ("compiler", "build_type"):
            provenance[key] = report.pop(key)
        report["provenance"] = provenance
        print(json.dumps({"perfbench": report}))
        print(json.dumps(result))
        sys.exit(0 if code == 0 and result["correct"] else 1)

    print(json.dumps(provenance))
    ok = True
    print(f"{'workload':16} {'metric':34} {'value':>18}  unit")
    for workload in WORKLOADS:
        code, report, result = measure(workload, args.seed, args.seconds,
                                       args.trace)
        ok = ok and code == 0 and result["correct"]
        metrics = result["metrics"] if args.trace else report["metrics"]
        for name, metric in metrics.items():
            print(f"{workload:16} {name:34} {metric['value']:18.6g}  "
                  f"{metric['unit']}")
        print(f"{workload:16} {'correct':34} {str(result['correct']):>18}  "
              f"({result['failed']} of {result['attempted']} failed)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source tree. The first run configures and builds the
library and the `perfbench` binary under .bench_build/ (CARGO_TARGET_DIR, when
set, names that directory instead); later runs rebuild incrementally. Build
output goes to stderr. The last stdout line is the binary's JSON result.

If the binary dies (a pipeline aborts the process, a signal, or the time
limit), the run is reported as failed rather than as missing: the result line
says "correct": false and counts the frame in flight as attempted and failed.

--self-check runs every workload at tiny scale and checks that every metric
BENCHMARK.json names is printed with its unit, that a corrupted output pixel
is counted as a failed frame, and that a crash surfaces as a failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("fig7_steady", "edit_compile", "serve_mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def run_binary(args):
    """Runs the binary; returns (exit code, result dict or None, other lines)."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the host compiler's scratch files
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, cwd=ROOT,
                            env=env, text=True)
    lines, attempted, failed = [], 0, 0
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"binary exceeded {RUN_TIMEOUT_S} s and was killed")
    for line in out.splitlines():
        if line.startswith("progress "):
            attempted, failed = (int(x) for x in line.split()[1:3])
        else:
            lines.append(line)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            result = None
    if result is None:
        log(f"binary ended abnormally (exit {proc.returncode}) after "
            f"{attempted} frames; reporting the run as failed")
        result = {"correct": False, "attempted": attempted + 1,
                  "failed": failed + 1,
                  "metrics": {"check.failed_frac": {
                      "value": (failed + 1) / (attempted + 1),
                      "unit": "ratio"}}}
    return proc.returncode, result, lines


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    tiny = ["--seed", "1", "--seconds", "1", "--tiny"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, res, _ = run_binary(["--workload", workload, "--trace", trace] + tiny)
            tag = f"{workload} trace={trace}"
            expect(rc == 0 and res["correct"] and res["failed"] == 0,
                   f"{tag}: every frame correct ({res['attempted']} attempted)")
            got = res["metrics"]
            for m in spec[key]:
                expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                       f"{tag}: {m['name']} printed in {m['unit']}")
            expect(set(got) == {m["name"] for m in spec[key]},
                   f"{tag}: no metric outside BENCHMARK.json")

    rc, res, _ = run_binary(["--workload", "fig7_steady", "--trace", "0",
                             "--corrupt-pixel"] + tiny)
    expect(not res["correct"] and res["failed"] == res["attempted"],
           f"one corrupted pixel fails every frame ({res['failed']} of "
           f"{res['attempted']})")

    rc, res, _ = run_binary(["--workload", "serve_mixed", "--trace", "0",
                             "--crash-after", "2"] + tiny)
    expect(rc != 0 and not res["correct"] and res["failed"] >= 1,
           "a crashed run is reported as failed")

    print(f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if a.self_check:
        return self_check()
    rc, result, lines = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                                    "--seconds", str(a.seconds),
                                    "--trace", str(a.trace)])
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

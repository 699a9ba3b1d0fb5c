#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

    python3 perfbench/run.py --workload predict-64 --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver with every RESILIENCE_* variable
removed from its environment, so the library runs in its default
configuration. The driver's output is passed through; its last line is the
JSON result. A failed build or run exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("predict-64", "serial-sweep", "adaptive-sharded")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the driver; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out_dir, "perfbench_driver")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        driver = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RESILIENCE_")}
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-rev", git_rev()]
    if args.tiny:
        cmd.append("--tiny")
    # Own session, so a timeout can stop the driver and its shard workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(out)
        print(f"perfbench: driver failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

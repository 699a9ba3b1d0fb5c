#!/usr/bin/env python3
"""Require every mutant in tools/mutants.json to be killed by its test.

Each entry of tools/mutants.json names a source file, an exact
substitution (`from` -> `to`) and the test that must fail once it is
applied: the gtest `test` (a --gtest_filter pattern) in the test binary
`target`. The tool copies the source tree to a work directory, configures
one Release build there, and checks first that every named test passes on the
unmutated tree. Then, one mutant at a time, it applies the substitution,
rebuilds only the named target, runs the named test and restores the file.

It fails (exit 1) when a mutant survives (its test passes), when a
substitution no longer matches exactly once (the list has gone stale),
when a mutant does not build, or when a named test fails unmutated. A
surviving mutant is a missing test: add the test, never drop the mutant.

Usage: tools/run_mutants.py [--only ID ...] [--jobs N] [--work DIR]
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
# Build trees and VCS data are not part of the source copy.
IGNORE = shutil.ignore_patterns("build", "build-*", ".bench_build", ".git")
FIELDS = ("id", "file", "from", "to", "target", "test", "why")


def load(only):
    entries = json.loads(MUTANTS.read_text())
    ids = set()
    for e in entries:
        missing = [f for f in FIELDS if f not in e]
        if missing:
            raise SystemExit(f"run_mutants: entry {e.get('id')!r} lacks "
                             f"{', '.join(missing)}")
        if e["id"] in ids:
            raise SystemExit(f"run_mutants: duplicate id {e['id']!r}")
        ids.add(e["id"])
    unknown = set(only or ()) - ids
    if unknown:
        raise SystemExit(f"run_mutants: unknown id(s) {sorted(unknown)}")
    return [e for e in entries if not only or e["id"] in only]


def stale(entries, root):
    """Entries whose `from` does not occur exactly once in their file."""
    bad = []
    for e in entries:
        path = root / e["file"]
        count = path.read_text().count(e["from"]) if path.exists() else 0
        if count != 1:
            bad.append((e, count))
    return bad


def run(cmd, cwd, log):
    """Runs cmd, appending its output to `log`; returns the exit code."""
    with open(log, "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        return subprocess.run(cmd, cwd=cwd, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="ID",
                        help="run only these mutant ids")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel build jobs (default: all CPUs)")
    parser.add_argument("--work", type=pathlib.Path,
                        help="work directory for the tree copy and its "
                             "build (default: a fresh temporary directory, "
                             "removed afterwards); reused when it exists")
    args = parser.parse_args()

    entries = load(args.only)
    bad = stale(entries, ROOT)
    for e, count in bad:
        print(f"run_mutants: STALE {e['id']}: `from` occurs {count} times "
              f"in {e['file']} (must be exactly once)", file=sys.stderr)
    if bad:
        return 1

    work = args.work or pathlib.Path(tempfile.mkdtemp(prefix="mutants-"))
    src = work / "src-tree"
    build = work / "build"
    log = work / "mutants.log"
    start = time.monotonic()
    try:
        if src.exists():
            shutil.rmtree(src)
        shutil.copytree(ROOT, src, ignore=IGNORE)
        print(f"run_mutants: {len(entries)} mutant(s); tree copy and build "
              f"in {work}, log {log}")
        if run(["cmake", "-S", str(src), "-B", str(build),
                "-DCMAKE_BUILD_TYPE=Release",
                "-DRESILIENCE_BUILD_BENCH=OFF",
                "-DRESILIENCE_BUILD_EXAMPLES=OFF"], work, log):
            print("run_mutants: configure failed", file=sys.stderr)
            return 1

        def build_and_test(target, test):
            """None if the target did not build, else the test's exit code."""
            if run(["cmake", "--build", str(build), "-j", str(args.jobs),
                    "--target", target], work, log):
                return None
            return run([str(build / "tests" / target),
                        f"--gtest_filter={test}"], build, log)

        failed = 0
        # Baseline: every named test must pass on the unmutated tree.
        for target, test in sorted({(e["target"], e["test"])
                                    for e in entries}):
            code = build_and_test(target, test)
            if code != 0:
                what = "does not build" if code is None else "fails"
                print(f"run_mutants: BASELINE {target} {test} {what} "
                      f"unmutated", file=sys.stderr)
                failed += 1
        if failed:
            return 1

        for e in entries:
            path = src / e["file"]
            original = path.read_text()
            t0 = time.monotonic()
            path.write_text(original.replace(e["from"], e["to"], 1))
            try:
                code = build_and_test(e["target"], e["test"])
            finally:
                path.write_text(original)
            took = time.monotonic() - t0
            if code is None:
                verdict = "BROKEN (does not build)"
                failed += 1
            elif code == 0:
                verdict = "SURVIVED"
                failed += 1
            else:
                verdict = "killed"
            print(f"run_mutants: {verdict:<8} {e['id']} "
                  f"[{e['target']} {e['test']}] {took:.0f} s", flush=True)
        print(f"run_mutants: {len(entries) - failed} of {len(entries)} "
              f"killed in {time.monotonic() - start:.0f} s")
        return 1 if failed else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

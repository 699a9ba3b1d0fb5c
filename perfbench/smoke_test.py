#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

Run it from the repository root. For every workload it runs run.py with
--tiny four times: twice untraced with one seed, once untraced with another
seed, and once traced. It checks that

- each run exits 0 and reports correct outputs with no failed check;
- every metric BENCHMARK.json names is emitted with its unit (end_to_end
  untraced, per_layer traced) and no other;
- the same seed reproduces identical counts: generated inputs, output
  digest, trials per pass, trials_to_ci;
- a different seed changes the generated inputs.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    text = "\n".join(lines)
    inputs = re.search(r"^perfbench inputs: (.*)$", text, re.M).group(1)
    passes = re.search(r"outputs (\w+); trials per pass (\d+)", text)
    return {"result": json.loads(lines[-1]), "inputs": inputs,
            "digest": passes.group(1), "trials": int(passes.group(2))}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        a = run(workload, 1, 0)
        b = run(workload, 1, 0)
        c = run(workload, 2, 0)
        t = run(workload, 1, 1)
        for label, r, trace in (("seed 1", a, 0), ("seed 1 again", b, 0),
                                ("seed 2", c, 0), ("traced", t, 1)):
            res = r["result"]
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{workload} {label}: outputs correct")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace],
                  f"{workload} {label}: every metric emitted with its unit")
        same = (a["inputs"], a["digest"], a["trials"],
                a["result"]["metrics"]["trials_to_ci"]["value"])
        again = (b["inputs"], b["digest"], b["trials"],
                 b["result"]["metrics"]["trials_to_ci"]["value"])
        check(same == again, f"{workload}: same seed reproduces identical counts")
        check(t["digest"] == a["digest"],
              f"{workload}: traced run reproduces the untraced outputs")
        check(c["inputs"] != a["inputs"],
              f"{workload}: a different seed changes the generated inputs")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

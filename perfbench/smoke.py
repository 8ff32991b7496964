"""Smoke test of the benchmark itself (not part of the library's tests).

Usage: python3 perfbench/smoke.py [--seconds S]

1. Runs every workload of BENCHMARK.json with a tiny seed and run length,
   with and without tracing, and checks that the last output line is the
   result object with every named metric, in its unit, as a number.
2. Prepares a workload, corrupts one expected optimum, and checks that the
   measurement aborts with a wrong answer.
3. Checks that a copy holding only BENCHMARK.json and the benchmark
   directory fails without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import run

SEED = 1


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_metrics(bench, seconds):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", str(seconds),
                 "--trace", str(trace)], cwd=run.ROOT, capture_output=True,
                text=True, timeout=300)
            if out.returncode != 0:
                fail(f"{workload} trace {trace} exited {out.returncode}:\n"
                     f"{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{workload}: {result}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = result["metrics"]
            if sorted(got) != sorted(want):
                fail(f"{workload} trace {trace}: metrics {sorted(got)}")
            for name, unit in want.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit:
                    fail(f"{workload}: {name} has unit {got[name]['unit']}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{workload}: {name} = {value!r}")
                if f"\n{name} " not in "\n" + out.stdout:
                    fail(f"{workload}: {name} missing from the text output")
            print(f"ok: {workload} trace {trace}: {len(want)} metrics")


def check_corruption(bench):
    workload = "chain"
    cfg = run.load_json(run.HERE / "workloads.json")
    work_dir = run.WORK / "smoke-corrupt"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        manifest = run.run_prepare(workload, SEED, work_dir)
        entry = next(e for e in manifest["instances"] if e["expected"] != "inf")
        entry["expected"] = str(Fraction(entry["expected"]) + 1)
        signal.signal(signal.SIGALRM, run._alarm)
        try:
            run.measure(workload, SEED, 0, 0, manifest, work_dir, bench, cfg,
                        setup=(1.0, 1.0))
        except run.WrongAnswer as exc:
            print(f"ok: corrupted optimum aborts the run ({exc})")
            return
        fail("a corrupted expected optimum did not abort the run")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_stripped():
    stripped = run.WORK / "smoke-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, stripped / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "chain",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            fail("the benchmark ran without the library sources")
        print(f"ok: without the sources it exits {out.returncode} "
              "and prints no result")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(run.SRC))
    check_stripped()
    check_corruption(bench)
    check_metrics(bench, args.seconds)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()

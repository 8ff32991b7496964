"""Seeded closed-loop benchmark of the vcsp solver.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process solves the workload's instances back to back
through the library's public entry point, cycling over the corpus until
``--seconds`` have passed (and at least once over every instance).  Every
answer is checked against an exact reference optimum outside the timed
region; a wrong answer aborts the run.  Every call's wall time is scaled to
a fixed machine speed by the calibration loop timed around it (see
``calib.py``), and an instance's time is the median of its scaled calls;
the wall-clock figures are printed beside them.  Failures (``CapExceeded``,
``RecursionError``, ``StageError``, over the per-instance limit, anything
else) are counted, never configured away: the recursion limit and the
enumeration cap stay at their defaults.  The workloads hold only instances
the program solves; the known defects are each shown by a probe instance
that the traced run solves once, apart from the timed loop.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the loop untraced for half the time, then the probes,
then the loop traced (spans around the public functions of every layer,
see ``layers.py``) for the other half, and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
FAILURE_KINDS = ("CapExceeded", "RecursionError", "StageError", "over_limit")


class WrongAnswer(Exception):
    pass


class OverLimit(Exception):
    pass


def _alarm(signum, frame):
    raise OverLimit()


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_prepare(workload, seed, work_dir):
    subprocess.run([sys.executable, str(HERE / "prepare.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(work_dir)], check=True, timeout=170)
    return load_json(work_dir / "manifest.json")


def measure_setup(work_dir):
    """Median over fresh interpreters of import + parse: (scaled, wall) s.

    The calibration loop is timed here just before each interpreter starts
    and in that interpreter just after its parse.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        loop_before_s = calib.measure()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(work_dir)], check=True, timeout=120, capture_output=True,
            text=True)
        wall_s, loop_after_s = map(float, out.stdout.split()[-2:])
        scaled.append(calib.scaled(wall_s, loop_before_s, loop_after_s))
        wall.append(wall_s)
    return statistics.median(scaled), statistics.median(wall)


def load_corpus(entries, work_dir):
    """Parse every instance/ops pair from its absolute path."""
    from vcsp.io_formats import parse_instance, parse_ops

    corpus = []
    for entry in entries:
        instance = parse_instance(os.path.abspath(work_dir / entry["instance"]))
        ops = parse_ops(os.path.abspath(work_dir / entry["ops"]),
                        instance.domains)
        expected = (math.inf if entry["expected"] == "inf"
                    else Fraction(entry["expected"]))
        corpus.append((instance, ops, expected))
    return corpus


def inputs_digest(manifest, work_dir):
    h = hashlib.sha256()
    for entry in manifest["instances"]:
        for key in ("instance", "ops"):
            h.update(entry[key].encode())
            h.update((work_dir / entry[key]).read_bytes())
    return h.hexdigest()[:16]


def check_answer(result, expected, instance, where):
    """Raise WrongAnswer unless the optimum and its argmin are exact."""
    from vcsp import INF

    if expected == math.inf:
        if result.optimum is not INF:
            raise WrongAnswer(f"{where}: optimum {result.optimum}, expected inf")
        return
    if result.optimum is INF or result.optimum != expected:
        raise WrongAnswer(f"{where}: optimum {result.optimum}, expected {expected}")
    cost = instance.evaluate(result.argmin)
    if cost != expected:
        raise WrongAnswer(f"{where}: argmin {result.argmin} costs {cost}, "
                          f"optimum is {expected}")


def classify(exc):
    from vcsp import CapExceeded, StageError

    if isinstance(exc, OverLimit):
        return "over_limit"
    if isinstance(exc, CapExceeded):
        return "CapExceeded"
    if isinstance(exc, RecursionError):
        return "RecursionError"
    if isinstance(exc, StageError):
        return "StageError"
    return "other:" + type(exc).__name__


def run_probes(entry_name, entries, work_dir, limit):
    """Solve each known-defect probe once; returns (outcome counts, lines).

    A probe that raises is classified like a failure of the loop; one that
    is solved (its defect fixed) must still give the exact answer.
    """
    import vcsp

    outcomes, lines = Counter(), []
    entry = getattr(vcsp, entry_name)
    for spec, (instance, ops, expected) in zip(
            entries, load_corpus(entries, work_dir)):
        arg = ops.pair if entry_name == "solve_stp" else ops
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                result = entry(instance, arg)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:
            outcome = classify(exc)
        else:
            check_answer(result, expected, instance, spec["instance"])
            outcome = "solved"
        outcomes[outcome] += 1
        lines.append(f"probe {spec['instance']} ({spec['family']}, "
                     f"{spec['vars']} vars): {outcome}, known defect "
                     f"{spec['expect']}")
    return outcomes, lines


def solve_loop(entry_name, corpus, seconds, limit, tracer=None):
    """Closed loop over the corpus; returns the raw per-instance outcomes."""
    import vcsp

    n = len(corpus)
    times = [[] for _ in range(n)]
    wall_times = [[] for _ in range(n)]
    loops = []
    failures = [Counter() for _ in range(n)]
    answers = [None] * n
    reported = set()
    calls = 0
    gc.collect()
    start = time.perf_counter()
    before = calib.measure()
    while calls < n or time.perf_counter() - start < seconds:
        k = calls % n
        instance, ops, expected = corpus[k]
        entry = getattr(vcsp, entry_name)
        arg = ops.pair if entry_name == "solve_stp" else ops
        result = failure = None
        if tracer is not None:
            tracer.instance = k
            tracer.begin("entry")
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                result = entry(instance, arg)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # every failure is counted, none is fatal
            failure = classify(exc)
            if failure.startswith("other:") and failure not in reported:
                reported.add(failure)
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if tracer is not None:  # close the root span, and any the call left
            while tracer.stack:
                tracer.end(tracer.stack[-1])
            tracer.instance = None
        after = calib.measure()
        loops.append(after)
        scaled = calib.scaled(elapsed, before, after)
        before = after
        calls += 1
        if failure is None and elapsed > limit:
            failure = "over_limit"
        if failure is not None:
            failures[k][failure] += 1
            answers[k] = answers[k] or f"fail:{failure}"
            continue
        times[k].append(scaled)
        wall_times[k].append(elapsed)
        key = (str(result.optimum), result.argmin)
        if answers[k] != key:
            check_answer(result, expected, instance, f"instance {k}")
            answers[k] = answers[k] or key
    return {"times": times, "wall_times": wall_times, "failures": failures,
            "answers": answers, "calls": calls,
            "loop_s": statistics.median(loops),
            "wall": time.perf_counter() - start}


def summarize(loop, limit, tail_pct, key="times"):
    """End-to-end figures over the corpus instances.

    An instance's time is the median of its repeated solves (scaled ones
    from ``loop["times"]``, or wall-clock ones with ``key="wall_times"``);
    an instance that failed on any call is charged 2 * limit (PAR-2), which
    ranks it after every success.
    """
    values = sorted(2 * limit if f else statistics.median(t)
                    for t, f in zip(loop[key], loop["failures"]))
    n = len(values)
    beyond = n - 1 - math.ceil(tail_pct / 100 * (n - 1))
    if beyond < 10:
        raise ValueError(f"tail percentile {tail_pct} leaves {beyond} of {n} "
                         "instances beyond it; at least 10 are required")
    kinds = Counter()
    for f in loop["failures"]:
        kinds.update(f)
    failed = sum(kinds.values())
    return {
        "solve_s_p50": statistics.median(values),
        "solve_s_tail": statistics.quantiles(
            values, n=100, method="inclusive")[tail_pct - 1],
        "par2_s": statistics.fmean(values),
        "fail_frac": failed / loop["calls"],
        "failed": failed,
        "kinds": kinds,
        "instances": n,
    }


def answers_digest(loop):
    h = hashlib.sha256()
    for answer in loop["answers"]:
        h.update(repr(answer).encode() + b"\n")
    return h.hexdigest()[:16]


def measure(workload, seed, seconds, trace, manifest, work_dir, bench, cfg,
            setup=None):
    """Run one measurement on a prepared corpus; returns (result, lines).

    ``setup`` is the (scaled, wall) pair of ``measure_setup``, untraced only.
    """
    wl = cfg["workloads"][workload]
    limit, tail = wl["limit_s"], wl["tail_percentile"]
    corpus = load_corpus(manifest["instances"], work_dir)
    lines = [f"workload {workload} seed {seed}: {len(corpus)} instances, "
             f"entry {wl['entry']}, limit {limit} s, tail p{tail}",
             f"inputs_digest {inputs_digest(manifest, work_dir)}"]
    if not trace:
        loop = solve_loop(wl["entry"], corpus, seconds, limit)
        figures = summarize(loop, limit, tail)
        figures["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values = dict(figures, setup_s=setup[0])
        wall = summarize(loop, limit, tail, key="wall_times")
        lines.append(
            f"wall-clock: solve_s_p50 {wall['solve_s_p50']:.6g} s, "
            f"solve_s_tail {wall['solve_s_tail']:.6g} s, "
            f"par2_s {wall['par2_s']:.6g} s, setup_s {setup[1]:.6g} s; "
            f"calibration loop median {loop['loop_s']:.6g} s, reference "
            f"{calib.REFERENCE_S} s")
        attempted = loop["calls"]
    else:
        from layers import (compute, largest_self_time, stage12_span_count,
                            targets)
        from tracer import Tracer

        plain = solve_loop(wl["entry"], corpus, seconds / 2, limit)
        probes, probe_lines = run_probes(wl["entry"], manifest["probes"],
                                         work_dir, limit)
        tracer = Tracer()
        origin = time.perf_counter()
        tracer.install(targets())
        try:
            corpus = load_corpus(manifest["instances"], work_dir)
            loop = solve_loop(wl["entry"], corpus, seconds / 2, limit, tracer)
        finally:
            tracer.uninstall()
        figures = summarize(loop, limit, tail)
        untraced = summarize(plain, limit, tail)
        expected_on = {m: spec["runs_on"]
                       for m, spec in cfg["per_layer"].items()}
        values, notes = compute(tracer, loop["calls"], expected_on, workload)
        values["io_formats.input_bytes"] = sum(
            (work_dir / e[k]).stat().st_size
            for e in manifest["instances"] for k in ("instance", "ops"))
        values["trace.overhead_frac"] = (
            figures["par2_s"] / untraced["par2_s"] - 1)
        values["outcome.fail_frac"] = figures["fail_frac"]
        for kind in FAILURE_KINDS:
            values[f"outcome.{kind}"] = figures["kinds"][kind] / loop["calls"]
        for kind in ("CapExceeded", "RecursionError"):
            values[f"probe.{kind}"] = probes[kind]
        top, top_s = largest_self_time(tracer)
        spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
        tracer.dump(spans_path, origin)
        lines += [f"untraced: {plain['calls']} calls, "
                  f"par2_s {untraced['par2_s']:.6g} s",
                  f"traced: {loop['calls']} calls, {len(tracer.spans)} spans "
                  f"written to {spans_path.relative_to(ROOT)}",
                  f"stage1_2_spans {stage12_span_count(tracer)}",
                  f"largest_self_time {top} {top_s / loop['calls']:.6g} s "
                  "per call"] + probe_lines
        lines += [f"trace target not found: {name}" for name in tracer.missing]
        lines += [f"flag: {note}" for note in notes]
        attempted = loop["calls"]
    kinds = figures["kinds"]
    breakdown = ", ".join(f"{k} {kinds[k]}" for k in FAILURE_KINDS)
    other = sum(v for k, v in kinds.items() if k not in FAILURE_KINDS)
    lines += [f"answers_digest {answers_digest(loop)}",
              f"calls {loop['calls']} in {loop['wall']:.1f} s",
              f"fail_frac {figures['fail_frac']:.6g} ratio "
              f"({figures['failed']} of {loop['calls']} calls: {breakdown}, "
              f"other {other})"]
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"{spec['name']} {shown} {spec['unit']}")
    result = {"correct": True, "attempted": attempted,
              "failed": figures["failed"], "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="vcsp solver benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vcsp" / "__init__.py").is_file():
        print(f"error: no vcsp sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    cfg = load_json(HERE / "workloads.json")
    if args.workload not in cfg["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vcsp

    if Path(vcsp.__file__).resolve().parent != (SRC / "vcsp").resolve():
        print(f"error: imported vcsp from {vcsp.__file__}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    work_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        manifest = run_prepare(args.workload, args.seed, work_dir)
        setup = None if args.trace else measure_setup(work_dir)
        try:
            result, lines = measure(args.workload, args.seed, args.seconds,
                                    args.trace, manifest, work_dir, bench, cfg,
                                    setup)
        except WrongAnswer as exc:
            # the run stops at the first wrong answer; no metric is reported
            print(f"wrong answer: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                              "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

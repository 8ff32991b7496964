"""Command-line surface.

Subcommands: solve (full pipeline), oracle (brute force), verify (operation
and per-term multimorphism checks), consistency (stage 1 network dump), and
reduce (stages 1-2, final operations plus iteration trace).

Exit codes: 0 success (an infeasible instance is a successful answer), 1 for
failed verification or violated solver hypotheses, 2 for malformed input
(a file that is not UTF-8 included), an input file that cannot be read, bad
usage, or an exceeded ``--cap``.  The cap bounds each term table, checked
as the instance file is parsed and before the table is built, the oracle,
the stage-3 brute-force fallback and the exhaustive stage-1 certificate of
``--paranoid``, not its other checks nor the assignment space of an
instance that stage 3 solves by min-cut.
Input arguments are always file paths.
"""

from __future__ import annotations

import argparse
import json
import sys

from .consistency import (decompose_instance, enforce_strong_3_consistency,
                          run_stage1)
from .costs import format_cost
from .errors import CapExceeded, FormatError, ValidationError, VcspError
from .io_formats import parse_instance, parse_ops, serialize_ops
from .model import DEFAULT_CAP
from .operations import check_instance_multimorphism
from .reduction import run_stage2
from .solvers import run_validate, solve_bruteforce, solve_pipeline


def _add_common(parser):
    parser.add_argument("--float", action="store_true", dest="float_mode",
                        help="use floating-point costs (tolerant comparisons)")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="cap in tuples on each term table (checked "
                             "as the instance is parsed, before the table "
                             "is built), on the oracle, the stage-3 "
                             "brute-force fallback and the exhaustive "
                             "stage-1 certificate of --paranoid; min-cut "
                             "solves and the stage-2 scans are not bounded "
                             "by it")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--paranoid", action="store_true",
                        help="run the expensive diagnostic scans, including "
                             "the exhaustive stage-1 certificate")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the stage-2 iteration trace to a file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcsp",
        description="Exact solver for valued CSPs with a mixed "
                    "commutative/majority operation structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, need_ops, help_text in (
            ("solve", True, "run the full three-stage pipeline"),
            ("oracle", False, "brute-force minimum by enumeration"),
            ("verify", True, "validate the operation system and every term"),
            ("consistency", False, "stage 1 only; dump the relation network"),
            ("reduce", True, "stages 1-2; dump final operations and trace")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file")
        if need_ops:
            p.add_argument("ops", help="operation-system file")
        _add_common(p)
    return parser


def _result_payload(result):
    payload = {
        "optimum": format_cost(result.optimum),
        "argmin": list(result.argmin) if result.argmin is not None else None,
    }
    stats = {k: v for k, v in result.stats.items()
             if k in ("path", "reduce_iterations", "reason", "cycles")}
    payload["stats"] = stats
    return payload


def _emit_result(result, as_json):
    payload = _result_payload(result)
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"optimum {payload['optimum']}")
    if payload["argmin"] is None:
        print("argmin none")
    else:
        print("argmin " + " ".join(str(v) for v in payload["argmin"]))
    for key in sorted(payload["stats"]):
        print(f"stat {key} {payload['stats'][key]}")


def _write_trace(args, lines):
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        instance = parse_instance(args.instance, float_mode=args.float_mode,
                                  cap=args.cap)
        if args.command == "oracle":
            _emit_result(solve_bruteforce(instance, cap=args.cap), args.json)
            return 0
        if args.command == "consistency":
            net = decompose_instance(instance, cap=args.cap)
            net, empty = enforce_strong_3_consistency(net)
            # the network has no place for a constant term; one at INF
            # leaves no feasible assignment, as solve and reduce report
            empty = empty or instance.costs.infeasible_constant()
            if args.json:
                print(json.dumps({"empty": empty,
                                  "network": net.dump().splitlines()}))
            else:
                print(f"empty {'true' if empty else 'false'}")
                print(net.dump())
            return 0
        ops = parse_ops(args.ops, instance.domains, validate=False)
        if args.command == "verify":
            try:
                ops.validate()
            except ValidationError as exc:
                print(f"violation ops {exc}")
                return 1
            ok, term, witness = check_instance_multimorphism(instance, ops)
            if not ok:
                print(f"violation term {term + 1} {witness[0]} {witness[1]}")
                return 1
            print("ok")
            return 0
        if args.command == "solve":
            trace = []
            result = solve_pipeline(instance, ops, cap=args.cap,
                                    paranoid=args.paranoid, trace=trace)
            _write_trace(args, trace)
            _emit_result(result, args.json)
            return 0
        if args.command == "reduce":
            ops = run_validate(instance, ops)
            stage1 = run_stage1(instance, ops, cap=args.cap,
                                paranoid=args.paranoid)
            if stage1 is None:
                print("empty true")
                _write_trace(args, [])
                return 0
            _, inst_r, ops_r, net_r = stage1
            trace = []
            final = run_stage2(inst_r, ops_r, net_r, paranoid=args.paranoid,
                               trace=trace)
            _write_trace(args, trace)
            for line in trace:
                print(line)
            print(serialize_ops(final), end="")
            return 0
    except (FormatError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VcspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())

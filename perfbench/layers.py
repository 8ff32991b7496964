"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Time metrics are self times (a span's duration minus its children's), in
seconds per traced entry call; count metrics are per traced entry call too.
``io_formats.*`` describe parsing the whole corpus once, so they are totals.
"""

from __future__ import annotations

import re
from collections import Counter

ROOT_SPAN = "entry"


def _stage2_post(tracer, idx, args, kwargs):
    lines = kwargs.get("trace")
    if lines is None:
        return
    tracer.add(idx, "iterations", len(lines))
    tracer.add(idx, "region_vars", sum(
        int(m.group(1)) for m in map(re.compile(r"\|U\| (\d+)").search, lines)
        if m))


def _encode_post(tracer, idx, args, kwargs):
    encoding = args[0]
    if hasattr(encoding, "n_nodes") and hasattr(encoding, "edges"):
        tracer.add(idx, "cut_nodes", encoding.n_nodes)
        tracer.add(idx, "cut_edges", len(encoding.edges))


SPAN_TARGETS = {
    "io_formats": ["parse_instance", "parse_ops"],
    "operations": ["OperationSystem.validate", "OperationSystem.normalized",
                   "build_majority", "ternary_polymorphism_closed",
                   "check_binary_multimorphism"],
    "consistency": ["decompose_instance", "enforce_strong_3_consistency",
                    "certify_decomposition", "restrict_network",
                    "restrict_instance", "restrict_operation_system"],
    "reduction": ["run_stage2", "grow_uab", "check_region_invariants",
                  "apply_modification"],
    "solvers": ["solve_pipeline", "solve_stp", "extract_tournament_order",
                "CutEncoding.__init__", "MaxFlow.max_flow",
                "solve_bruteforce"],
}
COUNT_TARGETS = ["compose", "Instance.evaluate"]
POST_HOOKS = {"run_stage2": _stage2_post, "CutEncoding.__init__": _encode_post}

#: Spans that only stages 1 and 2 of the pipeline open.
STAGE12_SPANS = ("decompose_instance", "enforce_strong_3_consistency",
                 "certify_decomposition", "run_stage2", "grow_uab",
                 "check_region_invariants", "apply_modification")


def targets():
    out = []
    for names in SPAN_TARGETS.values():
        out.extend((name, "span", POST_HOOKS.get(name)) for name in names)
    out.extend((name, "count", None) for name in COUNT_TARGETS)
    return out


# metric -> span names whose summed self time it reports
SELF_TIME = {
    "operations.validate_s": ("OperationSystem.validate",
                              "OperationSystem.normalized"),
    "operations.majority_s": ("build_majority", "ternary_polymorphism_closed"),
    "operations.binary_check_s": ("check_binary_multimorphism",),
    "consistency.decompose_s": ("decompose_instance",),
    "consistency.enforce_s": ("enforce_strong_3_consistency",),
    "consistency.certify_s": ("certify_decomposition",),
    "consistency.restrict_s": ("restrict_network", "restrict_instance",
                               "restrict_operation_system"),
    "reduction.stage2_s": ("run_stage2",),
    "reduction.grow_s": ("grow_uab",),
    "reduction.invariants_s": ("check_region_invariants",),
    "reduction.rewrite_s": ("apply_modification",),
    "solvers.order_s": ("extract_tournament_order",),
    "solvers.encode_s": ("CutEncoding.__init__",),
    "solvers.maxflow_s": ("MaxFlow.max_flow",),
    "solvers.stage3_s": ("solve_stp",),
}
# metric -> (span name, counter attached to those spans)
SPAN_COUNTER = {
    "consistency.compose_calls": ("enforce_strong_3_consistency", "compose"),
    "consistency.certify_assignments": ("certify_decomposition",
                                        "Instance.evaluate"),
    "reduction.iterations": ("run_stage2", "iterations"),
    "reduction.region_vars": ("run_stage2", "region_vars"),
    "solvers.cut_nodes": ("CutEncoding.__init__", "cut_nodes"),
    "solvers.cut_edges": ("CutEncoding.__init__", "cut_edges"),
}


def compute(tracer, calls, expected_on, workload):
    """Per-layer values for one traced phase of ``calls`` entry calls.

    Returns ``(values, notes)``.  A metric whose spans never opened is 0 on
    a workload where its layer is not expected to run, and None (with a
    note) where ``expected_on`` says it should have run.
    """
    spans = tracer.spans
    own = tracer.self_times()
    counts = {}
    for (idx, counter), value in tracer.counts.items():
        if idx >= 0:
            counts.setdefault(idx, {})[counter] = value
    by_name = {}
    for idx, (name, _, _, _, inst) in enumerate(spans):
        by_name.setdefault((name, inst is not None), []).append(idx)

    def solve_spans(name):
        return by_name.get((name, True), [])

    def subtree_count(idx_list, counter):
        # counters of the spans and of every span below them
        wanted = set(idx_list)
        total = 0
        for idx, per in counts.items():
            j = idx
            while j >= 0 and j not in wanted:
                j = spans[j][3]
            if j >= 0:
                total += per.get(counter, 0)
        return total

    values, fired = {}, {}
    for metric, names in SELF_TIME.items():
        idxs = [i for n in names for i in solve_spans(n)]
        fired[metric] = bool(idxs)
        values[metric] = sum(own[i] for i in idxs) / calls
    for metric, (name, counter) in SPAN_COUNTER.items():
        idxs = solve_spans(name)
        fired[metric] = bool(idxs)
        values[metric] = subtree_count(idxs, counter) / calls

    checks = solve_spans("check_binary_multimorphism")
    fired["operations.binary_check_calls"] = bool(checks)
    values["operations.binary_check_calls"] = len(checks) / calls

    stage3 = solve_spans("solve_stp")
    fallback = [i for i in solve_spans("solve_bruteforce")
                if spans[i][3] >= 0 and spans[spans[i][3]][0] == "solve_stp"]
    for metric in ("solvers.fallback_s", "solvers.fallback_assignments"):
        fired[metric] = bool(fallback)
    values["solvers.fallback_s"] = sum(own[i] for i in fallback) / calls
    values["solvers.fallback_assignments"] = (
        subtree_count(fallback, "Instance.evaluate") / calls)
    fired["solvers.fallback_frac"] = bool(stage3)
    values["solvers.fallback_frac"] = (
        len({spans[i][3] for i in fallback}) / len(stage3) if stage3 else 0.0)

    roots = solve_spans(ROOT_SPAN)
    fired["model.evaluate_calls"] = bool(roots)
    values["model.evaluate_calls"] = (
        subtree_count(roots, "Instance.evaluate") / calls)

    parses = by_name.get(("parse_instance", False), []) + by_name.get(
        ("parse_ops", False), [])
    fired["io_formats.parse_s"] = bool(parses)
    values["io_formats.parse_s"] = sum(
        spans[i][2] - spans[i][1] for i in parses)

    notes = []
    for metric, ok in fired.items():
        runs_here = workload in expected_on.get(metric, ())
        if not ok and runs_here:
            values[metric] = None
            notes.append(f"{metric}: no span on {workload}, where its layer "
                         "should run; reported as null")
        elif not ok:
            values[metric] = 0.0
        elif not runs_here and values[metric]:
            notes.append(f"{metric}: spans on {workload}, where its layer "
                         "is not expected to run")
    return values, notes


def stage12_span_count(tracer):
    return sum(1 for name, *_ , inst in tracer.spans
               if inst is not None and name in STAGE12_SPANS)


def largest_self_time(tracer):
    """(span name, summed self time) of the costliest function in solves."""
    totals = Counter()
    for (name, _, _, _, inst), own in zip(tracer.spans, tracer.self_times()):
        if inst is not None and name != ROOT_SPAN:
            totals[name] += own
    return totals.most_common(1)[0] if totals else ("none", 0.0)

"""Exact reference optima for the benchmark's correctness check.

Instances whose assignment space fits under the enumeration cap are solved
by the library's brute force.  Chains and ladders above the cap are solved
here by a transfer-matrix dynamic programme over their columns (at most
3^3 = 27 states per column at width 3 and d = 3).  The arithmetic is exact:
costs are scaled by their common denominator to integers for the sweep and
the optimum is returned as a ``Fraction``; infinite costs are carried as
``math.inf``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from vcsp import DEFAULT_CAP, INF, solve_bruteforce


def _lookup(term, scale):
    """(scope, row-major strides, entries * scale as int or math.inf)."""
    shape = term.table.shape
    strides = [1] * len(shape)
    for p in range(len(shape) - 2, -1, -1):
        strides[p] = strides[p + 1] * shape[p + 1]
    entries = [math.inf if e is INF else int(Fraction(e) * scale)
               for e in term.table.entries]
    return term.scope, strides, entries


def _cost(terms, x):
    total = 0
    for scope, strides, entries in terms:
        total += entries[sum(s * x[v] for s, v in zip(strides, scope))]
    return total


def column_optimum(instance, columns):
    """Minimum of an instance whose terms stay within one column or link
    two consecutive columns of ``columns`` (lists of variable indices)."""
    col_of = {v: c for c, col in enumerate(columns) for v in col}
    if sorted(col_of) != list(range(instance.domains.variable_count)):
        raise ValueError("columns must partition the variables")
    scale = math.lcm(*(Fraction(e).denominator for t in instance.terms
                       for e in t.table.entries if e is not INF))
    local = [[] for _ in columns]
    link = [[] for _ in columns]
    for term in instance.terms:
        cs = sorted({col_of[v] for v in term.scope})
        if len(cs) == 1:
            local[cs[0]].append(_lookup(term, scale))
        elif len(cs) == 2 and cs[1] == cs[0] + 1:
            link[cs[1]].append(_lookup(term, scale))
        else:
            raise ValueError("a term spans non-adjacent columns")
    x = [0] * instance.domains.variable_count
    best = {(): 0}
    prev_col = []
    for c, col in enumerate(columns):
        nxt = {}
        for state in itertools.product(
                *(range(instance.domains.sizes[v]) for v in col)):
            for v, a in zip(col, state):
                x[v] = a
            here = _cost(local[c], x)
            low = math.inf
            for prev, value in best.items():
                for v, a in zip(prev_col, prev):
                    x[v] = a
                low = min(low, value + _cost(link[c], x))
            nxt[state] = low + here
        best = nxt
        prev_col = col
    low = min(best.values())
    return low if low == math.inf else Fraction(low, scale)


def is_feasible(instance):
    """Whether some assignment has finite cost (dense boolean product)."""
    sizes = instance.domains.sizes
    live = np.ones(sizes, dtype=bool)
    for term in instance.terms:
        scope = term.scope
        if len(set(scope)) != len(scope):
            raise ValueError("scopes with a repeated variable are not supported")
        mask = np.array([e is not INF for e in term.table.entries],
                        dtype=bool).reshape(term.table.shape)
        order = sorted(range(len(scope)), key=scope.__getitem__)
        shape = [1] * len(sizes)
        for v in scope:
            shape[v] = sizes[v]
        live &= mask.transpose(order).reshape(shape)
    return bool(live.any())


def reference_optimum(instance, columns, cap=DEFAULT_CAP):
    """(optimum, oracle name); the optimum is a Fraction or math.inf."""
    if instance.domains.space_size() <= cap:
        opt = solve_bruteforce(instance, cap=cap).optimum
        return (math.inf if opt is INF else opt), "bruteforce"
    if columns is None:
        raise ValueError("instance above the cap has no column layout")
    return column_optimum(instance, columns), "columns"

"""Slow exact reference versions of library fast paths, for the tests only.

``loop_binary_multimorphism`` and ``loop_ternary_multimorphism`` are the
pure-Python loops that ``check_binary_multimorphism`` and
``check_ternary_multimorphism`` replaced: same contract, same witness order
(the first violating ordered tuple of feasible tuples, row-major over
``table.dom()``), one ``cost_le`` per tuple.  ``closure_restrict_instance``
is ``restrict_instance`` with one Python closure call per new entry.
"""

from __future__ import annotations

from vcsp.costs import cost_le
from vcsp.model import CostTable, DomainSpec, Instance, Term


def loop_binary_multimorphism(table, pair, scope, tol=0):
    """Inequality f(x meet y) + f(x join y) <= f(x) + f(y) over feasible pairs.

    Returns (True, None) or (False, (x, y)) with the lexicographically
    smallest violating ordered pair of feasible tuples.
    """
    dom = table.dom()
    for x in dom:
        fx = table[x]
        for y in dom:
            lo = tuple(pair.meet(scope[p], x[p], y[p]) for p in range(len(x)))
            hi = tuple(pair.join(scope[p], x[p], y[p]) for p in range(len(x)))
            left = table[lo] + table[hi]
            right = fx + table[y]
            if not cost_le(left, right, tol):
                return False, (x, y)
    return True, None


def loop_ternary_multimorphism(table, triple, scope, tol=0):
    """Three-way inequality over all ordered feasible triples."""
    dom = table.dom()
    m = len(scope)
    for x in dom:
        for y in dom:
            for z in dom:
                left = 0
                for pos in range(3):
                    img = tuple(
                        triple.apply(pos, scope[p], x[p], y[p], z[p])
                        for p in range(m))
                    left = left + table[img]
                right = table[x] + table[y] + table[z]
                if not cost_le(left, right, tol):
                    return False, (x, y, z)
    return True, None


def closure_restrict_instance(instance, keep):
    """Re-index an instance's tables to the shrunken domains."""
    domains = DomainSpec(tuple(len(k) for k in keep))
    terms = []
    for term in instance.terms:
        shape = tuple(len(keep[i]) for i in term.scope)
        maps = [keep[i] for i in term.scope]

        def entry(*t, _maps=maps, _table=term.table):
            return _table[tuple(m[v] for m, v in zip(_maps, t))]

        terms.append(Term(CostTable.from_function(shape, entry), term.scope))
    return Instance(domains, terms)

"""Slow exact reference versions of library fast paths, for the tests only.

``loop_binary_multimorphism`` and ``loop_ternary_multimorphism`` are the
pure-Python loops that ``check_binary_multimorphism`` and
``check_ternary_multimorphism`` replaced: same contract, same witness order
(the first violating ordered tuple of feasible tuples, row-major over
``table.dom()``), one ``cost_le`` per tuple.  ``closure_restrict_instance``
is ``restrict_instance`` with one Python closure call per new entry.

``loop_is_stp_on``, ``loop_is_mjn_on``, ``loop_build_majority`` and
``loop_normalize_pairset`` are the per-entry loops that the numpy masks of
``is_stp_on``, ``is_mjn_on``, ``build_majority`` and ``normalize_pairset``
replaced: same results, same witnesses and messages.
"""

from __future__ import annotations

import itertools

from vcsp.costs import cost_le
from vcsp.errors import ValidationError
from vcsp.model import CostTable, DomainSpec, Instance, Term
from vcsp.operations import TernaryOp, _pair_key, conservative_violation


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


def loop_is_stp_on(pair, m):
    """Conservative everywhere and commutative on every pair of m."""
    for i in range(pair.domains.variable_count):
        bad = conservative_violation(pair, i)
        if bad is not None:
            return False, (i, bad, "not conservative")
        for a, b in sorted(m.members[i]):
            if (pair.meet(i, a, b) != pair.meet(i, b, a)
                    or pair.join(i, a, b) != pair.join(i, b, a)):
                return False, (i, (a, b), "not commutative")
    return True, None


def loop_is_mjn_on(triple, target):
    """Each component conservative; majority/minority contract on ``target`` pairs.

    ``target`` is the pair set (per variable) on which the contract must hold;
    triples whose value set is not one of those pairs are only required to be
    conservative.
    """
    domains = triple.domains
    for i in range(domains.variable_count):
        size = domains.sizes[i]
        wanted = target.members[i]
        for a, b, c in itertools.product(range(size), repeat=3):
            vals = (triple.apply(0, i, a, b, c),
                    triple.apply(1, i, a, b, c),
                    triple.apply(2, i, a, b, c))
            for pos, v in enumerate(vals):
                if v not in (a, b, c):
                    return False, (i, (a, b, c), f"component {pos + 1} not conservative")
            distinct = {a, b, c}
            if len(distinct) == 2 and _pair_key(*sorted(distinct)) in wanted:
                counts = {v: (a, b, c).count(v) for v in distinct}
                major = max(counts, key=counts.get)
                minor = min(counts, key=counts.get)
                if vals[0] != major:
                    return False, (i, (a, b, c), "first component not majority")
                if vals[1] != major:
                    return False, (i, (a, b, c), "second component not majority")
                if vals[2] != minor:
                    return False, (i, (a, b, c), "third component not minority")
    return True, None


def loop_build_majority(pair, triple):
    """Derive the ternary majority operation from the pair and the triple.

    The result acts as the majority operation whenever the argument value set
    has at most two elements; a failure of that contract means the input
    system is invalid.
    """
    domains = pair.domains

    def mu_bar(i, x, y, z):
        return pair.meet(
            i,
            pair.meet(i, pair.join(i, y, x), pair.join(i, y, z)),
            pair.join(i, x, z))

    def mu(i, x, y, z):
        return triple.apply(
            0, i, mu_bar(i, x, y, z), mu_bar(i, y, z, x), mu_bar(i, z, x, y))

    out = TernaryOp.from_function(domains, mu)
    for i in range(domains.variable_count):
        size = domains.sizes[i]
        for a, b, c in itertools.product(range(size), repeat=3):
            v = out.apply(i, a, b, c)
            if v not in (a, b, c):
                raise ValidationError(
                    "derived majority operation is not conservative",
                    witness=(i, (a, b, c)))
            if len({a, b, c}) <= 2:
                counts = {u: (a, b, c).count(u) for u in {a, b, c}}
                major = max(counts, key=counts.get)
                if v != major:
                    raise ValidationError(
                        "derived operation is not majority on a two-value triple; "
                        "the input operation system is invalid",
                        witness=(i, (a, b, c)))
    return out


def loop_normalize_pairset(pair, m):
    """Move commutative complement pairs into m.

    After this, every pair outside m is genuinely non-commutative, which the
    rewriting stage assumes.
    """
    out = m
    for i in range(pair.domains.variable_count):
        extra = []
        for a, b in m.complement(i):
            if (pair.meet(i, a, b) == pair.meet(i, b, a)
                    and pair.join(i, a, b) == pair.join(i, b, a)):
                extra.append((a, b))
        if extra:
            out = out.with_added(i, extra)
    return out

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
``loop_extract_tournament_order`` is ``extract_tournament_order`` with one
``pair.meet`` call per label pair.

``LoopCutEncoding`` is the min-cut encoding on the instance's own cost
values (``Fraction`` capacities for exact costs), with one table lookup per
entry and a dict from (variable, level) to node; ``CutEncoding`` builds the
same network on costs scaled to integers.  Each table that is not exact
compares its couplings within the tolerance of its own costs.
``loop_prune_unsupported`` rescans every merged term's table on every sweep.
``DinicMaxFlow`` is the max-flow that ``MaxFlow`` ran before its search
tree: Dinic's BFS phases, here without the first sweep over the paths
s -> u -> v -> t.
``loop_find_seed`` is ``find_seed`` reading the whole outside mask of M
(``PairSet.outside``) with ``np.argwhere``.

``loop_decompose_instance`` is ``decompose_instance`` with one Python pass
over every feasible tuple per variable pair.  It drops a tuple only when
one of the two projected variables reads two labels in it, so on a term
that repeats some other variable its projections may be larger than those
of the merged term; elsewhere they are the same.
``loop_certify_decomposition`` is ``certify_decomposition`` with one pass
per term: merge its repeated variables, read its feasibility mask entry by
entry and compare it with the join of its pairwise projections.
``loop_restrict_operation_system`` is ``restrict_operation_system`` with
the label maps rebuilt for every table, in three loops.
``loop_apply_modification`` is ``apply_modification`` rebuilding the pair
and the pair set from nested tuples once per region variable, through
``with_tables`` and ``with_added``.
``loop_grow_uab``, ``loop_check_region_invariants``,
``loop_scan_pair_coupling`` and ``loop_scan_boundary_exchange`` are the
stage-2 region growth, invariant check and paranoid scans walking
``net.rel`` slices label by label, with Python sets and ``image`` (the
image of a label set under a relation matrix), where the library reads
masks of ``net.R``: same states, verdicts, witnesses and lists in the same
order.

``feasible_masks`` is the per-arity mask pass over every entry that the
stages ran before each ``Instance`` built its term store (the store's
groups, one per arity, hold the same masks, padded the same way), and
``PerCallScaledCosts`` is the store as one call built it from a list of
terms, with a Python list of scaled entries per table and each table's
``tolerance`` taken from that list.
``crisp_term_check_network_closed`` is the ``--paranoid`` network check
that built one crisp ``Term`` per relation ``R[i, j]``, i < j, and ran
``check_binary_multimorphism`` on their ``ScaledCosts``, where the library
reads the blocks of ``net.R`` as masks: same errors, same witnesses.

``intersect`` narrows one relation of a network and its transpose.
``apply_pair``, ``conservative_violation``, ``classify_pair``,
``check_polymorphism`` and ``check_global_multimorphism`` are per-entry
helpers the tests check the operations with; ``feasible_assignments`` and
``project`` enumerate an instance's global feasible set.  The solver uses
none of them.

``loop_parse_instance_text`` and ``loop_parse_ops_text`` are the parsers
that read one token at a time: one ``int`` call and one range check per
label, a ``CostTable.from_function`` call per table, and the operation
tables built through the nested-list constructors.  They raise the same
errors, with the same line numbers, and return equal objects.

``cost_le`` is the reference comparison of the loops.  Unlike the library,
which reads the tolerance off the costs (``costs.tolerance``), the loops
take it as an argument, and each test passes the one its costs imply.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from vcsp.consistency import BinaryNetwork
from vcsp.costs import (EXACT_TYPES, INF, integer_costs, is_finite,
                        parse_cost, tolerance)
from vcsp.errors import (CapExceeded, FormatError, StageError, ValidationError,
                         VcspError)
from vcsp.model import (_INT64_INF, _INT64_LIMIT, DEFAULT_CAP, CostTable,
                        DomainSpec, Instance, Term, merge_repeated)
from vcsp.operations import (BinaryPair, MjnTriple, OperationSystem, PairSet,
                             TernaryOp, all_label_pairs,
                             check_binary_multimorphism)
from vcsp.reduction import ReductionState
from vcsp.solvers import MaxFlow, TournamentOrder


def _pair_key(a, b):
    return (a, b) if a < b else (b, a)


def with_added(m, i, pairs):
    """The pair set ``m`` with ``pairs`` added to variable i's."""
    members = list(m.members)
    members[i] = members[i] | {_pair_key(a, b) for a, b in pairs}
    return PairSet(m.domains, tuple(members))


def with_tables(pair, i, meet_table, join_table):
    """The binary pair ``pair`` with variable i's tables replaced."""
    meets, joins = list(pair.meet_tables), list(pair.join_tables)
    meets[i], joins[i] = meet_table, join_table
    return BinaryPair(pair.domains, meets, joins)


def cost_le(a, b, tol=0):
    """a <= b up to tolerance, with INF handled exactly."""
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b + tol


def apply_pair(pair, x, y):
    """Componentwise (x meet y, x join y)."""
    if len(x) != len(y) or len(x) != pair.domains.variable_count:
        raise VcspError("assignments do not match the domain spec")
    lo = tuple(pair.meet(i, x[i], y[i]) for i in range(len(x)))
    hi = tuple(pair.join(i, x[i], y[i]) for i in range(len(x)))
    return lo, hi


def conservative_violation(pair, i):
    """Smallest (a, b) where {a meet b, a join b} != {a, b}, or None."""
    size = pair.domains.sizes[i]
    for a in range(size):
        for b in range(size):
            if {pair.meet(i, a, b), pair.join(i, a, b)} != {a, b}:
                return (a, b)
    return None


def classify_pair(pair, i):
    """Map each label pair of variable i to True iff both ops are commutative on it."""
    bad = conservative_violation(pair, i)
    if bad is not None:
        raise ValidationError(
            f"pair is not conservative at variable {i}, labels {bad}",
            witness=(i,) + bad)
    out = {}
    for a, b in all_label_pairs(pair.domains.sizes[i]):
        out[(a, b)] = (pair.meet(i, a, b) == pair.meet(i, b, a)
                       and pair.join(i, a, b) == pair.join(i, b, a))
    return out


def check_polymorphism(op, tuples, scope):
    """Closure of a tuple set under a componentwise k-ary operation."""
    tuples = set(tuples)
    m = len(scope)
    for args in itertools.product(sorted(tuples), repeat=op.arity):
        img = tuple(
            op.apply(scope[p], *(args[j][p] for j in range(op.arity)))
            for p in range(m))
        if img not in tuples:
            return False
    return True


def check_global_multimorphism(instance, ops, cap=None, tol=0):
    """Cross-validation: both inequalities on the whole cost function.

    Enumerates the global feasible set, so only usable at desk scale.
    """
    cap = DEFAULT_CAP if cap is None else cap
    feas = sorted(feasible_assignments(instance, cap=cap))
    scope = tuple(range(instance.domains.variable_count))
    for x in feas:
        for y in feas:
            lo, hi = apply_pair(ops.pair, x, y)
            if not cost_le(instance.evaluate(lo) + instance.evaluate(hi),
                           instance.evaluate(x) + instance.evaluate(y), tol):
                return False, (x, y)
    for x, y, z in itertools.product(feas, repeat=3):
        left = 0
        for pos in range(3):
            img = tuple(
                ops.triple.apply(pos, i, x[i], y[i], z[i]) for i in scope)
            left = left + instance.evaluate(img)
        if not cost_le(left,
                       instance.evaluate(x) + instance.evaluate(y)
                       + instance.evaluate(z), tol):
            return False, (x, y, z)
    return True, None


def feasible_assignments(instance, cap=DEFAULT_CAP):
    """Exactly the assignments with finite total cost."""
    return {
        x for x in instance.domains.assignments(cap=cap)
        if is_finite(instance.evaluate(x))
    }


def project(instance, vars, cap=DEFAULT_CAP):
    """Project the globally feasible set onto one or two coordinates."""
    vars = tuple(vars)
    if len(vars) not in (1, 2):
        raise VcspError("projection takes one or two variable indices")
    out = set()
    for x in instance.domains.assignments(cap=cap):
        if is_finite(instance.evaluate(x)):
            if len(vars) == 1:
                out.add(x[vars[0]])
            else:
                out.add((x[vars[0]], x[vars[1]]))
    return out


def feasible_masks(terms):
    """The feasible sets of ``terms`` per arity k, as ``(term indices in
    term order, scopes [T, k], masks [T, D_1, ..., D_k])``, padded with
    False to the group's largest table extents; one pass per table shape."""
    by_shape, by_arity = {}, {}
    for idx, term in enumerate(terms):
        by_shape.setdefault(term.table.shape, []).append(idx)
        by_arity.setdefault(len(term.scope), []).append(idx)
    groups = []
    for k, idxs in by_arity.items():
        blocks = [(by_shape[shape], np.fromiter(map(
            operator.is_not, itertools.chain.from_iterable(
                terms[i].table.entries for i in by_shape[shape]),
            itertools.repeat(INF)), bool).reshape((-1,) + shape))
            for shape in by_shape if len(shape) == k]
        masks = blocks[0][1]
        if len(blocks) > 1:
            masks = np.zeros((len(idxs),) + tuple(map(
                max, *(block.shape[1:] for _, block in blocks))), dtype=bool)
            for members, block in blocks:
                masks[(np.searchsorted(idxs, members),)
                      + tuple(map(slice, block.shape[1:]))] = block
        scopes = np.array([terms[i].scope for i in idxs], dtype=np.intp)
        groups.append((idxs, scopes.reshape(len(idxs), k), masks))
    return groups


class PerCallScaledCosts:
    """The term store built for one call from a list of terms, with the
    scaled entries of each table kept as a Python list in ``rows``, and the
    groups laid out from those rows."""

    def __init__(self, terms):
        self.scale, self.rows = integer_costs(
            [term.table.entries for term in terms])
        members = {}
        for idx, term in enumerate(terms):
            members.setdefault(term.table.shape, []).append(idx)
        flat = [e for idxs in members.values() for i in idxs
                for e in self.rows[i]]
        if self.scale is not None and max(
                (e for e in flat if e is not INF), default=0) < _INT64_LIMIT:
            values = np.fromiter(map({INF: _INT64_INF}.get, flat, flat),
                                 np.int64, len(flat))
            feasible = values != _INT64_INF
        else:
            values = np.array(flat, dtype=object)
            feasible = np.array([e is not INF for e in flat], dtype=bool)
        scopes = np.array([v for idxs in members.values() for i in idxs
                           for v in terms[i].scope], dtype=np.intp)
        self.groups = []
        entry = position = 0
        for shape, idxs in members.items():
            entries_at = slice(entry, entry + len(idxs) * math.prod(shape))
            scopes_at = slice(position, position + len(idxs) * len(shape))
            entry, position = entries_at.stop, scopes_at.stop
            costs = values[entries_at].reshape(len(idxs), -1)
            tol = None if self.scale is not None else np.array(
                [tolerance(self.rows[i]) for i in idxs], dtype=object)
            self.groups.append((idxs, shape, costs,
                                feasible[entries_at].reshape(len(idxs), -1),
                                scopes[scopes_at].reshape(len(idxs),
                                                          len(shape)),
                                tol))


def crisp_term_check_network_closed(net, pair):
    """Diagnostic: every network relation, as a crisp table, admits ``pair``.

    Once stage 1 is certified the relations are implied by the instance's
    own terms, so stage 3 solves without them; ``paranoid`` pipeline runs
    still check here that the final pair preserves them.
    """
    n = net.domains.variable_count
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            rel = net.rel(i, j)
            terms.append(Term(CostTable.relation(
                rel.shape, {(int(a), int(b)) for a, b in zip(*rel.nonzero())}),
                (i, j)))
    ok, hit = check_binary_multimorphism(terms, pair)
    if not ok:
        (i, j), witness = terms[hit[0]].scope, hit[1]
        raise StageError(
            "solve", f"network relation on variables {i} and {j} is "
            f"not closed under the final pair at {witness}",
            witness=(i, j, witness))


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
            out = with_added(out, i, extra)
    return out


def loop_extract_tournament_order(pair):
    """Orient every label pair by the meet table and test transitivity."""
    ok, witness = loop_is_stp_on(pair, PairSet.full(pair.domains))
    if not ok:
        raise VcspError(
            f"pair must be conservative and fully commutative; got {witness}")
    orders = []
    cycles = []
    top = max(pair.domains.sizes, default=0)
    ranks = np.zeros((pair.domains.variable_count, top), dtype=np.intp)
    for i in range(pair.domains.variable_count):
        size = pair.domains.sizes[i]
        below = [sum(1 for b in range(size)
                     if b != a and pair.meet(i, a, b) == a)
                 for a in range(size)]
        ranks[i] = [size - 1 - below[a] if a < size else a
                    for a in range(top)]
        order = sorted(range(size), key=lambda a: (-below[a], a))
        transitive = True
        for p in range(size):
            for q in range(p + 1, size):
                if pair.meet(i, order[p], order[q]) != order[p]:
                    transitive = False
        if transitive:
            orders.append(order)
            cycles.append(None)
        else:
            orders.append(None)
            cycles.append(_find_three_cycle(pair, i))
    return TournamentOrder(orders, cycles, ranks)


def _find_three_cycle(pair, i):
    size = pair.domains.sizes[i]
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if len({a, b, c}) == 3:
                    if (pair.meet(i, a, b) == a and pair.meet(i, b, c) == b
                            and pair.meet(i, c, a) == c):
                        return (a, b, c)
    return None


def loop_prune_unsupported(instance):
    """Drop labels with no finite support in some merged term; fixpoint."""
    keep = [set(range(s)) for s in instance.domains.sizes]
    changed = True
    while changed:
        changed = False
        for term in map(merge_repeated, instance.terms):
            live = [t for t in term.table.tuples()
                    if is_finite(term.table[t])
                    and all(t[p] in keep[term.scope[p]] for p in range(len(t)))]
            for p, var in enumerate(term.scope):
                allowed = {t[p] for t in live}
                if not keep[var] <= allowed:
                    keep[var] &= allowed
                    changed = True
    return keep


def loop_find_seed(m):
    """Smallest (variable, pair) still outside m, or None when m is full."""
    outside = np.argwhere(m.outside()).tolist()
    return (outside[0][0], tuple(outside[0][1:])) if outside else None


class LoopCutEncoding:
    """Min-cut formulation of an ordered, binary, submodular instance.

    The cut value of the network plus ``offset`` equals the instance
    optimum, and ``decode`` maps a minimum cut back to an argmin assignment.
    ``extended`` counts the pairwise terms whose clamped table was not
    submodular and got the distance penalty.
    """

    def __init__(self, instance):
        self.instance = instance
        self.offset = 0
        self.extended = 0
        sizes = instance.domains.sizes
        self.node_of = {}
        n = 2
        for i, s in enumerate(sizes):
            for level in range(1, s):
                self.node_of[(i, level)] = n
                n += 1
        self.n_nodes = n
        self.edges = {}
        self.unary_acc = [[0] * s for s in sizes]
        for i, s in enumerate(sizes):
            for level in range(1, s - 1):
                self._add(self.node_of[(i, level + 1)], self.node_of[(i, level)], INF)
        for term in instance.terms:
            if term.table.arity == 0:
                self._add_constant(term.table.entries[0])
            elif term.table.arity == 1:
                self._fold_unary(term.scope[0], term.table)
            elif term.table.arity == 2:
                self._encode_pairwise(term)
            else:
                raise VcspError("cut encoding requires terms of arity <= 2")
        for i, s in enumerate(sizes):
            vals = self.unary_acc[i]
            self.offset = self.offset + vals[0]
            for level in range(1, s):
                w = vals[level] - vals[level - 1]
                if w >= 0:
                    self._add(self.node_of[(i, level)], 1, w)
                else:
                    self._add(0, self.node_of[(i, level)], -w)
                    self.offset = self.offset + w

    def _add(self, u, v, cap):
        if cap is not INF and cap <= 0:
            return
        cur = self.edges.get((u, v), 0)
        if cur is INF or cap is INF:
            self.edges[(u, v)] = INF
        else:
            self.edges[(u, v)] = cur + cap

    def _add_constant(self, c):
        if c is INF:
            raise VcspError(
                "an infinite constant should have been caught before encoding")
        self.offset = self.offset + c

    def _fold_unary(self, var, table):
        for a in range(table.shape[0]):
            c = table[(a,)]
            if c is INF:
                raise VcspError(
                    "unary infinity should have been pruned before encoding")
            self.unary_acc[var][a] = self.unary_acc[var][a] + c

    def _encode_pairwise(self, term):
        i, j = term.scope
        table = term.table
        si, sj = table.shape
        finite = [[is_finite(table[(a, b)]) for b in range(sj)] for a in range(si)]
        lo = []
        hi = []
        for a in range(si):
            row = [b for b in range(sj) if finite[a][b]]
            if not row:
                raise VcspError("empty row should have been pruned before encoding")
            if row != list(range(row[0], row[-1] + 1)):
                raise StageError(
                    "mincut", "feasible set of a pairwise term is not an "
                    "interval per row; crisp structure is not min/max closed",
                    witness=(i, j, a))
            lo.append(row[0])
            hi.append(row[-1])
        if any(lo[a] > lo[a + 1] or hi[a] > hi[a + 1] for a in range(si - 1)):
            raise StageError(
                "mincut", "row intervals of a pairwise term are not monotone; "
                "crisp structure is not min/max closed", witness=(i, j))

        g = [[table[(a, min(max(b, lo[a]), hi[a]))] for b in range(sj)]
             for a in range(si)]

        def second_differences():
            return [[g[l][m] - g[l - 1][m] - g[l][m - 1] + g[l - 1][m - 1]
                     for m in range(1, sj)] for l in range(1, si)]

        alpha = second_differences()
        exact = all(isinstance(e, EXACT_TYPES) for e in table.entries
                    if e is not INF)
        tol = 0 if exact else tolerance(table.entries)
        top = max((x for row in alpha for x in row), default=0)
        if top > tol:
            # the clamped table is not submodular: add top times the
            # distance of each column from its row's interval
            self.extended += 1
            g = [[g[a][b] + top * (max(0, lo[a] - b) + max(0, b - hi[a]))
                  for b in range(sj)] for a in range(si)]
            alpha = second_differences()
        for l in range(1, si):
            for m in range(1, sj):
                cap = -alpha[l - 1][m - 1]
                if cap < -tol:
                    raise StageError(
                        "mincut", "pairwise term is not submodular after "
                        "relabelling", witness=(i, j, l, m))
                if cap > 0:
                    self._add(self.node_of[(i, l)], self.node_of[(j, m)], cap)
        for l in range(1, si):
            w = g[l][0] - g[l - 1][0]
            w = w + sum(alpha[l - 1])
            for a in range(l, si):
                self.unary_acc[i][a] = self.unary_acc[i][a] + w
        for m in range(1, sj):
            w = g[0][m] - g[0][m - 1]
            for b in range(m, sj):
                self.unary_acc[j][b] = self.unary_acc[j][b] + w
        self.offset = self.offset + g[0][0]
        for l in range(1, si):
            if lo[l] >= 1:
                self._add(self.node_of[(i, l)], self.node_of[(j, lo[l])], INF)
        for m in range(1, sj):
            t_m = next((a for a in range(si) if hi[a] >= m), None)
            if t_m is None:
                raise VcspError(
                    "empty column should have been pruned before encoding")
            if t_m >= 1:
                self._add(self.node_of[(j, m)], self.node_of[(i, t_m)], INF)

    def solve(self):
        """(optimum, argmin) for the encoded instance."""
        keys = sorted(self.edges)
        flow = MaxFlow(self.n_nodes, [u for u, _ in keys],
                       [v for _, v in keys], [self.edges[k] for k in keys])
        value = flow.max_flow(0, 1)
        if value is INF:
            return INF, None
        return value + self.offset, self.decode(flow.source_side)

    def decode(self, source_side):
        x = []
        for i, s in enumerate(self.instance.domains.sizes):
            level = 0
            for l in range(1, s):
                if self.node_of[(i, l)] in source_side:
                    level = l
            x.append(level)
        return tuple(x)


class DinicMaxFlow(MaxFlow):
    """``MaxFlow`` with Dinic's phases in place of the sweep over direct
    paths and the search tree: each phase is a BFS level graph from s and
    depth-first paths along it, and the last BFS leaves ``source_side``."""

    def _bfs(self, s):
        caps, to, start = self.cap, self.to, self.start
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in range(start[u], start[u + 1]):
                if caps[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        return level

    def _dfs(self, s, t, level, it):
        """Push flow along one s-t path of the level graph; 0 when none.

        The path is kept on an explicit stack, so its length is not bounded
        by the interpreter's recursion limit.  ``it`` holds each node's
        current arc; an arc is skipped for the rest of the phase once no
        path to t continues through it.
        """
        caps, to, start = self.cap, self.to, self.start
        path = []
        u = s
        while u != t:
            e, end, below = it[u], start[u + 1], level[u] + 1
            while e < end and not (caps[e] > 0 and level[to[e]] == below):
                e += 1
            it[u] = e
            if e < end:
                path.append(e)
                u = to[e]
            elif path:
                u = to[self.rev[path.pop()]]
                it[u] += 1
            else:
                return 0
        return self._augment(path)

    def max_flow(self, s, t):
        if self._infinite_path(s, t):
            return INF
        total = 0
        while (level := self._bfs(s))[t] >= 0:
            it = self.start[:-1]
            while d := self._dfs(s, t, level, it):
                total += d
        self.source_side = {u for u in range(self.n) if level[u] >= 0}
        return total


def intersect(net, i, j, mat):
    """Narrow ``net.rel(i, j)`` to ``mat`` and ``net.rel(j, i)`` to its
    transpose; with i == j, ``mat`` is a diagonal."""
    net.R[i, j, :mat.shape[0], :mat.shape[1]] &= mat
    net.R[j, i, :mat.shape[1], :mat.shape[0]] &= mat.T


def loop_decompose_instance(instance, cap=DEFAULT_CAP):
    """Project every term's feasible set onto its variables and variable pairs,
    one feasible tuple at a time.

    Pairs never jointly constrained start as full products.  A variable's
    projection is the diagonal block ``R[i, i]``, so both kinds go through
    ``intersect``.
    """
    net = BinaryNetwork(instance.domains)
    for term in instance.terms:
        size = 1
        for s in term.table.shape:
            size *= s
        if size > cap:
            raise CapExceeded(size, cap, table=True)
        dom = term.table.dom()
        positions = {}
        for pos, var in enumerate(term.scope):
            positions.setdefault(var, []).append(pos)
        vars_sorted = sorted(positions)
        for ai, i in enumerate(vars_sorted):
            # j == i projects onto the diagonal of R[i, i]; a tuple assigning
            # two labels to the same variable never realizes
            for j in vars_sorted[ai:]:
                mat = np.zeros(
                    (instance.domains.sizes[i], instance.domains.sizes[j]),
                    dtype=bool)
                for t in dom:
                    vi = {t[p] for p in positions[i]}
                    vj = {t[p] for p in positions[j]}
                    if len(vi) == 1 and len(vj) == 1:
                        mat[t[positions[i][0]], t[positions[j][0]]] = True
                intersect(net, i, j, mat)
    return net


def loop_certify_decomposition(instance):
    """Per-term certificate: each term over no or at least three distinct
    variables, after ``merge_repeated``, equals the join of its projections
    onto its variable pairs."""
    for term in instance.terms:
        if 0 < len(set(term.scope)) <= 2:
            continue
        table = merge_repeated(term).table
        feasible = np.array([is_finite(e) for e in table.entries],
                            dtype=bool).reshape(table.shape)
        joined = np.ones(feasible.shape, dtype=bool)
        for p, q in itertools.combinations(range(feasible.ndim), 2):
            others = tuple(r for r in range(feasible.ndim) if r not in (p, q))
            joined &= feasible.any(axis=others, keepdims=True)
        if not np.array_equal(joined, feasible):
            return False
    return True


def loop_restrict_operation_system(ops, keep):
    """Re-index pair/triple tables and the pair set to the shrunken domains.

    When every variable keeps all its labels, in order, the system is
    returned as it is, with its cached label stacks.
    """
    if len(keep) == ops.domains.variable_count and all(
            list(k) == list(range(s)) for k, s in zip(keep, ops.domains.sizes)):
        return ops
    domains = DomainSpec(tuple(len(k) for k in keep))
    meets, joins = [], []
    for i, labels in enumerate(keep):
        pos = {old: new for new, old in enumerate(labels)}
        meets.append([[pos[ops.pair.meet(i, a, b)] for b in labels] for a in labels])
        joins.append([[pos[ops.pair.join(i, a, b)] for b in labels] for a in labels])
    pair = BinaryPair(domains, meets, joins)

    tern_ops = []
    for comp in ops.triple.ops:
        tables = []
        for i, labels in enumerate(keep):
            pos = {old: new for new, old in enumerate(labels)}
            tables.append([[[pos[comp.apply(i, a, b, c)] for c in labels]
                            for b in labels] for a in labels])
        tern_ops.append(TernaryOp(domains, tables))
    triple = MjnTriple(domains, *tern_ops)

    members = []
    for i, labels in enumerate(keep):
        pos = {old: new for new, old in enumerate(labels)}
        kept = set()
        for a, b in ops.m.members[i]:
            if a in pos and b in pos:
                na, nb = pos[a], pos[b]
                kept.add((na, nb) if na < nb else (nb, na))
        members.append(frozenset(kept))
    m = PairSet(domains, tuple(members))
    return OperationSystem(pair, triple, m)


def loop_apply_modification(state, ops):
    """Make every A_i x B_i pair commutative and add it to the pair set."""
    pair = ops.pair
    m = ops.m
    for i in sorted(state.members):
        meet = [list(r) for r in pair.meet_tables[i]]
        join = [list(r) for r in pair.join_tables[i]]
        new_pairs = []
        for a in sorted(state.a_sets[i]):
            for b in sorted(state.b_sets[i]):
                meet[a][b] = meet[b][a] = a
                join[a][b] = join[b][a] = b
                new_pairs.append((a, b))
        pair = with_tables(pair, i, meet, join)
        m = with_added(m, i, new_pairs)
    return OperationSystem(pair, ops.triple, m)


def image(rel, labels):
    """Image of a set of row labels under a relation matrix."""
    out = set()
    for x in labels:
        out.update(int(y) for y in np.flatnonzero(rel[x]))
    return out


def loop_grow_uab(seed, net):
    """Grow U and the A/B label families from a seed pair on the pivot."""
    k, (a, b) = seed
    n = net.domains.variable_count
    a_sets = {k: {a}}
    b_sets = {k: {b}}
    members = [k]

    def refresh(sets):
        for j in members:
            if j != k:
                sets[j] = image(net.rel(k, j), sets[k])

    def close(sets):
        size = net.domains.sizes[k]
        while True:
            extended = False
            for cand in range(size):
                if cand in sets[k]:
                    continue
                if any(cand in image(net.rel(i, k), sets[i])
                       for i in members if i != k):
                    sets[k].add(cand)
                    refresh(sets)
                    extended = True
                    break
            if not extended:
                return

    while True:
        pick = None
        for i in range(n):
            if i in members:
                continue
            img_a = image(net.rel(k, i), a_sets[k])
            img_b = image(net.rel(k, i), b_sets[k])
            if not (img_a & img_b):
                pick = (i, img_a, img_b)
                break
        if pick is None:
            break
        i, img_a, img_b = pick
        members.append(i)
        a_sets[i] = img_a
        b_sets[i] = img_b
        close(a_sets)
        close(b_sets)
    return ReductionState(k, tuple(sorted(members)), a_sets, b_sets)


def loop_check_region_invariants(state, net, m):
    """Check the four structural invariants; None if all hold.

    On failure returns (clause, witness) for the first violated clause.
    """
    k = state.k
    n = net.domains.variable_count
    for i in sorted(state.members):
        ai, bi = state.a_sets[i], state.b_sets[i]
        if not ai or not bi:
            return ("a", (i, "empty side"))
        if ai & bi:
            return ("a", (i, sorted(ai & bi)[0]))
    for i in sorted(state.members):
        for a in sorted(state.a_sets[i]):
            for b in sorted(state.b_sets[i]):
                key = (a, b) if a < b else (b, a)
                if m.mask[(i,) + key]:
                    return ("b", (i, key))
    for i in sorted(state.members):
        if i == k:
            continue
        rel, back = net.rel(k, i), net.rel(i, k)
        checks = (
            (image(rel, state.a_sets[k]), state.a_sets[i]),
            (image(rel, state.b_sets[k]), state.b_sets[i]),
            (image(back, state.a_sets[i]), state.a_sets[k]),
            (image(back, state.b_sets[i]), state.b_sets[k]),
        )
        for got, want in checks:
            if got != want:
                return ("c", (i, sorted(got), sorted(want)))
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        boundary = sorted(state.a_sets[i] | state.b_sets[i])
        for j in outside:
            rel = net.rel(i, j)
            for x in range(net.domains.sizes[j]):
                hits = [c for c in boundary if rel[c, x]]
                if hits and len(hits) != len(boundary):
                    missing = next(c for c in boundary if not rel[c, x])
                    return ("d", (i, j, x, missing))
    return None


def loop_scan_pair_coupling(net, m):
    """Network-wide coupling of non-commutative pairs across a relation."""
    violations = []
    n = net.domains.variable_count
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rel = net.rel(i, j)
            comp_i = m.complement(i)
            mbar_j = set(m.complement(j))
            for a, b in comp_i:
                for ap in range(net.domains.sizes[j]):
                    for bp in range(net.domains.sizes[j]):
                        if ap == bp:
                            continue
                        if not (rel[a, ap] and rel[b, bp]):
                            continue
                        cross = (bool(rel[a, bp]), bool(rel[b, ap]))
                        key = (ap, bp) if ap < bp else (bp, ap)
                        case_i = cross == (True, True)
                        case_ii = cross == (False, False) and key in mbar_j
                        if case_i == case_ii:
                            violations.append((i, j, (a, b), (ap, bp)))
    return violations


def loop_scan_boundary_exchange(state, net):
    """Cross-boundary exchange property between U and its complement."""
    violations = []
    n = net.domains.variable_count
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        a_side = sorted(state.a_sets[i])
        b_side = sorted(state.b_sets[i])
        both = a_side + b_side
        for j in outside:
            rel = net.rel(i, j)
            for a in a_side:
                for b in b_side:
                    for c in both:
                        for x in range(net.domains.sizes[j]):
                            for y in range(net.domains.sizes[j]):
                                if rel[a, x] and rel[b, x] and rel[c, y]:
                                    if not (rel[a, y] and rel[b, y] and rel[c, x]):
                                        violations.append(
                                            (i, j, (a, b, c), (x, y)))
    return violations


def _logical_lines(text):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line.split()


def _int(tok, num, what="integer"):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected {what}, got {tok!r}", line=num) from None


def loop_parse_instance_text(text, float_mode=False):
    """Parse the text of an instance file."""
    lines = list(_logical_lines(text))
    if not lines or lines[0][1][0] != "vcsp":
        raise FormatError("file must start with a 'vcsp <V>' line",
                          line=lines[0][0] if lines else 1)
    num, toks = lines[0]
    if len(toks) != 2:
        raise FormatError("'vcsp' line needs exactly one count", line=num)
    nvars = _int(toks[1], num, "variable count")
    if len(lines) < 2 or lines[1][1][0] != "domains":
        raise FormatError("second line must be 'domains <sizes>'", line=num)
    num, toks = lines[1]
    if len(toks) != nvars + 1:
        raise FormatError(f"'domains' line needs {nvars} sizes", line=num)
    sizes = [_int(t, num, "domain size") for t in toks[1:]]
    if any(s < 1 for s in sizes):
        raise FormatError("every domain size must be at least 1", line=num)
    domains = DomainSpec(tuple(sizes))

    terms = []
    idx = 2
    while idx < len(lines):
        num, toks = lines[idx]
        if toks[0] != "term":
            raise FormatError(f"expected 'term', got {toks[0]!r}", line=num)
        if len(toks) < 2:
            raise FormatError("'term' line needs an arity", line=num)
        arity = _int(toks[1], num, "arity")
        if len(toks) != arity + 2:
            raise FormatError(f"'term' line needs {arity} variable indices",
                              line=num)
        scope = []
        for t in toks[2:]:
            v = _int(t, num, "variable index")
            if not 1 <= v <= nvars:
                raise FormatError(f"variable index {v} out of range 1..{nvars}",
                                  line=num)
            scope.append(v - 1)
        shape = tuple(sizes[i] for i in scope)
        default = None
        entries = {}
        idx += 1
        while idx < len(lines) and lines[idx][1][0] in ("default", "entry"):
            num, toks = lines[idx]
            if toks[0] == "default":
                if default is not None:
                    raise FormatError("duplicate 'default' line", line=num)
                if len(toks) != 2:
                    raise FormatError("'default' needs one cost", line=num)
                default = parse_cost(toks[1], float_mode, line=num)
            else:
                if len(toks) != arity + 2:
                    raise FormatError(
                        f"'entry' needs {arity} labels and a cost", line=num)
                key = []
                for pos, t in enumerate(toks[1:-1]):
                    a = _int(t, num, "label")
                    if not 0 <= a < shape[pos]:
                        raise FormatError(
                            f"label {a} out of range 0..{shape[pos] - 1}",
                            line=num)
                    key.append(a)
                key = tuple(key)
                if key in entries:
                    raise FormatError(f"duplicate entry for {key}", line=num)
                entries[key] = parse_cost(toks[-1], float_mode, line=num)
            idx += 1
        if default is None:
            raise FormatError("term is missing its 'default' line", line=num)
        table = CostTable.from_function(
            shape, lambda *t: entries.get(t, default))
        terms.append(Term(table, tuple(scope)))
    return Instance(domains, terms)


_TABLE_KINDS = ("meet", "join", "mj1", "mj2", "mn3")


def loop_parse_ops_text(text, domains, validate=True):
    """Parse the text of an operation-system file against known domain sizes."""
    lines = list(_logical_lines(text))
    nvars = domains.variable_count
    tables = {kind: {} for kind in _TABLE_KINDS}
    pairs = {}
    idx = 0
    while idx < len(lines):
        num, toks = lines[idx]
        kind = toks[0]
        if kind not in _TABLE_KINDS + ("M",):
            raise FormatError(f"unknown block {kind!r}", line=num)
        if len(toks) < 2:
            raise FormatError(f"{kind!r} needs a variable index", line=num)
        var = _int(toks[1], num, "variable index")
        if not 1 <= var <= nvars:
            raise FormatError(f"variable index {var} out of range", line=num)
        var -= 1
        size = domains.sizes[var]
        if kind == "M":
            if var in pairs:
                raise FormatError(f"duplicate 'M' block for variable {var + 1}",
                                  line=num)
            chosen = set()
            for tok in toks[2:]:
                parts = tok.split(":")
                if len(parts) != 2:
                    raise FormatError(f"bad pair {tok!r}, expected a:b", line=num)
                a = _int(parts[0], num, "label")
                b = _int(parts[1], num, "label")
                if a == b or not (0 <= a < size and 0 <= b < size):
                    raise FormatError(f"bad pair {tok!r} for domain size {size}",
                                      line=num)
                chosen.add((min(a, b), max(a, b)))
            pairs[var] = frozenset(chosen)
            idx += 1
            continue
        if var in tables[kind]:
            raise FormatError(f"duplicate {kind!r} block for variable {var + 1}",
                              line=num)
        rows_needed = size if kind in ("meet", "join") else size * size
        rows = []
        idx += 1
        for _ in range(rows_needed):
            if idx >= len(lines):
                raise FormatError(
                    f"{kind!r} table for variable {var + 1} is truncated",
                    line=num)
            rnum, rtoks = lines[idx]
            if len(rtoks) != size:
                raise FormatError(f"table row needs {size} labels", line=rnum)
            row = []
            for t in rtoks:
                v = _int(t, rnum, "label")
                if not 0 <= v < size:
                    raise FormatError(f"label {v} out of range", line=rnum)
                row.append(v)
            rows.append(row)
            idx += 1
        tables[kind][var] = rows

    for kind in _TABLE_KINDS:
        missing = [v + 1 for v in range(nvars) if v not in tables[kind]]
        if missing:
            raise FormatError(
                f"missing {kind!r} table for variables {missing}")
    missing = [v + 1 for v in range(nvars) if v not in pairs]
    if missing:
        raise FormatError(f"missing 'M' line for variables {missing}")

    pair = BinaryPair(domains,
                      [tables["meet"][v] for v in range(nvars)],
                      [tables["join"][v] for v in range(nvars)])
    terns = []
    for kind in ("mj1", "mj2", "mn3"):
        cubes = []
        for v in range(nvars):
            size = domains.sizes[v]
            rows = tables[kind][v]
            cubes.append([[rows[a * size + b] for b in range(size)]
                          for a in range(size)])
        terns.append(cubes)
    triple = MjnTriple(domains, *terns)
    m = PairSet(domains, tuple(pairs[v] for v in range(nvars)))
    system = OperationSystem(pair, triple, m)
    if validate:
        system.validate()
    return system

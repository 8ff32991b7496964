"""Exact solvers: brute force, the min-cut path for totally ordered binary
submodular instances, and the full three-stage pipeline driver.

The min-cut encoding uses one boolean "label >= level" indicator node per
variable per non-bottom label.  Monotonicity between consecutive levels and
crisp (infinite-cost) structure are enforced with an exact infinite edge
class, never a large constant.  ``solve_stp`` scales the exact costs of its
instance once, to integers by the LCM of their denominators
(``ScaledCosts``), and the check, the pruning and the encoding all read that
one scaling: the network and max-flow carry Python ints and the optimum is
(cut + offset) / scale.  Float costs keep their values.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .consistency import restrict_instance, run_stage1
from .costs import INF, cost_eq, integer_costs, scale_entries, tolerance
from .errors import StageError, VcspError
from .model import DEFAULT_CAP, CostTable, Instance, Term, merge_repeated
from .operations import (
    ScaledCosts,
    build_majority,
    check_binary_multimorphism,
    is_stp_on,
    ternary_polymorphism_closed,
)
from .reduction import run_stage2


@dataclass
class SolveResult:
    optimum: object
    argmin: object
    stats: dict = field(default_factory=dict)


def solve_bruteforce(instance, cap=DEFAULT_CAP):
    """Exact minimum by enumeration; ties broken lexicographically."""
    best = INF
    best_x = None
    for x in instance.domains.assignments(cap=cap):
        c = instance.evaluate(x)
        if c < best:
            best = c
            best_x = x
    return SolveResult(best, best_x, {"path": "bruteforce"})


@dataclass
class TournamentOrder:
    """Per-variable total orders under which meet/join act as min/max.

    ``orders[i]`` lists the labels of variable i from bottom to top, or is
    None when the pair's orientation on that variable contains a 3-cycle;
    ``cycles[i]`` then holds a witness cycle.
    """

    orders: list
    cycles: list

    @property
    def all_ordered(self):
        return all(o is not None for o in self.orders)


def extract_tournament_order(pair):
    """Orient every label pair by the meet stack and test transitivity.

    Label a lies below b when a meet b is a.  A tournament on s labels is
    transitive exactly when the numbers of labels each label lies below are
    s - 1, ..., 0, all distinct; the label with count s - 1 - p is then
    p-th from the bottom.  Otherwise the tournament holds a 3-cycle, and the
    first one (a, b, c) in row-major order is recorded.
    """
    ok, witness = is_stp_on(pair)
    if not ok:
        raise VcspError(
            f"pair must be conservative and fully commutative; got {witness}")
    orders = []
    cycles = []
    for table, size in zip(pair.index_stacks()[0].tolist(),
                           pair.domains.sizes):
        order = [None] * size
        for a, row in enumerate(table[:size]):
            order[size - row[:size].count(a)] = a  # counts a meet a too
        if None in order:
            orders.append(None)
            cycles.append(next(
                (a, b, c) for a, b, c in itertools.product(range(size), repeat=3)
                if table[a][b] == a != b and table[b][c] == b != c
                and table[c][a] == c != a))
        else:
            orders.append(order)
            cycles.append(None)
    return TournamentOrder(orders, cycles)


class _InfiniteFlow(Exception):
    pass


class MaxFlow:
    """Dinic's algorithm; ``None`` means infinite.

    Capacities are added and compared as given: ``CutEncoding`` passes
    Python ints for exact costs, and floats in float mode.
    """

    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s, t):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                cap = self.cap[e]
                if (cap is None or cap > 0) and level[self.to[e]] < 0:
                    level[self.to[e]] = level[u] + 1
                    queue.append(self.to[e])
        return level if level[t] >= 0 else None

    def _dfs(self, s, t, level, it):
        """Push flow along one s-t path of the level graph; 0 when none.

        The path is kept on an explicit stack, so its length is not bounded
        by the interpreter's recursion limit.  ``it`` holds each node's
        current arc; an arc is skipped for the rest of the phase once no
        path to t continues through it.
        """
        caps, to = self.cap, self.to
        path = []
        u = s
        while u != t:
            adj = self.adj[u]
            while it[u] < len(adj):
                e = adj[it[u]]
                cap = caps[e]
                if (cap is None or cap > 0) and level[to[e]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(e)
            u = to[e]
        finite = [caps[e] for e in path if caps[e] is not None]
        if not finite:
            raise _InfiniteFlow()
        f = min(finite)
        for e in path:
            if caps[e] is not None:
                caps[e] -= f
            if caps[e ^ 1] is not None:
                caps[e ^ 1] += f
        return f

    def max_flow(self, s, t):
        """Total flow value, or INF when an infinite augmenting path exists."""
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                try:
                    d = self._dfs(s, t, level, it)
                except _InfiniteFlow:
                    return INF
                if not d:
                    break
                total += d

    def min_cut_source_side(self, s):
        """Nodes reachable from s in the residual graph after max_flow."""
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                cap = self.cap[e]
                if (cap is None or cap > 0) and not seen[self.to[e]]:
                    seen[self.to[e]] = True
                    queue.append(self.to[e])
        return {u for u in range(self.n) if seen[u]}


def _prune_unsupported(instance, rows):
    """Drop labels with no finite support in some term; fixpoint.

    ``rows`` holds each term's entries, scaled or not, with INF where the
    term's table has it.  Returns per-variable sets of kept labels,
    possibly empty.  The feasible tuples of each term with an INF are read
    once; a term without one supports every kept label until a variable of
    it is emptied, so it is looked at only then.  After a round, only the
    terms over a variable that lost labels drop their dead tuples and are
    scanned again.  The greatest fixpoint does not depend on that order.
    """
    terms = instance.terms
    keep = [set(range(s)) for s in instance.domains.sizes]
    live = [[t for t, e in zip(term.table.tuples(), row) if e is not INF]
            if any(e is INF for e in row) else None
            for term, row in zip(terms, rows)]
    pending = [k for k, tuples in enumerate(live) if tuples is not None]
    while pending:
        shrunk = set()
        for k in pending:
            scope = terms[k].scope
            if live[k] is None:
                if all(keep[var] for var in scope):
                    continue
                live[k] = []
            for p, var in enumerate(scope):
                allowed = {t[p] for t in live[k]}
                if not keep[var] <= allowed:
                    keep[var] &= allowed
                    shrunk.add(var)
        pending = [k for k, term in enumerate(terms)
                   if not shrunk.isdisjoint(term.scope)]
        for k in pending:
            if live[k]:
                scope = terms[k].scope
                live[k] = [t for t in live[k] if all(
                    t[p] in keep[var] for p, var in enumerate(scope))]
    return keep


class CutEncoding:
    """Min-cut formulation of an ordered, binary, submodular instance.

    Built from an instance whose domains are already relabelled so that
    numeric min/max is the pairwise multimorphism of every term.  Variable
    i's indicator "label >= level" is node ``first_node[i] + level - 1``;
    nodes 0 and 1 are the source and the sink.  Exact costs are multiplied
    by ``scale`` so that every capacity is a Python int: ``solve_stp`` passes
    the scale of its whole instance, a multiple of every denominator left
    after pruning, and without one the LCM of this instance's denominators
    is taken (``integer_costs``).  With float costs ``scale`` is None and the
    costs keep their Python values, each term's within its ``tolerance``.
    The optimum is (cut + ``offset``) / ``scale``, and ``decode`` maps a
    minimum cut back to an argmin assignment.
    """

    def __init__(self, instance, scale=None):
        self.instance = instance
        self.offset = 0
        sizes = instance.domains.sizes
        self.first_node = []
        n = 2
        for s in sizes:
            self.first_node.append(n)
            n += s - 1
        self.n_nodes = n
        self.edges = {}
        self.unary_acc = [[0] * s for s in sizes]
        entries = [term.table.entries for term in instance.terms]
        if scale is None:
            scale, tables = integer_costs(entries)
        else:
            tables = [scale_entries(e, scale) for e in entries]
        self.scale = scale
        for first, s in zip(self.first_node, sizes):
            for node in range(first, first + s - 2):
                self._add(node + 1, node, INF)
        for term, entries in zip(instance.terms, tables):
            if term.table.arity == 1:
                self._fold_unary(term.scope[0], entries)
            elif term.table.arity == 2:
                self._encode_pairwise(term.scope, term.table.shape, entries)
            else:
                raise VcspError("cut encoding requires terms of arity <= 2")
        for first, vals in zip(self.first_node, self.unary_acc):
            self.offset = self.offset + vals[0]
            for level in range(1, len(vals)):
                w = vals[level] - vals[level - 1]
                if w >= 0:
                    self._add(first + level - 1, 1, w)
                else:
                    self._add(0, first + level - 1, -w)
                    self.offset = self.offset + w

    def _add(self, u, v, cap):
        if cap is not INF and cap <= 0:
            return
        cur = self.edges.get((u, v), 0)
        if cur is INF or cap is INF:
            self.edges[(u, v)] = INF
        else:
            self.edges[(u, v)] = cur + cap

    def _fold_unary(self, var, entries):
        acc = self.unary_acc[var]
        for a, c in enumerate(entries):
            if c is INF:
                raise VcspError(
                    "unary infinity should have been pruned before encoding")
            acc[a] = acc[a] + c

    def _encode_pairwise(self, scope, shape, entries):
        i, j = scope
        si, sj = shape
        lo = []
        hi = []
        g = []  # each row's costs, clamped to its feasible interval
        for a in range(si):
            row = entries[a * sj:(a + 1) * sj]
            live = [b for b, c in enumerate(row) if c is not INF]
            if not live:
                raise VcspError("empty row should have been pruned before encoding")
            low, high = live[0], live[-1]
            if high - low + 1 != len(live):
                raise StageError(
                    "mincut", "feasible set of a pairwise term is not an "
                    "interval per row; crisp structure is not min/max closed",
                    witness=(i, j, a))
            lo.append(low)
            hi.append(high)
            g.append([row[low]] * low + row[low:high + 1]
                     + [row[high]] * (sj - 1 - high))
        if any(lo[a] > lo[a + 1] or hi[a] > hi[a + 1] for a in range(si - 1)):
            raise StageError(
                "mincut", "row intervals of a pairwise term are not monotone; "
                "crisp structure is not min/max closed", witness=(i, j))

        tol = tolerance(self.scale, entries)
        node_i = self.first_node[i] - 1  # node of level l is node_i + l
        node_j = self.first_node[j] - 1
        alpha = [[g[l][m] - g[l - 1][m] - g[l][m - 1] + g[l - 1][m - 1]
                  for m in range(1, sj)] for l in range(1, si)]
        for l in range(1, si):
            for m in range(1, sj):
                cap = -alpha[l - 1][m - 1]
                if cap < -tol:
                    raise StageError(
                        "mincut", "pairwise term is not submodular after "
                        "relabelling", witness=(i, j, l, m))
                if cap > 0:
                    self._add(node_i + l, node_j + m, cap)
        acc_i = self.unary_acc[i]
        acc_j = self.unary_acc[j]
        for l in range(1, si):
            w = g[l][0] - g[l - 1][0]
            w = w + sum(alpha[l - 1])
            for a in range(l, si):
                acc_i[a] = acc_i[a] + w
        for m in range(1, sj):
            w = g[0][m] - g[0][m - 1]
            for b in range(m, sj):
                acc_j[b] = acc_j[b] + w
        self.offset = self.offset + g[0][0]
        for l in range(1, si):
            if lo[l] >= 1:
                self._add(node_i + l, node_j + lo[l], INF)
        for m in range(1, sj):
            t_m = next((a for a in range(si) if hi[a] >= m), None)
            if t_m is None:
                raise VcspError(
                    "empty column should have been pruned before encoding")
            if t_m >= 1:
                self._add(node_j + m, node_i + t_m, INF)

    def solve(self):
        """(optimum, argmin) for the encoded instance; the optimum is
        (cut + offset) / scale, or cut + offset without a scale."""
        flow = MaxFlow(self.n_nodes)
        for (u, v), cap in sorted(self.edges.items()):
            flow.add_edge(u, v, None if cap is INF else cap)
        value = flow.max_flow(0, 1)
        if value is INF:
            return INF, None
        optimum = value + self.offset
        if self.scale is not None:
            optimum = Fraction(optimum, self.scale)
        return optimum, self.decode(flow.min_cut_source_side(0))

    def decode(self, source_side):
        x = []
        for first, s in zip(self.first_node, self.instance.domains.sizes):
            level = 0
            for l in range(1, s):
                if first + l - 1 in source_side:
                    level = l
            x.append(level)
        return tuple(x)


def solve_stp(instance, pair, cap=DEFAULT_CAP):
    """Solve an instance whose pair is a full STP multimorphism of every term.

    Takes the min-cut path when every variable's tournament is transitive and
    all terms are binary or unary; otherwise falls back to brute force.  On
    the min-cut path the pair is min/max in the extracted order, so each
    term is checked under the pair itself, and the unsupported labels are
    dropped and the rest put in that order by one restriction.  The costs
    are scaled once, for the check, the pruning and the encoding.
    """
    order = extract_tournament_order(pair)
    terms = [merge_repeated(t) for t in instance.terms]
    merged = (instance if terms == instance.terms
              else Instance(instance.domains, terms))
    stats = {"path": "mincut"}
    if not order.all_ordered:
        stats["path"] = "bruteforce"
        stats["cycles"] = [c for c in order.cycles if c is not None]
    elif any(t.table.arity > 2 for t in merged.terms):
        stats["path"] = "bruteforce"
        stats["reason"] = "term arity above 2"
    if stats["path"] == "bruteforce":
        result = solve_bruteforce(instance, cap=cap)
        result.stats.update(stats)
        return result
    costs = ScaledCosts(merged.terms)
    ok, hit = check_binary_multimorphism(costs, pair)
    if not ok:
        raise VcspError(
            f"term {hit[0]} is not submodular under the extracted order at "
            f"{hit[1]}; the pair was not a multimorphism of every term")
    survive = _prune_unsupported(merged, costs.rows)
    if any(not k for k in survive):
        return SolveResult(INF, None, stats)
    keep = [[a for a in labels if a in live]
            for labels, live in zip(order.orders, survive)]
    optimum, argmin = CutEncoding(restrict_instance(merged, keep),
                                  costs.scale).solve()
    if argmin is not None:
        argmin = tuple(keep[i][v] for i, v in enumerate(argmin))
        check = instance.evaluate(argmin)
        if not cost_eq(check, optimum):
            raise VcspError(
                f"cut optimum {optimum} disagrees with the decoded assignment "
                f"cost {check}")
    return SolveResult(optimum, argmin, stats)


def _check_network_closed(net, pair):
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


def run_validate(instance, ops):
    """Check the operation system and the derived majority on every term.

    Returns the normalized system; raises ``ValidationError`` for a broken
    system and ``StageError("validate")`` when the majority derived from it
    is not a polymorphism of some term.
    """
    ops.validate()
    ops = ops.normalized()
    mu = build_majority(ops.pair, ops.triple)
    for idx, term in enumerate(instance.terms):
        if not ternary_polymorphism_closed(mu, term.table.dom(), term.scope):
            raise StageError(
                "validate",
                f"derived majority operation is not a polymorphism of term "
                f"{idx}; the required operation structure is missing",
                witness=idx)
    return ops


def solve_pipeline(instance, ops, cap=DEFAULT_CAP, paranoid=False, trace=None):
    """Run validation, consistency, pair rewriting and the final solve.

    Stage 1 (``run_stage1``) certifies each term locally, so on instances
    whose final pair leads to the min-cut path no step enumerates the
    assignment space: ``cap`` then bounds only per-term table sizes.  It
    still bounds the brute-force fallback of stage 3 and, under
    ``paranoid``, the exhaustive stage-1 cross-check.  Stage 3 solves the
    restricted instance alone; the network relations it implies are checked
    against the final pair only under ``paranoid``.
    """
    stats = {}
    t0 = time.perf_counter()
    ops = run_validate(instance, ops)
    stats["validate_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    stage1 = run_stage1(instance, ops, cap=cap, paranoid=paranoid)
    stats["consistency_s"] = time.perf_counter() - t1
    if stage1 is None:
        stats["path"] = "infeasible"
        return SolveResult(INF, None, stats)
    keep, inst_r, ops_r, net_r = stage1

    t2 = time.perf_counter()
    trace_lines = [] if trace is None else trace
    final_ops = run_stage2(inst_r, ops_r, net_r, paranoid=paranoid,
                           trace=trace_lines)
    stats["reduce_s"] = time.perf_counter() - t2
    stats["reduce_iterations"] = len(trace_lines)
    stats["final_ops"] = final_ops

    t3 = time.perf_counter()
    if paranoid:
        _check_network_closed(net_r, final_ops.pair)
    result = solve_stp(inst_r, final_ops.pair, cap=cap)
    stats["solve_s"] = time.perf_counter() - t3
    stats["path"] = result.stats.get("path")
    stats.update({k: v for k, v in result.stats.items() if k != "path"})

    argmin = result.argmin
    if argmin is not None:
        argmin = tuple(keep[i][v] for i, v in enumerate(argmin))
        check = instance.evaluate(argmin)
        if not cost_eq(check, result.optimum):
            raise StageError(
                "solve", f"pipeline optimum {result.optimum} disagrees with "
                f"the cost {check} of its own assignment")
    return SolveResult(result.optimum, argmin, stats)

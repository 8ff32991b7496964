"""Exact solvers: brute force, the min-cut path for totally ordered binary
submodular instances, and the full three-stage pipeline driver.

The min-cut encoding uses one boolean "label >= level" indicator node per
variable per non-bottom label.  Monotonicity between consecutive levels and
crisp (infinite-cost) structure are enforced with an exact infinite edge
class, never a large constant.  Nothing here scales or groups a cost table:
the check, the pruning, the encoding and the final cross-check of
``solve_stp`` read the term store each instance built when it was
constructed (``Instance.costs``), with its exact costs scaled to integers by
the LCM of their denominators.  ``CutEncoding`` builds the network in a few
numpy passes over those arrays, as three arc arrays that ``MaxFlow`` takes
as they are; exact capacities are Python ints, float costs keep their values
and are summed in term order.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .consistency import restrict_instance, run_stage1
from .costs import INF, cost_eq
from .errors import StageError, VcspError
from .model import DEFAULT_CAP, CostTable, Term
from .operations import (
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
    ``cycles[i]`` then holds a witness cycle.  ``ranks`` [variable, label]
    holds each label's position from the bottom, over the largest domain
    (a label beyond a variable's domain at its own index); on an ordered
    variable it is the inverse of ``orders[i]``.  The pair maps each label
    pair {a, b} to itself, so join is max wherever meet is min: when
    ``all_ordered``, the pair is min/max in these orders.
    """

    orders: list
    cycles: list
    ranks: np.ndarray

    @property
    def all_ordered(self):
        return all(o is not None for o in self.orders)


def extract_tournament_order(pair):
    """Orient every label pair by the meet stack and test transitivity.

    Label a lies below b when a meet b is a.  A tournament on s labels is
    transitive exactly when the numbers of labels each label lies below or
    at are s, ..., 1, all distinct; the label with count s - p is then p-th
    from the bottom.  So ``ranks`` is s minus that count, one masked sum
    over the stack, and a variable is ordered when its ranks are a
    permutation.  Otherwise its tournament holds a 3-cycle, and the first
    one (a, b, c) in row-major order is recorded.
    """
    ok, witness = is_stp_on(pair)
    if not ok:
        raise VcspError(
            f"pair must be conservative and fully commutative; got {witness}")
    meet = pair.index_stacks()[0]
    labels = np.arange(meet.shape[-1])
    sizes = np.array(pair.domains.sizes, dtype=np.intp)[:, None]
    live = labels < sizes
    count = ((meet == labels[:, None]) & live[:, None, :]).sum(2)
    ranks = np.where(live, sizes - count, labels)
    ordered = (np.sort(ranks, 1) == labels).all(1).tolist()
    bottom_up = np.argsort(ranks, 1).tolist()
    orders, cycles = [], []
    for i, size in enumerate(pair.domains.sizes):
        if ordered[i]:
            orders.append(bottom_up[i][:size])
            cycles.append(None)
            continue
        table = meet[i].tolist()
        orders.append(None)
        cycles.append(next(
            (a, b, c) for a, b, c in itertools.product(range(size), repeat=3)
            if table[a][b] == a != b and table[b][c] == b != c
            and table[c][a] == c != a))
    return TournamentOrder(orders, cycles, ranks)


class MaxFlow:
    """Dinic's algorithm, after one sweep that saturates the direct paths
    s -> u -> v -> t, on arcs ``tail[k]`` -> ``head[k]`` of capacity
    ``cap[k]``, INF for infinite.

    Position p of the flat residual lists is an arc to ``to[p]`` with
    residual ``cap[p]`` and reverse ``rev[p]``; node u's arcs are
    ``start[u]`` to ``start[u + 1]``, each k before its reverse, in k order.
    Here INF is ``math.inf``; no push touches it, and an s-t path of
    infinite arcs alone is looked for first, so no sum meets it.  Other
    capacities are added and compared as given: Python ints for exact
    costs, floats in float mode.  In a cut network most flow runs on the
    direct paths, one coupling between a source edge and a sink edge;
    Dinic's phases push the rest.
    """

    def __init__(self, n, tail, head, cap):
        self.n = n
        ends = np.array([tail, head], dtype=np.intp).reshape(2, -1)
        tails = ends.T.reshape(-1)  # arc k is 2k, its reverse 2k + 1
        order = np.argsort(tails, kind="stable")
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        caps = np.zeros(len(order), dtype=object)
        caps[0::2] = cap
        self.cap = [math.inf if c is INF else c for c in caps[order].tolist()]
        self.to = ends[::-1].T.reshape(-1)[order].tolist()
        self.rev = at[order ^ 1].tolist()
        self.start = np.searchsorted(tails[order], np.arange(n + 1)).tolist()

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

    def _augment(self, path):
        """Push the bottleneck of ``path``, arcs that all have residual
        capacity and not all infinite, along it and return it."""
        caps, rev = self.cap, self.rev
        f = min(map(caps.__getitem__, path))
        for e in path:
            if caps[e] < math.inf:
                caps[e] -= f
            if caps[rev[e]] < math.inf:
                caps[rev[e]] += f
        return f

    def _push_direct(self, s, t):
        """Augment along every path s -> u -> v -> t of residual arcs, in
        arc order, each until one of its arcs is saturated; returns the
        flow pushed."""
        caps, to, start = self.cap, self.to, self.start
        into_t = [()] * self.n  # per node v, its arcs v -> t
        for e in range(start[t], start[t + 1]):
            if to[e] not in (s, t):
                into_t[to[e]] += (self.rev[e],)
        total = 0
        for first in range(start[s], start[s + 1]):
            u = to[first]
            if u in (s, t) or caps[first] == 0:
                continue
            for second in range(start[u], start[u + 1]):
                if caps[second] == 0:
                    continue
                for last in into_t[to[second]]:
                    if caps[last] != 0:
                        total += self._augment((first, second, last))
                        if caps[first] == 0 or caps[second] == 0:
                            break
                if caps[first] == 0:
                    break
        return total

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
        """Total flow value, or INF when an infinite augmenting path exists.
        A finite flow leaves ``source_side``, the residual reach of s that
        the last search found: the source side of a minimum cut, the same
        for every maximum flow."""
        caps, to, start = self.cap, self.to, self.start
        reach, seen = [s], {s}  # over the infinite arcs alone
        for u in reach:
            for e in range(start[u], start[u + 1]):
                if caps[e] == math.inf and to[e] not in seen:
                    seen.add(to[e])
                    reach.append(to[e])
        if t in seen:
            return INF
        total = self._push_direct(s, t)
        while (level := self._bfs(s))[t] >= 0:
            it = start[:-1]
            while d := self._dfs(s, t, level, it):
                total += d
        self.source_side = {u for u in range(self.n) if level[u] >= 0}
        return total


def _prune_unsupported(instance):
    """Drop labels with no finite support in some term; fixpoint.

    Returns per-variable sets of kept labels, possibly empty.  The feasible
    masks of the instance's ``costs`` name the terms with an INF, whose
    feasible tuples are read once; a term without one supports every kept
    label until a variable of it is emptied, so it is looked at only then.
    After a round, only the terms over a variable that lost labels drop
    their dead tuples and are scanned again.  The greatest fixpoint does
    not depend on that order.
    """
    terms = instance.terms
    keep = [set(range(s)) for s in instance.domains.sizes]
    has_inf = np.zeros(len(terms), dtype=bool)
    for idxs, _, _, feasible, _, _ in instance.costs.groups:
        has_inf[idxs] = ~feasible.all(1)
    live = [None] * len(terms)
    for k in np.flatnonzero(has_inf).tolist():
        table = terms[k].table
        live[k] = [t for t, e in zip(table.tuples(), table.entries)
                   if e is not INF]
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


@functools.lru_cache(maxsize=256)
def _pad_index(shape, top):
    """Index into the flat entries of a table of ``shape`` that pads it to
    ``top`` by repeating the last label at every position."""
    if shape == top:
        return slice(None)
    at = np.ravel_multi_index(np.ix_(*(
        np.minimum(np.arange(t), s - 1) for s, t in zip(shape, top))), shape)
    at.flags.writeable = False  # shared by callers
    return at.reshape(-1)


def _padded_pairs(groups):
    """The pairwise terms among ``ScaledCosts.groups`` in term order: their
    indices, scopes [term, 2], costs and feasible masks [term, rows, cols],
    each table padded to the largest rows and cols among them by repeating
    its last row and column, and tolerances [term], 0 for exact tables."""
    pairs = [g for g in groups if len(g[1]) == 2]
    top = tuple(map(max, zip((1, 1), *(g[1] for g in pairs))))
    idxs = np.array([i for g in pairs for i in g[0]], dtype=np.intp)
    parts = [(scopes, costs[:, at], feasible[:, at],
              np.zeros(len(costs), costs.dtype) if tol is None else tol)
             for _, shape, costs, feasible, scopes, tol in pairs
             for at in [_pad_index(shape, top)]]
    if not parts:
        dtype = groups[0][2].dtype if groups else np.int64
        parts = [(np.zeros((0, 2), np.intp), np.zeros((0, 1), dtype),
                  np.zeros((0, 1), bool), np.zeros(0, dtype))]
    elif len(parts) > 1:  # join the groups' terms in term order
        order = idxs.argsort()
        parts = [[np.concatenate(column)[order] for column in zip(*parts)]]
        idxs = idxs[order]
    scopes, costs, feasible, tol = parts[0]
    return (idxs, scopes, costs.reshape((-1,) + top),
            feasible.reshape((-1,) + top), tol)


_Slots = collections.namedtuple(
    "_Slots", "tail level_u level_i level_j reach rows cols")


@functools.lru_cache(maxsize=64)
def _slots(rows, cols, depth):
    """The layout of a pairwise term padded to ``rows`` x ``cols``, over
    domains of at most ``depth`` labels.  Its edge slots, in the order a
    term adds its edges (a coupling per level pair (l, m), row-major, then
    an infinite edge per level l of its variable i, then per level m of j):
    the scope position (0 for i, 1 for j) of the node each edge leaves, that
    node's level, and the levels of i and of j that must be real.  The
    infinite edges' part of ``tail`` and ``level_u`` also lays out the
    term's unary shares, one step per level, and ``reach`` holds the labels
    each step reaches.  And the table's row and column indices."""
    l, m = np.indices((rows - 1, cols - 1)).reshape(2, -1) + 1
    li, lj = np.arange(1, rows), np.arange(1, cols)
    steps = np.concatenate([li, lj])
    out = _Slots(
        np.concatenate([0 * l, 0 * li, 0 * lj + 1]),
        np.concatenate([l, steps]), np.concatenate([l, li, 0 * lj]),
        np.concatenate([m, 0 * li, lj]),
        np.arange(depth) >= steps[:, None],
        np.arange(rows)[:, None], np.arange(cols))
    for array in out:
        array.flags.writeable = False  # shared by callers
    return out


def _second_differences(g, real):
    """alpha[l, m] = g[l, m] - g[l - 1, m] - g[l, m - 1] + g[l - 1, m - 1]
    of each padded table g [term, rows, cols]; 0 where ``real`` (the
    coupling slots of ``_slots``) marks a padded level."""
    alpha = g[:, 1:, 1:] - g[:, :-1, 1:] - g[:, 1:, :-1] + g[:, :-1, :-1]
    return np.where(real.reshape(alpha.shape), alpha, 0)


class CutEncoding:
    """Min-cut formulation of an ordered, binary, submodular instance.

    Built from an instance as ``solve_stp`` hands it over, and not checked
    for it again: numeric min/max is the pairwise multimorphism of every
    term, every term has arity at most 2 and no repeated scope variable, no
    unary or constant term holds INF, and the rows of each pairwise term are
    non-empty intervals [lo, hi] of labels, with lo and hi non-decreasing
    and every label in some row.  Variable
    i's indicator "label >= level" is node ``first_node[i] + level - 1``;
    nodes 0 and 1 are the source and the sink.  Arc k runs from ``tail[k]``
    to ``head[k]`` with capacity ``cap[k]``, INF for the exact infinite
    class, sorted by (tail, head); ``edges`` is the same as a dict.
    ``costs`` is the instance's term store (``Instance.costs``).

    The encoding reads ``costs.groups`` in a few numpy passes, none per
    term.  The pairwise tables are padded to the largest pairwise shape by
    repeating their last row and column, and one pass computes every row's
    feasible interval, the rows clamped to it, the couplings and the
    infinite edges; a padded row or column adds no coupling, and its edges
    are masked.  A clamped table need not be submodular: a term whose
    largest alpha K exceeds its tolerance (0 for exact tables) gets
    K * (max(0, lo[a] - b) + max(0, b - hi[a])) added, which is 0 on the
    feasible set and has an alpha of at most -1 across each step of lo or
    hi.  The one check is on the result: an alpha above the tolerance
    raises for the first such term, at its first level pair in row-major
    order.  The unary costs and every term's shares of them are rows of
    one step array, added in term order by one ``np.add.at``.  One stable
    sort orders every arc, and parallel arcs are summed in term order.
    Exact costs (there is a ``scale``) stay int64 while every table is
    below 2**59 and the term count times the largest cost below 2**61, and
    are Python ints otherwise; capacities and the ``offset`` are summed as
    Python ints, so the optimum (cut + ``offset``) / ``scale`` is exact.
    Float and other inexact costs keep their Python values in object
    arrays, and every sum is formed in the order a term-by-term encoding
    forms it, so the network is the same to the bit.
    """

    def __init__(self, instance):
        self.instance = instance
        costs = instance.costs
        self.scale = costs.scale
        sizes = instance.domains.sizes
        size = np.array(sizes, dtype=np.intp)
        first = (size - 1).cumsum() - size + 3
        self.first_node = first.tolist()
        self.n_nodes = 2 + sum(sizes) - len(sizes)
        groups = costs.groups
        unary = [g for g in groups if len(g[1]) == 1]
        pidx, scope, cost, feas, tol = _padded_pairs(groups)
        T, SI, SJ = cost.shape
        slot = _slots(SI, SJ, max(sizes, default=1))
        C = (SI - 1) * (SJ - 1)  # coupling slots

        # each row's feasible interval [lo, hi] and the rows clamped to it
        lo = feas.argmax(2)
        hi = SJ - 1 - feas[:, :, ::-1].argmax(2)
        g = np.where(feas, cost, 0)[
            np.arange(T)[:, None, None], slot.rows,
            np.minimum(np.maximum(slot.cols, lo[:, :, None]), hi[:, :, None])]
        shape = size[scope]
        real = (slot.level_i < shape[:, :1]) & (slot.level_j < shape[:, 1:])
        alpha = _second_differences(g, real[:, :C])
        # extend the clamped tables that are not submodular
        K = alpha.max((1, 2), initial=0)
        over = K > tol
        if over.any():
            K = K[over][:, None, None]
            far = (np.maximum(lo[over][:, :, None] - slot.cols, 0)
                   + np.maximum(slot.cols - hi[over][:, :, None], 0))
            # an extended cost at 2**59 or above leaves the int64 bound
            if g.dtype != object and (
                    int(K.max()) * SJ + int(g.max()) >= 1 << 59):
                g, K = g.astype(object), K.astype(object)
            g[over] += K * far
            alpha = _second_differences(g, real[:, :C])
        coupling = (-alpha).reshape(T, C)
        bad = coupling < -tol[:, None]
        if bad.any():
            t = int(bad.any(1).argmax())
            l, m = divmod(int(bad[t].argmax()), SJ - 1)
            raise StageError(
                "mincut", "pairwise term is not submodular after relabelling",
                witness=(*scope[t].tolist(), l + 1, m + 1))

        # the pairwise terms' edges, in term order and each term's slot order;
        # parallel terms repeat an edge, whose caps are then summed in order
        node = first[scope] - 1  # a variable's level l is its node + l
        t_m = (hi[:, :, None] >= slot.level_j[C + SI - 1:]).argmax(1)
        level_v = np.concatenate(
            [slot.level_j[None, :C].repeat(T, 0), lo[:, 1:], t_m], axis=1)
        kept = real & np.concatenate([coupling > 0, level_v[:, C:] >= 1], 1)
        u = node[:, slot.tail] + slot.level_u
        v = node[:, 1 - slot.tail] + level_v
        caps = np.empty(kept.shape, dtype=object)
        caps[:, :C], caps[:, C:] = coupling, INF

        # the unary costs and each pairwise term's shares of them, one row
        # per step of a term, added in term order
        dtype = g.dtype
        largest = max([g.max(initial=0)] + [c.max() for _, _, c, *_ in unary])
        if dtype != object and len(instance.terms) * int(largest) >= 1 << 61:
            dtype = object  # a sum of shares could leave int64
        steps = np.zeros(
            (len(instance.terms), max(SI + SJ - 2, 1), slot.reach.shape[1]),
            dtype)
        owner = np.zeros(steps.shape[:2], np.intp)
        for idxs, (s,), unary_cost, _, unary_scope, _ in unary:
            steps[idxs, 0, :s] = unary_cost
            owner[idxs, 0] = unary_scope[:, 0]
        w = np.concatenate([g[:, 1:, 0] - g[:, :-1, 0] + alpha.sum(2),
                            g[:, 0, 1:] - g[:, 0, :-1]], axis=1)
        steps[pidx, :SI + SJ - 2] = np.where(slot.reach, w[:, :, None], 0)
        owner[pidx, :SI + SJ - 2] = scope[:, slot.tail[C:]]
        acc = np.zeros((len(sizes), steps.shape[2]), dtype)
        np.add.at(acc, owner, steps)

        # per variable: the infinite chain of its levels, then an edge per
        # level whose share is not 0
        node_at = first[:, None] + np.arange(acc.shape[1] - 1)
        levels = np.arange(1, acc.shape[1]) < size[:, None]
        chain = node_at[:, 1:][levels[:, 1:]]
        step = acc[:, 1:] - acc[:, :-1]
        down = levels & (step < 0)
        nonzero = down | levels & (step > 0)
        tails, up = node_at[nonzero], ~down[nonzero]  # up: node -> sink
        tail = np.concatenate([chain, u[kept], tails * up])
        head = np.concatenate([chain - 1, v[kept], tails + (1 - tails) * up])
        cap = np.concatenate([np.full(len(chain), INF, dtype=object),
                              caps[kept], abs(step[nonzero])])
        # sorted by (tail, head); parallel pairwise arcs, kept in term order
        # by the stable sort, are summed in that order, and INF absorbs
        key = tail * self.n_nodes + head
        order = key.argsort(kind="stable")
        key, tail, head, cap = key[order], tail[order], head[order], cap[order]
        new = key[1:] != key[:-1]
        if not new.all():
            at = np.flatnonzero(np.concatenate([[True], new]))
            tail, head, order = tail[at], head[at], order[at]
            cap = np.add.reduceat(cap, at)
        self.tail, self.head, self.cap, self._order = tail, head, cap, order
        # the offset sums each pairwise term's g[0][0] and each constant
        # term's cost in term order, then per variable its share at label 0
        # and its negative steps, in that order
        constant = [(idxs, c[:, 0]) for idxs, shape, c, *_ in groups
                    if not shape]
        first = np.concatenate([g[:, 0, 0]] + [c for _, c in constant])
        at = np.concatenate([pidx] + [idxs for idxs, _ in constant])
        acc[:, 1:] = step
        summed = np.ones(acc.shape, bool)
        summed[:, 1:] = down
        self.offset = functools.reduce(
            operator.add, acc[summed].tolist(), functools.reduce(
                operator.add, first[at.argsort()].tolist(), 0))

    @functools.cached_property
    def edges(self):
        """The arcs as a dict (tail, head) -> capacity, in the order a
        term-by-term encoding adds them: chains, pairwise terms, unaries."""
        at = self._order.argsort()
        return dict(zip(zip(self.tail[at].tolist(), self.head[at].tolist()),
                        self.cap[at].tolist()))

    def solve(self):
        """(optimum, argmin) for the encoded instance; the optimum is
        (cut + offset) / scale, or cut + offset without a scale."""
        flow = MaxFlow(self.n_nodes, self.tail, self.head, self.cap)
        value = flow.max_flow(0, 1)
        if value is INF:
            return INF, None
        optimum = value + self.offset
        if self.scale is not None:
            optimum = Fraction(optimum, self.scale)
        return optimum, self.decode(flow.source_side)

    def decode(self, source_side):
        """The assignment of a minimum cut: each variable's level is the
        number of its nodes on the source side, which the infinite chain
        edges keep closed downwards."""
        return tuple(len(source_side.intersection(range(first, first + s - 1)))
                     for first, s in zip(self.first_node,
                                         self.instance.domains.sizes))


def solve_stp(instance, pair, cap=DEFAULT_CAP):
    """Solve an instance whose pair is a full STP multimorphism of every term.

    Takes the min-cut path when every variable's tournament is transitive and
    all terms are binary or unary; otherwise falls back to brute force.  On
    the min-cut path the pair is min/max in the extracted order, so each
    term of ``instance.merged`` is checked under the pair itself, given the
    order's ranks: exact finite tables are read by their adjacent 2x2
    minors.  The unsupported labels are then dropped and the rest put in
    that order by one restriction.  The check, the pruning and the final
    cross-check read the merged instance's ``costs``, and the encoding the
    restricted instance's own; a restriction that keeps every label in
    order is the merged instance itself.  The cut optimum is checked
    against the cost of the decoded assignment, mapped back to the caller's
    labels and summed over the unrestricted terms, so the check covers the
    restriction and the label mapping as well as the encoding.  When the
    pruning leaves one label per variable, there is no network: that
    assignment is the argmin, and its cost the optimum.
    """
    order = extract_tournament_order(pair)
    merged = instance.merged
    stats = {"path": "mincut"}
    if not order.all_ordered:
        stats["path"] = "bruteforce"
        stats["cycles"] = [c for c in order.cycles if c is not None]
    elif max((len(g[1]) for g in merged.costs.groups), default=0) > 2:
        stats["path"] = "bruteforce"
        stats["reason"] = "term arity above 2"
    if stats["path"] == "bruteforce":
        result = solve_bruteforce(instance, cap=cap)
        result.stats.update(stats)
        return result
    costs = merged.costs
    ok, hit = check_binary_multimorphism(costs, pair, order.ranks)
    if not ok:
        raise VcspError(
            f"term {hit[0]} is not submodular under the extracted order at "
            f"{hit[1]}; the pair was not a multimorphism of every term")
    survive = _prune_unsupported(merged)
    if any(not k for k in survive) or costs.infeasible_constant():
        return SolveResult(INF, None, stats)
    keep = [[a for a in labels if a in live]
            for labels, live in zip(order.orders, survive)]
    optimum, argmin = None, tuple(labels[0] for labels in keep)
    if any(len(labels) > 1 for labels in keep):
        optimum, argmin = CutEncoding(restrict_instance(merged, keep)).solve()
        if argmin is None:
            return SolveResult(optimum, None, stats)
        argmin = tuple(keep[i][v] for i, v in enumerate(argmin))
    check = costs.cost(argmin)
    if check is not INF and costs.scale is not None:
        check = Fraction(check, costs.scale)
    if optimum is None:  # one label per variable
        optimum = check
    elif not cost_eq(check, optimum):
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
    ok, idx = ternary_polymorphism_closed(mu, instance)
    if not ok:
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
    earlier = len(trace_lines)
    final_ops = run_stage2(inst_r, ops_r, net_r, paranoid=paranoid,
                           trace=trace_lines)
    stats["reduce_s"] = time.perf_counter() - t2
    stats["reduce_iterations"] = len(trace_lines) - earlier
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

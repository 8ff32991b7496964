"""Per-variable operation algebra: conservative binary pairs, majority/minority
triples, pair-set bookkeeping, multimorphism checks, and the derived ternary
majority operation.

A binary pair is a per-variable pair of tables (meet, join); a triple is three
per-variable ternary tables.  The pair-set M marks, per variable, the label
pairs on which the binary pair is required to be commutative; on the
complement the triple must behave as majority/majority/minority.

The contract checks (``is_stp_on``, ``is_mjn_on``), ``normalize_pairset``,
``build_majority`` and ``ternary_polymorphism_closed`` are exact boolean
masks over the operations' padded label stacks (``index_stacks()``,
``index_stack()``), each cached on its operation object, and over per-size
label grids.  Each returns or raises the witness a scan entry by entry
would find first, in the order its docstring states.

The multimorphism checks take a list of terms and share one numpy kernel
that is exact.  The terms are grouped by table shape and cost class, and
each group is one kernel call, its tables' feasible tuples padded to the
group's largest count.  Exact costs are scaled to integers by one LCM of
all their denominators (int64 below 2**59, Python ints in an object array
above); INF reads as a value above every sum of finite costs, so that an
infeasible image is a violation.  Float tables, and any other mix, keep
their Python values in an object array, and their sums compare within
``FLOAT_TOL`` (``costs.tolerance``).  A check returns the first failing term
in term order, and as its witness the first violation in row-major order
over ``table.dom()``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import INF, integer_costs, tolerance
from .errors import ValidationError, VcspError
from .model import DomainSpec

#: Scaled exact costs below _INT64_LIMIT are summed in int64, where INF
#: reads as _INT64_INF: above any sum of three finite costs, and a sum of
#: three of it stays below 2**63.
_INT64_LIMIT = 1 << 59
_INT64_INF = 1 << 61
#: Largest temporary array of the multimorphism kernel, in elements; small
#: enough that a group of thousands of terms adds little to peak memory.
_BLOCK_ELEMENTS = 1 << 14


def _pair_key(a, b):
    return (a, b) if a < b else (b, a)


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False  # shared by callers
    return arrays


@functools.lru_cache(maxsize=32)
def _largest_label(size, depth):
    """Largest label at each entry of the [size] * depth grid of label
    tuples."""
    return _frozen(np.indices((size,) * depth, dtype=np.intp).max(axis=0))[0]


@functools.lru_cache(maxsize=32)
def _projections(count, size, depth):
    """[count, 1] + [size] * depth: operation k's projection onto argument
    k mod depth, the padding of ``_stacked``."""
    args = np.indices((size,) * depth, dtype=np.intp)
    return _frozen(args[np.arange(count) % depth][:, None])[0]


def _live_labels(sizes, depth):
    """Mask of the real (unpadded) entries of per-variable label tables,
    [variable] + [max size] * depth."""
    top = _largest_label(max(sizes, default=0), depth)
    return top < np.array(sizes, dtype=np.intp).reshape((-1,) + (1,) * depth)


def _stacked(ops, sizes, depth):
    """Per-variable label tables of several operations as one ``intp`` array
    ``[op, variable, arg_1, ..., arg_depth]``.  Entries beyond a variable's
    domain hold a projection, operation k's onto argument k mod depth: the
    padding is conservative, and no padded label pair commutes under a
    binary pair, so the contract checks need no mask of the live entries."""
    flat = ops
    for _ in range(depth + 1):
        flat = itertools.chain.from_iterable(flat)
    mask = _live_labels(sizes, depth)
    out = _projections(len(ops), max(sizes, default=0), depth).repeat(
        len(sizes), axis=1)
    out[:, mask] = np.fromiter(flat, dtype=np.intp).reshape(len(ops), -1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _pair_grids(size):
    """Per-size grids over label pairs (a, b), each [size, size]: the strict
    upper triangle a < b, and the codes a * size + b and b * size + a of the
    pair and of its swap (see ``_image_codes``)."""
    a, b = np.indices((size, size), dtype=np.intp)
    return _frozen(a < b, a * size + b, b * size + a)


_TripleGrids = collections.namedtuple(
    "_TripleGrids", "a b c lo hi two_valued at_most_two major contract")


@functools.lru_cache(maxsize=16)
def _triple_grids(size):
    """Per-size grids over label triples (a, b, c), each [size]*3: the three
    labels, the smallest and the largest, where the triple holds exactly two
    and at most two values, the label seen most often, and as one
    [3, 1, size, size, size] array the images a two-value triple asks of the
    three components of an MJN triple (majority, majority, minority)."""
    a, b, c = np.indices((size,) * 3, dtype=np.intp)
    count = 1 + (a != b) + ((c != a) & (c != b))
    major = np.where(a == b, a, c)
    minor = np.where(a == b, c, np.where(a == c, b, a))
    return _TripleGrids(*_frozen(
        a, b, c, np.minimum(np.minimum(a, b), c), _largest_label(size, 3),
        count == 2, count <= 2, major, np.stack((major, major, minor))[:, None]))


def _pair_mask(pairs, size):
    """A ``PairSet`` as a bool array [variable, a, b], True at its pairs
    (a < b), padded to ``size`` labels."""
    mask = np.zeros(len(pairs.members) * size * size, dtype=bool)
    mask[[(i * size + a) * size + b
          for i, members in enumerate(pairs.members)
          for a, b in members]] = True
    return mask.reshape(len(pairs.members), size, size)


def _image_codes(pair):
    """The image pair (a meet b, a join b) of every label pair as one code
    ``meet * size + join``, [variable, a, b] over the padded size: equal
    codes mean equal images, so both operations commute on (a, b) exactly
    where the codes at (a, b) and (b, a) agree."""
    meet, join = pair.index_stacks()
    return meet * meet.shape[-1] + join


def _first_true(mask):
    """Row-major index of the first True entry of ``mask``, which must hold
    one, as Python ints."""
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()),
                                                  mask.shape))


def all_label_pairs(size):
    """All unordered label pairs of a domain, as sorted tuples."""
    return [(a, b) for a in range(size) for b in range(a + 1, size)]


@dataclass(frozen=True)
class PairSet:
    """Per-variable sets of unordered label pairs (the commutative side)."""

    domains: DomainSpec
    members: tuple  # per variable: frozenset of (a, b) with a < b

    def __post_init__(self):
        if len(self.members) != self.domains.variable_count:
            raise VcspError("pair set must cover every variable")
        norm = []
        for i, pairs in enumerate(self.members):
            size = self.domains.sizes[i]
            clean = set()
            for a, b in pairs:
                if a == b or not (0 <= a < size and 0 <= b < size):
                    raise VcspError(f"bad pair {(a, b)} for variable {i}")
                clean.add(_pair_key(a, b))
            norm.append(frozenset(clean))
        object.__setattr__(self, "members", tuple(norm))

    @classmethod
    def full(cls, domains):
        return cls(domains, tuple(
            frozenset(all_label_pairs(s)) for s in domains.sizes))

    @classmethod
    def empty(cls, domains):
        return cls(domains, tuple(frozenset() for _ in domains.sizes))

    def universe(self, i):
        return all_label_pairs(self.domains.sizes[i])

    def complement(self, i):
        return sorted(set(self.universe(i)) - self.members[i])

    def is_full(self):
        return all(
            len(self.members[i]) == len(self.universe(i))
            for i in range(self.domains.variable_count))

    def with_added(self, i, pairs):
        members = list(self.members)
        members[i] = members[i] | {_pair_key(a, b) for a, b in pairs}
        return PairSet(self.domains, tuple(members))

    def total_size(self):
        return sum(len(m) for m in self.members)


class BinaryPair:
    """Per-variable (meet, join) tables, D_i x D_i -> D_i each."""

    __slots__ = ("domains", "meet_tables", "join_tables", "_stacks")

    def __init__(self, domains, meet_tables, join_tables):
        self.domains = domains
        self._stacks = None
        self.meet_tables = tuple(tuple(tuple(r) for r in t) for t in meet_tables)
        self.join_tables = tuple(tuple(tuple(r) for r in t) for t in join_tables)
        for i, s in enumerate(domains.sizes):
            for t in (self.meet_tables[i], self.join_tables[i]):
                if len(t) != s or any(len(r) != s for r in t):
                    raise VcspError(f"operation table for variable {i} has wrong shape")
                if any(not 0 <= v < s for r in t for v in r):
                    raise VcspError(f"operation table for variable {i} has out-of-range label")

    @classmethod
    def min_max(cls, domains):
        tabs_min = []
        tabs_max = []
        for s in domains.sizes:
            tabs_min.append([[min(a, b) for b in range(s)] for a in range(s)])
            tabs_max.append([[max(a, b) for b in range(s)] for a in range(s)])
        return cls(domains, tabs_min, tabs_max)

    def index_stacks(self):
        """Meet and join as one padded ``intp`` array [op, variable, a, b]."""
        if self._stacks is None:
            self._stacks = _stacked((self.meet_tables, self.join_tables),
                                    self.domains.sizes, 2)
        return self._stacks

    def meet(self, i, a, b):
        return self.meet_tables[i][a][b]

    def join(self, i, a, b):
        return self.join_tables[i][a][b]

    def with_tables(self, i, meet_table, join_table):
        meets = list(self.meet_tables)
        joins = list(self.join_tables)
        meets[i] = meet_table
        joins[i] = join_table
        return BinaryPair(self.domains, meets, joins)


class TernaryOp:
    """One per-variable ternary table, D_i^3 -> D_i."""

    __slots__ = ("domains", "tables", "_stack")
    arity = 3

    def __init__(self, domains, tables):
        self.domains = domains
        self._stack = None
        self.tables = tuple(
            tuple(tuple(tuple(r) for r in s) for s in t) for t in tables)
        for i, size in enumerate(domains.sizes):
            t = self.tables[i]
            if len(t) != size or any(
                    len(s) != size or any(len(r) != size for r in s) for s in t):
                raise VcspError(f"ternary table for variable {i} has wrong shape")

    @classmethod
    def from_function(cls, domains, fn):
        tables = []
        for i, size in enumerate(domains.sizes):
            tables.append([[[fn(i, a, b, c) for c in range(size)]
                            for b in range(size)] for a in range(size)])
        return cls(domains, tables)

    @classmethod
    def from_stack(cls, domains, stack):
        """The operation held by a stack [variable, a, b, c] padded as
        ``index_stack`` pads it; the stack becomes that ``index_stack``."""
        out = cls(domains, [stack[i, :s, :s, :s].tolist()
                            for i, s in enumerate(domains.sizes)])
        stack.flags.writeable = False
        out._stack = stack
        return out

    def index_stack(self):
        """The tables as one padded ``intp`` array [variable, a, b, c]."""
        if self._stack is None:
            self._stack = _stacked((self.tables,), self.domains.sizes, 3)[0]
        return self._stack

    def apply(self, i, a, b, c):
        return self.tables[i][a][b][c]


class MjnTriple:
    """Per-variable triple of ternary tables (two majority-like, one minority)."""

    __slots__ = ("domains", "ops", "_stacks")

    def __init__(self, domains, op1, op2, op3):
        if not isinstance(op1, TernaryOp):
            op1 = TernaryOp(domains, op1)
            op2 = TernaryOp(domains, op2)
            op3 = TernaryOp(domains, op3)
        self.domains = domains
        self.ops = (op1, op2, op3)
        self._stacks = None

    @classmethod
    def canonical(cls, domains):
        """The textbook majority/majority/minority triple."""

        def mj1(i, x, y, z):
            return y if y == z else x

        def mj2(i, x, y, z):
            return x if x == z else y

        def mn3(i, x, y, z):
            if y == z and z != x:
                return x
            if x == z and z != y:
                return y
            return z

        return cls(
            domains,
            TernaryOp.from_function(domains, mj1),
            TernaryOp.from_function(domains, mj2),
            TernaryOp.from_function(domains, mn3),
        )

    def index_stacks(self):
        """The three components as one ``intp`` array [op, variable, a, b, c]."""
        if self._stacks is None:
            self._stacks = _stacked([op.tables for op in self.ops],
                                    self.domains.sizes, 3)
        return self._stacks

    def apply(self, pos, i, a, b, c):
        return self.ops[pos].apply(i, a, b, c)


def is_stp_on(pair, m=None):
    """Conservative everywhere and commutative on every pair of m, or on
    every label pair when m is None.

    The witness is the first failure of the per-variable scan: conservative
    failures row-major over (a, b), then non-commutative pairs of m in
    sorted order.
    """
    code = _image_codes(pair)
    upper, same, swapped = _pair_grids(code.shape[-1])
    not_conservative = (code != same) & (code != swapped)
    wanted = (upper & _live_labels(pair.domains.sizes, 2) if m is None
              else _pair_mask(m, code.shape[-1]))
    not_commutative = (code != code.swapaxes(1, 2)) & wanted
    if not (not_conservative.any() or not_commutative.any()):
        return True, None
    i, check, a, b = _first_true(
        np.stack((not_conservative, not_commutative), axis=1))
    return False, (i, (a, b), ("not conservative", "not commutative")[check])


_MJN_FAILURES = tuple(
    f"component {pos} not conservative" for pos in (1, 2, 3)) + (
    "first component not majority", "second component not majority",
    "third component not minority")


def is_mjn_on(triple, target):
    """Each component conservative; majority/minority contract on ``target`` pairs.

    ``target`` is the pair set (per variable) on which the contract must hold;
    triples whose value set is not one of those pairs are only required to be
    conservative.  The witness is the first failing label triple, row-major
    over (variable, a, b, c); at that triple the message names the first
    failing check: components 1-3 conservative, then the first, second and
    third component's contract.
    """
    stacks = triple.index_stacks()
    return _mjn_contract(stacks, _pair_mask(target, stacks.shape[-1]))


def _mjn_contract(stacks, pairs):
    """``is_mjn_on`` over a triple's padded stacks [component, variable, a,
    b, c], with its target pairs as a bool mask [variable, a, b]."""
    g = _triple_grids(stacks.shape[-1])
    wanted = g.two_valued & pairs[:, g.lo, g.hi]
    bad = np.concatenate(((stacks != g.a) & (stacks != g.b) & (stacks != g.c),
                          wanted & (stacks != g.contract)))
    if not bad.any():
        return True, None
    first = _first_true(np.moveaxis(bad, 0, -1))  # (variable, a, b, c, check)
    return False, (first[0], first[1:4], _MJN_FAILURES[first[4]])


def _cost_groups(terms):
    """The terms grouped by table shape and cost class, each group as
    ``(term indices, shape, costs [term, entry], feasible mask, scopes
    [term, position], tol)``, in the order of the groups' first terms.

    The cost class is whether ``integer_costs`` scales the table.  Exact
    tables share one scale, since scaling every cost by one positive
    constant keeps every verdict.  When every table is exact and every
    scaled cost is below 2**59, the costs are held in int64 with INF read
    as 2**61, so that a sum holding INF exceeds every sum of three finite
    costs and no sum of three overflows.  Otherwise all costs go into an
    object array, INF included: exact tables as their scaled Python ints,
    compared exactly, other tables (floats, any other mix) as their Python
    values, compared within ``FLOAT_TOL``.
    """
    entries = [term.table.entries for term in terms]
    exact = [True] * len(terms)
    scale, scaled = integer_costs(entries)
    if scale is None:
        exact = [integer_costs([e])[0] is not None for e in entries]
        scale, scaled = integer_costs([e for e, x in zip(entries, exact) if x])
        scaled = iter(scaled)
        scaled = [next(scaled) if x else e for e, x in zip(entries, exact)]
    members = {}
    for idx, (term, x) in enumerate(zip(terms, exact)):
        members.setdefault((term.table.shape, x), []).append(idx)
    flat = [e for idxs in members.values() for i in idxs for e in scaled[i]]
    if all(exact) and max((e for e in flat if e is not INF),
                          default=0) < _INT64_LIMIT:
        values = np.array([_INT64_INF if e is INF else e for e in flat],
                          dtype=np.int64)
        feasible = values != _INT64_INF
    else:
        values = np.array(flat, dtype=object)
        feasible = np.array([e is not INF for e in flat], dtype=bool)
    scopes = np.array([v for idxs in members.values() for i in idxs
                       for v in terms[i].scope], dtype=np.intp)
    entry = position = 0
    for (shape, x), idxs in members.items():
        entries_at = slice(entry, entry + len(idxs) * math.prod(shape))
        scopes_at = slice(position, position + len(idxs) * len(shape))
        entry, position = entries_at.stop, scopes_at.stop
        yield (idxs, shape, values[entries_at].reshape(len(idxs), -1),
               feasible[entries_at].reshape(len(idxs), -1),
               scopes[scopes_at].reshape(len(idxs), len(shape)),
               tolerance(scale if x else None))


@functools.lru_cache(maxsize=256)
def _layout(shape):
    """Coordinates of every entry of a table shape, as an (m, size) array,
    and its row-major weights."""
    m = len(shape)
    grid = np.indices(shape, dtype=np.intp).reshape(m, math.prod(shape))
    weights = np.array([math.prod(shape[p + 1:]) for p in range(m)],
                       dtype=np.intp)
    grid.flags.writeable = weights.flags.writeable = False  # shared by callers
    return grid, weights


def _group_violation(shape, costs, feasible, scopes, tol, stacks):
    """Exact kernel of the multimorphism checks on one group of same-shape
    tables, ``costs`` [term, entry] with ``scopes`` [term, position].

    ``stacks`` holds the operation tuple as one padded ``intp`` array indexed
    ``[component, variable, arg_1, ..., arg_k]``.  For every term, every
    ordered k-tuple of its feasible tuples is checked: the summed cost of
    the components' images must be at most the summed cost of the arguments
    (up to ``tol``), which fails whenever an image is infeasible.  Each
    term's feasible tuples are padded to the group's largest count with
    copies of its first one, so a padded k-tuple checks the same as an
    earlier real one and is never the first violation.  Returns None or
    (position of the first failing term, its witness): the first violation
    in row-major order over ``table.dom()``, as tuples of Python ints.
    Blocks run over terms, then over the first argument's rows, so that a
    temporary holds at most about max(``_BLOCK_ELEMENTS``,
    comps * m * n**(k-1)) elements: a block is never smaller than one row,
    the checks of one first argument.
    """
    comps, k = len(stacks), stacks.ndim - 2
    grid, weights = _layout(shape)
    m, size = grid.shape
    count = len(costs)
    base = np.arange(0, count * size, size).reshape(count, 1)
    flat = costs.reshape(-1)
    if feasible.all():  # no padding
        n, cost = size, costs
        coords = grid[:, None].repeat(count, axis=1)
    else:
        counts = feasible.sum(axis=1)
        n = int(counts.max())
        if n == 0:
            return None
        # a term without feasible tuples reads k INF costs on the right of
        # every check, which no left side exceeds
        dom = np.argsort(~feasible, axis=1, kind="stable")[:, :n]
        dom = np.where(np.arange(n) < counts[:, None], dom, dom[:, :1])
        cost = flat.take(dom + base)
        coords = grid[:, dom]  # [position, term, tuple]
    var = scopes.T.reshape((m, count) + (1,) * k)
    # index that moves a last axis to argument axis a of the k-tuple grid
    along = [(Ellipsis,) + (None,) * a + (slice(None),) + (None,) * (k - 1 - a)
             for a in range(k)]
    row = comps * max(m, 1) * n ** (k - 1)  # elements per first argument
    rows = min(n, max(1, _BLOCK_ELEMENTS // row))
    batch = max(1, _BLOCK_ELEMENTS // (row * n)) if rows == n else 1
    for first in range(0, count, batch):
        tb = slice(first, first + batch)
        held = min(batch, count - first)
        for start in range(0, n, rows):
            rb = slice(start, start + rows)
            right = cost[tb, rb][along[0]]
            for a in range(1, k):
                right = right + cost[tb][along[a]]
            labels = stacks[(slice(None), var[:, tb],
                             coords[:, tb, rb][along[0]],
                             *(coords[:, tb][along[a]] for a in range(1, k)))]
            images = flat.take(base[tb] + weights @ labels.reshape(
                comps, m, held, right.size // held).swapaxes(1, 2))
            left = images[0]
            for more in images[1:]:
                left = left + more
            ok = left.reshape(right.shape) <= (right + tol if tol else right)
            if not ok.all():
                bad = ~ok.reshape(held, -1)
                t = int(bad.any(axis=1).argmax())
                at = np.unravel_index(int(bad[t].argmax()), right.shape[1:])
                picks = (start + at[0],) + at[1:]
                return first + t, tuple(
                    tuple(coords[:, first + t, j].tolist()) for j in picks)
    return None


def _first_violation(terms, stacks):
    """The batched multimorphism check of ``terms`` under ``stacks``: (True,
    None), or (False, (term index, witness)) for the first failing term in
    term order.  Each group of ``_cost_groups`` is one kernel call; a group
    whose first term comes after a failing term is not checked."""
    found = None
    for idxs, shape, *group in _cost_groups(terms):
        if found is not None and idxs[0] > found[0]:
            break
        hit = _group_violation(shape, *group, stacks)
        if hit is not None and (found is None or idxs[hit[0]] < found[0]):
            found = (idxs[hit[0]], hit[1])
    return (True, None) if found is None else (False, found)


def check_binary_multimorphism(terms, pair):
    """Inequality f(x meet y) + f(x join y) <= f(x) + f(y) over feasible
    pairs of every term of ``terms``, a sequence of ``Term``s.

    Returns (True, None) or (False, (term_index, (x, y))): the first failing
    term in term order, with the lexicographically smallest violating
    ordered pair of its feasible tuples.
    """
    return _first_violation(terms, pair.index_stacks())


def check_ternary_multimorphism(terms, triple):
    """Three-way inequality over all ordered feasible triples of every term.

    Returns (True, None) or (False, (term_index, (x, y, z))): the first
    failing term in term order, with the lexicographically smallest
    violating ordered triple of its feasible tuples.
    """
    return _first_violation(terms, triple.index_stacks())


def ternary_polymorphism_closed(op, tuples, scope):
    """Vectorized closure check of a tuple set under a ternary operation.

    True when the componentwise image of every ordered triple of tuples is
    in the set.  The images are gathered from ``op.index_stack()`` and
    looked up in a membership mask of the term's shape.
    """
    tuples = list(tuples)
    if not tuples:
        return True
    cols = np.array(tuples, dtype=np.intp).reshape(len(tuples), len(scope)).T
    member = np.zeros(tuple(op.domains.sizes[i] for i in scope), dtype=bool)
    member[tuple(cols)] = True
    var = np.array(scope, dtype=np.intp).reshape(-1, 1, 1, 1)
    images = op.index_stack()[var, cols[:, :, None, None],
                              cols[:, None, :, None], cols[:, None, None, :]]
    return bool(member[tuple(images)].all())


def build_majority(pair, triple):
    """Derive the ternary majority operation from the pair and the triple.

    The result acts as the majority operation whenever the argument value set
    has at most two elements; a failure of that contract means the input
    system is invalid.  The witness is the first failing label triple,
    row-major over (variable, a, b, c).
    """
    meet, join = pair.index_stacks()
    var = np.arange(meet.shape[0]).reshape(-1, 1, 1, 1)
    g = _triple_grids(meet.shape[-1])
    a, b, c = g.a, g.b, g.c

    def mu_bar(x, y, z):
        return meet[var, meet[var, join[var, y, x], join[var, y, z]],
                    join[var, x, z]]

    mu = triple.index_stacks()[0][
        var, mu_bar(a, b, c), mu_bar(b, c, a), mu_bar(c, a, b)]
    live = _live_labels(pair.domains.sizes, 3)
    mu = np.where(live, mu, a)  # the padding of a one-operation stack
    not_conservative = (mu != a) & (mu != b) & (mu != c)
    not_majority = g.at_most_two & (mu != g.major) & live
    if not_conservative.any() or not_majority.any():
        i, x, y, z, check = _first_true(
            np.stack((not_conservative, not_majority), axis=-1))
        raise ValidationError(
            ("derived majority operation is not conservative",
             "derived operation is not majority on a two-value triple; "
             "the input operation system is invalid")[check],
            witness=(i, (x, y, z)))
    return TernaryOp.from_stack(pair.domains, mu)


def normalize_pairset(pair, m):
    """Move commutative complement pairs into m.

    After this, every pair outside m is genuinely non-commutative, which the
    rewriting stage assumes.
    """
    code = _image_codes(pair)
    upper, _, _ = _pair_grids(code.shape[-1])
    extra = ((code == code.swapaxes(1, 2)) & upper
             & ~_pair_mask(m, code.shape[-1]))
    if not extra.any():
        return m
    members = [set(pairs) for pairs in m.members]
    for i, a, b in np.argwhere(extra).tolist():
        members[i].add((a, b))
    return PairSet(m.domains, tuple(members))


@dataclass(frozen=True)
class OperationSystem:
    """A binary pair, a ternary triple, and the pair set tying them together."""

    pair: BinaryPair
    triple: MjnTriple
    m: PairSet

    @property
    def domains(self):
        return self.pair.domains

    def validate(self):
        """Check the structural contract; raises with a witness on failure."""
        ok, witness = is_stp_on(self.pair, self.m)
        if not ok:
            raise ValidationError(
                f"binary pair violates its contract: {witness[2]} "
                f"at variable {witness[0]}, labels {witness[1]}",
                witness=witness)
        # is_mjn_on on the pairs outside M
        stacks = self.triple.index_stacks()
        upper, _, _ = _pair_grids(stacks.shape[-1])
        outside_m = (upper & _live_labels(self.domains.sizes, 2)
                     & ~_pair_mask(self.m, stacks.shape[-1]))
        ok, witness = _mjn_contract(stacks, outside_m)
        if not ok:
            raise ValidationError(
                f"ternary triple violates its contract: {witness[2]} "
                f"at variable {witness[0]}, labels {witness[1]}",
                witness=witness)

    def normalized(self):
        return OperationSystem(self.pair, self.triple,
                               normalize_pairset(self.pair, self.m))


def check_instance_multimorphism(instance, ops):
    """Both inequalities on every term; returns (ok, term_index, witness).

    The first failing term in term order is reported, its binary failure
    before its ternary one, as a loop over the terms checking both would.
    """
    terms = instance.terms
    ok, hit = check_binary_multimorphism(terms, ops.pair)
    limit = len(terms) if ok else hit[0]
    ok3, hit3 = check_ternary_multimorphism(terms[:limit], ops.triple)
    if not ok3:
        return False, hit3[0], ("ternary", hit3[1])
    if not ok:
        return False, hit[0], ("binary", hit[1])
    return True, None, None

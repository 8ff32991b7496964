"""Per-variable operation algebra: conservative binary pairs, majority/minority
triples, pair-set bookkeeping, multimorphism checks, and the derived ternary
majority operation.

A binary pair is a per-variable pair of tables (meet, join); a triple is three
per-variable ternary tables.  The pair-set M marks, per variable, the label
pairs on which the binary pair is required to be commutative; on the
complement the triple must behave as majority/majority/minority.

Each object stores one read-only array and nothing else: a pair its padded
``intp`` stack [op, variable, a, b] (``index_stacks()``), a ternary operation
[variable, a, b, c] (``index_stack()``), a triple [component, variable, a, b,
c] (``index_stacks()``), and M its bool ``mask`` [variable, a, b], True at
its pairs a < b.  Labels are padded to the largest domain: a stack holds a
projection beyond a variable's domain, the mask False.  ``meet_tables``,
``join_tables``, ``TernaryOp.tables`` and ``PairSet.members`` are nested
tuples derived from the arrays on each read.  The contract checks
(``is_stp_on``, ``is_mjn_on``), ``normalize_pairset`` and
``build_majority`` are exact boolean masks over these arrays and over
per-size label grids.  Each returns or raises the witness a scan
entry by entry would find first, in the order its docstring states.

The multimorphism checks share one numpy kernel that is exact.  They read the
term store of ``model.ScaledCosts`` (an instance's ``costs``, or one built for
a list of terms): the terms grouped by table shape and cost class, exact costs
scaled to integers by one LCM of all their denominators (int64 below 2**59,
Python ints in an object array above), float tables and any other mix as their
Python values.  Each group is one kernel call, in batches of terms of falling
count of feasible tuples.  INF reads as a value above every sum of finite
costs, so that an infeasible image is a violation, and each inexact table's
sums compare within the tolerance of its own costs (``costs.tolerance``).  A
check returns the first failing term in term order, and as its witness the
first violation in row-major order over ``table.dom()``.  Given the ranks of
orders in which the pair is min/max, the binary check passes unary tables and
reads exact finite pairwise tables by their adjacent 2x2 minors, and runs the
kernel only where that test fails or does not apply.
``ternary_polymorphism_closed`` runs the kernel on the crisp costs of an
instance's feasible masks.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VcspError
from .model import DomainSpec, ScaledCosts, _layout, arity_masks

#: Largest temporary array of the multimorphism kernel, in elements; small
#: enough that a group of thousands of terms adds little to peak memory.
_BLOCK_ELEMENTS = 1 << 14


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
    k mod depth, the padding of ``_padded``."""
    args = np.indices((size,) * depth, dtype=np.intp)
    return _frozen(args[np.arange(count) % depth][:, None])[0]


@functools.lru_cache(maxsize=64)
def _live_labels(sizes, depth):
    """Mask of the real (unpadded) entries of per-variable label tables,
    [variable] + [max size] * depth."""
    top = _largest_label(max(sizes, default=0), depth)
    return _frozen(top < np.array(sizes, dtype=np.intp).reshape(
        (-1,) + (1,) * depth))[0]


@functools.lru_cache(maxsize=64)
def _dead_pairs(sizes):
    """Mask of the entries of a pair-set mask that hold no label pair a < b
    of the domains, [variable] + [max size] * 2."""
    return _frozen(~(_pair_grids(max(sizes, default=0))[0]
                     & _live_labels(sizes, 2)))[0]


def _padded(values, sizes, depth):
    """``values`` [op, variable, arg_1, ..., arg_depth], over the largest
    domain, as the read-only stack every operation object holds: each entry
    beyond a variable's domain is replaced by a projection, operation k's
    onto argument k mod depth.  The padding is conservative, and no padded
    label pair commutes under a binary pair, so the contract checks need no
    mask of the live entries."""
    return _frozen(np.where(_live_labels(sizes, depth), values, _projections(
        len(values), max(sizes, default=0), depth)))[0]


def _stacked(ops, sizes, depth, what):
    """Per-variable label tables of several operations, nested sequences,
    checked and laid out as ``_padded`` lays them out; ``what`` names a
    table in the errors."""
    flat = []
    for tables in ops:
        for i, size in enumerate(sizes):
            level = [tables[i]]
            for _ in range(depth):
                if set(map(len, level)) != {size}:
                    raise VcspError(f"{what} for variable {i} has wrong shape")
                level = list(itertools.chain.from_iterable(level))
            flat += level
    live = _live_labels(sizes, depth)
    out = np.zeros((len(ops),) + live.shape, dtype=np.intp)
    out[:, live] = np.array(flat, dtype=np.intp).reshape(len(ops), -1)
    top = np.array(sizes, dtype=np.intp).reshape((-1,) + (1,) * depth)
    bad = (out < 0) | (out >= top)
    if bad.any():
        raise VcspError(f"{what} for variable {_first_true(bad)[1]} has "
                        "out-of-range label")
    return _padded(out, sizes, depth)


def _nested(stack, sizes):
    """Per-variable tables of one operation's stack [variable, arg, ...], as
    nested tuples of Python ints."""
    def tuples(rows):
        return tuple(map(tuples, rows)) if isinstance(rows, list) else rows
    return tuple(tuples(table[(slice(s),) * table.ndim].tolist())
                 for table, s in zip(stack, sizes))


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


class _Held:
    """The one stored form of an operation object: its domains and one
    read-only array over the largest domain, padded as ``_pad`` pads it."""

    __slots__ = ("domains", "_array")

    @classmethod
    def of(cls, domains, array):
        """The object holding ``array``, laid out as the class holds it; its
        entries beyond each variable's domain may hold anything."""
        out = object.__new__(cls)
        out.domains = domains
        out._array = cls._pad(array, domains.sizes)
        return out


class PairSet(_Held):
    """Per-variable sets of unordered label pairs (the commutative side),
    held as one bool ``mask`` [variable, a, b], True at the pairs a < b of
    the set."""

    __slots__ = ()

    def __init__(self, domains, members):
        if len(members) != domains.variable_count:
            raise VcspError("pair set must cover every variable")
        size = max(domains.sizes, default=0)
        codes = []
        for i, (pairs, s) in enumerate(zip(members, domains.sizes)):
            for a, b in pairs:
                if a == b or not (0 <= a < s and 0 <= b < s):
                    raise VcspError(f"bad pair {(a, b)} for variable {i}")
                codes.append((i * size + min(a, b)) * size + max(a, b))
        mask = np.zeros((len(members), size, size), dtype=bool)
        mask.flat[codes] = True
        self.domains = domains
        self._array = self._pad(mask, domains.sizes)

    @staticmethod
    def _pad(mask, sizes):
        return _frozen(mask & _pair_grids(mask.shape[-1])[0]
                       & _live_labels(sizes, 2))[0]

    @classmethod
    def full(cls, domains):
        return cls.of(domains, ~cls.empty(domains).mask)

    @classmethod
    def empty(cls, domains):
        return cls(domains, [()] * domains.variable_count)

    @property
    def mask(self):
        return self._array

    @property
    def members(self):
        """Per variable, the frozenset of its pairs (a, b), a < b."""
        return tuple(frozenset(map(tuple, np.argwhere(pairs).tolist()))
                     for pairs in self._array)

    def outside(self):
        """The mask of the label pairs a < b not in the set."""
        return self._pad(~self._array, self.domains.sizes)

    def first_outside(self):
        """The first label pair a < b not in the set, row-major over
        (variable, a, b), as (variable, (a, b)); None when the set is
        full."""
        taken = self._array | _dead_pairs(self.domains.sizes)
        if taken.all():  # also when there is no pair at all
            return None
        size = taken.shape[-1]
        i, ab = divmod(int(taken.argmin()), size * size)
        return i, divmod(ab, size)

    def complement(self, i):
        return [tuple(p) for p in np.argwhere(self.outside()[i]).tolist()]

    def is_full(self):
        return not self.outside().any()

    def total_size(self):
        return int(self._array.sum())


class BinaryPair(_Held):
    """Per-variable (meet, join) tables, D_i x D_i -> D_i each, held as one
    padded stack [op, variable, a, b] (``index_stacks``)."""

    __slots__ = ()

    def __init__(self, domains, meet_tables, join_tables):
        self.domains = domains
        self._array = _stacked((meet_tables, join_tables), domains.sizes, 2,
                               "operation table")

    _pad = staticmethod(functools.partial(_padded, depth=2))

    @classmethod
    def min_max(cls, domains):
        grid = np.indices((max(domains.sizes, default=0),) * 2, dtype=np.intp)
        return cls.of(domains, np.stack((grid.min(axis=0),
                                         grid.max(axis=0)))[:, None])

    def index_stacks(self):
        """Meet and join as one padded ``intp`` array [op, variable, a, b]."""
        return self._array

    @property
    def meet_tables(self):
        return _nested(self._array[0], self.domains.sizes)

    @property
    def join_tables(self):
        return _nested(self._array[1], self.domains.sizes)

    def meet(self, i, a, b):
        return int(self._array[0, i, a, b])

    def join(self, i, a, b):
        return int(self._array[1, i, a, b])


class TernaryOp(_Held):
    """One per-variable ternary table, D_i^3 -> D_i, held as one padded
    stack [variable, a, b, c] (``index_stack``)."""

    __slots__ = ()
    arity = 3

    def __init__(self, domains, tables):
        self.domains = domains
        self._array = _stacked((tables,), domains.sizes, 3, "ternary table")[0]

    @staticmethod
    def _pad(stack, sizes):  # as operation 0 of a stack
        return _padded(stack[None], sizes, 3)[0]

    @classmethod
    def from_function(cls, domains, fn):
        tables = []
        for i, size in enumerate(domains.sizes):
            tables.append([[[fn(i, a, b, c) for c in range(size)]
                            for b in range(size)] for a in range(size)])
        return cls(domains, tables)

    def index_stack(self):
        """The tables as one padded ``intp`` array [variable, a, b, c]."""
        return self._array

    @property
    def tables(self):
        return _nested(self._array, self.domains.sizes)

    def apply(self, i, a, b, c):
        return int(self._array[i, a, b, c])


class MjnTriple(_Held):
    """Per-variable triple of ternary operations (two majority-like, one
    minority), held as one padded stack [component, variable, a, b, c]
    (``index_stacks``)."""

    __slots__ = ()

    def __init__(self, domains, op1, op2, op3):
        """Three ``TernaryOp``s, or the three components' per-variable
        tables."""
        ops = (op1, op2, op3)
        self.domains = domains
        self._array = (
            self._pad(np.stack([op.index_stack() for op in ops]), domains.sizes)
            if isinstance(op1, TernaryOp)
            else _stacked(ops, domains.sizes, 3, "ternary table"))

    _pad = staticmethod(functools.partial(_padded, depth=3))

    @classmethod
    def canonical(cls, domains):
        """The textbook majority/majority/minority triple; on three distinct
        labels its components return the first, second and third."""
        g = _triple_grids(max(domains.sizes, default=0))
        return cls.of(domains, np.where(g.at_most_two, g.contract,
                                        np.stack((g.a, g.b, g.c))[:, None]))

    @property
    def ops(self):
        return tuple(TernaryOp.of(self.domains, comp) for comp in self._array)

    def index_stacks(self):
        """The three components as one ``intp`` array [op, variable, a, b, c]."""
        return self._array

    def apply(self, pos, i, a, b, c):
        return int(self._array[pos, i, a, b, c])


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
    wanted = upper & _live_labels(pair.domains.sizes, 2) if m is None else m.mask
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
    g = _triple_grids(stacks.shape[-1])
    wanted = g.two_valued & target.mask[:, g.lo, g.hi]
    bad = np.concatenate(((stacks != g.a) & (stacks != g.b) & (stacks != g.c),
                          wanted & (stacks != g.contract)))
    if not bad.any():
        return True, None
    first = _first_true(np.moveaxis(bad, 0, -1))  # (variable, a, b, c, check)
    return False, (first[0], first[1:4], _MJN_FAILURES[first[4]])


def _outer_sum(parts):
    """Every sum of one entry from each of ``parts`` [..., n] along their
    last axis, as [..., n**len(parts)], the last part fastest."""
    total = parts[0]
    for part in parts[1:]:
        total = (total[..., :, None] + part[..., None, :]).reshape(
            total.shape[:-1] + (total.shape[-1] * part.shape[-1],))
    return total


def _group_violation(shape, costs, feasible, scopes, tol, stacks):
    """Exact kernel of the multimorphism checks on one group of same-shape
    tables, ``costs`` [term, entry] with ``scopes`` [term, position].

    ``stacks`` holds the operation tuple as one padded ``intp`` array indexed
    ``[component, variable, arg_1, ..., arg_k]``.  For every term, every
    ordered k-tuple of its feasible tuples is checked: the summed cost of the
    components' images must be at most the summed cost of the arguments (up to
    the term's ``tol``), which fails whenever an image is infeasible.  Terms go
    by falling count of feasible tuples, in batches padded to the count of
    their first term with copies of each term's first tuple, so a padded
    k-tuple checks the same as an earlier real one and is never the first
    violation, and a dense term pads only the terms of its batch.  Returns None
    or (position of the first failing term, its witness): the first violation
    in row-major order over ``table.dom()``, as tuples of Python ints.  A batch
    blocks over the first argument's rows, so that a temporary holds at most
    about max(``_BLOCK_ELEMENTS``, comps * m * n**(k-1)) elements: a block is
    never smaller than one row, the checks of one first argument.
    """
    comps, k = len(stacks), stacks.ndim - 2
    grid, _ = _layout(shape)
    m, size = grid.shape
    count = len(costs)
    flat = costs.reshape(-1)
    if feasible.all():  # no padding
        counts, order, infeasible = [size] * count, np.arange(count), None
    else:
        counts = feasible.sum(axis=1)
        order = (-counts).argsort(kind="stable")
        infeasible = ~feasible
    width = stacks.shape[-1]
    stack = stacks.reshape(comps, -1)  # a row per component
    found, first = None, 0
    # terms without feasible tuples come last; one in a batch reads k INF
    # costs on the right of every check, which no left side exceeds
    while first < count and (n := int(counts[order[first]])):
        row = comps * max(m, 1) * n ** (k - 1)  # elements per first argument
        rows = min(n, max(1, _BLOCK_ELEMENTS // row))
        batch = max(1, _BLOCK_ELEMENTS // (row * n)) if rows == n else 1
        ts = order[first:first + batch]
        first += len(ts)
        if found is not None and ts.min() > found[0]:
            continue
        if infeasible is None:  # every term reads the whole grid
            cost, coords = costs[ts], grid[:, None]
        else:
            dom = infeasible[ts].argsort(axis=1, kind="stable")[:, :n]
            if counts[ts[-1]] < n:
                dom = np.where(np.arange(n) < counts[ts, None], dom,
                               dom[:, :1])
            cost = flat.take(dom + ts[:, None] * size)
            coords = grid.take(dom, axis=1)  # [position, term, tuple]
        # offsets in a row of ``stack``: the first argument's, at its
        # position's variable, and the later arguments' summed, last fastest
        first_at = (coords * width ** (k - 1)
                    + scopes[ts].T[:, :, None] * width ** k)
        rest_at = _outer_sum([coords * width ** (k - 1 - a)
                              for a in range(1, k - 1)] + [coords])
        rest_cost = _outer_sum([cost] * (k - 1))
        # an image's entry in ``flat``, by Horner from its term's index
        term = ts.reshape(1, -1, 1, 1)
        if not m:  # the one entry, once per component
            term = term.repeat(comps, axis=0)
        margin = None if tol is None else tol[ts].reshape(-1, 1, 1)
        for start in range(0, n, rows):
            rb = slice(start, start + rows)
            right = cost[:, rb, None] + rest_cost[:, None]
            labels = stack.take(first_at[:, :, rb, None] + rest_at[:, :, None],
                                axis=1)
            code = term
            for p in range(m):
                code = code * shape[p] + labels[:, p]
            images = flat.take(code)
            left = images[0]
            for more in images[1:]:
                left = left + more
            ok = left <= (right if margin is None else right + margin)
            if not ok.all():
                bad = ~ok.reshape(len(ts), -1)
                t = int(np.where(bad.any(axis=1), ts, count).argmin())
                if found is None or ts[t] < found[0]:
                    hit = np.unravel_index(int(bad[t].argmax()),
                                           right.shape[1:2] + (n,) * (k - 1))
                    picks = (start + hit[0],) + hit[1:]
                    # a whole-grid batch holds one row of coordinates
                    at = coords[:, min(t, coords.shape[1] - 1)]
                    found = int(ts[t]), tuple(
                        tuple(at[:, j].tolist()) for j in picks)
                break  # later rows of a one-term batch come after
    return found


def _passes_min_max(shape, costs, feasible, scopes, tol, ranks):
    """True when one group of ``ScaledCosts.groups`` is known to pass the
    binary check under a pair that is min/max in the orders ``ranks``
    [variable, label] gives; False when the kernel must decide.

    A unary group always passes: min/max maps {a, b} to itself, so both
    sides of the check add the same two costs.  An exact pairwise group
    with no INF passes when every table, its rows and columns put at their
    ranks, has g[l + 1, m + 1] + g[l, m] <= g[l + 1, m] + g[l, m + 1] at
    every l, m: on a product of two chains that is submodularity (Topkis,
    Oper. Res. 1978), so the two tests agree term by term.  In int64 each
    cost is below 2**59, so no sum of two overflows.
    """
    if len(shape) == 1:
        return True
    if len(shape) != 2 or tol is not None or not feasible.all():
        return False
    g = np.empty((len(costs),) + shape, dtype=costs.dtype)
    g[np.arange(len(costs))[:, None, None],
      ranks[scopes[:, 0], :shape[0]][:, :, None],
      ranks[scopes[:, 1], :shape[1]][:, None, :]] = costs.reshape(g.shape)
    return bool((g[:, 1:, 1:] + g[:, :-1, :-1]
                 <= g[:, 1:, :-1] + g[:, :-1, 1:]).all())


def _first_violation(terms, stacks, limit=None, ranks=None):
    """The batched multimorphism check of ``terms``, a term list or its
    ``ScaledCosts``, under ``stacks``: (True, None), or (False, (term index,
    witness)) for the first failing term in term order.  Each group of
    ``ScaledCosts.groups`` is one kernel call; a group whose first term
    comes after a failing term, or at ``limit`` or after, is not checked,
    and a term from ``limit`` on never fails.  Given ``ranks``, a binary
    pair min/max in those orders, a group that ``_passes_min_max`` skips
    the kernel."""
    if not isinstance(terms, ScaledCosts):
        terms = ScaledCosts(terms)
    found = None
    bound = math.inf if limit is None else limit
    for idxs, shape, *group in terms.groups:
        if idxs[0] >= bound:
            break
        if ranks is not None and _passes_min_max(shape, *group, ranks):
            continue
        hit = _group_violation(shape, *group, stacks)
        if hit is not None and idxs[hit[0]] < bound:
            found = (idxs[hit[0]], hit[1])
            bound = found[0]
    return (True, None) if found is None else (False, found)


def check_binary_multimorphism(terms, pair, ranks=None):
    """Inequality f(x meet y) + f(x join y) <= f(x) + f(y) over feasible
    pairs of every term of ``terms``, a sequence of ``Term``s or their
    ``ScaledCosts``.

    Returns (True, None) or (False, (term_index, (x, y))): the first failing
    term in term order, with the lexicographically smallest violating
    ordered pair of its feasible tuples.

    ``ranks`` [variable, label], when given, holds each label's position in
    a total order per variable under which ``pair`` is min/max
    (``TournamentOrder.ranks``); the caller vouches for that.  Unary terms
    then pass unchecked, and exact pairwise terms without INF are checked
    by their adjacent 2x2 minors; a group in which some term fails that
    test, or any other group, goes to the kernel, so the result is the
    same.
    """
    return _first_violation(terms, pair.index_stacks(), ranks=ranks)


def check_ternary_multimorphism(terms, triple):
    """Three-way inequality over all ordered feasible triples of every term
    of ``terms``, as ``check_binary_multimorphism`` takes them.

    Returns (True, None) or (False, (term_index, (x, y, z))): the first
    failing term in term order, with the lexicographically smallest
    violating ordered triple of its feasible tuples.
    """
    return _first_violation(terms, triple.index_stacks())


def ternary_polymorphism_closed(op, instance):
    """(True, None) when the componentwise image under the conservative
    ``op`` of every ordered triple of each term's feasible tuples is
    feasible, else (False, the first term in term order where one is not):
    per arity group of ``arity_masks`` of its costs, the multimorphism kernel
    with the one component ``op`` on the crisp costs 0 (feasible) and 1
    (infeasible).  The image of three tuples over fewer than two positions
    is one of them, and a group in which every tuple is feasible is closed
    as it stands, so neither is checked."""
    stack = op.index_stack()[None]
    hits = []
    for idxs, scopes, masks in arity_masks(
            [g for g in instance.costs.groups if len(g[1]) > 1]):
        feasible = masks.reshape(len(idxs), -1)
        if feasible.all():
            continue
        hit = _group_violation(masks.shape[1:], (~feasible).view(np.uint8),
                               feasible, scopes, None, stack)
        if hit is not None:
            hits.append(idxs[hit[0]])
    return (False, min(hits)) if hits else (True, None)


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

    mu = TernaryOp.of(pair.domains, triple.index_stacks()[0][
        var, mu_bar(a, b, c), mu_bar(b, c, a), mu_bar(c, a, b)])
    stack = mu.index_stack()
    not_conservative = (stack != a) & (stack != b) & (stack != c)
    not_majority = (g.at_most_two & (stack != g.major)
                    & _live_labels(pair.domains.sizes, 3))
    if not_conservative.any() or not_majority.any():
        i, x, y, z, check = _first_true(
            np.stack((not_conservative, not_majority), axis=-1))
        raise ValidationError(
            ("derived majority operation is not conservative",
             "derived operation is not majority on a two-value triple; "
             "the input operation system is invalid")[check],
            witness=(i, (x, y, z)))
    return mu


def normalize_pairset(pair, m):
    """Move commutative complement pairs into m.

    After this, every pair outside m is genuinely non-commutative, which the
    rewriting stage assumes.
    """
    code = _image_codes(pair)
    upper, _, _ = _pair_grids(code.shape[-1])
    extra = (code == code.swapaxes(1, 2)) & upper & ~m.mask
    return PairSet.of(m.domains, m.mask | extra) if extra.any() else m


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
        ok, witness = is_mjn_on(self.triple,
                                PairSet.of(self.domains, self.m.outside()))
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
    Both checks read the instance's ``costs``.
    """
    costs = instance.costs
    ok, hit = check_binary_multimorphism(costs, ops.pair)
    ok3, hit3 = _first_violation(costs, ops.triple.index_stacks(),
                                 None if ok else hit[0])
    if not ok3:
        return False, hit3[0], ("ternary", hit3[1])
    if not ok:
        return False, hit[0], ("binary", hit[1])
    return True, None, None

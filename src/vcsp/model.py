"""Instances: domains, cost tables, terms, evaluation and enumeration.

Variables are indexed 0..V-1 and labels 0..|D_i|-1.  Domains may differ per
variable.  Tables are dense; desk-scale arities and domain sizes make that the
simplest exact representation.

An ``Instance`` builds its term store once, when it is constructed: its
``costs`` (``ScaledCosts``) hold the terms grouped by table shape, with the
exact costs scaled to integers by one LCM and a feasible mask per group, and
``merged`` is the instance with no repeated scope variable.  The store's
per-arity view of the feasible masks (``ScaledCosts.masks``) is built on
its first read and kept.  Every stage reads these; none groups, scales or
masks the entries again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .costs import INF, integer_costs, is_finite, tolerance
from .errors import CapExceeded, VcspError

#: Default cap on the number of tuples any single enumeration may visit.
DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class DomainSpec:
    """Per-variable domain sizes; every domain must be non-empty."""

    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if any(s < 1 for s in self.sizes):
            raise VcspError("every domain must have at least one label")

    @property
    def variable_count(self):
        return len(self.sizes)

    def space_size(self):
        n = 1
        for s in self.sizes:
            n *= s
        return n

    def assignments(self, cap=DEFAULT_CAP):
        """All assignments in lexicographic order; refuses above the cap."""
        n = self.space_size()
        if n > cap:
            raise CapExceeded(n, cap)
        return itertools.product(*(range(s) for s in self.sizes))


class CostTable:
    """Dense m-ary table of extended costs."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        self.shape = tuple(int(s) for s in shape)
        self.entries = list(entries)
        n = 1
        for s in self.shape:
            n *= s
        if len(self.entries) != n:
            raise VcspError(
                f"table of shape {self.shape} needs {n} entries, "
                f"got {len(self.entries)}"
            )
        for e in self.entries:
            if is_finite(e) and e < 0:
                raise VcspError("costs must be non-negative")

    @property
    def arity(self):
        return len(self.shape)

    @classmethod
    def from_function(cls, shape, fn):
        shape = tuple(shape)
        entries = [fn(*t) for t in itertools.product(*(range(s) for s in shape))]
        return cls(shape, entries)

    @classmethod
    def relation(cls, shape, tuples):
        """Crisp table: 0 on the given tuples, INF elsewhere."""
        tuples = set(tuples)
        return cls.from_function(shape, lambda *t: 0 if t in tuples else INF)

    def _index(self, key):
        idx = 0
        for s, k in zip(self.shape, key):
            if not 0 <= k < s:
                raise VcspError(f"label {k} out of range for size {s}")
            idx = idx * s + k
        return idx

    def __getitem__(self, key):
        if len(key) != len(self.shape):
            raise VcspError("wrong number of arguments for table lookup")
        return self.entries[self._index(key)]

    def tuples(self):
        return itertools.product(*(range(s) for s in self.shape))

    def dom(self):
        """Tuples with finite cost, in lexicographic order."""
        return [t for t, e in zip(self.tuples(), self.entries) if is_finite(e)]

    def is_crisp(self):
        return all(e is INF or e == 0 for e in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, CostTable)
            and self.shape == other.shape
            and self.entries == other.entries
        )


@dataclass(frozen=True)
class Term:
    table: CostTable
    scope: tuple

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(int(i) for i in self.scope))
        if len(self.scope) != self.table.arity:
            raise VcspError("scope length must equal table arity")


def merge_repeated(term):
    """Rewrite a term so no variable repeats in its scope."""
    distinct = sorted(set(term.scope))
    if len(distinct) == len(term.scope):
        return term
    labels = np.indices([term.table.shape[term.scope.index(v)]
                         for v in distinct])
    flat = np.arange(len(term.table.entries)).reshape(term.table.shape)[
        tuple(labels[distinct.index(v)] for v in term.scope)]
    return Term(CostTable(flat.shape, [term.table.entries[i]
                                       for i in flat.ravel().tolist()]),
                tuple(distinct))


#: Scaled exact costs below _INT64_LIMIT are held in int64, where INF reads
#: as _INT64_INF: above any sum of three finite costs, and a sum of three of
#: it stays below 2**63.
_INT64_LIMIT = 1 << 59
_INT64_INF = 1 << 61


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


class ScaledCosts:
    """The cost tables of a list of terms, scaled and grouped once; each
    ``Instance`` holds its own as ``costs``, and every stage reads it.

    ``scale`` is the LCM of every denominator (``integer_costs``), or None
    when some cost is not exact.  ``groups`` hold the terms by table shape,
    in the order of their first terms, each as ``(term indices, shape,
    costs [term, entry], feasible [term, entry], scopes [term, position],
    tol [term])``.  With a ``scale`` and every scaled cost below 2**59, the
    costs are int64 with INF read as 2**61, so that a sum holding INF
    exceeds every sum of three finite costs and no sum of three overflows.
    Otherwise the scaled costs, or without a ``scale`` the tables' own
    values, go into an object array, INF included.  ``tol`` is None with a
    ``scale``; without one it holds each table's ``tolerance``, 0 for an
    exact table, within which its sums compare.
    """

    def __init__(self, terms):
        members = {}
        for idx, term in enumerate(terms):
            members.setdefault(term.table.shape, []).append(idx)
        flat = list(itertools.chain.from_iterable(
            terms[i].table.entries for idxs in members.values() for i in idxs))
        self.scale, (scaled,) = integer_costs([flat])
        feasible = np.fromiter(map(operator.is_not, flat, itertools.repeat(
            INF)), bool, len(flat))
        values = np.array(scaled, dtype=object)
        if self.scale is not None and values[feasible].max(
                initial=0) < _INT64_LIMIT:
            values = np.where(feasible, values, _INT64_INF).astype(np.int64)
        scopes = np.fromiter(itertools.chain.from_iterable(
            terms[i].scope for idxs in members.values() for i in idxs),
            np.intp)
        self.groups = []
        entry = position = 0
        for shape, idxs in members.items():
            entries_at = slice(entry, entry + len(idxs) * math.prod(shape))
            scopes_at = slice(position, position + len(idxs) * len(shape))
            entry, position = entries_at.stop, scopes_at.stop
            costs = values[entries_at].reshape(len(idxs), -1)
            tol = None if self.scale is not None else np.array(
                [tolerance(row) for row in costs], dtype=object)
            self.groups.append((
                idxs, shape, costs, feasible[entries_at].reshape(len(idxs), -1),
                scopes[scopes_at].reshape(len(idxs), len(shape)), tol))

    @functools.cached_property
    def masks(self):
        """The feasible sets of the terms per arity k, in the order of the
        arities' first groups, as ``{k: (term indices in term order, scopes
        [T, k], masks [T, D_1, ..., D_k])}``, padded with False to the
        largest table extents of the arity; the masks of an arity held by
        one group are its own."""
        by_arity = {}
        for idxs, shape, _, feasible, scopes, _ in self.groups:
            by_arity.setdefault(len(shape), []).append(
                (idxs, shape, feasible.reshape((-1,) + shape), scopes))
        out = {}
        for k, parts in by_arity.items():
            idxs, _, masks, scopes = parts[0]
            if len(parts) > 1:
                idxs = sorted(i for part in parts for i in part[0])
                masks = np.zeros((len(idxs),) + tuple(map(max, zip(*(
                    part[1] for part in parts)))), dtype=bool)
                scopes = np.zeros((len(idxs), k), dtype=np.intp)
                for members, shape, part, part_scopes in parts:
                    at = np.searchsorted(idxs, members)
                    masks[(at,) + tuple(map(slice, shape))] = part
                    scopes[at] = part_scopes
            out[k] = idxs, scopes, masks
        return out

    def infeasible_constant(self):
        """True when a constant term (one over no variable) is INF."""
        return any(not shape and not feasible.all()
                   for _, shape, _, feasible, _, _ in self.groups)

    def cost(self, x):
        """The sum of every table at assignment ``x``, one gather per group:
        an exact Python int in scaled units when there is a ``scale``, else
        the sum of the Python values; INF when some entry there is."""
        x = np.asarray(x, dtype=np.intp)
        total = 0
        for _, shape, costs, feasible, scopes, _ in self.groups:
            at = np.arange(len(costs)), x[scopes] @ _layout(shape)[1]
            if not feasible[at].all():
                return INF
            total = total + sum(costs[at].tolist())
        return total


class Instance:
    """A sum of cost-function terms over finite-domain variables, with its
    term store ``costs`` and ``merged``, the instance of its terms after
    ``merge_repeated`` (itself when no scope repeats a variable)."""

    def __init__(self, domains, terms):
        self.domains = domains
        self.terms = []
        for t in terms:
            if not isinstance(t, Term):
                t = Term(*t)
            for pos, i in enumerate(t.scope):
                if not 0 <= i < domains.variable_count:
                    raise VcspError(f"scope variable {i} out of range")
                if t.table.shape[pos] != domains.sizes[i]:
                    raise VcspError(
                        f"table argument {pos} has size {t.table.shape[pos]}, "
                        f"variable {i} has domain size {domains.sizes[i]}"
                    )
            self.terms.append(t)
        self.costs = ScaledCosts(self.terms)
        self.merged = self if all(
            len(set(t.scope)) == len(t.scope) for t in self.terms
        ) else Instance(domains, [merge_repeated(t) for t in self.terms])

    def evaluate(self, x):
        """Total cost of assignment ``x``; INF absorbs."""
        if len(x) != self.domains.variable_count:
            raise VcspError("assignment length does not match variable count")
        for i, v in enumerate(x):
            if not 0 <= v < self.domains.sizes[i]:
                raise VcspError(f"label {v} out of range for variable {i}")
        total = 0
        for t in self.terms:
            total = total + t.table[tuple(x[i] for i in t.scope)]
            if total is INF:
                return INF
        return total

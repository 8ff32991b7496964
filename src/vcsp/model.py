"""Instances: domains, cost tables, terms, evaluation and enumeration.

Variables are indexed 0..V-1 and labels 0..|D_i|-1.  Domains may differ per
variable.  Tables are dense; desk-scale arities and domain sizes make that the
simplest exact representation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .costs import INF, is_finite
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


class Instance:
    """A sum of cost-function terms over finite-domain variables."""

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

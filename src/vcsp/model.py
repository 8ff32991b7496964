"""Instances: domains, cost tables, terms, evaluation and enumeration.

Variables are indexed 0..V-1 and labels 0..|D_i|-1.  Domains may differ per
variable.  Tables are dense; desk-scale arities and domain sizes make that the
simplest exact representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    scope = term.scope
    distinct = sorted(set(scope))
    if len(distinct) == len(scope):
        return term
    positions = {v: [p for p, w in enumerate(scope) if w == v] for v in distinct}
    shape = tuple(term.table.shape[positions[v][0]] for v in distinct)

    def entry(*vals):
        full = [None] * len(scope)
        for v, val in zip(distinct, vals):
            for p in positions[v]:
                full[p] = val
        return term.table[tuple(full)]

    return Term(CostTable.from_function(shape, entry), tuple(distinct))


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

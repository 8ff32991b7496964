"""Unary/binary relation networks and strong 3-consistency enforcement.

Relations are boolean numpy matrices; the network stores one matrix per
unordered variable pair and exposes both orientations as transposes, so the
symmetry invariant holds by construction.
"""

from __future__ import annotations

import itertools

import numpy as np

from .costs import is_finite
from .errors import CapExceeded, StageError, VcspError
from .model import (DEFAULT_CAP, CostTable, DomainSpec, Instance, Term,
                    merge_repeated)


def image(rel, labels, forward=True):
    """Forward image of a label set under a relation matrix (or backward)."""
    if not forward:
        rel = rel.T
    out = set()
    for x in labels:
        out.update(int(y) for y in np.flatnonzero(rel[x]))
    return out


def compose(rel_a, rel_b):
    """Relational composition; boolean matrix product semantics."""
    if rel_a.shape[1] != rel_b.shape[0]:
        raise VcspError("middle domains of a composition must match")
    return (rel_a.astype(np.int64) @ rel_b.astype(np.int64)) > 0


class BinaryNetwork:
    """Unary relations plus a total family of symmetric binary relations."""

    def __init__(self, domains):
        self.domains = domains
        self.unary = [np.ones(s, dtype=bool) for s in domains.sizes]
        self.binary = {}
        n = domains.variable_count
        for i in range(n):
            for j in range(i + 1, n):
                self.binary[(i, j)] = np.ones(
                    (domains.sizes[i], domains.sizes[j]), dtype=bool)

    def rel(self, i, j):
        """Relation from i to j; the reverse orientation is the transpose."""
        if i == j:
            raise VcspError("binary relations require distinct variables")
        if i < j:
            return self.binary[(i, j)]
        return self.binary[(j, i)].T

    def intersect(self, i, j, mat):
        if i < j:
            self.binary[(i, j)] &= mat
        else:
            self.binary[(j, i)] &= mat.T

    def copy(self):
        out = BinaryNetwork.__new__(BinaryNetwork)
        out.domains = self.domains
        out.unary = [u.copy() for u in self.unary]
        out.binary = {k: v.copy() for k, v in self.binary.items()}
        return out

    def equal(self, other):
        return (
            all(np.array_equal(a, b) for a, b in zip(self.unary, other.unary))
            and all(np.array_equal(self.binary[k], other.binary[k])
                    for k in self.binary))

    def is_empty(self):
        return any(not u.any() for u in self.unary)

    def dump(self):
        """Diagnostic text: one line per relation, row-major bit-strings."""
        lines = []
        for i, u in enumerate(self.unary):
            bits = "".join("1" if b else "0" for b in u)
            lines.append(f"unary {i + 1} {bits}")
        for (i, j), mat in sorted(self.binary.items()):
            bits = "".join("1" if b else "0" for b in mat.ravel())
            lines.append(f"binary {i + 1} {j + 1} {bits}")
        return "\n".join(lines)


def decompose_instance(instance, cap=DEFAULT_CAP):
    """Project every term's feasible set onto its variables and variable pairs.

    Pairs never jointly constrained start as full products.
    """
    net = BinaryNetwork(instance.domains)
    for term in instance.terms:
        size = 1
        for s in term.table.shape:
            size *= s
        if size > cap:
            raise CapExceeded(size, cap)
        dom = term.table.dom()
        scope = term.scope
        positions = {}
        for pos, var in enumerate(scope):
            positions.setdefault(var, []).append(pos)
        for var, poss in positions.items():
            mask = np.zeros(instance.domains.sizes[var], dtype=bool)
            for t in dom:
                vals = {t[p] for p in poss}
                if len(vals) == 1:
                    mask[t[poss[0]]] = True
            # a tuple assigning two labels to the same variable never realizes
            net.unary[var] &= mask
        vars_sorted = sorted(positions)
        for ai, i in enumerate(vars_sorted):
            for j in vars_sorted[ai + 1:]:
                mat = np.zeros(
                    (instance.domains.sizes[i], instance.domains.sizes[j]),
                    dtype=bool)
                for t in dom:
                    vi = {t[p] for p in positions[i]}
                    vj = {t[p] for p in positions[j]}
                    if len(vi) == 1 and len(vj) == 1:
                        mat[t[positions[i][0]], t[positions[j][0]]] = True
                net.intersect(i, j, mat)
    return net


def enforce_strong_3_consistency(net, rng=None):
    """Greatest fixed point of arc and path pruning.

    Returns (new network, emptiness flag).  ``rng`` only permutes the
    processing order; the fixed point is order-independent.
    """
    net = net.copy()
    n = net.domains.variable_count
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    path_tasks = [(i, j, k) for (i, j) in pairs for k in range(n)
                  if k != i and k != j]
    changed = True
    while changed:
        changed = False
        arc_order = list(pairs)
        path_order = list(path_tasks)
        if rng is not None:
            rng.shuffle(arc_order)
            rng.shuffle(path_order)
        for i, j in arc_order:
            mat = net.rel(i, j)
            restricted = mat & np.outer(net.unary[i], net.unary[j])
            if not np.array_equal(restricted, mat):
                net.intersect(i, j, restricted)
                changed = True
            mat = net.rel(i, j)
            sup_i = mat.any(axis=1)
            sup_j = mat.any(axis=0)
            if not np.array_equal(net.unary[i] & sup_i, net.unary[i]):
                net.unary[i] &= sup_i
                changed = True
            if not np.array_equal(net.unary[j] & sup_j, net.unary[j]):
                net.unary[j] &= sup_j
                changed = True
        for i, j, k in path_order:
            witness = compose(net.rel(i, k), net.rel(k, j))
            mat = net.rel(i, j)
            pruned = mat & witness
            if not np.array_equal(pruned, mat):
                net.intersect(i, j, pruned)
                changed = True
    return net, net.is_empty()


def certify_decomposition(instance):
    """Per-term certificate that binary networks capture the feasible set.

    After merging repeated scope variables, each term's feasible set must
    equal the join of its own unary and binary projections; terms over one
    or two variables pass trivially.  When every term passes, the network of
    ``decompose_instance`` has exactly the globally feasible assignments as
    solutions, and strong 3-consistency keeps that solution set, so this
    implies ``certify_decomposition_exhaustive``.  A relation with a majority
    polymorphism always passes (Baker-Pixley).  The cost is exponential in
    term arity only.
    """
    for term in instance.terms:
        if 0 < len(set(term.scope)) <= 2:
            continue
        table = merge_repeated(term).table
        feasible = np.fromiter((is_finite(e) for e in table.entries),
                               dtype=bool, count=len(table.entries))
        feasible = feasible.reshape(table.shape)
        joined = np.ones(table.shape, dtype=bool)
        for a, b in itertools.combinations(range(table.arity), 2):
            others = tuple(p for p in range(table.arity) if p not in (a, b))
            joined &= feasible.any(axis=others, keepdims=True)
        if not np.array_equal(joined, feasible):
            return False
    return True


def certify_decomposition_exhaustive(net, instance, cap=DEFAULT_CAP):
    """Verify that network membership coincides with global feasibility.

    Enumerates every assignment; the reference oracle for the per-term
    ``certify_decomposition`` and the ``--paranoid`` stage-1 check.
    """
    n = instance.domains.variable_count
    for x in instance.domains.assignments(cap=cap):
        in_net = all(net.unary[i][x[i]] for i in range(n)) and all(
            net.rel(i, j)[x[i], x[j]]
            for i in range(n) for j in range(i + 1, n))
        if in_net != is_finite(instance.evaluate(x)):
            return False
    return True


def run_stage1(instance, ops, cap=DEFAULT_CAP, paranoid=False):
    """Stage 1: decompose, enforce strong 3-consistency, certify, restrict.

    Returns ``None`` when consistency empties a domain (the instance is
    infeasible).  Otherwise returns ``(keep, instance_r, ops_r, net_r)``:
    the surviving labels per variable and the instance, normalized
    operation system and network re-indexed to them.  ``cap`` bounds the
    size of each term table and, under ``paranoid``, the exhaustive scan
    that cross-checks the per-term certificate.
    """
    net = decompose_instance(instance, cap=cap)
    net, empty = enforce_strong_3_consistency(net)
    if empty:
        return None
    if not certify_decomposition(instance):
        raise StageError(
            "consistency",
            "binary decomposition does not capture the feasible set; "
            "the instance lacks the required majority structure")
    if paranoid and not certify_decomposition_exhaustive(net, instance,
                                                         cap=cap):
        raise StageError(
            "consistency",
            "network membership disagrees with global feasibility although "
            "every term passed the per-term certificate")
    keep = support_maps(net)
    return (keep, restrict_instance(instance, keep),
            restrict_operation_system(ops, keep).normalized(),
            restrict_network(net, keep))


def support_maps(net):
    """Per-variable sorted lists of surviving labels."""
    return [sorted(int(v) for v in np.flatnonzero(u)) for u in net.unary]


def restrict_network(net, keep):
    """Re-index the network to the shrunken domains given by ``keep``."""
    if any(not k for k in keep):
        raise VcspError("cannot restrict to an empty domain")
    domains = DomainSpec(tuple(len(k) for k in keep))
    out = BinaryNetwork(domains)
    n = domains.variable_count
    for i in range(n):
        out.unary[i] = net.unary[i][keep[i]].copy()
    for i in range(n):
        for j in range(i + 1, n):
            out.binary[(i, j)] = net.rel(i, j)[np.ix_(keep[i], keep[j])].copy()
    return out


def restrict_instance(instance, keep):
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


def restrict_operation_system(ops, keep):
    """Re-index pair/triple tables and the pair set to the shrunken domains."""
    from .operations import BinaryPair, MjnTriple, OperationSystem, PairSet, TernaryOp

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

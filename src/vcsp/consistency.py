"""Unary/binary relation networks and strong 3-consistency enforcement.

A network over n variables is one boolean array ``R[i, j, a, b]``.  Labels
are padded to the largest domain and padded labels are always False;
``R[i, i]`` is the diagonal matrix of variable i's unary relation, and
``R[j, i]`` is always the transpose of ``R[i, j]``.  Strong 3-consistency
is then the single path-consistency rule ``R_ij <= R_ik o R_kj`` over all
triples (Montanari 1974; Mackworth 1977): k = i or k = j restricts a binary
relation to its unary domains, i = j keeps only supported labels, and
distinct i, j, k prune paths.
"""

from __future__ import annotations

import numpy as np

from .costs import is_finite
from .errors import CapExceeded, StageError, VcspError
from .model import (DEFAULT_CAP, CostTable, DomainSpec, Instance, Term,
                    arity_masks)


def compose(rel_a, rel_b):
    """Relational composition of matrices or broadcast stacks of them."""
    if rel_a.shape[-1] != rel_b.shape[-2]:
        raise VcspError("middle domains of a composition must match")
    return (rel_a.astype(np.int64) @ rel_b.astype(np.int64)) > 0


class BinaryNetwork:
    """Every unary and binary relation in one padded array ``R``."""

    def __init__(self, domains):
        self.domains = domains
        sizes = np.array(domains.sizes, dtype=np.int64)
        live = np.arange(max(domains.sizes, default=0)) < sizes[:, None]
        self.R = live[:, None, :, None] & live[None, :, None, :]
        diag = np.arange(len(sizes))
        self.R[diag, diag] &= np.eye(live.shape[1], dtype=bool)

    def rel(self, i, j):
        """Relation from i to j; ``rel(j, i)`` is its transpose."""
        return self.R[i, j, :self.domains.sizes[i], :self.domains.sizes[j]]

    @property
    def unary(self):
        """Read-only views of each variable's unary relation."""
        return [self.R[i, i, :s, :s].diagonal()
                for i, s in enumerate(self.domains.sizes)]

    def copy(self):
        out = BinaryNetwork.__new__(BinaryNetwork)
        out.domains = self.domains
        out.R = self.R.copy()
        return out

    def equal(self, other):
        return np.array_equal(self.R, other.R)

    def is_empty(self):
        return any(not u.any() for u in self.unary)

    def dump(self):
        """Diagnostic text: one line per relation, row-major bit-strings."""
        def bits(mat):
            return "".join("1" if b else "0" for b in mat.ravel())

        n = self.domains.variable_count
        return "\n".join(
            [f"unary {i + 1} {bits(u)}" for i, u in enumerate(self.unary)]
            + [f"binary {i + 1} {j + 1} {bits(self.rel(i, j))}"
               for i in range(n) for j in range(i + 1, n)])


def _projections(masks, p, q):
    """``masks`` [term, ...] projected onto axes p <= q, ``keepdims``."""
    return masks.any(axis=tuple(1 + r for r in range(masks.ndim - 1)
                                if r not in (p, q)), keepdims=True)


def decompose_instance(instance, cap=DEFAULT_CAP):
    """Project every term's feasible set onto its variables and variable pairs.

    Terms are projected as ``instance.merged`` holds them, so a tuple giving
    one variable two labels never counts.  Pairs never jointly constrained
    start as full products.  Per arity group of the merged instance's
    ``arity_masks`` and axis pair p <= q, one unbuffered AND-reduction
    narrows the blocks ``R[i, j]`` and one their transposes ``R[j, i]``; for
    p = q, the diagonal of ``R[i, i]``.
    """
    for size in (len(t.table.entries) for t in instance.terms):
        if size > cap:
            raise CapExceeded(size, cap)
    net = BinaryNetwork(instance.domains)
    for _, scopes, masks in arity_masks(instance.merged.costs.groups):
        shape = masks.shape[1:]
        for p in range(len(shape)):
            diag = np.arange(shape[p])
            np.logical_and.at(net.R, (scopes[:, p, None],) * 2 + (diag,) * 2,
                              _projections(masks, p, p).reshape(-1, shape[p]))
            for q in range(p + 1, len(shape)):
                proj = _projections(masks, p, q).reshape(-1, shape[p], shape[q])
                for a, b, rel in ((p, q, proj), (q, p, proj.swapaxes(1, 2))):
                    np.logical_and.at(net.R[:, :, :shape[a], :shape[b]],
                                      (scopes[:, a], scopes[:, b]), rel)
    return net


def enforce_strong_3_consistency(net, rng=None):
    """Greatest fixed point of ``R_ij <= R_ik o R_kj`` over all i, j, k.

    Each step applies the rule for one k to every pair (i, j) at once; sweeps
    over k repeat until nothing changes.  Returns (new network, emptiness
    flag).  ``rng`` only permutes the order of k; the fixed point is
    order-independent.
    """
    net = net.copy()
    R = net.R
    order = list(range(net.domains.variable_count))
    changed = True
    while changed:
        changed = False
        if rng is not None:
            rng.shuffle(order)
        for k in order:
            pruned = R & compose(R[:, k, None], R[None, k])
            if not np.array_equal(pruned, R):
                R[...] = pruned
                changed = True
    return net, net.is_empty()


def certify_decomposition(instance):
    """Per-term certificate that binary networks capture the feasible set.

    After merging repeated scope variables (``instance.merged``), each
    term's feasible set must equal the join of its own unary and binary
    projections; terms over one or two variables pass trivially.  When
    every term passes, the network of ``decompose_instance`` has exactly
    the globally feasible assignments as solutions, and strong
    3-consistency keeps that solution set, so this implies
    ``certify_decomposition_exhaustive``.  A relation with a majority
    polymorphism always passes (Baker-Pixley).  The cost is exponential in
    term arity only.
    """
    for _, _, masks in arity_masks([g for g in instance.merged.costs.groups
                                    if not 0 < len(g[1]) <= 2]):
        joined = np.ones_like(masks)
        for p in range(masks.ndim - 1):
            for q in range(p + 1, masks.ndim - 1):
                joined &= _projections(masks, p, q)
        if not np.array_equal(joined, masks):
            return False
    return True


def certify_decomposition_exhaustive(net, instance, cap=DEFAULT_CAP):
    """Verify that network membership coincides with global feasibility.

    Enumerates every assignment; the reference oracle for the per-term
    ``certify_decomposition`` and the ``--paranoid`` stage-1 check.
    """
    var = np.arange(instance.domains.variable_count)
    for x in instance.domains.assignments(cap=cap):
        labels = np.array(x, dtype=np.int64)
        in_net = net.R[np.ix_(var, var) + np.ix_(labels, labels)].all()
        if in_net != is_finite(instance.evaluate(x)):
            return False
    return True


def run_stage1(instance, ops, cap=DEFAULT_CAP, paranoid=False):
    """Stage 1: decompose, enforce strong 3-consistency, certify, restrict.

    Returns ``None`` when consistency empties a domain or a constant term
    is INF (the instance is infeasible).  Otherwise returns ``(keep,
    instance_r, ops_r, net_r)``: the surviving labels per variable and the
    instance, normalized operation system and network re-indexed to them.
    ``cap`` bounds the size of each term table and, under ``paranoid``, the
    exhaustive scan that cross-checks the per-term certificate.
    """
    net = decompose_instance(instance, cap=cap)
    net, empty = enforce_strong_3_consistency(net)
    if empty or instance.costs.infeasible_constant():
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
    return [np.flatnonzero(u).tolist() for u in net.unary]


def _kept_labels(keep, sizes):
    """The shrunken domains and every variable's kept labels as one array,
    padded with label 0 to the largest new domain; the labels are None when
    every variable keeps all its labels, in order."""
    domains = DomainSpec(tuple(len(k) for k in keep))
    if len(keep) == len(sizes) and all(
            list(k) == list(range(s)) for k, s in zip(keep, sizes)):
        return domains, None
    dmax = max(domains.sizes, default=0)
    return domains, np.array([list(k) + [0] * (dmax - len(k)) for k in keep],
                             dtype=np.intp)


def restrict_network(net, keep):
    """Re-index the network to the shrunken domains given by ``keep``; when
    no label is dropped or moved, the network is returned as it is."""
    if any(not k for k in keep):
        raise VcspError("cannot restrict to an empty domain")
    domains, labels = _kept_labels(keep, net.domains.sizes)
    if labels is None:
        return net
    out = BinaryNetwork(domains)
    var = np.arange(len(keep))
    # padded positions read label 0 and are masked off by out.R
    out.R &= net.R[var[:, None, None, None], var[None, :, None, None],
                   labels[:, None, :, None], labels[None, :, None, :]]
    return out


def restrict_instance(instance, keep):
    """Re-index an instance's tables to the shrunken domains.

    A term whose variables all keep every label, in order, is kept as it is;
    the others gather their new entries with one index into the old ones.
    When no variable drops or reorders a label, the instance is returned as
    it is.
    """
    identity = [list(k) == list(range(s))
                for k, s in zip(keep, instance.domains.sizes)]
    if len(keep) == len(identity) and all(identity):
        return instance
    domains = DomainSpec(tuple(len(k) for k in keep))
    terms = []
    for term in instance.terms:
        if all(identity[i] for i in term.scope):
            terms.append(term)
            continue
        table = term.table
        flat = np.arange(len(table.entries)).reshape(table.shape)[
            np.ix_(*(keep[i] for i in term.scope))]
        terms.append(Term(CostTable(flat.shape, [
            table.entries[i] for i in flat.ravel().tolist()]), term.scope))
    return Instance(domains, terms)


def restrict_operation_system(ops, keep):
    """Re-index pair/triple tables and the pair set to the shrunken domains.

    One gather reads the stacks and the mask at the kept labels, and the
    old-to-new label maps re-index the images.  When every variable keeps
    all its labels, in order, the system is returned as it is.
    """
    from .operations import BinaryPair, MjnTriple, OperationSystem, PairSet

    domains, labels = _kept_labels(keep, ops.domains.sizes)
    if labels is None:
        return ops
    # padded positions read label 0; the new objects re-pad them
    n, dmax = labels.shape
    rows, cols = np.nonzero(np.arange(dmax) < np.array(domains.sizes)[:, None])
    new = np.zeros(ops.pair.index_stacks().shape[1:3], dtype=np.intp)
    new[rows, labels[rows, cols]] = cols
    var = np.arange(n).reshape(-1, 1, 1)
    a, b = labels[:, :, None], labels[:, None, :]
    mask = ops.m.mask | ops.m.mask.swapaxes(1, 2)
    triple = ops.triple.index_stacks()[:, var[..., None], a[..., None],
                                       b[..., None], labels[:, None, None, :]]
    return OperationSystem(
        BinaryPair.of(domains, new[var, ops.pair.index_stacks()[:, var, a, b]]),
        MjnTriple.of(domains, new[var[..., None], triple]),
        PairSet.of(domains, mask[var, a, b]))

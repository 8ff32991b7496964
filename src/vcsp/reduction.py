"""Stage 2: rewriting the binary pair into a fully commutative one.

Each iteration seeds on a non-commutative label pair, grows a region (the
pivot variable k, a variable set U and label sets A_i, B_i) over the
consistent network, checks the structural invariants of that region, and then
rewrites the meet/join tables on A_i x B_i so the seed pair becomes
commutative.  The commutative pair set strictly grows, so the loop terminates
with a fully commutative conservative pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StageError
from .operations import (
    BinaryPair,
    OperationSystem,
    PairSet,
    ScaledCosts,
    check_binary_multimorphism,
    is_stp_on,
)


@dataclass
class ReductionState:
    k: int
    members: tuple
    a_sets: dict
    b_sets: dict

    def summary(self):
        return (f"k={self.k} U={sorted(self.members)} "
                f"A={{{', '.join(f'{i}:{sorted(self.a_sets[i])}' for i in sorted(self.members))}}} "
                f"B={{{', '.join(f'{i}:{sorted(self.b_sets[i])}' for i in sorted(self.members))}}}")


def find_seed(m):
    """Smallest (variable, pair) still outside m, or None when m is full."""
    return m.first_outside()


def grow_uab(seed, net):
    """Grow U and the A/B label families from a seed pair on the pivot.

    A_k and B_k are two rows over the labels of ``net.R``.  The first outside
    variable where their images are disjoint joins U, and each row is then
    closed under the union over U of ``R[k, i] o R[i, k]``.  That closure is
    monotone, so its fixed point is the set that adding one label at a time
    reaches.  A_i and B_i are the images of the final rows.
    """
    k, (a, b) = seed
    rel = net.R[k]
    sides = np.zeros((2, rel.shape[1]), dtype=bool)
    sides[0, a] = sides[1, b] = True
    inside = np.zeros(len(rel), dtype=bool)
    inside[k] = True
    back = np.zeros((rel.shape[1],) * 2, dtype=bool)
    while True:
        images = sides @ rel
        joins = ~(inside | (images[:, 0] & images[:, 1]).any(1))
        if not joins.any():
            break
        i = joins.argmax()
        inside[i] = True
        back |= rel[i] @ net.R[i, k]
        while True:
            grown = sides | sides @ back
            if (grown == sides).all():
                break
            sides = grown
    images[k] = sides
    members = np.flatnonzero(inside).tolist()
    sets = ({i: set() for i in members}, {i: set() for i in members})
    for r, side, label in np.argwhere(images[inside]).tolist():
        sets[side][members[r]].add(label)
    return ReductionState(k, tuple(members), *sets)


def check_region_invariants(state, net, m):
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
        for src, dst, sets in ((k, i, state.a_sets), (k, i, state.b_sets),
                               (i, k, state.a_sets), (i, k, state.b_sets)):
            got = net.R[src, dst][sorted(sets[src])].any(0)
            got, want = np.flatnonzero(got).tolist(), sorted(sets[dst])
            if got != want:
                return ("c", (i, got, want))
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        boundary = sorted(state.a_sets[i] | state.b_sets[i])
        rows = net.R[i, outside][:, boundary]
        # labels x of j that some, but not every, boundary label reaches
        partial = rows.any(1) != rows.all(1)
        if partial.any():
            j, x = np.unravel_index(partial.argmax(), partial.shape)
            return ("d", (i, outside[j], int(x),
                          boundary[rows[j, :, x].argmin()]))
    return None


def apply_modification(state, ops):
    """Make every A_i x B_i pair commutative and add it to the pair set,
    in one copy of the pair's stacks and of M's mask (A_i and B_i are
    disjoint, so no two entries written collide)."""
    i, a, b = np.array([(i, a, b) for i in state.members
                        for a in state.a_sets[i] for b in state.b_sets[i]],
                       dtype=np.intp).reshape(-1, 3).T
    meet, join = stacks = ops.pair.index_stacks().copy()
    meet[i, a, b] = meet[i, b, a] = a
    join[i, a, b] = join[i, b, a] = b
    mask = ops.m.mask.copy()
    mask[i, np.minimum(a, b), np.maximum(a, b)] = True
    return OperationSystem(BinaryPair.of(ops.domains, stacks), ops.triple,
                           PairSet.of(ops.domains, mask))


def scan_pair_coupling(net, m):
    """Network-wide coupling of non-commutative pairs across a relation.

    A pair (a, b) of i outside M and labels a' != b' of j with ``R_ij``
    holding (a, a') and (b, b') violate when the cross entries (a, b') and
    (b, a') are neither both in ``R_ij`` nor both out of it with
    (a', b') outside M.  One block of masks per variable i.
    """
    outside = m.outside()
    mbar = outside | outside.swapaxes(1, 2)
    distinct = ~np.eye(net.R.shape[-1], dtype=bool)
    violations = []
    for i in range(net.domains.variable_count):
        pairs = np.argwhere(outside[i])
        ra, rb = net.R[i][:, pairs[:, 0]], net.R[i][:, pairs[:, 1]]
        cross_a, cross_b = ra[..., None, :], rb[..., :, None]
        bad = ra[..., :, None] & rb[..., None, :] & distinct
        bad &= (cross_a & cross_b) == (~(cross_a | cross_b) & mbar[:, None])
        bad[i] = False
        violations += [(i, j, tuple(pairs[p].tolist()), (x, y))
                       for j, p, x, y in np.argwhere(bad).tolist()]
    return violations


def scan_boundary_exchange(state, net):
    """Cross-boundary exchange property between U and its complement.

    For a member i, an outside j, a in A_i, b in B_i and c in A_i then B_i,
    labels x, y of j violate when ``R_ij`` holds (a, x), (b, x) and (c, y)
    but not all of (a, y), (b, y) and (c, x).  One block per member.
    """
    violations = []
    n = net.domains.variable_count
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        a_side = sorted(state.a_sets[i])
        b_side = sorted(state.b_sets[i])
        both = a_side + b_side
        rows = net.R[i, outside]
        ab = rows[:, a_side, None, None] & rows[:, None, b_side, None]
        c = rows[:, None, None, both]
        bad = ab[..., :, None] & c[..., None, :]
        bad &= ~(ab[..., None, :] & c[..., :, None])
        violations += [(i, outside[j], (a_side[p], b_side[q], both[r]), (x, y))
                       for j, p, q, r, x, y in np.argwhere(bad).tolist()]
    return violations


def run_stage2(instance, ops, net, paranoid=False, trace=None):
    """Iterate seed / grow / check / rewrite until the pair set is full.

    ``instance`` must already live on the shrunken, consistent domains
    described by ``net``.  Returns the final operation system; its pair is a
    fully commutative conservative pair and still satisfies the pairwise
    multimorphism inequality on every term, which is re-verified each
    iteration.
    """
    limit = PairSet.full(ops.domains).total_size() + 1
    costs = ScaledCosts(instance.terms)
    iteration = 0
    while True:
        seed = find_seed(ops.m)
        if seed is None:
            break
        iteration += 1
        if iteration > limit:
            raise StageError("reduce", "no progress; pair set stopped growing")
        if paranoid:
            bad = scan_pair_coupling(net, ops.m)
            if bad:
                raise StageError(
                    "reduce", f"network coupling scan failed: {bad[0]}",
                    witness=bad[0])
        state = grow_uab(seed, net)
        violation = check_region_invariants(state, net, ops.m)
        if violation is not None:
            raise StageError(
                "reduce",
                f"region invariant ({violation[0]}) violated: {violation[1]}; "
                f"state {state.summary()}",
                witness=violation)
        if paranoid:
            bad = scan_boundary_exchange(state, net)
            if bad:
                raise StageError(
                    "reduce", f"exchange scan failed: {bad[0]}", witness=bad[0])
        ops = apply_modification(state, ops)
        ok, hit = check_binary_multimorphism(costs, ops.pair)
        if not ok:
            raise StageError(
                "reduce", "rewritten pair is no longer a multimorphism of "
                f"term {hit[0]} at {hit[1]}", witness=hit)
        if trace is not None:
            k, (a, b) = seed
            trace.append(
                f"iter {iteration} k {k + 1} seed {a}:{b} "
                f"|U| {len(state.members)} "
                f"sumA {sum(len(state.a_sets[i]) for i in state.members)} "
                f"sumB {sum(len(state.b_sets[i]) for i in state.members)}")
    ok, witness = is_stp_on(ops.pair)
    if not ok:
        raise StageError(
            "reduce", f"final pair is not fully commutative: {witness}",
            witness=witness)
    return ops

"""Stage 2: rewriting the binary pair into a fully commutative one.

Each iteration seeds on a non-commutative label pair, grows a region (the
pivot variable k, a variable set U and label sets A_i, B_i) over the
consistent network, checks the structural invariants of that region, and then
rewrites the meet/join tables on A_i x B_i so the seed pair becomes
commutative.  The commutative pair set strictly grows, so the loop terminates
with a fully commutative conservative pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consistency import image
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
    """Grow U and the A/B label families from a seed pair on the pivot."""
    k, (a, b) = seed
    n = net.domains.variable_count
    a_sets = {k: {a}}
    b_sets = {k: {b}}
    members = [k]

    def refresh(sets):
        for j in members:
            if j != k:
                sets[j] = image(net.rel(k, j), sets[k])

    def close(sets):
        size = net.domains.sizes[k]
        while True:
            extended = False
            for cand in range(size):
                if cand in sets[k]:
                    continue
                if any(cand in image(net.rel(i, k), sets[i])
                       for i in members if i != k):
                    sets[k].add(cand)
                    refresh(sets)
                    extended = True
                    break
            if not extended:
                return

    while True:
        pick = None
        for i in range(n):
            if i in members:
                continue
            img_a = image(net.rel(k, i), a_sets[k])
            img_b = image(net.rel(k, i), b_sets[k])
            if not (img_a & img_b):
                pick = (i, img_a, img_b)
                break
        if pick is None:
            break
        i, img_a, img_b = pick
        members.append(i)
        a_sets[i] = img_a
        b_sets[i] = img_b
        close(a_sets)
        close(b_sets)
    return ReductionState(k, tuple(sorted(members)), a_sets, b_sets)


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
        rel, back = net.rel(k, i), net.rel(i, k)
        checks = (
            (image(rel, state.a_sets[k]), state.a_sets[i]),
            (image(rel, state.b_sets[k]), state.b_sets[i]),
            (image(back, state.a_sets[i]), state.a_sets[k]),
            (image(back, state.b_sets[i]), state.b_sets[k]),
        )
        for got, want in checks:
            if got != want:
                return ("c", (i, sorted(got), sorted(want)))
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        boundary = sorted(state.a_sets[i] | state.b_sets[i])
        for j in outside:
            rel = net.rel(i, j)
            for x in range(net.domains.sizes[j]):
                hits = [c for c in boundary if rel[c, x]]
                if hits and len(hits) != len(boundary):
                    missing = next(c for c in boundary if not rel[c, x])
                    return ("d", (i, j, x, missing))
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
    """Network-wide coupling of non-commutative pairs across a relation."""
    violations = []
    n = net.domains.variable_count
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rel = net.rel(i, j)
            comp_i = m.complement(i)
            mbar_j = set(m.complement(j))
            for a, b in comp_i:
                for ap in range(net.domains.sizes[j]):
                    for bp in range(net.domains.sizes[j]):
                        if ap == bp:
                            continue
                        if not (rel[a, ap] and rel[b, bp]):
                            continue
                        cross = (bool(rel[a, bp]), bool(rel[b, ap]))
                        key = (ap, bp) if ap < bp else (bp, ap)
                        case_i = cross == (True, True)
                        case_ii = cross == (False, False) and key in mbar_j
                        if case_i == case_ii:
                            violations.append((i, j, (a, b), (ap, bp)))
    return violations


def scan_boundary_exchange(state, net):
    """Cross-boundary exchange property between U and its complement."""
    violations = []
    n = net.domains.variable_count
    outside = [j for j in range(n) if j not in state.members]
    for i in sorted(state.members):
        a_side = sorted(state.a_sets[i])
        b_side = sorted(state.b_sets[i])
        both = a_side + b_side
        for j in outside:
            rel = net.rel(i, j)
            for a in a_side:
                for b in b_side:
                    for c in both:
                        for x in range(net.domains.sizes[j]):
                            for y in range(net.domains.sizes[j]):
                                if rel[a, x] and rel[b, x] and rel[c, y]:
                                    if not (rel[a, y] and rel[b, y] and rel[c, x]):
                                        violations.append(
                                            (i, j, (a, b, c), (x, y)))
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

"""Seeded instance generators for the benchmark workloads.

These are the benchmark's own frozen copies: they import nothing from the
test suite, so a change to the test harness cannot silently change the
benchmark inputs.  Every generator takes the seeded ``random.Random`` (the
random families also a ``shape`` stream, see ``build``) and returns
``(instance, operation_system, layout)``; ``layout`` lists the variable
columns of a chain or ladder (for the transfer-matrix oracle) and is None
for the small random families, which the brute-force oracle covers.

Mixed-family tables are built only from blocks that keep both multimorphism
inequalities: unary tables, crisp relations closed under all five
operations, and min-marginals of such instances over auxiliary variables.
Chain and ladder tables are submodular under the numeric order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from vcsp.costs import INF
from vcsp.model import CostTable, DomainSpec, Instance, Term
from vcsp.operations import (
    BinaryPair,
    MjnTriple,
    OperationSystem,
    PairSet,
    TernaryOp,
    all_label_pairs,
)


# --- mixed family: random commutative split, majority/minority elsewhere ---

def _pair_tables_for_split(size, commuting, rng):
    meet = [[a if a == b else None for b in range(size)] for a in range(size)]
    join = [[a if a == b else None for b in range(size)] for a in range(size)]
    for a, b in all_label_pairs(size):
        if (a, b) in commuting:
            lo, hi = (a, b) if rng.random() < 0.5 else (b, a)
            meet[a][b] = meet[b][a] = lo
            join[a][b] = join[b][a] = hi
        elif rng.random() < 0.5:
            meet[a][b], meet[b][a] = a, b
            join[a][b], join[b][a] = b, a
        else:
            meet[a][b], meet[b][a] = b, a
            join[a][b], join[b][a] = a, b
    return meet, join


def random_system(rng, domains, mbar_everywhere=False):
    """Valid system with a random commutative split (or none) per variable."""
    members, meets, joins = [], [], []
    for size in domains.sizes:
        universe = all_label_pairs(size)
        if mbar_everywhere:
            chosen = set()
        else:
            chosen = {p for p in universe if rng.random() < 0.5}
        members.append(frozenset(chosen))
        meet, join = _pair_tables_for_split(size, chosen, rng)
        meets.append(meet)
        joins.append(join)
    return OperationSystem(BinaryPair(domains, meets, joins),
                           MjnTriple.canonical(domains),
                           PairSet(domains, tuple(members)))


def _close_under_system(tuples, system, scope):
    """Smallest superset closed under the pair and all triple components."""
    m = len(scope)
    binary = [[np.array(tables[i]) for i in scope]
              for tables in (system.pair.meet_tables, system.pair.join_tables)]
    ternary = [[np.array(op.tables[i]) for i in scope]
               for op in system.triple.ops]
    closed = set(tuples)
    while True:
        arr = np.array(sorted(closed))
        images = []
        for tabs in binary:
            images.append(np.stack(
                [tabs[p][arr[:, None, p], arr[None, :, p]] for p in range(m)],
                axis=-1).reshape(-1, m))
        for tabs in ternary:
            images.append(np.stack(
                [tabs[p][arr[:, None, None, p], arr[None, :, None, p],
                         arr[None, None, :, p]] for p in range(m)],
                axis=-1).reshape(-1, m))
        grown = closed | set(map(tuple, np.unique(
            np.concatenate(images), axis=0).tolist()))
        if len(grown) == len(closed):
            return closed
        closed = grown


def _closed_relation(rng, system, scope):
    shape = tuple(system.domains.sizes[i] for i in scope)
    space = list(itertools.product(*(range(s) for s in shape)))
    seeds = rng.sample(space, k=min(len(space), rng.randint(1, 3)))
    return CostTable.relation(shape, _close_under_system(seeds, system, scope))


def _unary(rng, size, hi=8):
    return CostTable((size,), [Fraction(rng.randint(0, hi)) for _ in range(size)])


def _marginal_table(rng, system, scope):
    """Min-marginal over one auxiliary variable of a valid helper instance."""
    aux_size = rng.randint(2, 3)
    ext_sizes = tuple(system.domains.sizes[i] for i in scope) + (aux_size,)
    ext_domains = DomainSpec(ext_sizes)
    aux = random_system(rng, DomainSpec((aux_size,)))
    ext = OperationSystem(
        BinaryPair(ext_domains,
                   [system.pair.meet_tables[i] for i in scope]
                   + [aux.pair.meet_tables[0]],
                   [system.pair.join_tables[i] for i in scope]
                   + [aux.pair.join_tables[0]]),
        MjnTriple.canonical(ext_domains),
        PairSet(ext_domains, tuple(system.m.members[i] for i in scope)
                + (aux.m.members[0],)))
    n_ext = len(ext_sizes)
    terms = [Term(_unary(rng, ext_sizes[v]), (v,)) for v in range(n_ext)]
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(range(n_ext), 2)
        terms.append(Term(_closed_relation(rng, ext, (a, b)), (a, b)))
    helper = Instance(ext_domains, terms)

    def entry(*vals):
        return min((helper.evaluate(vals + (z,)) for z in range(aux_size)),
                   default=INF)

    return CostTable.from_function(ext_sizes[:-1], entry)


def mixed_instance(rng, shape, max_vars=6, max_size=4):
    """Random split per variable, unary, crisp (arity 2-3) and marginal terms.

    ``shape`` draws the domain sizes, the operation system (its commutative
    split decides how much of stage 2 and of the fallback an instance
    needs) and the scopes of the terms; ``rng`` draws the term tables.
    """
    n = shape.randint(2, max_vars)
    sizes = tuple(shape.randint(2, max_size) for _ in range(n))
    domains = DomainSpec(sizes)
    system = random_system(shape, domains)
    terms = [Term(_unary(rng, sizes[v]), (v,))
             for v in range(n) if shape.random() < 0.7]
    for _ in range(shape.randint(1, 3)):
        arity = 3 if n >= 3 and shape.random() < 0.4 else 2
        scope = tuple(shape.sample(range(n), arity))
        terms.append(Term(_closed_relation(rng, system, scope), scope))
    for _ in range(shape.randint(1, 2)):
        scope = tuple(shape.sample(range(n), 2))
        terms.append(Term(_marginal_table(rng, system, scope), scope))
    return Instance(domains, terms), system, None


def boolean_mjn_instance(rng, shape, max_vars=5):
    """Boolean instance with no commutative pairs (pure majority/minority)."""
    n = shape.randint(2, max_vars)
    domains = DomainSpec((2,) * n)
    system = random_system(shape, domains, mbar_everywhere=True)
    terms = [Term(_unary(rng, 2), (v,))
             for v in range(n) if shape.random() < 0.7]
    for _ in range(shape.randint(1, 3)):
        arity = shape.choice([2, 3]) if n >= 3 else 2
        scope = tuple(shape.sample(range(n), arity))
        terms.append(Term(_closed_relation(rng, system, scope), scope))
    for _ in range(shape.randint(0, 2)):
        scope = tuple(shape.sample(range(n), 2))
        terms.append(Term(_marginal_table(rng, system, scope), scope))
    return Instance(domains, terms), system, None


# --- ordered families: submodular chains, ladders and Ising chains ---

def minmax_system(domains):
    """Numeric min/max pair, sorting triple, every label pair commutative."""
    def tables(pick):
        cubes = {d: [[[pick((x, y, z)) for z in range(d)] for y in range(d)]
                     for x in range(d)] for d in set(domains.sizes)}
        return TernaryOp(domains, [cubes[d] for d in domains.sizes])

    triple = MjnTriple(domains, tables(lambda t: sorted(t)[1]), tables(max),
                       tables(min))
    return OperationSystem(BinaryPair.min_max(domains), triple,
                           PairSet.full(domains))


def _submodular_table(rng, si, sj, hi=6):
    u = [rng.randint(0, hi) for _ in range(si)]
    v = [rng.randint(0, hi) for _ in range(sj)]
    alpha = [[-rng.randint(0, 3) for _ in range(sj - 1)] for _ in range(si - 1)]
    vals = [u[a] + v[b] + sum(alpha[l][m] for l in range(a) for m in range(b))
            for a in range(si) for b in range(sj)]
    shift = -min(min(vals), 0)
    return CostTable((si, sj), [Fraction(c + shift) for c in vals])


def ladder_instance(rng, width, columns, d=3):
    """Grid of ``columns`` x ``width`` variables; width 1 is a plain chain.

    Variable ``c * width + r`` sits in column c, row r.  Every variable has a
    unary term; vertical and horizontal neighbours share a submodular term.
    """
    n = width * columns
    domains = DomainSpec((d,) * n)
    terms = [Term(_unary(rng, d), (v,)) for v in range(n)]
    layout = [list(range(c * width, (c + 1) * width)) for c in range(columns)]
    for c, col in enumerate(layout):
        for r in range(width - 1):
            terms.append(Term(_submodular_table(rng, d, d), (col[r], col[r + 1])))
        if c + 1 < columns:
            for r in range(width):
                terms.append(Term(_submodular_table(rng, d, d),
                                  (col[r], layout[c + 1][r])))
    return Instance(domains, terms), minmax_system(domains), layout


def ising_instance(rng, n, far_end_prefers_zero):
    """Boolean chain: ferromagnetic couplings, opposing unaries at the ends.

    The first variable prefers 1 and the last 0 when ``far_end_prefers_zero``,
    and the reverse otherwise; every coupling costs 1..3 when its labels differ.
    """
    domains = DomainSpec((2,) * n)
    strong = Fraction(4 * n)
    prefers_one = CostTable((2,), [strong, Fraction(0)])
    prefers_zero = CostTable((2,), [Fraction(0), strong])
    first, last = ((prefers_one, prefers_zero) if far_end_prefers_zero
                   else (prefers_zero, prefers_one))
    terms = [Term(first, (0,)), Term(last, (n - 1,))]
    for v in range(n - 1):
        c = Fraction(rng.randint(1, 3))
        terms.append(Term(CostTable((2, 2), [Fraction(0), c, c, Fraction(0)]),
                          (v, v + 1)))
    return Instance(domains, terms), minmax_system(domains), [[v] for v in range(n)]


def build(rng, shape, spec):
    """One instance from a corpus entry of the workload configuration.

    ``rng`` follows the benchmark seed; ``shape`` is the same for every seed
    and fixes the sizes, operation system and term structure of the random
    families, so that seeds differ in the term tables but not in how much
    work an instance holds.
    """
    kind = spec["family"]
    if kind == "mixed":
        return mixed_instance(rng, shape)
    if kind == "boolean_mjn":
        return boolean_mjn_instance(rng, shape)
    if kind == "ladder":
        return ladder_instance(rng, spec["width"], spec["columns"])
    if kind == "ising":
        return ising_instance(rng, spec["vars"], spec["far_end_prefers_zero"])
    raise ValueError(f"unknown family {kind!r}")

"""Random generators for solver tests.

Operation systems are built from a random commutative/non-commutative split
of each variable's label pairs; cost tables are produced only from building
blocks that provably keep both multimorphism inequalities: unary tables
(always valid), crisp relations closed under all five operations, and
min-marginals of such instances over auxiliary variables (validity is
preserved by summation and minimisation).  Every generated table is verified
before use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vcsp.costs import INF, is_finite
from vcsp.model import CostTable, DomainSpec, Instance, Term
from vcsp.operations import (
    BinaryPair,
    MjnTriple,
    OperationSystem,
    PairSet,
    TernaryOp,
    all_label_pairs,
    check_binary_multimorphism,
    check_ternary_multimorphism,
    ternary_polymorphism_closed,
)


def pair_tables_for_split(size, commuting, rng):
    """Meet/join tables commutative exactly on ``commuting`` pairs."""
    meet = [[a if a == b else None for b in range(size)] for a in range(size)]
    join = [[a if a == b else None for b in range(size)] for a in range(size)]
    for a, b in all_label_pairs(size):
        if (a, b) in commuting:
            lo, hi = (a, b) if rng.random() < 0.5 else (b, a)
            meet[a][b] = meet[b][a] = lo
            join[a][b] = join[b][a] = hi
        elif rng.random() < 0.5:
            meet[a][b], meet[b][a] = a, b  # meet = first argument
            join[a][b], join[b][a] = b, a
        else:
            meet[a][b], meet[b][a] = b, a  # meet = second argument
            join[a][b], join[b][a] = a, b
    return meet, join


def random_system(rng, domains, mbar_everywhere=False, full_m=False):
    """A valid operation system with a random pair split per variable."""
    members = []
    meets, joins = [], []
    for size in domains.sizes:
        universe = all_label_pairs(size)
        if full_m:
            chosen = set(universe)
        elif mbar_everywhere:
            chosen = set()
        else:
            chosen = {p for p in universe if rng.random() < 0.5}
        members.append(frozenset(chosen))
        meet, join = pair_tables_for_split(size, chosen, rng)
        meets.append(meet)
        joins.append(join)
    system = OperationSystem(
        BinaryPair(domains, meets, joins),
        MjnTriple.canonical(domains),
        PairSet(domains, tuple(members)))
    system.validate()
    return system


def close_under_system(tuples, system, scope):
    """Close a tuple set under the pair and all triple components."""
    tuples = set(tuples)
    m = len(scope)
    while True:
        before = len(tuples)
        cur = sorted(tuples)
        for x in cur:
            for y in cur:
                tuples.add(tuple(
                    system.pair.meet(scope[p], x[p], y[p]) for p in range(m)))
                tuples.add(tuple(
                    system.pair.join(scope[p], x[p], y[p]) for p in range(m)))
        cur = sorted(tuples)
        for x, y, z in itertools.product(cur, repeat=3):
            for pos in range(3):
                tuples.add(tuple(
                    system.triple.apply(pos, scope[p], x[p], y[p], z[p])
                    for p in range(m)))
        if len(tuples) == before:
            return tuples


def random_closed_relation(rng, system, scope):
    """Crisp table on ``scope`` whose feasible set is closed under the system."""
    shape = tuple(system.domains.sizes[i] for i in scope)
    space = list(itertools.product(*(range(s) for s in shape)))
    seeds = rng.sample(space, k=min(len(space), rng.randint(1, 3)))
    closed = close_under_system(seeds, system, scope)
    return CostTable.relation(shape, closed)


def random_unary(rng, size, hi=8):
    return CostTable((size,), [Fraction(rng.randint(0, hi)) for _ in range(size)])


def random_marginal_table(rng, system, scope, aux_count=1):
    """Finite-or-infinite table as a min-marginal of a valid helper instance.

    The helper instance lives on the scope variables plus ``aux_count`` fresh
    auxiliary variables; both inequalities survive summation and
    minimisation, so the result is valid for the same per-variable
    operations on ``scope``.
    """
    base = system.domains
    aux_sizes = [rng.randint(2, 3) for _ in range(aux_count)]
    ext_sizes = tuple(base.sizes[i] for i in scope) + tuple(aux_sizes)
    ext_domains = DomainSpec(ext_sizes)

    members, meets, joins = [], [], []
    for p, i in enumerate(scope):
        members.append(system.m.members[i])
        meets.append(system.pair.meet_tables[i])
        joins.append(system.pair.join_tables[i])
    aux_rng_system = random_system(rng, DomainSpec(tuple(aux_sizes)))
    for p in range(aux_count):
        members.append(aux_rng_system.m.members[p])
        meets.append(aux_rng_system.pair.meet_tables[p])
        joins.append(aux_rng_system.pair.join_tables[p])
    ext_system = OperationSystem(
        BinaryPair(ext_domains, meets, joins),
        MjnTriple.canonical(ext_domains),
        PairSet(ext_domains, tuple(members)))
    ext_system.validate()

    n_ext = ext_domains.variable_count
    terms = []
    for v in range(n_ext):
        terms.append(Term(random_unary(rng, ext_sizes[v]), (v,)))
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(range(n_ext), 2)
        terms.append(Term(random_closed_relation(rng, ext_system, (a, b)),
                          (a, b)))
    helper = Instance(ext_domains, terms)

    aux_space = list(itertools.product(*(range(s) for s in aux_sizes)))

    def entry(*vals):
        best = INF
        for aux in aux_space:
            c = helper.evaluate(tuple(vals) + aux)
            if c < best:
                best = c
        return best

    shape = tuple(base.sizes[i] for i in scope)
    return CostTable.from_function(shape, entry)


def sorting_triple(domains):
    """(median, max, min) of the three arguments, per component.

    A multimorphism of every submodular function on a chain (sort the triple
    with three pairwise min/max comparators); with a full commutative pair
    set the majority/minority contract is vacuous, so only conservativity
    matters.
    """
    med = TernaryOp.from_function(domains, lambda i, x, y, z: sorted((x, y, z))[1])
    top = TernaryOp.from_function(domains, lambda i, x, y, z: max(x, y, z))
    bot = TernaryOp.from_function(domains, lambda i, x, y, z: min(x, y, z))
    return MjnTriple(domains, med, top, bot)


def minmax_system(domains):
    """Numeric min/max with the sorting triple; every pair commutative."""
    return OperationSystem(BinaryPair.min_max(domains),
                           sorting_triple(domains),
                           PairSet.full(domains))


def verify_term(system, term):
    ok, w = check_binary_multimorphism([term], system.pair)
    assert ok, f"generated table violates the pairwise inequality at {w}"
    if term.table.is_crisp():
        for comp in system.triple.ops:
            assert ternary_polymorphism_closed(
                comp, Instance(system.domains, [term])) == (True, None)
    else:
        ok, w = check_ternary_multimorphism([term], system.triple)
        assert ok, f"generated table violates the three-way inequality at {w}"


def _one_term(check, table, ops, scope):
    ok, hit = check([Term(table, scope)], ops)
    if ok:
        return True, None
    assert hit[0] == 0
    return False, hit[1]


def binary_on(table, pair, scope):
    """``check_binary_multimorphism`` on the one-term list [Term(table,
    scope)], as (ok, witness): the per-term form of the loops in
    ``oracles``."""
    return _one_term(check_binary_multimorphism, table, pair, scope)


def ternary_on(table, triple, scope):
    """``check_ternary_multimorphism`` on one term, as ``binary_on``."""
    return _one_term(check_ternary_multimorphism, table, triple, scope)


def random_instance(rng, max_vars=6, max_size=4, ternary=True):
    """A random instance together with a valid operation system for it."""
    n = rng.randint(2, max_vars)
    sizes = tuple(rng.randint(2, max_size) for _ in range(n))
    domains = DomainSpec(sizes)
    system = random_system(rng, domains)
    terms = []
    for v in range(n):
        if rng.random() < 0.7:
            terms.append(Term(random_unary(rng, sizes[v]), (v,)))
    for _ in range(rng.randint(1, 3)):
        arity = 2
        if ternary and n >= 3 and rng.random() < 0.4:
            arity = 3
        scope = tuple(rng.sample(range(n), arity))
        terms.append(Term(random_closed_relation(rng, system, scope), scope))
    for _ in range(rng.randint(1, 2)):
        scope = tuple(rng.sample(range(n), min(2, n)))
        table = random_marginal_table(rng, system, scope, aux_count=1)
        terms.append(Term(table, scope))
    instance = Instance(domains, terms)
    for term in instance.terms:
        verify_term(system, term)
    return instance, system


def mixed_chain(rng, n, d=3):
    """Path of ``n`` variables over d labels with a random commutative split
    (``random_system``): random unaries, and a crisp link between each pair
    of neighbours, closed under the system from 4-6 random seed tuples.
    Stage 2 rewrites its pair over regions that run along the path."""
    domains = DomainSpec((d,) * n)
    system = random_system(rng, domains)
    space = list(itertools.product(range(d), repeat=2))
    terms = [Term(random_unary(rng, d), (v,)) for v in range(n)]
    for v in range(n - 1):
        seeds = rng.sample(space, rng.randint(4, 6))
        closed = close_under_system(seeds, system, (v, v + 1))
        terms.append(Term(CostTable.relation((d, d), closed), (v, v + 1)))
    return Instance(domains, terms), system


def random_boolean_mjn_instance(rng, max_vars=5):
    """Boolean instance valid for the canonical triple with no commutative pairs."""
    n = rng.randint(2, max_vars)
    domains = DomainSpec((2,) * n)
    system = random_system(rng, domains, mbar_everywhere=True)
    terms = []
    for v in range(n):
        if rng.random() < 0.7:
            terms.append(Term(random_unary(rng, 2), (v,)))
    for _ in range(rng.randint(1, 3)):
        arity = rng.choice([2, 3]) if n >= 3 else 2
        scope = tuple(rng.sample(range(n), arity))
        terms.append(Term(random_closed_relation(rng, system, scope), scope))
    for _ in range(rng.randint(0, 2)):
        scope = tuple(rng.sample(range(n), 2))
        terms.append(Term(random_marginal_table(rng, system, scope), scope))
    instance = Instance(domains, terms)
    for term in instance.terms:
        verify_term(system, term)
    return instance, system


def random_submodular_table(rng, si, sj, hi=6):
    """Finite pairwise table submodular under the numeric order."""
    u = [Fraction(rng.randint(0, hi)) for _ in range(si)]
    v = [Fraction(rng.randint(0, hi)) for _ in range(sj)]
    alpha = [[Fraction(-rng.randint(0, 3)) for _ in range(sj - 1)]
             for _ in range(si - 1)]

    def entry(a, b):
        total = u[a] + v[b]
        for l in range(a):
            for m in range(b):
                total += alpha[l][m]
        return total

    vals = [entry(a, b) for a in range(si) for b in range(sj)]
    shift = -min(vals) if min(vals) < 0 else 0
    return CostTable((si, sj), [c + shift for c in vals])


def random_submodular_instance(rng, max_vars=8, max_size=5, crisp=True):
    """Binary submodular instance over numerically ordered domains."""
    n = rng.randint(2, max_vars)
    sizes = tuple(rng.randint(2, max_size) for _ in range(n))
    domains = DomainSpec(sizes)
    system = minmax_system(domains)
    terms = []
    for v in range(n):
        terms.append(Term(random_unary(rng, sizes[v]), (v,)))
    for _ in range(rng.randint(1, n)):
        i, j = rng.sample(range(n), 2)
        terms.append(Term(random_submodular_table(rng, sizes[i], sizes[j]),
                          (i, j)))
    if crisp:
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(n), 2)
            terms.append(Term(random_closed_relation(rng, system, (i, j)),
                              (i, j)))
    instance = Instance(domains, terms)
    for term in instance.terms:
        verify_term(system, term)
    return instance, system


def submodular_chain(rng, n, d=3):
    """Path of ``n`` variables over d labels: random unaries and submodular
    links, with the min/max system.  Its assignment space exceeds the
    default cap from n = 15 at d = 3."""
    return submodular_ladder(rng, 1, n, d)


def submodular_ladder(rng, width, columns, d=3):
    """Grid of ``columns`` x ``width`` variables over d labels, variable
    ``c * width + r`` in column c and row r: random unaries, and submodular
    links between vertical and horizontal neighbours, with the min/max
    system.  Width 1 is ``submodular_chain``."""
    domains = DomainSpec((d,) * (width * columns))
    terms = [Term(random_unary(rng, d), (v,)) for v in range(width * columns)]
    for v in range(width * columns):
        if v % width + 1 < width:
            terms.append(Term(random_submodular_table(rng, d, d), (v, v + 1)))
        if v + width < width * columns:
            terms.append(Term(random_submodular_table(rng, d, d),
                              (v, v + width)))
    return Instance(domains, terms), minmax_system(domains)


def random_majority_closed_instance(rng, max_vars=5, max_size=3):
    """Crisp binary instance whose relations are closed under the median."""
    n = rng.randint(3, max_vars)
    sizes = tuple(rng.randint(2, max_size) for _ in range(n))
    domains = DomainSpec(sizes)
    system = minmax_system(domains)
    terms = []
    for _ in range(rng.randint(2, n + 1)):
        i, j = rng.sample(range(n), 2)
        terms.append(Term(random_closed_relation(rng, system, (i, j)), (i, j)))
    return Instance(domains, terms)

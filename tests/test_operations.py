"""Operation algebra: pairs, triples, contracts and multimorphism checks."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsp import (
    BinaryPair,
    CostTable,
    DomainSpec,
    INF,
    Instance,
    MjnTriple,
    PairSet,
    StageError,
    Term,
    TernaryOp,
    ValidationError,
    build_majority,
    check_binary_multimorphism,
    check_ternary_multimorphism,
    extract_tournament_order,
    is_mjn_on,
    is_stp_on,
)
from vcsp.costs import FLOAT_TOL, integer_costs, is_finite, tolerance
from vcsp.model import ScaledCosts, merge_repeated
from vcsp.operations import (
    OperationSystem,
    _passes_min_max,
    all_label_pairs,
    check_instance_multimorphism,
    normalize_pairset,
    ternary_polymorphism_closed,
)
from vcsp.solvers import run_validate

from harness import (binary_on, minmax_system, pair_tables_for_split,
                     random_system, sorting_triple, ternary_on)
from oracles import (apply_pair, check_global_multimorphism,
                     check_polymorphism, classify_pair, cost_le,
                     loop_binary_multimorphism, loop_build_majority,
                     loop_is_mjn_on, loop_is_stp_on, loop_normalize_pairset,
                     loop_ternary_multimorphism)


def projection_pair(domains):
    """meet = first argument, join = second argument."""
    meets = [[[a for _ in range(s)] for a in range(s)] for s in domains.sizes]
    joins = [[[b for b in range(s)] for _ in range(s)] for s in domains.sizes]
    return BinaryPair(domains, meets, joins)


class TestApplyPair:
    def test_equal_arguments(self):
        d = DomainSpec((3, 3))
        pair = BinaryPair.min_max(d)
        assert apply_pair(pair, (2, 1), (2, 1)) == ((2, 1), (2, 1))

    def test_min_max_boolean(self):
        pair = BinaryPair.min_max(DomainSpec((2, 2)))
        assert apply_pair(pair, (0, 1), (1, 0)) == ((0, 0), (1, 1))

    def test_mixed_tables_componentwise(self):
        d = DomainSpec((2, 2, 3))
        mm = BinaryPair.min_max(d)
        pp = projection_pair(d)
        pair = BinaryPair(
            d,
            [mm.meet_tables[0], pp.meet_tables[1], mm.meet_tables[2]],
            [mm.join_tables[0], pp.join_tables[1], mm.join_tables[2]])
        x, y = (1, 0, 2), (0, 1, 1)
        lo, hi = apply_pair(pair, x, y)
        # check every component against a direct table lookup
        for i, (want_lo, want_hi) in enumerate(zip(lo, hi)):
            assert want_lo == pair.meet_tables[i][x[i]][y[i]]
            assert want_hi == pair.join_tables[i][x[i]][y[i]]


class TestClassifyPair:
    def test_min_max_all_commutative(self):
        pair = BinaryPair.min_max(DomainSpec((4,)))
        assert all(classify_pair(pair, 0).values())

    def test_projection_all_non_commutative(self):
        pair = projection_pair(DomainSpec((3,)))
        assert not any(classify_pair(pair, 0).values())

    def test_mixed_three_label_table(self):
        # commutative only on {0,1}: min/max there, projections elsewhere
        meet, join = pair_tables_for_split(3, {(0, 1)}, random.Random(0))
        pair = BinaryPair(DomainSpec((3,)), [meet], [join])
        got = classify_pair(pair, 0)
        assert got == {(0, 1): True, (0, 2): False, (1, 2): False}

    def test_non_conservative_raises_with_witness(self):
        pair = BinaryPair(DomainSpec((2,)), [[[0, 0], [0, 0]]], [[[0, 0], [0, 0]]])
        with pytest.raises(ValidationError) as exc:
            classify_pair(pair, 0)
        assert exc.value.witness == (0, 0, 1)


class TestIsStpOn:
    def test_min_max_full(self):
        d = DomainSpec((3, 2))
        ok, w = is_stp_on(BinaryPair.min_max(d), PairSet.full(d))
        assert ok and w is None

    def test_projection_full_fails(self):
        d = DomainSpec((2,))
        ok, w = is_stp_on(projection_pair(d), PairSet.full(d))
        assert not ok
        assert w == (0, (0, 1), "not commutative")

    def test_projection_empty_m_passes(self):
        d = DomainSpec((3,))
        ok, _ = is_stp_on(projection_pair(d), PairSet.empty(d))
        assert ok


class TestIsMjnOn:
    def test_canonical_minority(self):
        triple = MjnTriple.canonical(DomainSpec((2,)))
        assert triple.apply(2, 0, 0, 1, 1) == 0

    def test_canonical_majority(self):
        triple = MjnTriple.canonical(DomainSpec((2,)))
        assert triple.apply(0, 0, 0, 1, 1) == 1

    def test_canonical_validates_on_full_complement(self):
        d = DomainSpec((3, 2))
        ok, _ = is_mjn_on(MjnTriple.canonical(d), PairSet.full(d))
        assert ok

    def test_distinct_triples_only_need_conservativity(self):
        # on three distinct values, return the smallest argument: not any
        # majority rule, but still conservative
        d = DomainSpec((3,))

        def comp(i, a, b, c):
            if len({a, b, c}) == 3:
                return min(a, b, c)
            counts = {v: (a, b, c).count(v) for v in {a, b, c}}
            return max(counts, key=counts.get)

        def minority(i, a, b, c):
            if len({a, b, c}) == 3:
                return min(a, b, c)
            counts = {v: (a, b, c).count(v) for v in {a, b, c}}
            return min(counts, key=counts.get)

        op = TernaryOp.from_function(d, comp)
        mn = TernaryOp.from_function(d, minority)
        ok, _ = is_mjn_on(MjnTriple(d, op, op, mn), PairSet.full(d))
        assert ok

    def test_non_conservative_rejected(self):
        d = DomainSpec((2,))
        bad = TernaryOp.from_function(d, lambda i, a, b, c: 0)
        ok, w = is_mjn_on(MjnTriple(d, bad, bad, bad), PairSet.empty(d))
        assert not ok
        assert w[1] == (1, 1, 1)


class TestBinaryMultimorphism:
    def test_single_feasible_tuple(self):
        d = DomainSpec((2, 2))
        t = CostTable.relation((2, 2), [(0, 1)])
        ok, _ = binary_on(t, BinaryPair.min_max(d), (0, 1))
        assert ok

    def test_product_table_witness(self):
        # f(x1,x2) = x1*x2 is supermodular: 0+1 <= 0+0 fails
        d = DomainSpec((2, 2))
        t = CostTable.from_function((2, 2), lambda a, b: Fraction(a * b))
        ok, w = binary_on(t, BinaryPair.min_max(d), (0, 1))
        assert not ok
        assert w == ((0, 1), (1, 0))

    def test_absolute_difference_is_submodular(self):
        d = DomainSpec((2, 2))
        t = CostTable.from_function((2, 2), lambda a, b: Fraction(abs(a - b)))
        ok, _ = binary_on(t, BinaryPair.min_max(d), (0, 1))
        assert ok


class TestTernaryMultimorphism:
    def test_diagonal_triples_never_violate(self):
        d = DomainSpec((3,))
        t = CostTable((3,), [Fraction(5), Fraction(0), Fraction(7)])
        ok, _ = ternary_on(t, MjnTriple.canonical(d), (0,))
        assert ok

    def test_crisp_check_is_closure(self):
        d = DomainSpec((2, 2))
        triple = MjnTriple.canonical(d)
        closed = CostTable.relation((2, 2), [(0, 0), (1, 1)])
        ok, _ = ternary_on(closed, triple, (0, 1))
        assert ok
        # three tuples whose minority image escapes the set
        open_rel = CostTable.relation((2, 2), [(0, 0), (0, 1), (1, 0)])
        ok, w = ternary_on(open_rel, triple, (0, 1))
        assert not ok
        imgs = [tuple(triple.apply(pos, p, w[0][p], w[1][p], w[2][p])
                      for p in range(2)) for pos in range(3)]
        assert any(not is_finite(open_rel[img]) for img in imgs)

    def test_soft_xor_witness(self):
        # cost a xor b fails the three-way inequality; smallest witness is
        # the triple mapping to (0,1),(0,1),(1,0) with left 3 > right 1
        d = DomainSpec((2, 2))
        triple = MjnTriple.canonical(d)
        t = CostTable.from_function((2, 2), lambda a, b: Fraction(a ^ b))
        ok, w = ternary_on(t, triple, (0, 1))
        assert not ok
        assert w == ((0, 0), (0, 1), (1, 1))

    def test_boolean_generated_tables_pass(self):
        from harness import random_boolean_mjn_instance
        rng = random.Random(41)
        seen_soft = 0
        while seen_soft < 5:
            inst, system = random_boolean_mjn_instance(rng)
            for term in inst.terms:
                ok, _ = ternary_on(
                    term.table, system.triple, term.scope)
                assert ok
                if not term.table.is_crisp() and term.table.arity >= 2:
                    seen_soft += 1


class TestCheckPolymorphism:
    def test_full_product(self):
        d = DomainSpec((2, 2))
        op = MjnTriple.canonical(d).ops[0]
        tuples = list(itertools.product(range(2), repeat=2))
        assert check_polymorphism(op, tuples, (0, 1))

    def test_diagonal_closed_under_conservative(self):
        d = DomainSpec((3, 3))
        op = MjnTriple.canonical(d).ops[2]
        diag = [(a, a) for a in range(3)]
        assert check_polymorphism(op, diag, (0, 1))

    def test_order_relation_under_projections(self):
        d = DomainSpec((2, 2))
        rel = [(0, 0), (1, 1), (0, 1)]

        def oracle(op):
            for args in itertools.product(rel, repeat=2):
                img = tuple(op.meet(p, args[0][p], args[1][p]) for p in range(2))
                if img not in rel:
                    return False
            return True

        mm = BinaryPair.min_max(d)
        assert oracle(mm)

    def test_vectorized_agrees_with_naive(self):
        # mixed domain sizes (padded stacks), arity 1-3, repeated variables,
        # the triple's components and the derived majority; a quarter of
        # the tuple sets are closed under the operation first
        rng = random.Random(3)
        seen = Counter()
        for _ in range(600):
            d = DomainSpec(tuple(
                rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
            system = random_system(rng, d)
            op = rng.choice(system.triple.ops
                            + (build_majority(system.pair, system.triple),))
            scope = tuple(rng.randrange(d.variable_count)
                          for _ in range(rng.randint(1, 3)))
            space = list(itertools.product(*(range(d.sizes[i])
                                             for i in scope)))
            tuples = rng.sample(space, rng.randint(1, min(6, len(space))))
            if rng.random() < 0.25:
                tuples = closure(op, tuples, scope)
            term = relation_term(d, scope, tuples)
            got, hit = ternary_polymorphism_closed(op, Instance(d, [term]))
            # the closure is of the merged term: a tuple giving one
            # variable two labels never counts
            merged = merge_repeated(term)
            assert got == check_polymorphism(op, merged.table.dom(),
                                             merged.scope)
            assert hit == (None if got else 0)
            seen[got] += 1
        assert min(seen.values()) >= 20

    def test_term_lists_match_per_term_oracle(self):
        # lists of 1-6 terms of arity 1-3 over unequal domains, scopes that
        # may repeat a variable, some tables without a feasible tuple, and
        # most tuple sets closed first, so that lists pass and fail at
        # every position; the operation is the derived majority or one of
        # the triple's components (two majority-like, one minority)
        rng = random.Random(20318)
        seen = Counter()
        for _ in range(800):
            d = DomainSpec(tuple(
                rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
            system = random_system(rng, d)
            ops = system.triple.ops + (build_majority(system.pair,
                                                      system.triple),)
            which = rng.randrange(len(ops))
            op = ops[which]
            terms = []
            for _ in range(rng.randint(1, 6)):
                scope = tuple(rng.randrange(d.variable_count)
                              for _ in range(rng.randint(1, 3)))
                space = list(itertools.product(*(range(d.sizes[i])
                                                 for i in scope)))
                tuples = ([] if rng.random() < 0.1 else rng.sample(
                    space, rng.randint(1, min(4, len(space)))))
                if rng.random() < 0.5:
                    tuples = closure(op, tuples, scope)
                terms.append(relation_term(d, scope, tuples))
            want = next((idx for idx, t in enumerate(map(merge_repeated,
                                                         terms))
                         if not check_polymorphism(op, t.table.dom(),
                                                   t.scope)), None)
            got = ternary_polymorphism_closed(op, Instance(d, terms))
            assert got == ((True, None) if want is None else (False, want))
            seen[got[0]] += 1
            seen["fails after 0"] += bool(want)
            seen["repeats"] += any(len(set(t.scope)) < len(t.scope)
                                   for t in terms)
            seen["empty"] += any(not t.table.dom() for t in terms)
            seen["arities"] += len({len(t.scope) for t in terms}) == 3
            seen["op", which] += 1
        assert seen[True] >= 20 and seen[False] >= 20
        assert min(seen["fails after 0"], seen["repeats"], seen["empty"],
                   seen["arities"]) >= 20
        assert min(seen["op", which] for which in range(4)) >= 20

    def test_blocks_bound_memory(self):
        # one ternary term over d=8 with every tuple but (0, 0, 0) feasible
        # (n = 511): all ordered triples at once would need about 3 GB, one
        # block over the first argument a few MB
        d = DomainSpec((8, 8, 8))
        system = minmax_system(d)
        table = CostTable.from_function(
            (8, 8, 8), lambda *t: INF if t == (0, 0, 0) else 0)
        instance = Instance(d, [Term(table, (0, 1, 2))])
        tracemalloc.start()
        try:
            with pytest.raises(StageError) as err:
                run_validate(instance, system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.witness == 0
        assert peak <= 64 * 2 ** 20

    @staticmethod
    def closure_peak(terms, d):
        """(result, tracemalloc peak) of the derived min/max majority's
        closure check of ``terms`` over three variables of size ``d``; the
        instance, and its term store, are built before the peak is
        traced."""
        system = minmax_system(DomainSpec((d, d, d)))
        mu = build_majority(system.pair, system.triple)
        instance = Instance(system.domains, terms)
        tracemalloc.start()
        try:
            got = ternary_polymorphism_closed(mu, instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return got, peak

    def test_dense_term_pads_no_sparse_term(self):
        # one arity: a <= b over d=20 (210 tuples) and 300 equalities
        # (20 tuples each); padding every term to 210 tuples would check
        # 301 * 210**3 triples and hold 2 * 301 * 210**2 intp (212 MB)
        d = 20
        le = Term(CostTable.from_function(
            (d, d), lambda a, b: 0 if a <= b else INF), (0, 1))
        eq = Term(CostTable.from_function(
            (d, d), lambda a, b: 0 if a == b else INF), (1, 2))
        neq = Term(CostTable.from_function(
            (d, d), lambda a, b: 0 if a != b else INF), (0, 2))
        got, peak = self.closure_peak([eq] * 150 + [le] + [eq] * 150, d)
        assert got == (True, None) and peak <= 8 * 2 ** 20
        # the first unclosed term in term order, wherever the batches of
        # falling counts put it: the dense a != b goes first, and the
        # three-tuple cycle and diagonal share a later batch
        def three(pairs):
            return Term(CostTable.from_function(
                (d, d), lambda a, b: 0 if (a, b) in pairs else INF), (0, 1))
        cycle = three({(0, 1), (1, 2), (2, 0)})
        diagonal = three({(0, 0), (1, 1), (2, 2)})
        for terms, want in (([le, eq, neq, eq, neq], 2), ([cycle, neq], 0),
                            ([diagonal, neq, cycle], 1)):
            assert self.closure_peak(terms, d)[0] == (False, want)

    def test_peak_grows_with_tables_only(self):
        # identical equalities over d=20: the check holds the masks, a few
        # bytes per table entry, and blocks that do not grow with the term
        # count; a temporary of n**2 intp per term (3,200 bytes here)
        # would add 4.8 MB from 500 to 2,000 terms
        d = 20
        eq = Term(CostTable.from_function(
            (d, d), lambda a, b: 0 if a == b else INF), (1, 2))
        (few, low), (many, high) = (self.closure_peak([eq] * count, d)
                                    for count in (500, 2000))
        assert few == many == (True, None)
        assert high - low <= 1500 * d * d * 8


def relation_term(domains, scope, tuples):
    """A crisp term over ``scope``: 0 on ``tuples``, INF elsewhere."""
    return Term(CostTable.relation(tuple(domains.sizes[i] for i in scope),
                                   tuples), scope)


def closure(op, tuples, scope):
    """Smallest superset of ``tuples`` closed under a ternary operation."""
    tuples = set(tuples)
    while True:
        images = {tuple(op.apply(i, x[p], y[p], z[p])
                        for p, i in enumerate(scope))
                  for x, y, z in itertools.product(tuples, repeat=3)}
        if images <= tuples:
            return sorted(tuples)
        tuples |= images


class TestBuildMajority:
    def test_idempotent(self):
        d = DomainSpec((4,))
        mu = build_majority(BinaryPair.min_max(d), MjnTriple.canonical(d))
        for a in range(4):
            assert mu.apply(0, a, a, a) == a

    def test_commutative_pair_majority(self):
        d = DomainSpec((3,))
        mu = build_majority(BinaryPair.min_max(d), MjnTriple.canonical(d))
        for a, b in all_label_pairs(3):
            assert mu.apply(0, a, a, b) == a

    def test_non_commutative_pair_majority(self):
        d = DomainSpec((2,))
        mu = build_majority(projection_pair(d), MjnTriple.canonical(d))
        assert mu.apply(0, 0, 1, 0) == 0
        assert mu.apply(0, 1, 0, 1) == 1

    def test_majority_on_all_two_value_triples(self):
        rng = random.Random(5)
        for _ in range(20):
            sizes = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
            system = random_system(rng, DomainSpec(sizes))
            mu = build_majority(system.pair, system.triple)
            for i, s in enumerate(sizes):
                for x, y in itertools.product(range(s), repeat=2):
                    assert mu.apply(i, x, x, y) == x
                    assert mu.apply(i, x, y, x) == x
                    assert mu.apply(i, y, x, x) == x

    def test_invalid_system_rejected(self):
        # with a non-commutative pair the construction leans on the first
        # triple component being majority; a minority op there breaks it
        d = DomainSpec((2,))
        canon = MjnTriple.canonical(d)
        swapped = MjnTriple(d, canon.ops[2], canon.ops[2], canon.ops[0])
        with pytest.raises(ValidationError):
            build_majority(projection_pair(d), swapped)


class TestNormalize:
    def test_commutative_complement_pairs_move(self):
        d = DomainSpec((3,))
        m = PairSet(d, (frozenset({(0, 1)}),))
        out = normalize_pairset(BinaryPair.min_max(d), m)
        assert out.is_full()

    def test_non_commutative_pairs_stay(self):
        d = DomainSpec((2,))
        out = normalize_pairset(projection_pair(d), PairSet.empty(d))
        assert out.members[0] == frozenset()

    def test_system_validate_and_normalize(self):
        rng = random.Random(9)
        for _ in range(10):
            system = random_system(rng, DomainSpec((3, 2)))
            system.validate()
            norm = system.normalized()
            norm.validate()
            for i in range(2):
                assert system.m.members[i] <= norm.m.members[i]


def naive_binary_oracle(table, pair, scope, tol=0):
    """Independent re-check of the pairwise inequality, reversed iteration."""
    dom = list(reversed(table.dom()))
    for x in dom:
        for y in dom:
            lo = tuple(pair.meet(scope[p], x[p], y[p]) for p in range(len(x)))
            hi = tuple(pair.join(scope[p], x[p], y[p]) for p in range(len(x)))
            if not cost_le(table[lo] + table[hi], table[x] + table[y], tol):
                return False
    return True


def naive_ternary_oracle(table, triple, scope, tol=0):
    dom = list(reversed(table.dom()))
    for x, y, z in itertools.product(dom, repeat=3):
        left = 0
        for pos in range(3):
            img = tuple(triple.apply(pos, scope[p], x[p], y[p], z[p])
                        for p in range(len(x)))
            left = left + table[img]
        if not cost_le(left, table[x] + table[y] + table[z], tol):
            return False
    return True


@st.composite
def random_tables(draw):
    si = draw(st.integers(min_value=1, max_value=3))
    sj = draw(st.integers(min_value=1, max_value=3))
    entries = [draw(st.one_of(
        st.just(INF), st.integers(min_value=0, max_value=4).map(Fraction)))
        for _ in range(si * sj)]
    return CostTable((si, sj), entries)


@settings(max_examples=80, deadline=None)
@given(random_tables(), st.randoms(use_true_random=False))
def test_binary_checker_matches_oracle(table, rng):
    d = DomainSpec(table.shape)
    system = random_system(rng, d)
    ok, _ = binary_on(table, system.pair, (0, 1))
    assert ok == naive_binary_oracle(table, system.pair, (0, 1))


@settings(max_examples=50, deadline=None)
@given(random_tables(), st.randoms(use_true_random=False))
def test_ternary_checker_matches_oracle(table, rng):
    d = DomainSpec(table.shape)
    system = random_system(rng, d)
    ok, _ = ternary_on(table, system.triple, (0, 1))
    assert ok == naive_ternary_oracle(table, system.triple, (0, 1))


def test_crisp_ternary_pass_implies_component_closure():
    rng = random.Random(17)
    for _ in range(20):
        d = DomainSpec((3, 3))
        system = random_system(rng, d)
        tuples = rng.sample(
            list(itertools.product(range(3), repeat=2)), rng.randint(1, 5))
        table = CostTable.relation((3, 3), tuples)
        ok, _ = ternary_on(table, system.triple, (0, 1))
        if ok:
            for comp in system.triple.ops:
                assert check_polymorphism(comp, table.dom(), (0, 1))


def test_per_term_check_implies_global_check():
    rng = random.Random(23)
    from harness import random_instance
    for _ in range(5):
        inst, system = random_instance(rng, max_vars=3, max_size=3)
        ok, _, _ = check_instance_multimorphism(inst, system)
        assert ok
        ok, _ = check_global_multimorphism(inst, system)
        assert ok


# -- the numpy kernel against the loop oracles ------------------------------


def cyclic_pair(domains):
    """Commutative conservative pair whose meet cycles on labels 0, 1, 2."""
    def meet(a, b):
        return 2 if {a, b} == {0, 2} else min(a, b)

    meets = [[[meet(a, b) for b in range(s)] for a in range(s)]
             for s in domains.sizes]
    joins = [[[a + b - meet(a, b) for b in range(s)] for a in range(s)]
             for s in domains.sizes]
    return BinaryPair(domains, meets, joins)


def random_conservative_triple(rng, domains):
    comps = []
    for _ in range(3):
        picks = {key: rng.randrange(3) for key in itertools.product(
            range(domains.variable_count), range(4), range(4), range(4))}
        comps.append(TernaryOp.from_function(
            domains, lambda i, x, y, z, _p=picks: (x, y, z)[_p[(i, x, y, z)]]))
    return MjnTriple(domains, *comps)


def random_cost(rng, kind):
    if kind == "fraction":
        return Fraction(rng.randint(0, 12), rng.randint(1, 6))
    if kind == "big":  # scaled numerators above 2**59: the object path
        return Fraction(rng.randint(2**59, 2**70), rng.choice((1, 3, 7)))
    if kind == "edge":  # just inside the int64 path
        return Fraction(rng.randint(2**58, 2**59 - 1))
    if kind == "float":
        return rng.uniform(0, 10)
    # floats mixed with non-integer Fractions
    return rng.uniform(0, 10) if rng.random() < 0.5 else Fraction(
        rng.randint(0, 12), 3)


def random_kernel_table(rng, shape, kind):
    size = 1
    for s in shape:
        size *= s
    structure = rng.choice(("random", "modular", "modular", "single",
                            "all-inf"))
    if structure == "all-inf":
        return CostTable(shape, [INF] * size)
    if structure == "single":
        entries = [INF] * size
        entries[rng.randrange(size)] = random_cost(rng, kind)
        return CostTable(shape, entries)
    holes = rng.choice((0, 0, 0.3))
    weights = [[random_cost(rng, kind) for _ in range(s)] for s in shape]
    entries = []
    for t in itertools.product(*(range(s) for s in shape)):
        if rng.random() < holes:
            entries.append(INF)
        elif structure == "random":
            entries.append(random_cost(rng, kind))
        else:  # modular: every conservative operation tuple passes
            entries.append(sum((w[v] for w, v in zip(weights, t)),
                               Fraction(0)))
    return CostTable(shape, entries)


def random_operations(rng, domains):
    """A conservative pair and triple, not always a valid system: min/max,
    a cyclic or a random commutative split, and the canonical, sorting or
    a random conservative triple."""
    pair = rng.choice((
        BinaryPair.min_max(domains), cyclic_pair(domains),
        BinaryPair(domains, *zip(*(pair_tables_for_split(
            s, {p for p in all_label_pairs(s) if rng.random() < 0.7},
            rng) for s in domains.sizes)))))
    triple = rng.choice((
        MjnTriple.canonical(domains), sorting_triple(domains),
        random_conservative_triple(rng, domains)))
    return pair, triple


def kernel_cases(seed, count):
    """(table, scope, pair, triple, tol) over arity 0-3 and sizes 1-4, with
    ``tol`` the tolerance the table's costs imply."""
    rng = random.Random(seed)
    for _ in range(count):
        domains = DomainSpec(tuple(
            rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        scope = tuple(rng.randrange(domains.variable_count)
                      for _ in range(rng.randint(0, 3)))
        kind = rng.choice(("fraction", "fraction", "big", "edge", "float",
                           "mixed"))
        table = random_kernel_table(
            rng, tuple(domains.sizes[i] for i in scope), kind)
        if kind != "float":
            rng.random()  # keeps the seeded sequence of cases
        tol = tolerance(table.entries)
        yield (table, scope, *random_operations(rng, domains), tol)


def assert_int_witness(witness):
    assert all(type(v) is int for t in witness for v in t)


def test_kernel_matches_loops_witness_for_witness():
    seen = Counter()
    for table, scope, pair, triple, tol in kernel_cases(20260, 500):
        got = binary_on(table, pair, scope)
        assert got == loop_binary_multimorphism(table, pair, scope, tol)
        if not got[0]:
            assert_int_witness(got[1])
        seen["binary", got[0]] += 1
        if len(table.dom()) > 12:
            continue
        got = ternary_on(table, triple, scope)
        assert got == loop_ternary_multimorphism(table, triple, scope, tol)
        if not got[0]:
            assert_int_witness(got[1])
        seen["ternary", got[0]] += 1
    # both outcomes of both checks are exercised
    assert min(seen.values()) >= 50 and len(seen) == 4


def test_kernel_row_blocks_match_loops(monkeypatch):
    import vcsp.operations as operations
    monkeypatch.setattr(operations, "_BLOCK_ELEMENTS", 5)
    for table, scope, pair, triple, tol in kernel_cases(20261, 120):
        assert (binary_on(table, pair, scope)
                == loop_binary_multimorphism(table, pair, scope, tol))
        if len(table.dom()) <= 8:
            assert (ternary_on(table, triple, scope)
                    == loop_ternary_multimorphism(table, triple, scope, tol))


def test_float_tolerance_scales_with_cost_magnitude():
    # modular float tables near 1e17: f(x meet y) + f(x join y) equals
    # f(x) + f(y) up to rounding, which at that scale is far above 1e-9
    rng = random.Random(20290)
    pair = BinaryPair.min_max(DomainSpec((3, 3)))
    for _ in range(2000):
        g, h = ([1e17 * (1 + rng.random()) for _ in range(3)]
                for _ in range(2))
        t = CostTable((3, 3), [g[a] + h[b] for a in range(3)
                               for b in range(3)])
        assert binary_on(t, pair, (0, 1)) == (True, None)
    # an excess of 1e-6 relative still fails at that scale
    t = CostTable((2, 2), [1e17, 1e17, 1e17, 1e17 * (1 + 1e-6)])
    assert binary_on(t, BinaryPair.min_max(DomainSpec((2, 2))), (0, 1)) == (
        False, ((0, 1), (1, 0)))


def test_kernel_paths_on_fixed_tables():
    d = DomainSpec((2, 2))
    pair = BinaryPair.min_max(d)
    big = 2**62
    # supermodular product table with huge numerators: object dtype
    t = CostTable.from_function((2, 2), lambda a, b: Fraction(big * a * b, 3))
    assert binary_on(t, pair, (0, 1)) == (
        False, ((0, 1), (1, 0)))
    # the largest int64 costs still sum below an infeasible image
    top = 2**59 - 1
    t = CostTable((2, 2), [INF, Fraction(top), Fraction(top), Fraction(0)])
    assert binary_on(t, pair, (0, 1)) == (
        False, ((0, 1), (1, 0)))
    t = CostTable((2, 2), [INF, Fraction(top), Fraction(top), Fraction(top)])
    assert ternary_on(
        t, sorting_triple(d), (0, 1)) == loop_ternary_multimorphism(
        t, sorting_triple(d), (0, 1))
    # float costs pass within FLOAT_TOL; the same excess fails exactly
    t = CostTable((2, 2), [0.1, 0.2, 0.2, 0.30000000000000004 + 1e-12])
    assert loop_binary_multimorphism(t, pair, (0, 1))[0] is False
    assert binary_on(t, pair, (0, 1)) == (
        loop_binary_multimorphism(t, pair, (0, 1), FLOAT_TOL)) == (True, None)
    t = CostTable((2, 2), [Fraction(1, 10), Fraction(2, 10), Fraction(2, 10),
                           Fraction(3, 10) + Fraction(1, 10**12)])
    assert binary_on(t, pair, (0, 1)) == (
        False, ((0, 1), (1, 0)))
    for entries in ([INF] * 4, [INF, INF, Fraction(3, 2), INF]):
        t = CostTable((2, 2), entries)
        assert binary_on(t, pair, (0, 1)) == (True, None)
        assert ternary_on(
            t, MjnTriple.canonical(d), (0, 1)) == (True, None)
    nullary = CostTable((), [Fraction(5, 7)])
    assert binary_on(nullary, pair, ()) == (True, None)
    assert ternary_on(
        nullary, MjnTriple.canonical(d), ()) == (True, None)


def loop_over_terms(loop, terms, ops):
    """The per-term ``loop`` over a term list, each term with the tolerance
    its own costs imply: (True, None) or (False, (index of the first failing
    term, its witness)), the contract of the batched checks."""
    for idx, term in enumerate(terms):
        tol = tolerance(term.table.entries)
        ok, witness = loop(term.table, ops, term.scope, tol)
        if not ok:
            return False, (idx, witness)
    return True, None


def modular_table(rng, shape, kind):
    """A sum of per-argument costs, without infeasible entries."""
    weights = [[random_cost(rng, kind) for _ in range(s)] for s in shape]
    return CostTable.from_function(shape, lambda *t: sum(
        (w[v] for w, v in zip(weights, t)), Fraction(0)))


def term_lists(seed, count):
    """(terms, pair, triple): lists of 1-40 terms of arity 0-3 over one
    domain of 1-4 variables, half of them merged by ``merge_repeated``, with
    the table kinds of ``kernel_cases`` mixed in one list, so that the lists
    hold several shapes and cost classes.  Most tables are modular; at one
    of three rates a list draws the rest like ``kernel_cases`` or with
    random entries, so that lists pass and fail at every position."""
    rng = random.Random(seed)
    for _ in range(count):
        domains = DomainSpec(tuple(
            rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        kinds = rng.choice((
            ("fraction",), ("fraction", "edge"), ("fraction", "big"),
            ("float",), ("fraction", "float", "mixed"),
            ("fraction", "big", "edge", "float", "mixed")))
        rate = rng.choice((0.05, 0.3, 0.6))
        terms = []
        for _ in range(rng.randint(1, 40)):
            scope = tuple(rng.randrange(domains.variable_count)
                          for _ in range(rng.randint(0, 3)))
            shape = tuple(domains.sizes[i] for i in scope)
            kind = rng.choice(kinds)
            if rng.random() >= rate:
                table = modular_table(rng, shape, kind)
            elif rng.random() < 0.5:
                table = random_kernel_table(rng, shape, kind)
            else:  # fails whenever two arguments vary
                table = CostTable(shape, [random_cost(rng, kind)
                                          for _ in range(math.prod(shape))])
            term = Term(table, scope)
            terms.append(merge_repeated(term) if rng.random() < 0.5
                         else term)
        yield (terms, *random_operations(rng, domains))


def group_keys(terms):
    """Each term's group in the batched checks: its arity."""
    return [t.table.arity for t in terms]


def ternary_is_cheap(terms):
    return sum(len(t.table.dom()) ** 3 for t in terms) <= 3000


def test_batched_checks_match_loops_witness_for_witness():
    seen = Counter()
    for terms, pair, triple in term_lists(20280, 600):
        got = check_binary_multimorphism(terms, pair)
        assert got == loop_over_terms(loop_binary_multimorphism, terms, pair)
        keys = group_keys(terms)
        if got[0]:
            seen["binary pass"] += 1
        else:
            failing = got[1][0]
            first = keys.index(keys[failing])  # first term of its group
            seen["binary fail"] += 1
            # a group listed before the failing term's group passes
            seen["earlier group passes"] += any(
                keys.index(key) < first and not any(
                    not binary_on(t.table, pair, t.scope)[0]
                    for t, k in zip(terms, keys) if k == key)
                for key in set(keys))
            # an earlier group fails too, at a later term
            seen["earlier group fails later"] += any(
                keys.index(keys[idx]) < first
                and not binary_on(terms[idx].table, pair, terms[idx].scope)[0]
                for idx in range(failing + 1, len(terms)))
        seen["exact and inexact in one group"] += len(set(keys)) < len({
            (t.table.arity, tolerance(t.table.entries) == 0) for t in terms})
        if ternary_is_cheap(terms):
            got = check_ternary_multimorphism(terms, triple)
            assert got == loop_over_terms(
                loop_ternary_multimorphism, terms, triple)
            seen["ternary", got[0]] += 1
    assert min(seen.values()) >= 20, seen
    # each float table compares within its own tolerance: a term that
    # breaks submodularity by 0.5 on costs near 1 still fails in one group
    # with a term of the same shape whose costs reach 1e9 or more
    d = DomainSpec((2, 2))
    pair = BinaryPair.min_max(d)
    small = Term(CostTable((2, 2), [1.0, 1.0, 1.0, 1.5]), (0, 1))
    for big in (1e9, 1e12, 1e17):
        large = Term(CostTable((2, 2), [big, 2 * big, 3 * big, 4 * big]),
                     (0, 1))
        for terms in ([small, large], [large, small], [large, large, small]):
            got = check_binary_multimorphism(terms, pair)
            assert got == loop_over_terms(
                loop_binary_multimorphism, terms, pair)
            assert got == (False, (terms.index(small), ((0, 1), (1, 0))))


def test_batched_checks_in_blocks_match_loops(monkeypatch):
    import vcsp.operations as operations
    monkeypatch.setattr(operations, "_BLOCK_ELEMENTS", 5)
    for terms, pair, triple in term_lists(20281, 80):
        assert check_binary_multimorphism(terms, pair) == loop_over_terms(
            loop_binary_multimorphism, terms, pair)
        if ternary_is_cheap(terms):
            assert check_ternary_multimorphism(
                terms, triple) == loop_over_terms(
                loop_ternary_multimorphism, terms, triple)


def min_max_case(rng):
    """(terms, pair, ranks): a pair that is min/max in a random order per
    variable, its ranks, and 1-12 terms of arity 1 or 2 over it.  Most
    pairwise tables are a convex function of the rank difference plus
    per-argument costs, submodular in that order (modular when the
    function is 0), some with one entry raised by 1; the rest are random.
    Their costs are ints, Fractions, above 2**59 (object arrays), floats,
    or hold INF."""
    domains = DomainSpec(tuple(
        rng.randint(1, 4) for _ in range(rng.randint(2, 4))))
    ranks = [rng.sample(range(s), s) for s in domains.sizes]
    meets = [[[a if r[a] <= r[b] else b for b in range(len(r))]
              for a in range(len(r))] for r in ranks]
    joins = [[[a + b - meet[a][b] for b in range(len(r))]
              for a in range(len(r))] for r, meet in zip(ranks, meets)]
    pair = BinaryPair(domains, meets, joins)
    kind = rng.choice(("int", "fraction", "big", "float", "mixed"))

    def cost():
        return rng.randint(0, 9) if kind == "int" else random_cost(rng, kind)

    terms = []
    for _ in range(rng.randint(1, 12)):
        scope = tuple(rng.sample(range(domains.variable_count),
                                 rng.randint(1, 2)))
        shape = tuple(domains.sizes[i] for i in scope)
        if len(scope) == 1 or rng.random() < 0.2:
            entries = [cost() for _ in range(math.prod(shape))]
        else:
            (i, j), steep = scope, rng.choice((0, cost()))
            row, col = [cost() for _ in ranks[i]], [cost() for _ in ranks[j]]
            entries = [row[a] + col[b] + steep * (ranks[i][a] - ranks[j][b]) ** 2
                       for a, b in itertools.product(*map(range, shape))]
            if rng.random() < 0.3:
                entries[rng.randrange(len(entries))] += 1
        if rng.random() < 0.15:
            entries[rng.randrange(len(entries))] = INF
        terms.append(Term(CostTable(shape, entries), scope))
    return terms, pair, extract_tournament_order(pair).ranks


def test_min_max_fast_path_matches_kernel():
    # given the ranks of a min/max order, the check skips unary groups and
    # reads exact pairwise groups, finite within each table's own extents,
    # by their adjacent minors; verdict, term and witness are the kernel's,
    # also on groups padded to several table shapes
    rng = random.Random(20316)
    seen = Counter()
    for _ in range(800):
        terms, pair, ranks = min_max_case(rng)
        costs = ScaledCosts(terms)
        got = check_binary_multimorphism(costs, pair, ranks)
        assert got == check_binary_multimorphism(costs, pair)
        for _, shape, *group in costs.groups:
            if len(shape) == 2 and not group[1].all():
                seen["padded, " + ("skipped" if _passes_min_max(
                    shape, *group, ranks, pair.domains.sizes)
                    else "kernel")] += 1
        if got[0]:
            seen["pass"] += 1
            continue
        table = terms[got[1][0]].table
        seen["fail, exact finite pairwise" if table.arity == 2
             and integer_costs([table.entries])[0] is not None
             and INF not in table.entries else "fail, other"] += 1
    assert min(seen.values()) >= 50, seen


def test_min_max_fast_path_reads_padded_groups(monkeypatch):
    # (2, 3) and (3, 2) tables pad to one (3, 3) group; exact and finite in
    # their own extents and submodular, they pass without the kernel, and a
    # table that is not goes to the kernel for its witness
    import vcsp.operations as operations

    calls = []
    kernel = operations._group_violation

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(operations, "_group_violation", counted)
    d = DomainSpec((2, 3))
    pair = BinaryPair.min_max(d)
    ranks = extract_tournament_order(pair).ranks
    square = CostTable.from_function((2, 3), lambda a, b: (a - b) ** 2)
    terms = [Term(square, (0, 1)), Term(CostTable.from_function(
        (3, 2), lambda b, a: Fraction(abs(a - b), 3)), (1, 0))]
    costs = ScaledCosts(terms)
    assert [g[1] for g in costs.groups] == [(3, 3)]
    assert check_binary_multimorphism(costs, pair, ranks) == (True, None)
    assert calls == []
    assert check_binary_multimorphism(costs, pair) == (True, None)
    assert calls == [(3, 3)]
    calls.clear()
    terms.append(Term(CostTable.from_function(
        (3, 2), lambda b, a: 4 - (a - b) ** 2), (1, 0)))
    costs = ScaledCosts(terms)
    got = check_binary_multimorphism(costs, pair, ranks)
    assert not got[0] and got[1][0] == 2 and calls == [(3, 3)]
    assert got == check_binary_multimorphism(costs, pair)


def loop_instance_check(terms, pair, triple):
    """``check_instance_multimorphism`` as a loop over the merged terms,
    checking both inequalities on each in turn, the pair's before the
    triple's."""
    for idx, term in enumerate(map(merge_repeated, terms)):
        tol = tolerance(term.table.entries)
        ok, w = loop_binary_multimorphism(term.table, pair, term.scope, tol)
        if not ok:
            return False, idx, ("binary", w)
        ok, w = loop_ternary_multimorphism(term.table, triple, term.scope, tol)
        if not ok:
            return False, idx, ("ternary", w)
    return True, None, None


def test_instance_check_matches_term_loop():
    seen = Counter()
    for terms, pair, triple in term_lists(20282, 600):
        if not ternary_is_cheap(terms):
            continue
        want = loop_instance_check(terms, pair, triple)
        ops = OperationSystem(pair, triple, PairSet.empty(pair.domains))
        assert check_instance_multimorphism(
            Instance(pair.domains, terms), ops) == want
        seen[want[2] and want[2][0]] += 1
    assert set(seen) == {None, "binary", "ternary"}
    assert min(seen.values()) >= 20, seen


def test_instance_check_ignores_ternary_failures_after_a_binary_one():
    # [a, b, t]: b fails the pair's inequality, t only the triple's, and a,
    # which passes both, shares t's kernel group, so the ternary check runs
    # over t although the answer is b's binary failure
    found = 0
    for terms, pair, triple in term_lists(20298, 1200):
        if not ternary_is_cheap(terms):
            continue
        ops = OperationSystem(pair, triple, PairSet.empty(pair.domains))
        verdicts = [check_instance_multimorphism(
            Instance(pair.domains, [t]), ops)[2] for t in terms]
        keys = group_keys([merge_repeated(t) for t in terms])
        b = next((t for t, v in zip(terms, verdicts)
                  if v and v[0] == "binary"), None)
        pick = next(((a, t) for t, v, key in zip(terms, verdicts, keys)
                     if v and v[0] == "ternary"
                     for a, w, other in zip(terms, verdicts, keys)
                     if w is None and other == key), None)
        if b is None or pick is None:
            continue
        arranged = [pick[0], b, pick[1]]
        got = check_instance_multimorphism(Instance(pair.domains, arranged),
                                           ops)
        assert got == loop_instance_check(arranged, pair, triple)
        assert got[:2] == (False, 1) and got[2][0] == "binary"
        found += 1
    assert found >= 20


# -- the validation masks against the loop oracles --------------------------


def with_entry(op, i, args, value):
    """``op`` with one entry of variable i's table replaced."""
    tables = [[[list(r) for r in sl] for sl in t] for t in op.tables]
    a, b, c = args
    tables[i][a][b][c] = value
    return TernaryOp(op.domains, tables)


def break_system(rng, system, kind):
    """The system's (pair, triple, m), broken as ``kind`` says."""
    d = system.domains
    pair, triple, m = system.pair, system.triple, system.m
    i = rng.randrange(d.variable_count)
    size = d.sizes[i]
    if kind == "pair-entry":  # one meet or join entry, often not conservative
        tables = [[[list(r) for r in t] for t in ts]
                  for ts in (pair.meet_tables, pair.join_tables)]
        tables[rng.randrange(2)][i][rng.randrange(size)][
            rng.randrange(size)] = rng.randrange(size)
        pair = BinaryPair(d, *tables)
    elif kind == "m":  # M drawn regardless of where the pair commutes
        m = PairSet(d, tuple(
            frozenset(p for p in all_label_pairs(s) if rng.random() < 0.5)
            for s in d.sizes))
    elif kind == "triple-entry":  # one component entry, any label
        ops = list(triple.ops)
        pos = rng.randrange(3)
        ops[pos] = with_entry(ops[pos], i, tuple(
            rng.randrange(size) for _ in range(3)), rng.randrange(size))
        triple = MjnTriple(d, *ops)
    elif kind == "contract":  # a wrong, still conservative, two-value image
        outside = m.complement(i)
        if outside:
            x, y = rng.choice(outside)
            args = rng.choice(((x, x, y), (x, y, x), (y, x, x)))
            pos = rng.randrange(3)
            wrong = y if pos < 2 else x
            ops = list(triple.ops)
            ops[pos] = with_entry(ops[pos], i, args, wrong)
            triple = MjnTriple(d, *ops)
    elif kind == "random-triple":
        triple = random_conservative_triple(rng, d)
    return pair, triple, m


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return str(exc), exc.witness


def assert_plain_ints(value):
    if isinstance(value, tuple):
        for v in value:
            assert_plain_ints(v)
    elif not isinstance(value, str) and value is not None:
        assert type(value) is int


def test_validation_masks_match_loops_witness_for_witness():
    rng = random.Random(20270)
    seen = Counter()
    kinds = ("valid", "pair-entry", "m", "triple-entry", "contract",
             "random-triple")
    for _ in range(600):
        # domain sizes 1-4 mixed in one system, so the stacks are padded
        d = DomainSpec(tuple(
            rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
        system = random_system(rng, d, mbar_everywhere=rng.random() < 0.2,
                               full_m=rng.random() < 0.1)
        kind = rng.choice(kinds)
        pair, triple, m = break_system(rng, system, kind)

        got = is_stp_on(pair, m)
        assert got == loop_is_stp_on(pair, m)
        assert_plain_ints(got[1])
        seen["stp", got[1] and got[1][2]] += 1

        outside_m = PairSet(d, tuple(frozenset(m.complement(i))
                                     for i in range(d.variable_count)))
        for target in (outside_m, m):
            got = is_mjn_on(triple, target)
            assert got == loop_is_mjn_on(triple, target)
            assert_plain_ints(got[1])
        seen["mjn", got[1] and got[1][2]] += 1
        # validate raises the pair's witness first, then the triple's off M
        want = (loop_is_stp_on(pair, m)[1]
                or loop_is_mjn_on(triple, outside_m)[1])
        assert outcome(OperationSystem(pair, triple, m).validate)[1] == want

        got = normalize_pairset(pair, m)
        assert got.members == loop_normalize_pairset(pair, m).members
        assert_plain_ints(tuple(p for pairs in got.members for p in pairs))

        got = outcome(build_majority, pair, triple)
        want = outcome(loop_build_majority, pair, triple)
        if got[0] == "ok":
            assert want[0] == "ok" and got[1].tables == want[1].tables
            # the stack build_majority fills is the one the tables give
            assert np.array_equal(got[1].index_stack(), TernaryOp(
                d, got[1].tables).index_stack())
        else:
            assert got == want
            assert_plain_ints(got[1])
        seen["majority", got[0]] += 1
    # every failure kind of every check is exercised
    assert {key for key in seen if key[0] == "stp"} == {
        ("stp", None), ("stp", "not conservative"),
        ("stp", "not commutative")}
    assert {key for key in seen if key[0] == "mjn"} == {("mjn", None)} | {
        ("mjn", f"component {pos} not conservative") for pos in (1, 2, 3)} | {
        ("mjn", f"{which} component not {role}") for which, role in (
            ("first", "majority"), ("second", "majority"),
            ("third", "minority"))}
    assert len({key for key in seen if key[0] == "majority"}) == 3


def test_only_operations_reads_nested_tables():
    # the nested tuples are derived from the arrays on every read; the rest
    # of the package works on the arrays.  ``members`` of a region state
    # (``state``, ``self`` in reduction.py) is stage 2's variable set U.
    import ast
    import pathlib

    import vcsp
    found = []
    for path in sorted(pathlib.Path(vcsp.__file__).parent.glob("*.py")):
        if path.name == "operations.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and node.attr in (
                    "meet_tables", "join_tables", "tables", "members")):
                continue
            if (node.attr == "members" and path.name == "reduction.py"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("state", "self")):
                continue
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []

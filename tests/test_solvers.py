"""Brute force, tournament orders, the min-cut path and the pipeline."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

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
    VcspError,
    extract_tournament_order,
    solve_bruteforce,
    solve_pipeline,
    solve_stp,
)
from vcsp.consistency import BinaryNetwork
from vcsp.costs import is_finite
from vcsp.operations import OperationSystem
from vcsp.solvers import CutEncoding, MaxFlow, _check_network_closed

from harness import (
    minmax_system,
    random_boolean_mjn_instance,
    random_instance,
    random_submodular_instance,
    random_submodular_table,
    random_unary,
    submodular_chain,
)


def cyclic_pair():
    """Commutative conservative pair on 3 labels whose tournament is a cycle."""
    meet = [[0, 0, 2], [0, 1, 1], [2, 1, 2]]
    join = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
    return BinaryPair(DomainSpec((3,)), [meet], [join])


class TestBruteforce:
    def test_all_zero_ties_lexicographically(self):
        inst = Instance(DomainSpec((2, 3)), [
            Term(CostTable((2, 3), [Fraction(0)] * 6), (0, 1))])
        res = solve_bruteforce(inst)
        assert res.optimum == 0
        assert res.argmin == (0, 0)

    def test_infeasible(self):
        inst = Instance(DomainSpec((2,)), [
            Term(CostTable((2,), [INF, INF]), (0,))])
        res = solve_bruteforce(inst)
        assert res.optimum is INF
        assert res.argmin is None

    def test_matches_reversed_enumeration_oracle(self):
        rng = random.Random(71)
        for _ in range(10):
            sizes = (3, 3, 3, 3)
            inst = Instance(DomainSpec(sizes), [
                Term(CostTable.from_function(
                    (3, 3), lambda a, b: (
                        INF if rng.random() < 0.2
                        else Fraction(rng.randint(0, 6)))), scope)
                for scope in [(0, 1), (1, 2), (2, 3)]])
            best = INF
            for x in reversed(list(inst.domains.assignments())):
                c = inst.evaluate(x)
                if c < best or (c == best and not isinstance(best, type(INF))):
                    best = min(best, c)
            res = solve_bruteforce(inst)
            assert res.optimum == best
            if is_finite(res.optimum):
                assert inst.evaluate(res.argmin) == res.optimum


class TestTournamentOrder:
    def test_min_max_natural_order(self):
        order = extract_tournament_order(BinaryPair.min_max(DomainSpec((3,))))
        assert order.orders == [[0, 1, 2]]
        assert order.cycles == [None]

    def test_size_two_always_orderable(self):
        # both orientations of a single pair are transitive
        for meet01 in (0, 1):
            join01 = 1 - meet01
            pair = BinaryPair(DomainSpec((2,)),
                              [[[0, meet01], [meet01, 1]]],
                              [[[0, join01], [join01, 1]]])
            order = extract_tournament_order(pair)
            assert order.all_ordered

    def test_three_cycle_witness(self):
        order = extract_tournament_order(cyclic_pair())
        assert order.orders == [None]
        a, b, c = order.cycles[0]
        pair = cyclic_pair()
        assert pair.meet(0, a, b) == a
        assert pair.meet(0, b, c) == b
        assert pair.meet(0, c, a) == c

    def test_non_commutative_rejected(self):
        d = DomainSpec((2,))
        pair = BinaryPair(d, [[[0, 0], [1, 1]]], [[[0, 1], [0, 1]]])
        with pytest.raises(VcspError):
            extract_tournament_order(pair)


class TestMaxFlow:
    def test_simple_network(self):
        f = MaxFlow(4)
        f.add_edge(0, 2, Fraction(3))
        f.add_edge(0, 3, Fraction(2))
        f.add_edge(2, 1, Fraction(2))
        f.add_edge(3, 1, Fraction(3))
        f.add_edge(2, 3, Fraction(1))
        assert f.max_flow(0, 1) == 5

    def test_infinite_path(self):
        f = MaxFlow(3)
        f.add_edge(0, 2, None)
        f.add_edge(2, 1, None)
        assert f.max_flow(0, 1) is INF

    def test_min_cut_side(self):
        f = MaxFlow(4)
        f.add_edge(0, 2, Fraction(1))
        f.add_edge(2, 3, None)
        f.add_edge(3, 1, Fraction(5))
        assert f.max_flow(0, 1) == 1
        assert f.min_cut_source_side(0) == {0}


    def test_long_augmenting_path(self):
        # far longer than the recursion limit; the path is a chain of
        # finite edges after an infinite one
        n = 3000
        f = MaxFlow(n)
        f.add_edge(0, 2, None)
        for u in range(2, n - 1):
            f.add_edge(u, u + 1, Fraction(2))
        f.add_edge(n - 1, 1, Fraction(3))
        assert f.max_flow(0, 1) == 2


class TestMincut:
    def test_single_variable_unary(self):
        inst = Instance(DomainSpec((3,)), [
            Term(CostTable((3,), [Fraction(5), Fraction(1), Fraction(3)]), (0,))])
        res = solve_stp(inst, BinaryPair.min_max(inst.domains))
        assert res.optimum == 1
        assert res.argmin == (1,)

    def test_ising_chain(self):
        same = CostTable.from_function((2, 2), lambda a, b: Fraction(a != b))
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(same, (0, 1)), Term(same, (1, 2))])
        res = solve_stp(inst, BinaryPair.min_max(inst.domains))
        assert res.optimum == 0
        assert res.argmin[0] == res.argmin[1] == res.argmin[2]

    def test_random_submodular_matches_bruteforce(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(2, 5)
            sizes = tuple(rng.randint(2, 4) for _ in range(n))
            terms = [Term(random_unary(rng, s), (i,))
                     for i, s in enumerate(sizes)]
            for _ in range(rng.randint(1, n)):
                i, j = rng.sample(range(n), 2)
                terms.append(Term(
                    random_submodular_table(rng, sizes[i], sizes[j]), (i, j)))
            inst = Instance(DomainSpec(sizes), terms)
            res = solve_stp(inst, BinaryPair.min_max(inst.domains))
            ref = solve_bruteforce(inst)
            assert res.optimum == ref.optimum
            assert inst.evaluate(res.argmin) == res.optimum

    def test_crisp_interval_structure(self):
        # min/max closed crisp rows are intervals; the encoding keeps them
        rel = CostTable.relation((3, 3), [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        inst = Instance(DomainSpec((3, 3)), [
            Term(rel, (0, 1)),
            Term(CostTable((3,), [Fraction(2), Fraction(1), Fraction(5)]), (0,)),
            Term(CostTable((3,), [Fraction(3), Fraction(0), Fraction(4)]), (1,))])
        res = solve_stp(inst, BinaryPair.min_max(inst.domains))
        ref = solve_bruteforce(inst)
        assert res.optimum == ref.optimum
        assert inst.evaluate(res.argmin) == res.optimum

    def test_non_interval_crisp_rejected(self):
        rel = CostTable.relation((2, 3), [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)])
        inst = Instance(DomainSpec((2, 3)), [Term(rel, (0, 1))])
        with pytest.raises(StageError):
            CutEncoding(inst)

    def test_non_submodular_rejected(self):
        t = CostTable.from_function((2, 2), lambda a, b: Fraction(a * b))
        inst = Instance(DomainSpec((2, 2)), [Term(t, (0, 1))])
        with pytest.raises(StageError):
            CutEncoding(inst)

    def test_minimum_cut_decodes_consistent_levels(self):
        # every decoded assignment respects level monotonicity by design;
        # cross-check the decoded cost on tiny instances
        rng = random.Random(79)
        for _ in range(15):
            sizes = (3, 3)
            terms = [Term(random_unary(rng, 3), (0,)),
                     Term(random_unary(rng, 3), (1,)),
                     Term(random_submodular_table(rng, 3, 3), (0, 1))]
            inst = Instance(DomainSpec(sizes), terms)
            enc = CutEncoding(inst)
            optimum, argmin = enc.solve()
            assert all(0 <= v < 3 for v in argmin)
            assert inst.evaluate(argmin) == optimum


class TestSolveStp:
    def test_binary_submodular_takes_mincut(self):
        rng = random.Random(83)
        for _ in range(10):
            inst, system = random_submodular_instance(rng, max_vars=5, max_size=4)
            res = solve_stp(inst, system.pair)
            assert res.stats["path"] == "mincut"
            assert res.optimum == solve_bruteforce(inst).optimum

    def test_ternary_term_falls_back(self):
        d = DomainSpec((2, 2, 2))
        t = CostTable.from_function((2, 2, 2),
                                    lambda a, b, c: Fraction(max(a, b, c)))
        inst = Instance(d, [Term(t, (0, 1, 2))])
        res = solve_stp(inst, BinaryPair.min_max(d))
        assert res.stats["path"] == "bruteforce"
        assert res.stats["reason"] == "term arity above 2"
        assert res.optimum == 0

    def test_unary_only_sum_of_minima(self):
        rng = random.Random(89)
        sizes = (3, 4, 2)
        terms = [Term(random_unary(rng, s), (i,)) for i, s in enumerate(sizes)]
        inst = Instance(DomainSpec(sizes), terms)
        res = solve_stp(inst, BinaryPair.min_max(DomainSpec(sizes)))
        want = sum(min(t.table[(a,)] for a in range(sizes[i]))
                   for i, t in enumerate(terms))
        assert res.optimum == want

    def test_cyclic_tournament_falls_back_with_certificate(self):
        inst = Instance(DomainSpec((3,)), [
            Term(CostTable((3,), [Fraction(4), Fraction(2), Fraction(7)]), (0,))])
        res = solve_stp(inst, cyclic_pair())
        assert res.stats["path"] == "bruteforce"
        assert res.stats["cycles"] == [(0, 1, 2)]
        assert res.optimum == 2

    def test_reversed_order_relabelling(self):
        # max/min pair: tournament order is descending, still solved exactly
        d = DomainSpec((3, 3))
        pair = BinaryPair(
            d,
            [[[max(a, b) for b in range(3)] for a in range(3)]] * 2,
            [[[min(a, b) for b in range(3)] for a in range(3)]] * 2)
        rng = random.Random(97)
        # submodularity is symmetric in meet/join, so a submodular table
        # stays solvable after the descending relabelling
        t = random_submodular_table(rng, 3, 3)
        inst = Instance(d, [Term(t, (0, 1)),
                            Term(random_unary(rng, 3), (0,))])
        res = solve_stp(inst, pair)
        assert res.stats["path"] == "mincut"
        assert res.optimum == solve_bruteforce(inst).optimum

    def test_long_ising_chain_matches_chain_dp(self):
        # a recursive augmenting-path search overflowed the interpreter's
        # recursion limit here: the first variable prefers 1, the far end 0
        n = 1200
        strong = Fraction(10)
        couple = CostTable((2, 2), [Fraction(0), Fraction(1), Fraction(1),
                                    Fraction(0)])
        terms = [Term(CostTable((2,), [strong, Fraction(0)]), (0,)),
                 Term(CostTable((2,), [Fraction(0), strong]), (n - 1,))]
        terms += [Term(couple, (v, v + 1)) for v in range(n - 1)]
        inst = Instance(DomainSpec((2,) * n), terms)
        unary = [[Fraction(0)] * 2 for _ in range(n)]
        links = [None] * n
        for term in terms:
            if len(term.scope) == 1:
                for a in range(2):
                    unary[term.scope[0]][a] += term.table[(a,)]
            else:
                links[term.scope[1]] = term.table
        best = unary[0]
        for v in range(1, n):
            best = [min(best[a] + links[v][(a, b)] for a in range(2))
                    + unary[v][b] for b in range(2)]
        res = solve_stp(inst, BinaryPair.min_max(inst.domains))
        assert res.stats["path"] == "mincut"
        assert res.optimum == min(best) == 1
        assert inst.evaluate(res.argmin) == res.optimum

    def test_infeasible_crisp_instance(self):
        d = DomainSpec((2, 2))
        inst = Instance(d, [
            Term(CostTable.relation((2, 2), [(0, 0)]), (0, 1)),
            Term(CostTable.relation((2, 2), [(1, 1)]), (0, 1))])
        res = solve_stp(inst, BinaryPair.min_max(d))
        assert res.optimum is INF
        assert res.argmin is None


class TestPipeline:
    def test_full_stp_equals_solve_stp(self):
        rng = random.Random(101)
        for _ in range(5):
            inst, system = random_submodular_instance(rng, max_vars=4, max_size=3)
            res = solve_pipeline(inst, system)
            direct = solve_stp(inst, system.pair)
            assert res.optimum == direct.optimum
            if res.stats["path"] != "infeasible":
                assert res.stats["reduce_iterations"] == 0

    @pytest.mark.parametrize("n", [16, 48])
    def test_chain_above_cap_takes_mincut(self, n):
        # 3^n exceeds the default cap; stage 1 used to enumerate it
        inst, system = submodular_chain(random.Random(211 + n), n)
        res = solve_pipeline(inst, system)
        direct = solve_stp(inst, system.pair)
        assert res.stats["path"] == "mincut"
        assert (res.optimum, res.argmin) == (direct.optimum, direct.argmin)

    def test_paranoid_network_closure_check(self):
        # the "differ" relation is not closed under min/max
        d = DomainSpec((2, 2))
        net = BinaryNetwork(d)
        net.intersect(0, 1, np.array([[False, True], [True, False]]))
        with pytest.raises(StageError) as exc:
            _check_network_closed(net, BinaryPair.min_max(d))
        assert exc.value.stage == "solve"
        _check_network_closed(BinaryNetwork(d), BinaryPair.min_max(d))

    def test_boolean_pure_mjn_matches_oracle(self):
        rng = random.Random(103)
        for _ in range(10):
            inst, system = random_boolean_mjn_instance(rng)
            res = solve_pipeline(inst, system)
            assert res.optimum == solve_bruteforce(inst).optimum

    def test_mixed_instances_match_oracle(self):
        rng = random.Random(107)
        for _ in range(10):
            inst, system = random_instance(rng, max_vars=5, max_size=3)
            res = solve_pipeline(inst, system, paranoid=True)
            ref = solve_bruteforce(inst)
            assert res.optimum == ref.optimum
            if is_finite(res.optimum):
                assert inst.evaluate(res.argmin) == res.optimum

    def test_infeasible_instance(self):
        d = DomainSpec((2, 2, 2))
        neq = CostTable.relation((2, 2), [(0, 1), (1, 0)])
        inst = Instance(d, [Term(neq, (0, 1)), Term(neq, (1, 2)),
                            Term(neq, (0, 2))])
        system = OperationSystem(BinaryPair.min_max(d),
                                 MjnTriple.canonical(d), PairSet.full(d))
        res = solve_pipeline(inst, system)
        assert res.optimum is INF
        assert res.argmin is None
        assert res.stats["path"] == "infeasible"

    def test_missing_majority_structure_aborts(self):
        # parity is closed under minority but has no majority polymorphism
        d = DomainSpec((2, 2, 2))
        even = [t for t in itertools.product(range(2), repeat=3)
                if sum(t) % 2 == 0]
        inst = Instance(d, [Term(CostTable.relation((2, 2, 2), even), (0, 1, 2))])
        system = OperationSystem(BinaryPair.min_max(d),
                                 MjnTriple.canonical(d), PairSet.full(d))
        with pytest.raises(StageError) as exc:
            solve_pipeline(inst, system)
        assert exc.value.stage == "validate"

    def test_float_mode_tolerant(self):
        rng = random.Random(109)
        inst, system = random_submodular_instance(rng, max_vars=4, max_size=3)
        terms = [Term(CostTable(t.table.shape,
                                [e if e is INF else float(e)
                                 for e in t.table.entries]), t.scope)
                 for t in inst.terms]
        finst = Instance(inst.domains, terms)
        res = solve_pipeline(finst, system, tol=1e-9)
        ref = solve_bruteforce(finst)
        if res.optimum is INF:
            assert ref.optimum is INF
        else:
            assert abs(res.optimum - ref.optimum) < 1e-6

"""Brute force, tournament orders, the min-cut path and the pipeline."""

import functools
import itertools
import math
import random
from collections import Counter
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
    check_binary_multimorphism,
    extract_tournament_order,
    solve_bruteforce,
    solve_pipeline,
    solve_stp,
)
from vcsp.consistency import BinaryNetwork, run_stage1
from vcsp.costs import cost_eq, integer_costs, is_finite, scale_entries
from vcsp.io_formats import parse_instance_text, serialize_instance
from vcsp.model import _INT64_LIMIT, ScaledCosts
from vcsp.operations import OperationSystem, is_stp_on
from vcsp.reduction import run_stage2
from vcsp.solvers import (CutEncoding, MaxFlow, _check_network_closed,
                          _prune_unsupported, run_validate)

from harness import (
    criterion_1_draws,
    minmax_system,
    mixed_chain,
    random_boolean_mjn_instance,
    random_instance,
    random_submodular_instance,
    random_submodular_table,
    random_unary,
    submodular_chain,
    submodular_ladder,
)
from oracles import (DinicMaxFlow, LoopCutEncoding,
                     crisp_term_check_network_closed, intersect,
                     loop_extract_tournament_order, loop_is_stp_on,
                     loop_prune_unsupported)


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

    def test_join_equal_to_meet_never_reaches_the_check(self):
        # meet orders the labels, but join equals it on (0, 1), so the pair
        # is not min/max; it is refused before the check, which therefore
        # never reads a unary term as passing under it
        d = DomainSpec((2,))
        pair = BinaryPair(d, [[[0, 0], [0, 1]]], [[[0, 0], [0, 1]]])
        inst = Instance(d, [Term(CostTable((2,), [1, 0]), (0,))])
        assert not check_binary_multimorphism(inst.terms, pair)[0]
        with pytest.raises(VcspError, match="not conservative"):
            solve_stp(inst, pair)


def network(n, edges, flow=MaxFlow):
    """A max-flow over (tail, head, capacity) triples, INF for infinite."""
    return flow(n, [u for u, _, _ in edges], [v for _, v, _ in edges],
                [cap for _, _, cap in edges])


class FreeingMaxFlow(MaxFlow):
    """``MaxFlow`` counting the orphans its search tree frees: adoption
    frees nodes and grows none, so each call's new free nodes are its."""

    freed = 0

    def _adopt(self, orphans, tree, parent, active, queued):
        before = tree.count(False)
        super()._adopt(orphans, tree, parent, active, queued)
        self.freed += tree.count(False) - before


def assert_same_cut(n, tail, head, cap):
    """The search tree and Dinic's phases agree on the value and the
    source side; returns the number of orphans the tree freed."""
    got, want = (FreeingMaxFlow(n, tail, head, cap),
                 DinicMaxFlow(n, tail, head, cap))
    value = got.max_flow(0, 1)
    assert value == want.max_flow(0, 1)
    if value is not INF:
        assert got.source_side == want.source_side
    return got.freed


def far_end_ising(n):
    """Ising chain of ``n`` Boolean variables whose first variable prefers
    1 and whose last prefers 0, both strongly: every augmenting path runs
    along the chain."""
    strong = Fraction(10)
    couple = CostTable((2, 2), [Fraction(0), Fraction(1), Fraction(1),
                                Fraction(0)])
    terms = [Term(CostTable((2,), [strong, Fraction(0)]), (0,)),
             Term(CostTable((2,), [Fraction(0), strong]), (n - 1,))]
    terms += [Term(couple, (v, v + 1)) for v in range(n - 1)]
    return Instance(DomainSpec((2,) * n), terms)


class TestMaxFlow:
    def test_simple_network(self):
        f = network(4, [(0, 2, Fraction(3)), (0, 3, Fraction(2)),
                        (2, 1, Fraction(2)), (3, 1, Fraction(3)),
                        (2, 3, Fraction(1))])
        assert f.max_flow(0, 1) == 5

    def test_infinite_path(self):
        f = network(3, [(0, 2, INF), (2, 1, INF)])
        assert f.max_flow(0, 1) is INF

    def test_min_cut_side(self):
        f = network(4, [(0, 2, Fraction(1)), (2, 3, INF),
                        (3, 1, Fraction(5))])
        assert f.max_flow(0, 1) == 1
        assert f.source_side == {0}


    def test_long_augmenting_path(self):
        # far longer than the recursion limit; the path is a chain of
        # finite edges after an infinite one
        n = 3000
        f = network(n, [(0, 2, INF)]
                    + [(u, u + 1, Fraction(2)) for u in range(2, n - 1)]
                    + [(n - 1, 1, Fraction(3))])
        assert f.max_flow(0, 1) == 2

    def test_infinite_direct_path(self):
        f = network(4, [(0, 2, Fraction(1)), (0, 3, INF), (3, 2, INF),
                        (2, 1, INF)])
        assert f.max_flow(0, 1) is INF

    def test_mixed_capacities_and_parallel_arcs(self):
        # Fraction, int and infinite arcs, some of them parallel: the
        # flow stays exact, and the infinite arcs absorb what they carry
        edges = [(0, 2, Fraction(5, 2)), (0, 2, 1), (0, 3, INF),
                 (2, 3, 2), (2, 3, INF), (3, 2, Fraction(1, 3)),
                 (2, 4, Fraction(7, 3)), (3, 4, 4), (3, 4, Fraction(1, 6)),
                 (4, 1, 6), (2, 1, Fraction(1, 2)), (3, 1, 1), (3, 1, 2),
                 (4, 4, INF), (1, 0, INF)]
        got, want = network(5, edges), network(5, edges, DinicMaxFlow)
        value = got.max_flow(0, 1)
        assert value == want.max_flow(0, 1) == Fraction(19, 2)
        assert type(value) is Fraction
        assert got.source_side == want.source_side == {0, 2, 3, 4}

    def test_capacities_past_the_float_range(self):
        # no push touches an infinite arc, so an exact bottleneck above the
        # largest float passes through one, and an infinite path found after
        # such a flow still reads INF
        big = 10**400
        for flow in (MaxFlow, DinicMaxFlow):
            f = network(3, [(0, 2, INF), (2, 1, big)], flow)
            assert f.max_flow(0, 1) == big
            assert f.source_side == {0, 2}
            f = network(5, [(0, 2, big), (2, 3, INF), (3, 1, big + 1),
                            (0, 4, Fraction(big, 3)), (4, 1, INF)], flow)
            assert f.max_flow(0, 1) == Fraction(4 * big, 3)
            f = network(5, [(0, 2, big), (2, 3, INF), (3, 1, big),
                            (0, 4, INF), (4, 2, INF), (2, 1, INF)], flow)
            assert f.max_flow(0, 1) is INF
        rng = random.Random(20317)
        for _ in range(200):
            n = rng.randint(2, 6)
            edges = [(rng.randrange(n), rng.randrange(n),
                      INF if rng.random() < 0.3 else rng.randint(0, 9) * big)
                     for _ in range(rng.randint(0, 3 * n))]
            got, want = network(n, edges), network(n, edges, DinicMaxFlow)
            value = got.max_flow(0, 1)
            cuts = [sum(INF if c is INF else c for u, v, c in edges
                        if u in side and v not in side)
                    for r in range(n - 1)
                    for rest in itertools.combinations(range(2, n), r)
                    for side in [{0, *rest}]]
            assert value == want.max_flow(0, 1) == min(cuts)
            if value is not INF:
                assert got.source_side == want.source_side

    def test_matches_plain_dinic(self):
        # value and minimum cut as Dinic's phases alone find them, on random
        # networks with parallel arcs, self-loops and arcs into s or out of t
        rng = random.Random(20311)
        seen = Counter()
        for _ in range(600):
            n = rng.randint(2, 8)
            edges = [(rng.randrange(n), rng.randrange(n),
                      INF if rng.random() < 0.2
                      else rng.choice((rng.randint(0, 9),
                                       Fraction(rng.randint(0, 9), 3))))
                     for _ in range(rng.randint(0, 4 * n))]
            got, want = network(n, edges), network(n, edges, DinicMaxFlow)
            value = got.max_flow(0, 1)
            assert value == want.max_flow(0, 1)
            if value is INF:
                seen["infinite"] += 1
                continue
            assert got.source_side == want.source_side
            seen["positive" if value else "zero"] += 1
            arcs = {(u, v) for u, v, _ in edges}
            seen["direct path"] += any(
                (0, u) in arcs and (v, 1) in arcs
                for u, v in arcs if {u, v}.isdisjoint((0, 1)))
        assert min(seen.values()) >= 30

    def test_tree_adopts_and_frees_orphans(self):
        # random networks of 10 to 40 nodes with a long infinite chain,
        # parallel arcs, self-loops and arcs into s and out of t, on
        # Fraction capacities and ints past 2**63 and past the float range:
        # the search tree re-adopts and frees orphans, and still ends on the
        # value and the source side of Dinic's phases.  Capacities of one
        # or two units let a push saturate several tree arcs at once.
        rng = random.Random(20323)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(10, 40)
            unit = rng.choice((1, Fraction(1, 3), 2**64 + 1, 10**400))

            def cap():
                return INF if rng.random() < 0.1 else rng.randint(1, 2) * unit

            edges = [(rng.randrange(n), rng.randrange(n), cap())
                     for _ in range(rng.randint(n, 3 * n))]
            chain = rng.sample(range(2, n), rng.randint(2, n - 2))
            edges += [(u, v, INF) for u, v in zip(chain, chain[1:])]
            loop = rng.randrange(n)
            edges += [(rng.randrange(n), 0, cap()),
                      (1, rng.randrange(n), cap()), (loop, loop, cap())]
            edges += edges[:len(edges) // 2]  # parallel arcs
            rng.shuffle(edges)
            freed = assert_same_cut(n, *zip(*edges))
            seen["freed" if freed else "kept"] += 1
        assert seen["freed"] >= 30 and seen["kept"] >= 30

    def test_freed_orphan_grows_back_from_an_adopted_one(self):
        # the push 0 -> 5 -> 2 -> 4 -> 1 saturates the first of each
        # parallel pair; orphan 2 comes first and is freed, since its one
        # neighbour 5 is an orphan too, then 5 is adopted over the second
        # arc from 0: freeing 2 must have activated 5, which grows S back
        # over 2 and 4
        edges = [(5, 2, 3), (0, 5, 3), (0, 5, 3), (5, 2, 3), (4, 1, 3),
                 (2, 4, INF)]
        f = network(6, edges, FreeingMaxFlow)
        assert f.max_flow(0, 1) == 3
        assert f.source_side == {0, 2, 4, 5}
        assert f.freed == 2
        assert assert_same_cut(6, *zip(*edges)) == 2

    @pytest.mark.parametrize("width, columns", [(1, 10), (1, 1000), (3, 30),
                                                (3, 1000)])
    def test_ladder_networks_match_dinic(self, width, columns):
        inst, _ = submodular_ladder(random.Random(20327 + columns), width,
                                    columns)
        enc = CutEncoding(inst)
        assert_same_cut(enc.n_nodes, enc.tail, enc.head, enc.cap)

    def test_far_end_ising_network_matches_dinic(self):
        # each augmenting path saturates arcs deep in the tree: the orphans
        # below them are freed and grown again, many times over
        enc = CutEncoding(far_end_ising(1200))
        assert assert_same_cut(enc.n_nodes, enc.tail, enc.head, enc.cap) >= 30

    def test_float_draws_match_dinic(self, monkeypatch):
        # float sums depend on the order of augmentation: on the
        # criterion-1 draws parsed with float costs, the search tree's optimum
        # is cost_eq to that of Dinic's phases, at the same argmin
        import vcsp.solvers as solvers
        networks = []

        class Recorded(MaxFlow):
            def __init__(self, *args):
                networks.append(args)
                super().__init__(*args)

        monkeypatch.setattr(solvers, "MaxFlow", Recorded)
        for inst, system in criterion_1_draws(250):
            inst = parse_instance_text(serialize_instance(inst),
                                       float_mode=True)
            try:
                solve_pipeline(inst, system)
            except VcspError:
                pass
        for args in networks:
            got, want = MaxFlow(*args), DinicMaxFlow(*args)
            value = got.max_flow(0, 1)
            assert cost_eq(value, want.max_flow(0, 1))
            if value is not INF:
                assert got.source_side == want.source_side
        assert len(networks) >= 25
        assert any(type(c) is float for args in networks for c in args[3])


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
        # row 0 is {0, 2}: min of (0, 2) and (1, 1) is (0, 1), not in the
        # relation, so the solve's own check rejects it before encoding
        rel = CostTable.relation((2, 3), [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)])
        inst = Instance(DomainSpec((2, 3)), [Term(rel, (0, 1))])
        with pytest.raises(VcspError, match="term 0 is not submodular under "
                                            "the extracted order"):
            solve_stp(inst, BinaryPair.min_max(inst.domains))

    def test_non_submodular_rejected(self):
        t = CostTable.from_function((2, 2), lambda a, b: Fraction(a * b))
        inst = Instance(DomainSpec((2, 2)), [Term(t, (0, 1))])
        with pytest.raises(StageError):
            CutEncoding(inst)

    def test_empty_column_pruned(self):
        # both rows are the interval [0, 1]: no row reaches label 2, which
        # the solve prunes before encoding, though it is the cheapest
        t = CostTable((2, 3), [0, 0, INF, 0, 0, INF])
        inst = Instance(DomainSpec((2, 3)), [
            Term(t, (0, 1)), Term(CostTable((3,), [3, 2, 0]), (1,))])
        res = solve_stp(inst, BinaryPair.min_max(inst.domains))
        assert res.stats["path"] == "mincut"
        assert (res.optimum, res.argmin) == (2, (0, 1))
        ref = solve_bruteforce(inst)
        assert (res.optimum, res.argmin) == (ref.optimum, ref.argmin)

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
        inst = far_end_ising(n)
        terms = inst.terms
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
        intersect(net, 0, 1, np.array([[False, True], [True, False]]))
        with pytest.raises(StageError) as exc:
            _check_network_closed(net, BinaryPair.min_max(d))
        assert exc.value.stage == "solve"
        _check_network_closed(BinaryNetwork(d), BinaryPair.min_max(d))

    def test_network_check_matches_crisp_term_oracle(self):
        # the blocks of R give the errors and witnesses of one crisp Term per
        # relation, on the stage-1 networks of the criterion-1 draws, under
        # the final pair and under random conservative pairs
        def outcome(check, net, pair):
            try:
                check(net, pair)
            except StageError as exc:
                (i, j, _) = exc.witness
                assert type(i) is int and type(j) is int
                return exc.stage, str(exc), exc.witness
            return None

        rng = random.Random(20323)
        seen = Counter()
        for inst, system in criterion_1_draws(250):
            try:
                stage1 = run_stage1(inst, run_validate(inst, system))
                if stage1 is None:
                    continue
                _, inst_r, ops_r, net = stage1
                final = run_stage2(inst_r, ops_r, net).pair
            except VcspError:
                continue
            d = net.domains
            for kind in ["final"] + ["random"] * 8:
                pair = final if kind == "final" else BinaryPair(d, *(
                    [[[rng.choice((a, b)) for b in range(s)]
                      for a in range(s)] for s in d.sizes] for _ in range(2)))
                got = outcome(_check_network_closed, net, pair)
                assert got == outcome(crisp_term_check_network_closed, net,
                                      pair)
                seen[kind, got is None] += 1
        assert seen["final", True] >= 60 and seen["final", False] == 0, seen
        assert min(seen["random", True], seen["random", False]) >= 30, seen

    def test_pipeline_builds_the_mask_view_once(self, monkeypatch):
        # validation, decomposition and certification read one per-arity
        # view of the instance's store, built on the first read
        view = ScaledCosts.__dict__["masks"]
        builds, reads = [], []

        def build(costs):
            builds.append(costs)
            return view.func(costs)

        counted = functools.cached_property(build)
        counted.__set_name__(ScaledCosts, "masks")
        monkeypatch.setattr(ScaledCosts, "masks", property(
            lambda costs: reads.append(costs) or counted.__get__(costs)))
        seen = Counter()
        for inst, system in criterion_1_draws(250):
            inst = Instance(inst.domains, inst.terms)  # a store of its own
            if inst.merged is not inst:
                continue
            builds.clear()
            reads.clear()
            try:
                path = solve_pipeline(inst, system).stats["path"]
            except VcspError:
                continue
            assert builds == [inst.costs]
            assert reads == [inst.costs] * (2 if path == "infeasible" else 3)
            seen[path == "infeasible"] += 1
        assert seen[True] >= 40 and seen[False] >= 40, seen

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

    def test_reduce_iterations_count_only_stage_2_lines(self):
        # a caller's trace may already hold lines; stage 2 ran 16 iterations
        inst, system = mixed_chain(random.Random(0), 12)
        for earlier in ([], ["earlier line"]):
            trace = list(earlier)
            res = solve_pipeline(inst, system, trace=trace)
            assert res.stats["reduce_iterations"] == 16
            assert len(trace) == len(earlier) + 16

    @pytest.mark.parametrize("constant, want", [
        (3, (4, (0, 0), "mincut")), (INF, (INF, None, "infeasible"))])
    def test_nullary_term(self, constant, want):
        # 3 plus the unary 1 at label 0: the cut encoding dropped the
        # constant and stage 1 refused the infinite one
        d = DomainSpec((2, 2))
        inst = Instance(d, [Term(CostTable((), [constant]), ()),
                            Term(CostTable((2,), [1, 1]), (0,))])
        res = solve_pipeline(inst, minmax_system(d), paranoid=True)
        assert (res.optimum, res.argmin, res.stats["path"]) == want
        res = solve_stp(inst, BinaryPair.min_max(d))
        assert (res.optimum, res.argmin) == want[:2]

    def test_nullary_terms_match_oracle(self):
        # 1-2 constant terms, some INF, at random positions of mixed and
        # submodular draws; pipeline and solve_stp agree with brute force
        rng = random.Random(20322)
        seen = Counter()
        for k in range(60):
            if k % 2:
                inst, system = random_instance(rng, max_vars=5, max_size=3)
            else:
                inst, system = random_submodular_instance(
                    rng, max_vars=4, max_size=3)
            terms = list(inst.terms)
            for _ in range(rng.randint(1, 2)):
                c = rng.choice((0, Fraction(rng.randint(1, 9), 4), INF)
                               if rng.random() < 0.9 else (INF,))
                terms.insert(rng.randint(0, len(terms)),
                             Term(CostTable((), [c]), ()))
            inst = Instance(inst.domains, terms)
            ref = solve_bruteforce(inst)
            solves = [solve_pipeline(inst, system, paranoid=k % 4 < 2)]
            if k % 2 == 0:
                solves.append(solve_stp(inst, system.pair))
            for res in solves:
                assert res.optimum == ref.optimum
                if is_finite(res.optimum):
                    assert inst.evaluate(res.argmin) == res.optimum
                else:
                    assert res.argmin is None
            seen[is_finite(ref.optimum)] += 1
        assert min(seen[True], seen[False]) >= 15, seen

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

    def test_first_unclosed_term_in_term_order(self):
        # the binary group (terms 0 and 3) fails at term 3 and the unary
        # group passes; the ternary parity term 2 is the first that fails
        d = DomainSpec((2, 2, 2, 3, 3))
        even = [t for t in itertools.product(range(2), repeat=3)
                if sum(t) % 2 == 0]
        inst = Instance(d, [
            Term(CostTable.from_function(
                (3, 3), lambda a, b: 0 if a <= b else INF), (3, 4)),
            Term(CostTable((2,), [1, 0]), (0,)),
            Term(CostTable.relation((2, 2, 2), even), (0, 1, 2)),
            Term(CostTable.from_function(
                (3, 3), lambda a, b: 0 if a != b else INF), (3, 4))])
        system = minmax_system(d)
        with pytest.raises(StageError) as exc:
            run_validate(inst, system)
        assert exc.value.witness == 2
        assert str(exc.value) == (
            "stage validate: derived majority operation is not a "
            "polymorphism of term 2; the required operation structure is "
            "missing")
        without_parity = Instance(d, inst.terms[:2] + inst.terms[3:])
        with pytest.raises(StageError) as exc:
            run_validate(without_parity, system)
        assert exc.value.witness == 2  # the disequality, now third

    def test_float_mode_tolerant(self):
        rng = random.Random(109)
        inst, system = random_submodular_instance(rng, max_vars=4, max_size=3)
        terms = [Term(CostTable(t.table.shape,
                                [e if e is INF else float(e)
                                 for e in t.table.entries]), t.scope)
                 for t in inst.terms]
        finst = Instance(inst.domains, terms)
        res = solve_pipeline(finst, system)
        ref = solve_bruteforce(finst)
        if res.optimum is INF:
            assert ref.optimum is INF
        else:
            assert abs(res.optimum - ref.optimum) < 1e-6


# Denominators of the costs the encoding tests draw, so that one instance
# mixes several and its scale is their LCM.
UNITS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 6))


def fraction_cost(rng, hi=6):
    return rng.randint(0, hi) * rng.choice(UNITS)


def fraction_submodular_table(rng, si, sj):
    """Finite pairwise table, submodular under the numeric order, whose
    costs have mixed denominators."""
    u = [fraction_cost(rng) for _ in range(si)]
    v = [fraction_cost(rng) for _ in range(sj)]
    alpha = [[-fraction_cost(rng, 3) for _ in range(sj - 1)]
             for _ in range(si - 1)]
    vals = [u[a] + v[b] + sum(alpha[l][m] for l in range(a) for m in range(b))
            for a in range(si) for b in range(sj)]
    return CostTable((si, sj), [c - min(vals) for c in vals])


def interval_rows(rng, si, sj):
    """Crisp pairwise table whose feasible rows are intervals [lo, hi], lo
    and hi non-decreasing: closed under min/max.  The last row reaches the
    last label, which the encoding needs of a term that pruning kept."""
    lo = sorted(rng.randint(0, sj - 1) for _ in range(si))
    hi = [max(h, low) for h, low in zip(
        sorted(rng.randint(0, sj - 1) for _ in range(si - 1)) + [sj - 1], lo)]
    return CostTable.from_function(
        (si, sj), lambda a, b: Fraction(0) if lo[a] <= b <= hi[a] else INF)


def random_encoding_instance(rng):
    """Unary, soft submodular, crisp interval and combined pairwise terms
    over 2-6 variables of domain sizes 1-4."""
    n = rng.randint(2, 6)
    sizes = tuple(rng.randint(1, 4) for _ in range(n))
    terms = [Term(CostTable((s,), [fraction_cost(rng) for _ in range(s)]),
                  (i,)) for i, s in enumerate(sizes)]
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(("soft", "soft", "crisp", "both"))
        soft = fraction_submodular_table(rng, sizes[i], sizes[j])
        crisp = interval_rows(rng, sizes[i], sizes[j])
        table = crisp if kind == "crisp" else soft
        if kind == "both":
            table = CostTable(soft.shape, [
                c + r for c, r in zip(soft.entries, crisp.entries)])
        terms.append(Term(table, (i, j)))
    return Instance(DomainSpec(sizes), terms)


def encode(cls, instance):
    try:
        return cls(instance)
    except VcspError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def assert_same_network(enc, loop):
    """The encoding is the loop encoding's network scaled by ``enc.scale``
    (or the same network, without a scale), and solves to its answer."""
    assert enc.n_nodes == loop.n_nodes
    assert list(enc.edges) == list(loop.edges)
    scale = 1 if enc.scale is None else enc.scale
    for key, cap in loop.edges.items():
        if cap is INF:
            assert enc.edges[key] is INF
        else:
            assert enc.edges[key] == cap * scale
            if enc.scale is not None:
                assert type(enc.edges[key]) is int
    assert enc.offset == loop.offset * scale
    optimum, argmin = enc.solve()
    want = loop.solve()
    assert (optimum, argmin) == want
    assert str(optimum) == str(want[0])
    assert argmin is None or all(type(v) is int for v in argmin)
    return optimum


class TestCutEncodingMatchesLoop:
    def test_random_instances(self):
        # every draw meets the encoder's preconditions; in some of them a
        # combined term's clamped table is not submodular and is extended
        rng = random.Random(20281)
        seen = Counter()
        for _ in range(400):
            inst = random_encoding_instance(rng)
            enc = CutEncoding(inst)
            loop = LoopCutEncoding(inst)
            optimum = assert_same_network(enc, loop)
            seen["solved", optimum is INF, enc.scale > 1] += 1
            seen["extended"] += loop.extended > 0
        assert seen["solved", False, True] >= 100
        assert seen["extended"] >= 50

    @pytest.mark.parametrize("terms, error, witness", [
        # alpha is positive at (1, 2) and (2, 1); the first in row-major
        # order is reported
        ([((3, 3), [0, 0, 0, 0, 0, 1, 0, 1, 3], (1, 0))], StageError,
         (1, 0, 1, 2)),
        # a failing pairwise term is reported before a later ternary one
        ([((2, 2), [0, 0, 0, 1], (0, 1)), ((2, 2, 2), [0] * 8, (0, 1, 2))],
         StageError, (0, 1, 1, 1)),
    ])
    def test_errors_witness_for_witness(self, terms, error, witness):
        sizes = [1, 1, 1]
        for shape, _, scope in terms:
            for var, size in zip(scope, shape):
                sizes[var] = size
        inst = Instance(DomainSpec(sizes), [
            Term(CostTable(shape, [e if e is INF else Fraction(e, 2)
                                   for e in entries]), scope)
            for shape, entries, scope in terms])
        got = encode(CutEncoding, inst)
        assert got == encode(LoopCutEncoding, inst)
        assert got[0] is error and got[2] == witness

    def test_float_costs_with_tolerance(self):
        rng = random.Random(20282)
        solved = extended = 0
        for _ in range(60):
            inst = random_encoding_instance(rng)
            terms = [Term(CostTable(t.table.shape, [
                e if e is INF else float(e) for e in t.table.entries]),
                t.scope) for t in inst.terms]
            # a coupling 1e-12 above submodular passes under the tolerance,
            # and a crisp term's clamped table 1e-12 above it is not extended
            fuzz = CostTable((2, 2), [0.0, 0.0, 0.0, 1e-12])
            crisp_fuzz = CostTable((2, 3), [0.0, 0.0, INF, INF, 0.0, 1e-12])
            n = inst.domains.variable_count
            inst = Instance(DomainSpec(inst.domains.sizes + (2, 2, 3)),
                            terms + [Term(fuzz, (n, n + 1)),
                                     Term(crisp_fuzz, (n, n + 2))])
            enc = CutEncoding(inst)
            loop = LoopCutEncoding(inst)
            assert enc.scale is None
            optimum = assert_same_network(enc, loop)
            solved += optimum is not INF and isinstance(optimum, float)
            extended += loop.extended > 0
        assert solved >= 20
        assert extended >= 10


def test_float_tolerance_is_each_terms_own():
    # the coupling of the 2x2 term on (0, 1) is -0.5 on costs near 1; the
    # term on (1, 2) reaches 4e9, which would make a tolerance over the
    # whole instance about 4
    inst = Instance(DomainSpec((2, 2, 2)), [
        Term(CostTable((2, 2), [1e9, 2e9, 3e9, 4e9]), (1, 2)),
        Term(CostTable((2, 2), [1.0, 1.0, 1.0, 1.5]), (0, 1))])
    assert encode(CutEncoding, inst) == encode(LoopCutEncoding, inst) == (
        StageError, "stage mincut: pairwise term is not submodular after "
        "relabelling", (0, 1, 1, 1))
    with pytest.raises(VcspError, match="term 1 is not submodular"):
        solve_stp(inst, BinaryPair.min_max(inst.domains))


def test_exact_table_in_a_float_instance_compares_exactly():
    # each table's tolerance follows its own cost class, in the encoder as
    # in the check: an exact alpha of 1e-12 fails beside a float term
    inst = Instance(DomainSpec((2, 2)), [
        Term(CostTable((2,), [0.5, 0.25]), (0,)),
        Term(CostTable((2, 2), [0, 0, 0, Fraction(1, 10**12)]), (0, 1))])
    assert encode(CutEncoding, inst) == encode(LoopCutEncoding, inst) == (
        StageError, "stage mincut: pairwise term is not submodular after "
        "relabelling", (0, 1, 1, 1))
    with pytest.raises(VcspError, match="term 1 is not submodular"):
        solve_stp(inst, BinaryPair.min_max(inst.domains))


def test_float_chains_at_large_scale_solve():
    # solve_stp compares its cut optimum with the cost of its argmin; float
    # costs near 1e17 round far above 1e-9 in either sum
    rng = random.Random(20291)
    for k in range(300):
        inst, system = submodular_chain(rng, 6)
        terms = []
        for t in inst.terms:
            offset = 1e17 * (1 + rng.random())  # keeps the table submodular
            terms.append(Term(CostTable(t.table.shape, [
                float(e) * 1e16 + offset for e in t.table.entries]), t.scope))
        inst = Instance(inst.domains, terms)
        res = solve_stp(inst, system.pair)
        assert res.stats["path"] == "mincut"
        if k % 10 == 0:
            assert cost_eq(res.optimum, solve_bruteforce(inst).optimum)


def not_submodular(si, sj):
    """A finite pairwise table whose alpha is 1/2 at every level pair."""
    return CostTable.from_function((si, sj), lambda r, c: Fraction(r * c, 2))


def test_long_mixed_shape_lists_match_loop_witness_for_witness():
    # 220 or more terms of shapes 2x2, 2x3, 3x2 and 3x3 with crisp rows and
    # Fraction costs; a failing term of one shape comes after the first
    # group, of another shape, which passes
    rng = random.Random(20298)
    seen = Counter()
    for trial in range(28):
        n = 12
        sizes = tuple(rng.choice((2, 3)) for _ in range(n))
        terms = [Term(CostTable((s,), [fraction_cost(rng) for _ in range(s)]),
                      (i,)) for i, s in enumerate(sizes)]
        while len(terms) < 220:
            i, j = rng.sample(range(n), 2)
            make = rng.choice((fraction_submodular_table, interval_rows))
            terms.append(Term(make(rng, sizes[i], sizes[j]), (i, j)))
        first_shape = terms[n].table.shape  # its group is laid out first
        failing = trial % 4 != 0
        if failing:
            i, j = next((i, j) for i, j in (rng.sample(range(n), 2)
                                            for _ in itertools.count())
                        if (sizes[i], sizes[j]) != first_shape)
            at = rng.randrange(150, len(terms))
            terms.insert(at, Term(not_submodular(sizes[i], sizes[j]), (i, j)))
            # a later failure, in the first group's shape
            later = rng.randrange(at + 1, len(terms) + 1)
            terms.insert(later, Term(not_submodular(*first_shape),
                                     terms[n].scope))
        inst = Instance(DomainSpec(sizes), terms)
        got = encode(CutEncoding, inst)
        loop = encode(LoopCutEncoding, inst)
        if failing:
            assert got == loop
            assert got[2] == (i, j, 1, 1)
        else:
            assert_same_network(got, loop)
        seen[failing] += 1
    assert seen[False] == 7 and seen[True] == 21


def test_costs_near_the_int64_limit_stay_exact():
    # the scaled costs are below 2**59, so the check holds them in int64;
    # variable 0's shares sum far beyond 2**63, so the encoding must not
    base = Fraction(2**59 // 6 - 64)
    rng = random.Random(20299)
    for _ in range(4):
        sizes = (3,) * 6
        terms = []
        for k in range(40):
            terms.append(Term(CostTable((3,), [
                base + fraction_cost(rng) for _ in range(3)]), (0,)))
            table = fraction_submodular_table(rng, 3, 3)
            terms.append(Term(CostTable((3, 3), [
                base + c for c in table.entries]), (0, 1 + k % 5)))
        inst = Instance(DomainSpec(sizes), terms)
        costs = inst.costs
        assert costs.scale == 6
        assert all(group[2].dtype == np.int64 for group in costs.groups)
        largest = max(int(group[2].max()) for group in costs.groups)
        assert largest < 2**59 and 40 * largest > 2**63
        enc = CutEncoding(inst)
        assert_same_network(enc, LoopCutEncoding(inst))
        assert type(enc.offset) is int
        assert all(cap is INF or type(cap) is int
                   for cap in enc.edges.values())


def test_costs_past_the_float_range_stay_exact():
    # scaled costs, and the scale, above the largest float: flow pushed
    # through the infinite chain arcs must not meet them in a float sum
    rng = random.Random(20319)
    seen = Counter()
    for _ in range(40):
        inst, _ = random_submodular_instance(rng, max_vars=4, max_size=4)
        wide = rng.random() < 0.5  # some denominators past the float range
        factors = [rng.choice((10**400, Fraction(1, 3**700),
                               Fraction(1, 7**400)) if wide else (10**400,))
                   for _ in inst.terms]
        inst = Instance(inst.domains, [Term(CostTable(t.table.shape, [
            e if e is INF else e * k for e in t.table.entries]), t.scope)
            for t, k in zip(inst.terms, factors)])
        got = solve_stp(inst, BinaryPair.min_max(inst.domains))
        want = solve_bruteforce(inst)
        assert got.optimum == want.optimum
        if want.optimum is not INF:
            assert inst.evaluate(got.argmin) == want.optimum
            seen[inst.costs.scale > 10**308] += 1
    assert min(seen.values()) >= 5 and len(seen) == 2


# A 3x2 term whose rows are [0, 1], [1, 1] and [1, 1]: submodular on its
# feasible set, but its clamped table's alpha at (1, 1) is 6 - 1 - 4 + 4 = 5.
CLAMPED_NOT_SUBMODULAR = {(0, 0): 6, (0, 1): 1, (1, 1): 4, (2, 1): 6}


def clamped_not_submodular(base=0, weight=1):
    return CostTable.from_function((3, 2), lambda a, b: INF if (
        a, b) not in CLAMPED_NOT_SUBMODULAR else base + weight * Fraction(
        CLAMPED_NOT_SUBMODULAR[a, b]))


@pytest.mark.parametrize("float_costs", [False, True])
def test_clamped_table_not_submodular_is_extended(float_costs):
    # the min/max check passes and brute force finds 1 at (0, 1); the
    # encoder rejected the clamped table before it added the distance
    # penalty, and solve_stp raised
    table = clamped_not_submodular()
    if float_costs:
        table = CostTable((3, 2), [
            e if e is INF else float(e) for e in table.entries])
    inst = Instance(DomainSpec((3, 2)), [Term(table, (0, 1))])
    res = solve_stp(inst, BinaryPair.min_max(inst.domains))
    assert res.stats["path"] == "mincut"
    assert (res.optimum, res.argmin) == (1, (0, 1))
    assert type(res.optimum) is (float if float_costs else Fraction)
    loop = LoopCutEncoding(inst)
    assert loop.extended == 1
    assert_same_network(CutEncoding(inst), loop)


def test_seed_draws_match_bruteforce():
    # the draws of test_random_instances through solve_stp, and every
    # fourth again with float costs; the parent rejected 60 of the 400
    rng = random.Random(20281)
    for k in range(400):
        inst = random_encoding_instance(rng)
        variants = [inst]
        if k % 4 == 0:
            variants.append(Instance(inst.domains, [Term(CostTable(
                t.table.shape, [e if e is INF else float(e)
                                for e in t.table.entries]), t.scope)
                for t in inst.terms]))
        for inst in variants:
            res = solve_stp(inst, BinaryPair.min_max(inst.domains))
            ref = solve_bruteforce(inst)
            assert cost_eq(res.optimum, ref.optimum)
            if res.argmin is not None:
                assert cost_eq(inst.evaluate(res.argmin), ref.optimum)


def test_extended_costs_near_the_int64_limit_stay_exact():
    # every scaled cost is below 2**59, so the check holds them in int64;
    # the crisp term on (0, 1) has rows [0, 0] and [0, 19], and its row 1
    # rises by about 2**59 from label 0 to 1, which the extension adds to
    # row 0 up to 19 times: a share of it is far beyond 2**63, so the
    # encoder must move the term to Python ints
    big = Fraction(2**59 - 13, 6)
    crisp = CostTable.from_function((2, 20), lambda a, b: (
        big if b else 0) if a else INF if b else Fraction(1, 3))
    inst = Instance(DomainSpec((2, 20, 3)), [
        Term(crisp, (0, 1)),
        Term(CostTable((20,), [big - b for b in range(20)]), (1,)),
        Term(fraction_submodular_table(random.Random(20301), 3, 2), (2, 0))])
    costs = inst.costs
    assert costs.scale == 6
    assert all(group[2].dtype == np.int64 for group in costs.groups)
    enc = CutEncoding(inst)
    loop = LoopCutEncoding(inst)
    assert loop.extended == 1
    assert_same_network(enc, loop)
    assert type(enc.offset) is int
    assert all(cap is INF or type(cap) is int for cap in enc.edges.values())
    assert max(c for c in enc.edges.values() if c is not INF) > 2**63
    res = solve_stp(inst, BinaryPair.min_max(inst.domains))
    ref = solve_bruteforce(inst)
    assert (res.optimum, res.argmin) == (ref.optimum, ref.argmin)


def relabelled(inst, perms):
    """``inst`` with label a of variable i renamed ``perms[i][a]``, and the
    pair that is min/max in the old labels."""
    inverse = [sorted(range(len(p)), key=p.__getitem__) for p in perms]
    terms = [Term(CostTable.from_function(
        t.table.shape, lambda *x, t=t: t.table[
            tuple(inverse[v][a] for v, a in zip(t.scope, x))]), t.scope)
        for t in inst.terms]
    tables = [[[p[op(q[x], q[y])] for y in range(len(p))]
               for x in range(len(p))] for p, q in zip(perms, inverse)
              for op in (min, max)]
    return (Instance(inst.domains, terms),
            BinaryPair(inst.domains, tables[0::2], tables[1::2]))


def assert_encodable(instance):
    """What CutEncoding takes on trust: arity at most 2, no unary INF, and
    each pairwise term's rows non-empty intervals [lo, hi], lo and hi
    non-decreasing, and every label of its second variable in some row."""
    for term in instance.terms:
        table = term.table
        assert table.arity <= 2
        if table.arity < 2:
            assert INF not in table.entries
            continue
        si, sj = table.shape
        rows = [[b for b in range(sj) if table[(a, b)] is not INF]
                for a in range(si)]
        assert all(row == list(range(row[0], row[-1] + 1)) for row in rows)
        lo, hi = [row[0] for row in rows], [row[-1] for row in rows]
        assert lo == sorted(lo) and hi == sorted(hi)
        assert {b for row in rows for b in row} == set(range(table.shape[1]))


def test_solve_hands_the_encoder_its_preconditions(monkeypatch):
    # the seed draws, with every variable's labels permuted (so that the
    # extracted orders are reversed or shuffled) and with terms that
    # repeat a variable; every instance solve_stp encodes is checked
    import vcsp.solvers as solvers

    encoded = []

    class Checked(CutEncoding):
        def __init__(self, instance, *args):
            assert_encodable(instance)
            encoded.append(instance)
            super().__init__(instance, *args)

    monkeypatch.setattr(solvers, "CutEncoding", Checked)
    rng = random.Random(20281)
    for _ in range(200):
        inst = random_encoding_instance(rng)
        sizes = inst.domains.sizes
        make = (fraction_submodular_table, interval_rows)
        repeated = [Term(rng.choice(make)(rng, s, s), (i, i))
                    for i, s in enumerate(sizes) if rng.random() < 0.5]
        inst, pair = relabelled(
            Instance(inst.domains, inst.terms + repeated),
            [rng.sample(range(s), s) for s in sizes])
        res = solve_stp(inst, pair)
        assert res.optimum == solve_bruteforce(inst).optimum
    assert len(encoded) >= 150
    assert sum(any(t.table.arity == 2 and INF in t.table.entries
                   for t in e.terms) for e in encoded) >= 50


def test_float_networks_follow_the_loops_term_order():
    # float sums depend on their order: each network is the loop's to the
    # bit, in either term order, and the two orders differ in some networks
    rng = random.Random(20300)
    differ = 0
    for _ in range(30):
        sizes = (3,) * 4
        terms = []
        for _ in range(24):
            weight = rng.choice((1e16, 1.0, 1e-3, 3.3))
            unary = [weight * rng.random() for _ in range(3)]
            terms.append(Term(CostTable((3,), unary), (rng.randrange(4),)))
            i, j = rng.sample(range(4), 2)
            table = fraction_submodular_table(rng, 3, 3)
            terms.append(Term(CostTable((3, 3), [
                weight * float(c) for c in table.entries]), (i, j)))
        networks = []
        for order in (terms, terms[::-1]):
            inst = Instance(DomainSpec(sizes), order)
            enc = encode(CutEncoding, inst)
            loop = encode(LoopCutEncoding, inst)
            if isinstance(enc, tuple):
                assert enc == loop
                break
            assert enc.scale is None
            assert_same_network(enc, loop)
            networks.append((loop.offset, sorted(loop.edges.items())))
        else:
            differ += networks[0] != networks[1]
    assert differ >= 10


@pytest.mark.parametrize("corrupt", ["offset", "restriction"])
def test_cut_cross_check_catches_a_corrupted_encoding(corrupt, monkeypatch):
    # solve_stp compares the cut optimum with the cost of the assignment it
    # decodes, read in the caller's labels on the unrestricted terms; an
    # encoding whose offset is off by one fails that check, and so does a
    # restriction that loses a term
    import vcsp.solvers as solvers

    inst, system = submodular_chain(random.Random(20297), 5)
    inst = Instance(inst.domains, inst.terms + [
        Term(CostTable((3,), [1, 1, 1]), (0,))])
    assert solve_stp(inst, system.pair).stats["path"] == "mincut"
    if corrupt == "offset":
        class OffByOne(CutEncoding):
            def __init__(self, *args):
                super().__init__(*args)
                self.offset += 1

        monkeypatch.setattr(solvers, "CutEncoding", OffByOne)
    else:
        restrict = solvers.restrict_instance

        def lossy(instance, keep):
            restricted = restrict(instance, keep)
            return Instance(restricted.domains, restricted.terms[:-1])

        monkeypatch.setattr(solvers, "restrict_instance", lossy)
    with pytest.raises(VcspError, match=r"^cut optimum \S+ disagrees with "
                       r"the decoded assignment cost \S+$"):
        solve_stp(inst, system.pair)


def test_integer_costs_one_scale_for_all_tables():
    tables = [[Fraction(1, 2), INF], [Fraction(5, 6), 2]]
    assert integer_costs(tables) == (6, [[3, INF], [5, 12]])
    assert integer_costs([[0.5, INF]]) == (None, [[0.5, INF]])
    assert integer_costs([[INF]]) == (1, [[INF]])


def test_integer_costs_whole_ints_match_the_lcm_pass():
    # tables of ints and INF alone skip the LCM pass; True, Fraction(n, 1)
    # and any p/q take it; both give the same scale, rows and groups, and
    # ints at 2**63 or above stay Python ints in an object array
    rng = random.Random(20312)
    seen = Counter()
    for _ in range(300):
        kind = rng.choice(("int", "bool", "fraction", "big"))
        terms = []
        for _ in range(rng.randint(1, 5)):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            entries = [INF if rng.random() < 0.2 else rng.randint(0, 9)
                       for _ in range(math.prod(shape))]
            if kind != "int" and entries:
                k = rng.randrange(len(entries))
                entries[k] = {"bool": True, "fraction": Fraction(5),
                              "big": 2**63 + rng.randint(0, 9)}[kind]
            terms.append(Term(CostTable(shape, entries),
                              tuple(range(len(shape)))))
        tables = [t.table.entries for t in terms]
        # the general path, as the LCM pass computes it
        scale = math.lcm(*(e.denominator for t in tables for e in t
                           if e is not INF))
        rows = [scale_entries(t, scale) for t in tables]
        assert integer_costs(tables) == (scale, rows) == (1, rows)
        got = ScaledCosts(terms)
        assert all(type(e) in (int, type(INF)) for _, _, costs, *_
                   in got.groups for e in costs.ravel().tolist())
        want = ScaledCosts([Term(CostTable(t.table.shape, [
            e if e is INF else Fraction(e) for e in t.table.entries]),
            t.scope) for t in terms])
        for g, w in zip(got.groups, want.groups, strict=True):
            assert g[:2] == w[:2] and g[5] is w[5] is None
            for a, b in zip(g[2:5], w[2:5]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        big = max((e for r in rows for e in r if e is not INF), default=0)
        assert (got.groups[0][2].dtype == object) == (big >= _INT64_LIMIT)
        seen[kind] += 1
    assert min(seen.values()) >= 50


@pytest.mark.parametrize("float_costs", [False, True])
def test_one_label_per_variable_needs_no_network(encodings, float_costs):
    # when pruning leaves one label per variable, that assignment is the
    # argmin and its cost the optimum, with no cut network built
    rng = random.Random(20313)
    solved = 0
    for _ in range(60):
        inst, system = random_submodular_instance(rng, max_vars=5)
        sizes = inst.domains.sizes
        # pin each variable to one label by a crisp unary term
        pins = [rng.randrange(s) for s in sizes]
        terms = inst.terms + [Term(CostTable((s,), [
            0 if a == pin else INF for a in range(s)]), (i,))
            for i, (s, pin) in enumerate(zip(sizes, pins))]
        if float_costs:
            terms = [Term(CostTable(t.table.shape, [
                e if e is INF else float(e) for e in t.table.entries]),
                t.scope) for t in terms]
        inst = Instance(inst.domains, terms)
        encodings.clear()
        res = solve_stp(inst, system.pair)
        want = solve_bruteforce(inst)
        assert res.stats == {"path": "mincut"} and encodings == []
        assert res.argmin == want.argmin
        if float_costs:
            assert cost_eq(res.optimum, want.optimum)
            assert res.optimum is INF or type(res.optimum) is float
        else:
            assert res.optimum == want.optimum
            assert res.optimum is INF or type(res.optimum) is Fraction
        solved += res.argmin is not None
    assert solved >= 20


@pytest.fixture
def encodings(monkeypatch):
    """Record every ``CutEncoding`` that ``solve_stp`` builds."""
    import vcsp.solvers as solvers
    built = []

    class Recorded(CutEncoding):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solvers, "CutEncoding", Recorded)
    return built


def unsupported_fine_label(rng, n):
    """A min/max chain whose variable 0 has one more label, the only cost
    in 1/7ths, unsupported by a crisp link to variable 1: the solve's scale
    is 7 times the LCM of the tables left after pruning."""
    inst, _ = submodular_chain(rng, n)
    d = inst.domains.sizes[0]
    # the chain's terms are n unaries, then the links; term n is (0, 1)
    unary, link = (t.table.entries for t in inst.terms[::n])
    fine = Fraction(rng.randint(1, 6), 7) + rng.randint(0, 2)
    unary = CostTable((d + 1,), unary + [fine])
    # label d of the link repeats label d - 1, which keeps it submodular
    link = CostTable((d + 1, d), link + link[-d:])
    crisp = CostTable.from_function(
        (d + 1, d), lambda a, b: INF if a == d else 0)
    domains = DomainSpec((d + 1,) + inst.domains.sizes[1:])
    terms = [t for k, t in enumerate(inst.terms) if k % n] + [
        Term(unary, (0,)), Term(link, (0, 1)), Term(crisp, (0, 1))]
    rng.shuffle(terms)
    return Instance(domains, terms), BinaryPair.min_max(domains)


def test_solve_scale_above_the_restricted_tables_lcm(encodings):
    # the solved instance's scale is 7 times the LCM of the tables left
    # after pruning; the restriction scales its own tables by that LCM, and
    # the answer is exact either way
    rng = random.Random(20294)
    for _ in range(40):
        inst, pair = unsupported_fine_label(rng, rng.randint(2, 6))
        res = solve_stp(inst, pair)
        want = solve_bruteforce(inst)
        assert res.stats["path"] == "mincut"
        assert (res.optimum, res.argmin) == (want.optimum, want.argmin)
        assert str(res.optimum) == str(want.optimum)
        enc = encodings[-1]
        own = integer_costs([t.table.entries for t in enc.instance.terms])[0]
        assert enc.scale == own and inst.costs.scale == 7 * own
        assert type(enc.offset) is int
        assert all(cap is INF or type(cap) is int
                   for cap in enc.edges.values())


@pytest.fixture
def scale_calls(monkeypatch):
    """Record the number of entries of each ``integer_costs`` call, wrapped
    in every module that binds the name."""
    import sys
    calls = []
    original = integer_costs

    def counted(tables):
        calls.append(sum(map(len, tables)))
        return original(tables)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vcsp" and getattr(
                module, "integer_costs", None) is original:
            monkeypatch.setattr(module, "integer_costs", counted)
    return calls


def entry_count(instance):
    return sum(len(t.table.entries) for t in instance.terms)


def test_one_scaling_per_constructed_instance(scale_calls, monkeypatch):
    # each instance scales its tables once, when it is constructed, and an
    # instance with a repeated scope variable builds its merged instance
    # too; a solve scales only the restriction it builds, which the
    # encoding reads as it is, and nothing when the restriction keeps every
    # label in order
    import vcsp.solvers as solvers

    class Watched(CutEncoding):
        def __init__(self, instance):
            before = len(scale_calls)
            super().__init__(instance)
            assert len(scale_calls) == before
            encoded.append(instance)

    encoded = []
    monkeypatch.setattr(solvers, "CutEncoding", Watched)
    rng = random.Random(20295)
    for k in range(20):
        if k % 2:
            inst, pair = unsupported_fine_label(rng, rng.randint(2, 6))
        else:
            inst, system = submodular_chain(rng, rng.randint(2, 6))
            pair = system.pair
        scale_calls.clear()
        Instance(inst.domains, inst.terms)
        assert scale_calls == [entry_count(inst)]
        scale_calls.clear()
        assert solve_stp(inst, pair).stats["path"] == "mincut"
        if k % 2:
            assert encoded[-1] is not inst
            assert scale_calls == [entry_count(encoded[-1])]
        else:
            assert encoded[-1] is inst and scale_calls == []
    repeated = Instance(DomainSpec((2,)), [Term(CostTable(
        (2, 2), [0, Fraction(1, 2), 1, 3]), (0, 0))])
    scale_calls.clear()
    Instance(repeated.domains, repeated.terms)
    assert scale_calls == [4, 2]


def test_stage2_and_verify_scale_nothing(scale_calls):
    # verify and stage 2 read the term store of the instance they are
    # given; stage 1 scales only the restricted instance it builds
    from vcsp.consistency import run_stage1
    from vcsp.operations import check_instance_multimorphism
    from vcsp.reduction import run_stage2
    rng = random.Random(20296)
    seen = Counter()
    while min(seen["none"], seen["three or more"], seen["verify"],
              seen["restricted"]) < 3:
        inst, system = random_boolean_mjn_instance(rng)
        scale_calls.clear()
        check_instance_multimorphism(inst, system)
        assert scale_calls == []
        seen["verify"] += 1
        stage1 = run_stage1(inst, system.normalized())
        if stage1 is None:
            continue
        _, inst_r, ops_r, net_r = stage1
        built = [] if inst_r is inst else [entry_count(inst_r)] + (
            [] if inst_r.merged is inst_r else [entry_count(inst_r.merged)])
        assert scale_calls == built
        seen["restricted"] += bool(built)
        trace = []
        scale_calls.clear()
        run_stage2(inst_r, ops_r, net_r, trace=trace)
        assert scale_calls == []
        if not trace:
            seen["none"] += 1
        elif len(trace) >= 3:
            seen["three or more"] += 1


def random_tournament_pair(rng, d, kind):
    """Conservative pair whose meet orients each label pair: by a random
    ranking ("transitive") or at random ("random"); "non-commutative" and
    "non-conservative" then break one entry ("join-is-meet": join's image
    of one pair of distinct labels is meet's)."""
    meets, joins = [], []
    for s in d.sizes:
        rank = rng.sample(range(s), s)
        meet = [[a] * s for a in range(s)]
        for a in range(s):
            for b in range(a + 1, s):
                if kind == "transitive":
                    low = a if rank[a] < rank[b] else b
                else:
                    low = rng.choice((a, b))
                meet[a][b] = meet[b][a] = low
        meets.append(meet)
        joins.append([[a + b - meet[a][b] for b in range(s)]
                      for a in range(s)])
    big = [i for i, s in enumerate(d.sizes) if s >= 2]
    if kind in ("non-commutative", "non-conservative", "join-is-meet") and big:
        i = rng.choice(big)
        a, b = rng.sample(range(d.sizes[i]), 2)
        if kind == "join-is-meet":
            joins[i][a][b] = joins[i][b][a] = meets[i][a][b]
        elif kind == "non-commutative":
            meets[i][a][b], joins[i][a][b] = a, b
            meets[i][b][a], joins[i][b][a] = b, a
        else:
            # a third label, or with two labels a for both images
            outside = [c for c in range(d.sizes[i]) if c not in (a, b)]
            meets[i][a][b] = joins[i][a][b] = (outside or [a])[0]
    return BinaryPair(d, meets, joins)


def order_outcome(fn, pair):
    try:
        order = fn(pair)
    except VcspError as exc:
        return type(exc), str(exc)
    return order.orders, order.cycles, order.ranks.tolist()


def test_tournament_order_matches_loop():
    rng = random.Random(20283)
    seen = Counter()
    kinds = ("transitive", "random", "non-commutative", "non-conservative",
             "join-is-meet")
    for _ in range(500):
        d = DomainSpec(tuple(rng.randint(1, 5)
                             for _ in range(rng.randint(1, 5))))
        pair = random_tournament_pair(rng, d, rng.choice(kinds))
        got = order_outcome(extract_tournament_order, pair)
        assert got == order_outcome(loop_extract_tournament_order, pair)
        if got[0] is VcspError:
            seen[got[1].split("; got ")[1].split("'")[1]] += 1
            continue
        orders, cycles, ranks = got
        for i, (order, cycle) in enumerate(zip(orders, cycles)):
            assert all(type(v) is int for v in (order or cycle))
            seen["cycle" if cycle else "ordered"] += 1
            if order:  # the ranks invert the order
                assert [ranks[i][a] for a in order] == list(range(len(order)))
        assert is_stp_on(pair) == loop_is_stp_on(pair, PairSet.full(d))
    assert set(seen) == {"ordered", "cycle", "not commutative",
                         "not conservative"}


def test_prune_unsupported_matches_loop():
    rng = random.Random(20284)
    emptied = pruned = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        sizes = tuple(rng.randint(1, 4) for _ in range(n))
        terms = []
        for _ in range(rng.randint(1, 5)):
            scope = tuple(rng.choice(range(n))
                          for _ in range(rng.randint(1, 3)))
            shape = tuple(sizes[i] for i in scope)
            terms.append(Term(CostTable.from_function(
                shape, lambda *t: INF if rng.random() < 0.3 else Fraction(1)),
                scope))
        inst = Instance(DomainSpec(sizes), terms)
        keep = _prune_unsupported(inst)
        assert keep == loop_prune_unsupported(inst)
        emptied += any(not k for k in keep)
        pruned += sum(map(len, keep)) < sum(sizes)
    assert emptied >= 20 and pruned - emptied >= 20


def test_prune_mixes_inf_free_and_crisp_terms():
    # terms without an INF are never scanned, but carry an emptied domain
    # on to the rest of their scope
    rng = random.Random(20292)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(2, 6)
        sizes = tuple(rng.randint(1, 4) for _ in range(n))
        terms = []
        for _ in range(rng.randint(2, 7)):
            scope = tuple(rng.choice(range(n))
                          for _ in range(rng.randint(1, 3)))
            shape = tuple(sizes[i] for i in scope)
            if rng.random() < 0.5:
                table = CostTable.from_function(
                    shape, lambda *t: Fraction(rng.randint(0, 9), 2))
            else:
                table = CostTable.from_function(
                    shape, lambda *t: INF if rng.random() < 0.4 else 0)
            terms.append(Term(table, scope))
        inst = Instance(DomainSpec(sizes), terms)
        keep = _prune_unsupported(inst)
        assert keep == loop_prune_unsupported(inst)
        empty = {i for i, k in enumerate(keep) if not k}
        seen["emptied" if empty else "pruned" if sum(map(len, keep)) < sum(
            sizes) else "kept"] += 1
        # an emptied variable reached a term without INF over another one
        seen["through inf-free"] += any(
            INF not in t.table.entries and empty & set(t.scope)
            and len(set(t.scope)) > 1 for t in terms)
    assert min(seen.values()) >= 20


@pytest.mark.parametrize("empty_start", [False, True])
def test_prune_propagates_along_chains(empty_start):
    # the links come in reverse chain order, so each round of the fixpoint
    # carries the removal one link further: the far end of an n-link chain
    # loses its label in round n + 1, and n >= 3 here
    rng = random.Random(20293 + empty_start)
    for _ in range(60):
        n = rng.randint(3, 8)
        d = rng.randint(2, 4)
        terms = []
        for i in reversed(range(n)):
            if empty_start and rng.random() < 0.3:
                # all finite: passes only an emptied domain on
                table = CostTable.from_function(
                    (d, d), lambda a, b: Fraction(rng.randint(0, 5), 3))
            else:
                # x_{i+1} <= x_i
                table = CostTable.from_function(
                    (d, d), lambda a, b: 0 if a <= b else INF)
            terms.append(Term(table, (i + 1, i)))
        top = 0 if empty_start else rng.randint(1, d - 1)
        terms.append(Term(CostTable((d,), [
            Fraction(a) if a < top else INF for a in range(d)]), (0,)))
        inst = Instance(DomainSpec((d,) * (n + 1)), terms)
        keep = _prune_unsupported(inst)
        assert keep == loop_prune_unsupported(inst)
        if empty_start:
            assert keep == [set()] * (n + 1)
        else:
            assert keep[n] == set(range(top))

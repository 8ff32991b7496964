"""Stage 2: region growing, invariant checks and pair rewriting."""

import random
import re
from collections import Counter

import numpy as np
import pytest

from vcsp import (
    BinaryPair,
    DomainSpec,
    MjnTriple,
    PairSet,
    StageError,
)
from vcsp.consistency import (
    BinaryNetwork,
    certify_decomposition_exhaustive,
    decompose_instance,
    enforce_strong_3_consistency,
    restrict_instance,
    restrict_network,
    restrict_operation_system,
    support_maps,
)
from vcsp.io_formats import serialize_ops
from vcsp.operations import OperationSystem, all_label_pairs, is_stp_on
from vcsp.reduction import (
    ReductionState,
    apply_modification,
    check_region_invariants,
    find_seed,
    grow_uab,
    run_stage2,
)

from harness import random_boolean_mjn_instance, random_system
from oracles import intersect, loop_apply_modification, loop_find_seed


def make_net(sizes, relations):
    """Network over ``sizes`` with the given {(i, j): pair list} relations."""
    net = BinaryNetwork(DomainSpec(tuple(sizes)))
    for (i, j), pairs in relations.items():
        mat = np.zeros((sizes[i], sizes[j]), dtype=bool)
        for a, b in pairs:
            mat[a, b] = True
        intersect(net, i, j, mat)
    return net


def checked_rewrite(state, ops):
    """``apply_modification``, checked against the tuple-based oracle."""
    out = apply_modification(state, ops)
    assert serialize_ops(out) == serialize_ops(
        loop_apply_modification(state, ops))
    return out


@pytest.fixture
def rewrites(monkeypatch):
    """Route ``run_stage2``'s rewrites through ``checked_rewrite``; yields
    the list of their region states."""
    import vcsp.reduction as reduction
    states = []

    def rewrite(state, ops):
        states.append(state)
        return checked_rewrite(state, ops)

    monkeypatch.setattr(reduction, "apply_modification", rewrite)
    return states


def stage1(instance):
    net, empty = enforce_strong_3_consistency(decompose_instance(instance))
    assert not empty
    assert certify_decomposition_exhaustive(net, instance)
    keep = support_maps(net)
    return (restrict_instance(instance, keep),
            restrict_network(net, keep), keep)


class TestFindSeed:
    def test_full_terminates(self):
        d = DomainSpec((3, 2))
        assert find_seed(PairSet.full(d)) is None

    def test_single_boolean(self):
        d = DomainSpec((2,))
        assert find_seed(PairSet.empty(d)) == (0, (0, 1))

    def test_picks_smallest_variable_and_pair(self):
        d = DomainSpec((2, 3, 3))
        m = PairSet(d, (frozenset({(0, 1)}),
                        frozenset({(0, 1)}),
                        frozenset()))
        assert find_seed(m) == (1, (0, 2))

    def test_matches_outside_mask_oracle(self):
        rng = random.Random(20297)
        kinds = Counter()
        for _ in range(300):
            d = DomainSpec(tuple(rng.randint(1, 5)
                                 for _ in range(rng.randint(1, 6))))
            pairs = [(i, p) for i, s in enumerate(d.sizes)
                     for p in all_label_pairs(s)]
            kind = rng.choice(("empty", "full", "one", "all but one",
                               "random"))
            if kind == "empty" or not pairs:
                chosen = []
            elif kind == "full":
                chosen = pairs
            elif kind == "one":
                chosen = [rng.choice(pairs)]
            elif kind == "all but one":
                chosen = rng.sample(pairs, len(pairs) - 1)
            else:
                chosen = [p for p in pairs if rng.random() < 0.6]
            members = [set() for _ in d.sizes]
            for i, p in chosen:
                members[i].add(p)
            m = PairSet(d, members)
            got = find_seed(m)
            assert got == loop_find_seed(m)
            assert got is None or all(type(v) is int
                                      for v in (got[0],) + got[1])
            kinds[kind, got is None] += 1
        assert min(kinds[k, False] for k in ("empty", "one", "all but one",
                                             "random")) >= 20
        assert kinds["full", True] >= 20


class TestGrowUab:
    def test_no_disjoint_images_singleton(self):
        net = make_net([2, 2], {(0, 1): [(0, 0), (0, 1), (1, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        assert state.members == (0,)
        assert state.a_sets == {0: {0}}
        assert state.b_sets == {0: {1}}

    def test_equality_relation_spreads(self):
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        assert state.members == (0, 1)
        assert state.a_sets == {0: {0}, 1: {0}}
        assert state.b_sets == {0: {1}, 1: {1}}

    def test_closure_grows_pivot(self):
        # labels 0 and 2 of the pivot share their image at variable 1, so
        # closing A pulls 2 into A_0; variable 2 stays outside (overlap)
        net = make_net([3, 2, 2], {
            (0, 1): [(0, 0), (1, 1), (2, 0)],
            (0, 2): [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
            (1, 2): [(0, 0), (0, 1), (1, 0), (1, 1)],
        })
        state = grow_uab((0, (0, 1)), net)
        assert state.members == (0, 1)
        assert state.a_sets == {0: {0, 2}, 1: {0}}
        assert state.b_sets == {0: {1}, 1: {1}}


class TestRegionInvariants:
    def test_equality_state_passes(self):
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        d = DomainSpec((2, 2))
        assert check_region_invariants(state, net, PairSet.empty(d)) is None

    def test_singleton_state_boundary_clause(self):
        # outside variable sees only part of A_0 union B_0 at label 0
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = ReductionState(0, (0,), {0: {0}}, {0: {1}})
        bad = check_region_invariants(state, net, PairSet.empty(DomainSpec((2, 2))))
        assert bad is not None
        assert bad[0] == "d"

    def test_corrupted_state_disjointness(self):
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        state.a_sets[1].add(1)  # now overlaps B_1
        bad = check_region_invariants(state, net, PairSet.empty(DomainSpec((2, 2))))
        assert bad == ("a", (1, 1))

    def test_cross_pair_must_be_non_commutative(self):
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        m = PairSet(DomainSpec((2, 2)),
                    (frozenset(), frozenset({(0, 1)})))
        assert check_region_invariants(state, net, m) == ("b", (1, (0, 1)))


class TestApplyModification:
    def _projection_system(self, sizes):
        d = DomainSpec(sizes)
        meets = [[[a for _ in range(s)] for a in range(s)] for s in sizes]
        joins = [[[b for b in range(s)] for _ in range(s)] for s in sizes]
        return OperationSystem(BinaryPair(d, meets, joins),
                               MjnTriple.canonical(d), PairSet.empty(d))

    def test_rewritten_entries_commute(self):
        ops = self._projection_system((2, 2))
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        state = grow_uab((0, (0, 1)), net)
        out = apply_modification(state, ops)
        for i in range(2):
            assert out.pair.meet(i, 0, 1) == out.pair.meet(i, 1, 0) == 0
            assert out.pair.join(i, 0, 1) == out.pair.join(i, 1, 0) == 1
            assert (0, 1) in out.m.members[i]
        ok, _ = is_stp_on(out.pair, out.m)
        assert ok

    def test_seed_pair_progress(self):
        ops = self._projection_system((2, 2))
        net = make_net([2, 2], {(0, 1): [(0, 0), (1, 1)]})
        seed = find_seed(ops.m)
        out = apply_modification(grow_uab(seed, net), ops)
        assert find_seed(out.m) != seed
        assert out.m.total_size() > ops.m.total_size()

    def test_conservativity_preserved(self):
        rng = random.Random(53)
        for _ in range(10):
            d = DomainSpec((3, 3))
            system = random_system(rng, d, mbar_everywhere=True)
            net = make_net([3, 3], {(0, 1): [(a, a) for a in range(3)]})
            seed = find_seed(system.m)
            state = grow_uab(seed, net)
            out = checked_rewrite(state, system)
            for i in range(2):
                for a in range(3):
                    for b in range(3):
                        assert {out.pair.meet(i, a, b),
                                out.pair.join(i, a, b)} == {a, b}


class TestRunStage2:
    def test_already_full_stp_is_noop(self, rewrites):
        from harness import minmax_system, random_submodular_instance
        rng = random.Random(59)
        inst, system = random_submodular_instance(rng, max_vars=4, max_size=3)
        inst_r, net_r, keep = stage1(inst)
        ops_r = restrict_operation_system(system, keep)
        trace = []
        out = run_stage2(inst_r, ops_r, net_r, trace=trace)
        assert out is ops_r
        assert trace == [] and rewrites == []

    def test_pure_mjn_boolean_reaches_full_stp(self, rewrites):
        from vcsp.operations import check_binary_multimorphism
        rng = random.Random(61)
        done = 0
        while done < 10:
            inst, system = random_boolean_mjn_instance(rng)
            net, empty = enforce_strong_3_consistency(decompose_instance(inst))
            if empty:
                continue
            assert certify_decomposition_exhaustive(net, inst)
            keep = support_maps(net)
            inst_r = restrict_instance(inst, keep)
            net_r = restrict_network(net, keep)
            ops_r = restrict_operation_system(system, keep).normalized()
            trace = []
            before = len(rewrites)
            out = run_stage2(inst_r, ops_r, net_r, paranoid=True, trace=trace)
            assert len(rewrites) - before == len(trace)
            assert out.m.is_full()
            ok, _ = is_stp_on(out.pair, PairSet.full(out.domains))
            assert ok
            ok, _ = check_binary_multimorphism(inst_r.terms, out.pair)
            assert ok
            # each iteration adds at least the seed pair
            assert len(trace) <= PairSet.full(out.domains).total_size()
            for line in trace:
                assert re.fullmatch(
                    r"iter \d+ k \d+ seed \d+:\d+ \|U\| \d+ "
                    r"sumA \d+ sumB \d+", line)
            done += 1
        assert rewrites

    def test_m_only_grows_across_iterations(self):
        rng = random.Random(67)
        done = 0
        while done < 8:
            inst, system = random_boolean_mjn_instance(rng)
            net, empty = enforce_strong_3_consistency(decompose_instance(inst))
            if empty or not certify_decomposition_exhaustive(net, inst):
                continue
            keep = support_maps(net)
            ops = restrict_operation_system(system, keep).normalized()
            net_r = restrict_network(net, keep)
            sizes = [ops.m.total_size()]
            while True:
                seed = find_seed(ops.m)
                if seed is None:
                    break
                state = grow_uab(seed, net_r)
                assert check_region_invariants(state, net_r, ops.m) is None
                prev = ops.m
                ops = checked_rewrite(state, ops)
                for i in range(ops.domains.variable_count):
                    assert prev.members[i] <= ops.m.members[i]
                sizes.append(ops.m.total_size())
            assert all(x < y for x, y in zip(sizes, sizes[1:]))
            done += 1

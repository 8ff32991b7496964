"""Stage 2: region growing, invariant checks and pair rewriting."""

import random
import re
import tracemalloc
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
    run_stage1,
    support_maps,
)
from vcsp.io_formats import serialize_ops
from vcsp.operations import OperationSystem, all_label_pairs, is_stp_on
from vcsp.solvers import run_validate
from vcsp.reduction import (
    ReductionState,
    apply_modification,
    check_region_invariants,
    find_seed,
    grow_uab,
    run_stage2,
    scan_boundary_exchange,
    scan_pair_coupling,
)

from harness import (mixed_chain, random_boolean_mjn_instance,
                     random_instance, random_system)
from oracles import (intersect, loop_apply_modification,
                     loop_check_region_invariants, loop_find_seed,
                     loop_grow_uab, loop_scan_boundary_exchange,
                     loop_scan_pair_coupling)


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


    def test_pivot_keeps_a_seed_label_outside_its_unary(self):
        # label 1 of the pivot is dead: its image is empty everywhere
        net = make_net([2, 2], {(0, 1): [(0, 0), (0, 1)]})
        net.R[0, 0, 1, 1] = False
        state = grow_uab((0, (0, 1)), net)
        assert state == loop_grow_uab((0, (0, 1)), net)
        assert state.a_sets == {0: {0}, 1: {0, 1}}
        assert state.b_sets == {0: {1}, 1: set()}


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

    def test_boundary_clause_witness(self):
        # label 1 of outside variable 2 sees A_0 = {2} but not B_0 = {0};
        # the witness names the first boundary label it misses
        net = make_net([3, 2, 3], {
            (0, 1): [(a, b) for a in range(3) for b in range(2)],
            (0, 2): [(0, 0), (2, 0), (0, 1), (1, 1), (2, 2)],
        })
        state = ReductionState(0, (0,), {0: {2}}, {0: {0}})
        m = PairSet.empty(DomainSpec((3, 2, 3)))
        assert check_region_invariants(state, net, m) == ("d", (0, 2, 1, 2))

    def test_image_clause_witness(self):
        # A_1 = {0} is the image of A_0 = {0}, but its image back is {0, 2}
        net = make_net([3, 2, 2], {
            (0, 1): [(0, 0), (1, 1), (2, 0)],
            (0, 2): [(0, 0), (1, 1), (2, 1)],
        })
        state = ReductionState(0, (0, 1, 2), {0: {0}, 1: {0}, 2: {0}},
                               {0: {1}, 1: {1}, 2: {1}})
        m = PairSet.empty(DomainSpec((3, 2, 2)))
        assert check_region_invariants(state, net, m) == ("c", (1, [0, 2], [0]))


class TestDiagnosticScans:
    def test_pair_coupling_violations_in_order(self):
        net = make_net([3, 2, 3], {
            (0, 2): [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)],
            (1, 2): [(0, 0), (0, 1), (1, 0), (1, 1)],
        })
        m = PairSet(DomainSpec((3, 2, 3)), (frozenset({(0, 2), (1, 2)}),
                                            frozenset(),
                                            frozenset({(0, 2), (1, 2)})))
        assert scan_pair_coupling(net, m) == [
            (0, 2, (0, 1), (0, 2)), (0, 2, (0, 1), (1, 0)),
            (0, 2, (0, 1), (1, 2)), (2, 0, (0, 1), (1, 0)),
            (2, 0, (0, 1), (1, 2))]

    def test_pair_coupling_quiet_on_products(self):
        net = BinaryNetwork(DomainSpec((3, 2, 3)))
        assert scan_pair_coupling(net, PairSet.empty(net.domains)) == []

    def test_boundary_exchange_b_label_below_a_label(self):
        # the third label runs over A_0 = [2] and then B_0 = [0]
        net = make_net([3, 3, 2], {
            (0, 1): [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
                     (2, 2)],
            (0, 2): [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
        })
        state = ReductionState(0, (0,), {0: {2}}, {0: {0}})
        assert scan_boundary_exchange(state, net) == [
            (0, 1, (2, 0, 2), (1, 0)), (0, 1, (2, 0, 2), (2, 0)),
            (0, 2, (2, 0, 0), (0, 1))]

    def test_boundary_exchange_two_members(self):
        # member 2 has A = [2], B = [0, 1]: its third label runs 2, 0, 1
        net = make_net([2, 3, 3, 2], {
            (0, 1): [(0, 1), (1, 1), (1, 2)],
            (0, 3): [(0, 0), (0, 1), (1, 0), (1, 1)],
            (1, 2): [(0, 0), (1, 1), (2, 0), (2, 1)],
            (2, 3): [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)],
        })
        state = ReductionState(0, (0, 2), {0: {0}, 2: {2}},
                               {0: {1}, 2: {0, 1}})
        assert scan_boundary_exchange(state, net) == [
            (0, 1, (0, 1, 1), (1, 2)), (2, 3, (2, 0, 2), (0, 1)),
            (2, 3, (2, 0, 1), (0, 1)), (2, 3, (2, 1, 0), (1, 0))]


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


def stage2_inputs(instance, system):
    """Stage 1's restricted instance, operations and network, or None."""
    stage1 = run_stage1(instance, run_validate(instance, system))
    return None if stage1 is None else stage1[1:]


def region_mutants(rng, state, sizes):
    """States one step from ``state`` whose sides stay disjoint and
    nonempty: an outside variable joins, a member other than the pivot
    leaves, or a label is added, dropped or moved from A_i to B_i."""
    out = []
    outside = [j for j in range(len(sizes))
               if j not in state.members and sizes[j] > 1]
    for kind in ("join", "leave", "add", "drop", "move"):
        members = list(state.members)
        a_sets = {i: set(v) for i, v in state.a_sets.items()}
        b_sets = {i: set(v) for i, v in state.b_sets.items()}
        i = rng.choice(members)
        free = set(range(sizes[i])) - a_sets[i] - b_sets[i]
        if kind == "join" and outside:
            j = rng.choice(outside)
            labels = rng.sample(range(sizes[j]), sizes[j])
            cut = rng.randint(1, sizes[j] - 1)
            members.append(j)
            a_sets[j] = set(labels[:cut])
            b_sets[j] = set(rng.sample(labels[cut:],
                                       rng.randint(1, len(labels) - cut)))
        elif kind == "leave" and len(members) > 1:
            j = rng.choice([j for j in members if j != state.k])
            members.remove(j)
            del a_sets[j], b_sets[j]
        elif kind == "add" and free:
            rng.choice((a_sets, b_sets))[i].add(rng.choice(sorted(free)))
        elif kind == "drop" and len(a_sets[i]) > 1:
            a_sets[i].remove(rng.choice(sorted(a_sets[i])))
        elif kind == "move" and len(a_sets[i]) > 1:
            label = rng.choice(sorted(a_sets[i]))
            a_sets[i].remove(label)
            b_sets[i].add(label)
        else:
            continue
        out.append(ReductionState(state.k, tuple(sorted(members)), a_sets,
                                  b_sets))
    return out


class TestMatchesLoopOracles:
    """The mask forms of region growth, the invariant check and the two
    paranoid scans return what the label-by-label loops return, on every
    stage-2 iteration of the criterion-1 corpus and of seeded mixed chains,
    and on states and pair sets mutated from them."""

    def drive(self, rng, ops, net, tally, coupling_every=1):
        sizes = net.domains.sizes
        empty = PairSet.empty(net.domains)
        step = 0
        while (seed := find_seed(ops.m)) is not None:
            state = grow_uab(seed, net)
            assert state == loop_grow_uab(seed, net)
            assert all(type(v) is int for v in state.members)
            for probe, m in [(state, ops.m)] + [
                    (mutant, empty)
                    for mutant in region_mutants(rng, state, sizes)]:
                got = check_region_invariants(probe, net, m)
                assert got == loop_check_region_invariants(probe, net, m)
                tally[got and got[0]] += 1
                bad = scan_boundary_exchange(probe, net)
                assert bad == loop_scan_boundary_exchange(probe, net)
                tally["exchange", bool(bad)] += 1
            if step % coupling_every == 0:
                shuffled = PairSet(net.domains, [
                    {p for p in all_label_pairs(s) if rng.random() < 0.5}
                    for s in sizes])
                for m in (ops.m, shuffled):
                    bad = scan_pair_coupling(net, m)
                    assert bad == loop_scan_pair_coupling(net, m)
                    tally["coupling", bool(bad)] += 1
            ops = apply_modification(state, ops)
            step += 1
        return step

    def test_criterion_1_corpus(self):
        rng = random.Random(20240)
        check_rng = random.Random(7)
        tally = Counter()
        iterations = 0
        for _ in range(250):
            inputs = stage2_inputs(*random_instance(rng, max_vars=6,
                                                    max_size=4))
            if inputs is not None:
                iterations += self.drive(check_rng, *inputs[1:], tally)
        assert iterations >= 100
        assert tally[None] >= 100 and tally["c"] >= 50 and tally["d"], tally
        assert tally["coupling", True], tally

    def test_random_networks(self):
        # relations drawn at random, not closed under any consistency, so
        # every clause and both scans fire
        rng = random.Random(29)
        tally = Counter()
        for _ in range(200):
            sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 6))]
            density = rng.choice((0.5, 0.7, 0.9))
            net = make_net(sizes, {
                (i, j): [(a, b) for a in range(sizes[i])
                         for b in range(sizes[j]) if rng.random() < density]
                for i in range(len(sizes)) for j in range(i + 1, len(sizes))})
            self.drive(rng, random_system(rng, net.domains), net, tally,
                       coupling_every=3)
        assert min(tally[c] for c in (None, "a", "b", "c", "d")) >= 20, tally
        assert min(tally[kind, hit] for kind in ("exchange", "coupling")
                   for hit in (False, True)) >= 20, tally

    def test_mixed_chains(self):
        # every region here is the pivot alone; the joined mutants fail (c)
        check_rng = random.Random(11)
        tally = Counter()
        iterations = 0
        for seed, n in ((0, 24), (1, 24), (2, 40)):
            inputs = stage2_inputs(*mixed_chain(random.Random(seed), n))
            iterations += self.drive(check_rng, *inputs[1:], tally,
                                     coupling_every=8)
        assert iterations >= 40
        assert tally[None] >= 40 and tally["c"] >= 40, tally

    def test_paranoid_chain_trace_matches_loop_run(self, monkeypatch):
        import vcsp.reduction as reduction
        inst_r, ops, net = stage2_inputs(*mixed_chain(random.Random(3), 24))
        trace = []
        final = run_stage2(inst_r, ops, net, paranoid=True, trace=trace)
        for name in ("grow_uab", "check_region_invariants",
                     "scan_pair_coupling", "scan_boundary_exchange"):
            monkeypatch.setattr(reduction, name, globals()[f"loop_{name}"])
        loop_trace = []
        loop_final = run_stage2(inst_r, ops, net, paranoid=True,
                                trace=loop_trace)
        assert len(trace) >= 10
        assert trace == loop_trace
        assert serialize_ops(final) == serialize_ops(loop_final)


def test_pair_coupling_scan_memory_is_per_variable():
    # one block over all n^2 variable pairs holds n^2 * 3 pairs * 9 label
    # pairs = 2.4 MB per boolean temporary at n = 300 (11 MB peak measured);
    # one block per variable holds 8 KB
    net = BinaryNetwork(DomainSpec((3,) * 300))
    m = PairSet.empty(net.domains)
    tracemalloc.start()
    try:
        assert scan_pair_coupling(net, m) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

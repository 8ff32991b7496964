"""Relation networks, decomposition and strong 3-consistency."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vcsp import (INF, CapExceeded, CostTable, DomainSpec, Instance, Term,
                  VcspError)
from vcsp.consistency import (
    BinaryNetwork,
    certify_decomposition,
    certify_decomposition_exhaustive,
    compose,
    decompose_instance,
    enforce_strong_3_consistency,
    restrict_instance,
    restrict_network,
    restrict_operation_system,
    run_stage1,
    support_maps,
)
from vcsp.io_formats import serialize_ops
from vcsp.model import merge_repeated
from vcsp.operations import (BinaryPair, MjnTriple, OperationSystem, PairSet,
                             TernaryOp)

from harness import random_majority_closed_instance, random_system
from oracles import (feasible_assignments, image, intersect,
                     loop_certify_decomposition, loop_decompose_instance,
                     loop_restrict_operation_system)


def rel_from_pairs(shape, pairs):
    mat = np.zeros(shape, dtype=bool)
    for a, b in pairs:
        mat[a, b] = True
    return mat


class TestImage:
    def test_empty_input(self):
        assert image(np.ones((2, 2), dtype=bool), set()) == set()

    def test_full_relation(self):
        assert image(np.ones((2, 3), dtype=bool), {1}) == {0, 1, 2}

    def test_single_lookup(self):
        rel = rel_from_pairs((2, 2), [(0, 1), (1, 0)])
        assert image(rel, {0}) == {1}
        assert image(rel.T, {0}) == {1}


class TestCompose:
    def test_identity(self):
        rel = rel_from_pairs((3, 3), [(0, 1), (2, 0)])
        ident = np.eye(3, dtype=bool)
        assert np.array_equal(compose(rel, ident), rel)

    def test_empty(self):
        rel = np.zeros((2, 2), dtype=bool)
        assert not compose(rel, np.ones((2, 2), dtype=bool)).any()

    def test_dimension_mismatch(self):
        with pytest.raises(VcspError):
            compose(np.ones((2, 3), dtype=bool), np.ones((2, 3), dtype=bool))

    @settings(max_examples=60, deadline=None)
    @given(arrays(bool, (3, 3)), arrays(bool, (3, 3)))
    def test_matches_triple_loop_oracle(self, a, b):
        want = np.zeros((3, 3), dtype=bool)
        for x in range(3):
            for z in range(3):
                want[x, z] = any(a[x, y] and b[y, z] for y in range(3))
        assert np.array_equal(compose(a, b), want)


class TestDecompose:
    def test_single_crisp_binary_term(self):
        pairs = [(0, 0), (0, 1), (1, 1)]
        inst = Instance(DomainSpec((2, 2)), [
            Term(CostTable.relation((2, 2), pairs), (0, 1))])
        net = decompose_instance(inst)
        assert np.array_equal(net.rel(0, 1), rel_from_pairs((2, 2), pairs))
        assert list(net.unary[0]) == [True, True]
        assert list(net.unary[1]) == [True, True]

    def test_shared_variable_intersection(self):
        # unary projections of {0} and {0,1} intersect on the shared variable
        inst = Instance(DomainSpec((2, 2)), [
            Term(CostTable.relation((2, 2), [(0, 0)]), (0, 1)),
            Term(CostTable.relation((2, 2), [(0, 0), (1, 1)]), (0, 1))])
        net = decompose_instance(inst)
        assert list(net.unary[0]) == [True, False]

    def test_majority_relation_projects_full(self):
        maj = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
               (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        maj = [t for t in maj if sorted(t).count(sorted(t)[1]) >= 2]
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(CostTable.relation((2, 2, 2), maj), (0, 1, 2))])
        net = decompose_instance(inst)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert net.rel(i, j).all()
        assert certify_decomposition_exhaustive(net, inst)

    def test_repeated_scope_variable(self):
        # term on (x, x): only diagonal tuples can ever realize
        inst = Instance(DomainSpec((2,)), [
            Term(CostTable.relation((2, 2), [(0, 1), (1, 1)]), (0, 0))])
        net = decompose_instance(inst)
        assert list(net.unary[0]) == [False, True]


def random_scope_instance(rng):
    """Terms of arity 0-4 over 1-4 variables of sizes 1-4, with random
    feasible sets and finite costs; half the terms draw their scope with
    replacement, so it may repeat a variable."""
    n = rng.randint(1, 4)
    sizes = tuple(rng.randint(1, 4) for _ in range(n))
    terms = []
    for _ in range(rng.randint(1, 3)):
        arity = rng.randint(0, 4)
        if arity <= n and rng.random() < 0.5:
            scope = tuple(rng.sample(range(n), arity))
        else:
            scope = tuple(rng.randrange(n) for _ in range(arity))
        shape = tuple(sizes[v] for v in scope)
        density = rng.choice((0.3, 0.7, 0.95))
        terms.append(Term(CostTable(shape, [
            rng.choice((0, 1, Fraction(1, 2))) if rng.random() < density
            else INF for _ in range(math.prod(shape))]), scope))
    return Instance(DomainSpec(sizes), terms)


class TestDecomposeMatchesLoop:
    def test_random_instances(self):
        rng = random.Random(20291)
        seen = Counter()
        for _ in range(400):
            inst = random_scope_instance(rng)
            net = decompose_instance(inst)
            loop = loop_decompose_instance(inst)
            if all(len(set(t.scope)) == len(t.scope) for t in inst.terms):
                assert net.dump() == loop.dump()
                seen["distinct"] += 1
            else:
                assert not (net.R & ~loop.R).any()
                seen["repeats", net.equal(loop)] += 1
            if certify_decomposition(inst):
                enforced, _ = enforce_strong_3_consistency(net)
                assert certify_decomposition_exhaustive(enforced, inst)
                seen["certified"] += 1
        # both kinds occur, and merging sometimes prunes what the loop keeps
        assert seen["distinct"] >= 100 and seen["certified"] >= 100
        assert seen["repeats", False] >= 10

    def test_variable_repeated_outside_a_pair(self):
        # on (x, y, z, x) the loop keeps (y, z) pairs that only a tuple
        # giving x two labels realizes; the merged term never does
        rng = random.Random(20294)
        loop_exact = Counter()
        for _ in range(200):
            sizes = tuple(rng.randint(2, 3) for _ in range(3))
            shape = sizes + sizes[:1]
            density = rng.choice((0.2, 0.5))
            inst = Instance(DomainSpec(sizes), [Term(CostTable(shape, [
                0 if rng.random() < density else INF
                for _ in range(math.prod(shape))]), (0, 1, 2, 0))])
            net = decompose_instance(inst)
            loop = loop_decompose_instance(inst)
            assert not (net.R & ~loop.R).any()
            if certify_decomposition(inst):
                enforced, _ = enforce_strong_3_consistency(net)
                assert certify_decomposition_exhaustive(enforced, inst)
                enforced, _ = enforce_strong_3_consistency(loop)
                loop_exact[certify_decomposition_exhaustive(enforced,
                                                            inst)] += 1
        assert loop_exact[True] >= 10 and loop_exact[False] >= 10

    def test_single_term_projections_are_exact(self):
        rng = random.Random(20292)
        for _ in range(150):
            inst = random_scope_instance(rng)
            for term in inst.terms:
                alone = Instance(inst.domains, [term])
                feas = feasible_assignments(alone)
                if not feas:
                    continue
                net = decompose_instance(alone)
                for i in set(term.scope):
                    for j in set(term.scope):
                        got = set(zip(*np.nonzero(net.rel(i, j))))
                        if i == j:
                            want = {(x[i], x[i]) for x in feas}
                        else:
                            want = {(x[i], x[j]) for x in feas}
                        assert got == want


def stage1_instance(rng):
    """Crisp terms of arity 2-4 over 2-5 variables with unequal domains:
    parity relations, conjunctions of binary median-closed constraints
    (majority-closed, so decomposable), and random relations; a third of
    the scopes are drawn with replacement and may repeat a variable."""
    n = rng.randint(2, 5)
    sizes = tuple(rng.randint(2, 3) for _ in range(n))
    binary = (lambda a, b: a <= b, lambda a, b: a >= b, lambda a, b: a == b,
              lambda a, b: a >= 1 or b == 0, lambda a, b: a + b >= 1)
    terms = []
    for _ in range(rng.randint(1, 5)):
        arity = rng.randint(2, 4)
        if arity <= n and rng.random() < 2 / 3:
            scope = tuple(rng.sample(range(n), arity))
        else:
            scope = tuple(rng.randrange(n) for _ in range(arity))
        kind = rng.choice(("parity", "majority", "random"))
        if kind == "parity":
            want = rng.randrange(2)
            keep = lambda t, want=want: sum(t) % 2 == want  # noqa: E731
        elif kind == "majority":
            pairs = [(p, q, rng.choice(binary)) for p, q in
                     itertools.combinations(range(arity), 2)
                     if rng.random() < 0.6]
            keep = lambda t, pairs=pairs: all(  # noqa: E731
                c(t[p], t[q]) for p, q, c in pairs)
        else:
            density = rng.choice((0.3, 0.7))
            keep = lambda t, d=density: rng.random() < d  # noqa: E731
        shape = tuple(sizes[v] for v in scope)
        terms.append(Term(CostTable.from_function(
            shape, lambda *t, keep=keep: 0 if keep(t) else INF), scope))
    return Instance(DomainSpec(sizes), terms)


class TestBatchedStage1:
    def test_decompose_and_certify_match_per_term_loops(self):
        rng = random.Random(20318)
        seen = Counter()
        for _ in range(300):
            inst = stage1_instance(rng)
            merged = Instance(inst.domains,
                              [merge_repeated(t) for t in inst.terms])
            net = decompose_instance(inst)
            assert net.equal(loop_decompose_instance(merged))
            repeats = any(len(set(t.scope)) < len(t.scope)
                          for t in inst.terms)
            if not repeats:
                assert net.equal(loop_decompose_instance(inst))
            certified = certify_decomposition(inst)
            assert certified == loop_certify_decomposition(inst)
            seen["repeats"] += repeats
            seen["certified", certified] += 1
            seen["arities"] += len({len(set(t.scope))
                                    for t in inst.terms}) >= 2
        assert seen["repeats"] >= 30 and seen["arities"] >= 30
        assert min(seen["certified", True], seen["certified", False]) >= 30

    def test_first_oversized_term_raises(self):
        domains = DomainSpec((2, 3, 3, 2))
        # tables of 4, 9, 18, 36 and 9 entries; the cap bounds the table
        # over (1, 1) as given, not its merged table of 3
        scopes = [(0, 3), (1, 1), (1, 2, 3), (1, 2, 0, 3), (1, 2)]
        inst = Instance(domains, [Term(CostTable.from_function(
            tuple(domains.sizes[v] for v in scope), lambda *t: 0), scope)
            for scope in scopes])
        for cap, required in ((5, 9), (9, 18), (17, 18), (30, 36)):
            with pytest.raises(CapExceeded) as got:
                decompose_instance(inst, cap=cap)
            with pytest.raises(CapExceeded) as want:
                loop_decompose_instance(inst, cap=cap)
            assert ((got.value.required, got.value.cap)
                    == (want.value.required, want.value.cap) == (required, cap))
        assert decompose_instance(inst, cap=36).equal(
            loop_decompose_instance(inst, cap=36))


class TestEnforce:
    def test_fixed_point_unchanged(self):
        inst = Instance(DomainSpec((2, 2)), [
            Term(CostTable.relation((2, 2), [(0, 0), (1, 1)]), (0, 1))])
        net = decompose_instance(inst)
        out, empty = enforce_strong_3_consistency(net)
        assert not empty
        assert out.equal(net)

    def test_odd_disequality_cycle_empty(self):
        neq = CostTable.relation((2, 2), [(0, 1), (1, 0)])
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(neq, (0, 1)), Term(neq, (1, 2)), Term(neq, (0, 2))])
        assert feasible_assignments(inst) == set()
        _, empty = enforce_strong_3_consistency(decompose_instance(inst))
        assert empty

    def test_majority_closed_equals_global_projections(self):
        rng = random.Random(31)
        for _ in range(15):
            inst = random_majority_closed_instance(rng)
            net, empty = enforce_strong_3_consistency(decompose_instance(inst))
            feas = feasible_assignments(inst)
            assert empty == (not feas)
            if empty:
                continue
            n = inst.domains.variable_count
            for i in range(n):
                assert {a for a in range(inst.domains.sizes[i])
                        if net.unary[i][a]} == {x[i] for x in feas}
            for i in range(n):
                for j in range(i + 1, n):
                    got = {(a, b) for a, b in zip(*np.nonzero(net.rel(i, j)))}
                    assert got == {(x[i], x[j]) for x in feas}

    def test_confluence_under_randomized_orders(self):
        rng = random.Random(37)
        for _ in range(10):
            inst = random_majority_closed_instance(rng)
            base = decompose_instance(inst)
            ref, ref_empty = enforce_strong_3_consistency(base)
            for seed in range(4):
                out, empty = enforce_strong_3_consistency(
                    base, rng=random.Random(seed))
                assert empty == ref_empty
                assert out.equal(ref)

    def test_soundness_never_drops_feasible_pairs(self):
        rng = random.Random(43)
        for _ in range(15):
            # arbitrary crisp instances: enforcement may keep too much but
            # must never prune a globally realized label or pair
            n = rng.randint(3, 4)
            sizes = tuple(rng.randint(2, 3) for _ in range(n))
            terms = []
            for _ in range(rng.randint(2, 4)):
                i, j = rng.sample(range(n), 2)
                space = list(itertools.product(range(sizes[i]), range(sizes[j])))
                tuples = rng.sample(space, rng.randint(1, len(space)))
                terms.append(Term(CostTable.relation(
                    (sizes[i], sizes[j]), tuples), (i, j)))
            inst = Instance(DomainSpec(sizes), terms)
            net, _ = enforce_strong_3_consistency(decompose_instance(inst))
            for x in feasible_assignments(inst):
                for i in range(n):
                    assert net.unary[i][x[i]]
                    for j in range(i + 1, n):
                        assert net.rel(i, j)[x[i], x[j]]


class TestCertify:
    def test_crisp_binary_only_true(self):
        rng = random.Random(47)
        for _ in range(10):
            inst = random_majority_closed_instance(rng)
            net = decompose_instance(inst)
            assert certify_decomposition_exhaustive(net, inst)
            assert certify_decomposition(inst)

    def test_parity_fails(self):
        even = [t for t in itertools.product(range(2), repeat=3)
                if sum(t) % 2 == 0]
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(CostTable.relation((2, 2, 2), even), (0, 1, 2))])
        net, empty = enforce_strong_3_consistency(decompose_instance(inst))
        assert not empty
        assert not certify_decomposition_exhaustive(net, inst)
        assert not certify_decomposition(inst)

    def test_repeated_variables_merged_first(self):
        # parity on (x, y, x) says y is even; only the unmerged table is
        # not the join of its pairwise projections
        even = [t for t in itertools.product(range(2), repeat=3)
                if sum(t) % 2 == 0]
        inst = Instance(DomainSpec((2, 2)), [
            Term(CostTable.relation((2, 2, 2), even), (0, 1, 0))])
        net, empty = enforce_strong_3_consistency(decompose_instance(inst))
        assert not empty
        assert certify_decomposition(inst)
        assert certify_decomposition_exhaustive(net, inst)

    def test_infeasible_nullary_term_fails(self):
        inst = Instance(DomainSpec((2,)), [Term(CostTable((), [INF]), ())])
        assert not certify_decomposition(inst)
        assert not certify_decomposition_exhaustive(
            decompose_instance(inst), inst)

    @pytest.mark.parametrize("sizes", [(), (2,), (2, 3)])
    def test_stage1_finds_an_infinite_constant_infeasible(self, sizes):
        # no network holds a constant term, so stage 1 reads it off the
        # store before it certifies, with no variable at all too
        d = DomainSpec(sizes)
        system = OperationSystem(BinaryPair.min_max(d), MjnTriple.canonical(d),
                                 PairSet.full(d))
        terms = [Term(CostTable((s,), [0] * s), (i,))
                 for i, s in enumerate(sizes)]
        for constant, feasible in ((INF, False), (Fraction(1, 2), True)):
            inst = Instance(d, terms + [Term(CostTable((), [constant]), ())])
            stage1 = run_stage1(inst, system, paranoid=True)
            assert (stage1 is not None) == feasible


    def test_matches_exhaustive_term_by_term(self):
        # a term passes when its merged feasible set is the join of its
        # projections: exactly when the exhaustive check passes on the
        # network of that term alone
        rng = random.Random(20295)
        seen = Counter()
        for _ in range(150):
            inst = random_scope_instance(rng)
            want = True
            for term in inst.terms:
                alone = Instance(inst.domains, [term])
                want &= certify_decomposition_exhaustive(
                    decompose_instance(alone), alone)
            assert certify_decomposition(inst) == want
            seen[want] += 1
        assert seen[True] >= 30 and seen[False] >= 30


class TestRestrict:
    def test_support_maps_and_restriction(self):
        inst = Instance(DomainSpec((3, 2)), [
            Term(CostTable.relation((3, 2), [(0, 0), (2, 1)]), (0, 1))])
        net, empty = enforce_strong_3_consistency(decompose_instance(inst))
        assert not empty
        keep = support_maps(net)
        assert keep == [[0, 2], [0, 1]]
        small_net = restrict_network(net, keep)
        assert small_net.domains.sizes == (2, 2)
        assert {(a, b) for a, b in zip(*np.nonzero(small_net.rel(0, 1)))} == {
            (0, 0), (1, 1)}
        small_inst = restrict_instance(inst, keep)
        # label 1 of variable 0 is gone; old label 2 is new label 1
        assert small_inst.evaluate((1, 1)) == 0
        from vcsp import INF
        assert small_inst.evaluate((1, 0)) is INF

    def test_gather_matches_closure_version(self):
        from harness import random_instance
        from oracles import closure_restrict_instance
        rng = random.Random(20262)
        for _ in range(60):
            inst, _ = random_instance(rng, max_vars=4, max_size=4)
            keep = []
            for s in inst.domains.sizes:
                labels = rng.sample(range(s), rng.randint(1, s))
                if rng.random() < 0.5:
                    labels.sort()
                keep.append(labels)
            got = restrict_instance(inst, keep)
            want = closure_restrict_instance(inst, keep)
            assert got.domains == want.domains
            assert [(t.scope, t.table) for t in got.terms] == [
                (t.scope, t.table) for t in want.terms]
            full = [list(range(s)) for s in inst.domains.sizes]
            same = restrict_instance(inst, full)
            assert all(a is b for a, b in zip(same.terms, inst.terms))

    def test_identity_restriction_returns_the_system(self):
        from harness import random_system
        rng = random.Random(20285)
        for _ in range(20):
            d = DomainSpec(tuple(rng.randint(1, 4)
                                 for _ in range(rng.randint(1, 4))))
            system = random_system(rng, d)
            net = BinaryNetwork(d)
            full = [list(range(s)) for s in d.sizes]
            assert restrict_operation_system(system, full) is system
            assert restrict_network(net, full) is net
            # dropping the last label of the largest domain re-indexes
            i = max(range(len(full)), key=lambda v: d.sizes[v])
            if d.sizes[i] > 1:
                full[i] = full[i][:-1]
                small = restrict_operation_system(system, full)
                assert small.domains.sizes[i] == d.sizes[i] - 1
                assert small.pair.meet_tables[i] == tuple(
                    row[:-1] for row in system.pair.meet_tables[i][:-1])
                assert restrict_network(net, full).domains == small.domains

    def test_one_label_map_matches_loop(self):
        rng = random.Random(20293)
        for _ in range(150):
            d = DomainSpec(tuple(rng.randint(1, 4)
                                 for _ in range(rng.randint(1, 4))))
            system = random_system(rng, d)
            if rng.random() < 0.5:
                # any conservative components, not only the canonical ones
                system = OperationSystem(system.pair, MjnTriple(d, *(
                    TernaryOp.from_function(
                        d, lambda i, a, b, c: rng.choice((a, b, c)))
                    for _ in range(3))), system.m)
            keep = [rng.sample(range(s), rng.randint(1, s)) for s in d.sizes]
            if rng.random() < 0.5:
                keep = [sorted(k) for k in keep]
            assert serialize_ops(restrict_operation_system(system, keep)) == (
                serialize_ops(loop_restrict_operation_system(system, keep)))

    def test_restrict_empty_rejected(self):
        net = BinaryNetwork(DomainSpec((2, 2)))
        with pytest.raises(VcspError):
            restrict_network(net, [[0], []])

    def test_network_dump_format(self):
        net = BinaryNetwork(DomainSpec((2, 2)))
        intersect(net, 0, 0, np.diag([True, False]))
        lines = net.dump().splitlines()
        assert lines[0] == "unary 1 10"
        assert lines[1] == "unary 2 11"
        assert lines[2] == "binary 1 2 1111"


def mixed_size_instances(seed, count=10):
    """Random crisp binary and ternary terms over domain sizes (2, 3, 4)."""
    rng = random.Random(seed)
    sizes = (2, 3, 4)
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 4)):
            scope = tuple(rng.sample(range(3), rng.choice((2, 3))))
            space = list(itertools.product(*(range(sizes[v]) for v in scope)))
            tuples = rng.sample(space, rng.randint(len(space) // 2, len(space)))
            terms.append(Term(CostTable.relation(
                tuple(sizes[v] for v in scope), tuples), scope))
        yield Instance(DomainSpec(sizes), terms)


class TestArrayLayout:
    def networks(self, seed):
        for inst in mixed_size_instances(seed):
            net = decompose_instance(inst)
            yield net
            yield enforce_strong_3_consistency(net)[0]

    def test_padded_labels_never_show(self):
        sizes = (2, 3, 4)
        for net in self.networks(53):
            for i, si in enumerate(sizes):
                assert net.unary[i].shape == (si,)
                assert np.array_equal(net.R[i, i],
                                      np.diag(net.R[i, i].diagonal()))
                assert not net.R[i, :, si:].any()
                assert not net.R[:, i, :, si:].any()
                for j, sj in enumerate(sizes):
                    if i != j:
                        assert net.rel(i, j).shape == (si, sj)
            for line in net.dump().splitlines():
                kind, *vars_, bits = line.split()
                want = 1
                for v in vars_:
                    want *= sizes[int(v) - 1]
                assert len(bits) == want

    def test_reverse_relation_is_transpose(self):
        for net in self.networks(59):
            for i in range(3):
                for j in range(3):
                    assert np.array_equal(net.rel(j, i), net.rel(i, j).T)

    def test_unary_views_are_read_only(self):
        net = BinaryNetwork(DomainSpec((2, 3, 4)))
        with pytest.raises(ValueError):
            net.unary[1][0] = False

    def test_restrict_matches_per_pair_indexing(self):
        rng = random.Random(61)
        for net in self.networks(61):
            keep = [sorted(rng.sample(range(s), rng.randint(1, s)))
                    for s in (2, 3, 4)]
            small = restrict_network(net, keep)
            assert small.domains.sizes == tuple(len(k) for k in keep)
            for i in range(3):
                assert np.array_equal(small.unary[i], net.unary[i][keep[i]])
                for j in range(3):
                    if i != j:
                        assert np.array_equal(
                            small.rel(i, j),
                            net.rel(i, j)[np.ix_(keep[i], keep[j])])
            for i, k in enumerate(keep):
                assert not small.R[i, :, len(k):].any()

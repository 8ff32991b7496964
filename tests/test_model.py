"""Costs, tables, instances, evaluation and projection."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsp import (
    CapExceeded,
    CostTable,
    DomainSpec,
    INF,
    Instance,
    Term,
    VcspError,
)
from vcsp.costs import cost_eq, format_cost, is_finite, parse_cost
from vcsp.errors import FormatError
from vcsp.model import arity_masks, merge_repeated

from harness import random_instance
from oracles import (PerCallScaledCosts, cost_le, feasible_assignments,
                     feasible_masks, project)


class TestExtCost:
    def test_infinity_absorbs_addition(self):
        assert INF + 5 is INF
        assert 5 + INF is INF
        assert INF + INF is INF

    def test_total_order(self):
        assert Fraction(3) < INF
        assert not INF < Fraction(3)
        assert INF <= INF
        assert INF == INF
        assert INF != 3

    def test_inf_minus_inf_rejected(self):
        with pytest.raises(ArithmeticError):
            INF - INF

    def test_cost_le_and_eq(self):
        assert cost_le(Fraction(1), INF)
        assert not cost_le(INF, Fraction(1))
        assert cost_le(INF, INF)
        assert cost_le(1.0, 1.0 + 1e-12, tol=1e-9)
        assert cost_eq(INF, INF)
        assert not cost_eq(INF, Fraction(1))
        # floats compare within FLOAT_TOL, exact costs exactly
        assert cost_eq(1.0, 1.0 + 1e-12)
        assert not cost_eq(1.0, 1.0 + 1e-6)
        assert not cost_eq(Fraction(1), Fraction(1) + Fraction(1, 10**12))

    def test_parse_and_format(self):
        assert parse_cost("inf") is INF
        assert parse_cost("3/2") == Fraction(3, 2)
        assert parse_cost("0.25") == Fraction(1, 4)
        assert isinstance(parse_cost("2", float_mode=True), float)
        # ASCII digits alone give an int; every other token parses as before
        assert type(parse_cost("7")) is int and parse_cost("7") == 7
        for token, value in (("7/1", 7), ("2.0", 2), ("+3", 3), ("0.25", 0.25)):
            assert type(parse_cost(token)) is Fraction
            assert parse_cost(token) == value
        assert format_cost(7) == format_cost(Fraction(7)) == "7"
        with pytest.raises(FormatError):
            parse_cost("-1")
        with pytest.raises(FormatError):
            parse_cost("abc")
        assert format_cost(INF) == "inf"
        assert format_cost(Fraction(3, 2)) == "3/2"

    def test_negative_costs_rejected_in_tables(self):
        with pytest.raises(VcspError):
            CostTable((2,), [Fraction(-1), Fraction(0)])


class TestDomainSpec:
    def test_empty_domain_rejected(self):
        with pytest.raises(VcspError):
            DomainSpec((2, 0))

    def test_space_and_assignments(self):
        d = DomainSpec((2, 3))
        assert d.space_size() == 6
        assert list(d.assignments()) == list(
            itertools.product(range(2), range(3)))

    def test_cap(self):
        d = DomainSpec((10, 10, 10))
        with pytest.raises(CapExceeded) as exc:
            d.assignments(cap=999)
        assert exc.value.required == 1000
        assert exc.value.cap == 999


class TestCostTable:
    def test_entry_count_enforced(self):
        with pytest.raises(VcspError):
            CostTable((2, 2), [0, 0, 0])

    def test_lookup_and_dom(self):
        t = CostTable((2, 2), [0, INF, 2, 3])
        assert t[(0, 1)] is INF
        assert t.dom() == [(0, 0), (1, 0), (1, 1)]
        assert not t.is_crisp()
        assert CostTable.relation((2,), [(1,)]).is_crisp()

    def test_scope_arity_mismatch_rejected(self):
        with pytest.raises(VcspError):
            Term(CostTable((2, 2), [0] * 4), (0,))

    def test_table_domain_mismatch_rejected(self):
        with pytest.raises(VcspError):
            Instance(DomainSpec((2, 3)), [Term(CostTable((2, 2), [0] * 4), (0, 1))])


def _abs_diff_table():
    return CostTable.from_function((2, 2), lambda a, b: Fraction(abs(a - b)))


class TestEvaluate:
    def test_empty_terms_is_zero(self):
        inst = Instance(DomainSpec((2, 2)), [])
        assert inst.evaluate((1, 0)) == 0

    def test_unary_infinity_lookup(self):
        u = CostTable((2,), [Fraction(0), INF])
        inst = Instance(DomainSpec((2,)), [Term(u, (0,))])
        assert inst.evaluate((1,)) is INF

    def test_two_term_sum(self):
        # |x1-x2| + |x2-x3| at (0,1,0) = 1 + 1
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(_abs_diff_table(), (0, 1)),
            Term(_abs_diff_table(), (1, 2)),
        ])
        assert inst.evaluate((0, 1, 0)) == 2

    def test_dimension_mismatch(self):
        inst = Instance(DomainSpec((2, 2)), [])
        with pytest.raises(VcspError):
            inst.evaluate((0,))
        with pytest.raises(VcspError):
            inst.evaluate((0, 5))


class TestFeasibleAssignments:
    def test_all_finite(self):
        inst = Instance(DomainSpec((2, 2)), [Term(_abs_diff_table(), (0, 1))])
        assert feasible_assignments(inst) == set(
            itertools.product(range(2), range(2)))

    def test_equality_relation(self):
        eq = CostTable.relation((2, 2), [(0, 0), (1, 1)])
        inst = Instance(DomainSpec((2, 2)), [Term(eq, (0, 1))])
        assert feasible_assignments(inst) == {(0, 0), (1, 1)}

    def test_matches_filter_oracle(self):
        import random
        rng = random.Random(11)
        for _ in range(20):
            sizes = tuple(rng.randint(2, 3) for _ in range(3))
            inst = Instance(DomainSpec(sizes), [
                Term(CostTable.from_function(
                    (sizes[i], sizes[j]),
                    lambda a, b: INF if rng.random() < 0.4 else Fraction(rng.randint(0, 3))),
                    (i, j))
                for i, j in [(0, 1), (1, 2)]
            ])
            want = {x for x in itertools.product(*(range(s) for s in sizes))
                    if is_finite(inst.evaluate(x))}
            assert feasible_assignments(inst) == want


class TestProject:
    def test_infeasible_projects_empty(self):
        inst = Instance(DomainSpec((2, 2)), [
            Term(CostTable((2,), [INF, INF]), (0,))])
        assert project(inst, (0,)) == set()
        assert project(inst, (0, 1)) == set()

    def test_equality_projection(self):
        eq = CostTable.relation((2, 2), [(0, 0), (1, 1)])
        inst = Instance(DomainSpec((2, 2)), [Term(eq, (0, 1))])
        assert project(inst, (0,)) == {0, 1}

    def test_chain_projection_matches_oracle(self):
        # x1 <= x2 and x2 <= x3 over Booleans, projected onto (x1, x3)
        le = CostTable.relation((2, 2), [(0, 0), (0, 1), (1, 1)])
        inst = Instance(DomainSpec((2, 2, 2)), [
            Term(le, (0, 1)), Term(le, (1, 2))])
        feas = feasible_assignments(inst)
        assert project(inst, (0, 2)) == {(x[0], x[2]) for x in feas}

    def test_bad_arity(self):
        inst = Instance(DomainSpec((2, 2)), [])
        with pytest.raises(VcspError):
            project(inst, (0, 1, 1))


small_costs = st.one_of(
    st.just(INF),
    st.integers(min_value=0, max_value=5).map(Fraction))


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    sizes = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(n))
    domains = DomainSpec(sizes)
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        arity = draw(st.integers(min_value=1, max_value=min(2, n)))
        scope = tuple(draw(st.permutations(range(n)))[:arity])
        shape = tuple(sizes[i] for i in scope)
        count = 1
        for s in shape:
            count *= s
        entries = [draw(small_costs) for _ in range(count)]
        terms.append(Term(CostTable(shape, entries), scope))
    return Instance(domains, terms)


@settings(max_examples=60, deadline=None)
@given(small_instances(), small_costs)
def test_evaluate_monotone_under_term_addition(inst, extra_cost):
    extra = Term(CostTable((inst.domains.sizes[0],),
                           [extra_cost] * inst.domains.sizes[0]), (0,))
    bigger = Instance(inst.domains, list(inst.terms) + [extra])
    for x in inst.domains.assignments():
        assert cost_le(inst.evaluate(x), bigger.evaluate(x))


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_feasible_minimum_equals_global_minimum(inst):
    all_costs = [inst.evaluate(x) for x in inst.domains.assignments()]
    feas = feasible_assignments(inst)
    finite = [c for c in all_costs if is_finite(c)]
    if feas:
        assert min(inst.evaluate(x) for x in feas) == min(finite)
    else:
        assert not finite


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_projection_symmetry(inst):
    n = inst.domains.variable_count
    if n < 2:
        return
    fwd = project(inst, (0, 1))
    rev = project(inst, (1, 0))
    assert fwd == {(b, a) for a, b in rev}


def assert_store_matches_oracles(inst):
    """The store built with ``inst`` (its ``costs``, their ``arity_masks`` and
    ``cost``, and ``merged``) equals what the per-call oracles build from
    the term list."""
    got, want = inst.costs, PerCallScaledCosts(inst.terms)
    assert got.scale == want.scale
    for g, w in zip(got.groups, want.groups, strict=True):
        assert g[:2] == w[:2]
        for a, b in zip(g[2:5], w[2:5]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (g[5] is None) == (w[5] is None)
        assert g[5] is None or g[5].tolist() == w[5].tolist()
    for g, w in zip(arity_masks(got.groups), feasible_masks(inst.terms),
                    strict=True):
        assert list(g[0]) == list(w[0])
        for a, b in zip(g[1:], w[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    rng = random.Random(len(inst.terms))
    for _ in range(3):
        x = tuple(rng.randrange(s) for s in inst.domains.sizes)
        cost = got.cost(x)
        if cost is not INF and got.scale is not None:
            cost = Fraction(cost, got.scale)
        assert cost_eq(cost, inst.evaluate(x))
    merged = [merge_repeated(t) for t in inst.terms]
    if merged == inst.terms:
        assert inst.merged is inst
    else:
        assert inst.merged.terms == merged and inst.merged.merged is inst.merged
        assert_store_matches_oracles(inst.merged)


STORE_KINDS = ("int", "fraction", "float", "mixed", "past int64",
               "past the float range")


def random_store_instance(rng, kind):
    """Terms of arity 0-3 over 1-4 variables of sizes 1-3, scopes drawn
    with replacement, a sixth of the tables all INF and the others a fifth
    INF, with costs of ``kind``: ``mixed`` holds ints, fractions and floats
    in one table or in separate ones, ``past int64`` scales to integers at
    2**59, 2**63 and beyond, ``past the float range`` has a scale above
    the largest float."""
    sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))

    def cost(table_kind):
        if rng.random() < 0.2:
            return INF
        if table_kind == "mixed":
            table_kind = rng.choice(("int", "fraction", "float"))
        return {
            "int": lambda: rng.randint(0, 9),
            "fraction": lambda: Fraction(rng.randint(0, 9), rng.randint(1, 6)),
            "float": lambda: rng.random() * 10,
            "past int64": lambda: rng.choice((2**59, 2**63, 2**70))
            + Fraction(rng.randint(0, 9), rng.randint(1, 3)),
            "past the float range": lambda: Fraction(
                rng.randint(1, 9), 7 ** rng.randint(360, 400)),
        }[table_kind]()

    terms = []
    for _ in range(rng.randint(0, 6)):
        scope = tuple(rng.randrange(len(sizes))
                      for _ in range(rng.randint(0, 3)))
        shape = tuple(sizes[i] for i in scope)
        table_kind = kind if kind != "mixed" or rng.random() < 0.5 else (
            rng.choice(("int", "fraction", "float")))
        entries = ([INF] * math.prod(shape) if rng.random() < 1 / 6
                   else [cost(table_kind) for _ in range(math.prod(shape))])
        terms.append(Term(CostTable(shape, entries), scope))
    return Instance(DomainSpec(sizes), terms)


def test_store_matches_per_call_oracles_on_random_instances():
    rng = random.Random(20323)
    seen = Counter()
    for k in range(600):
        inst = random_store_instance(rng, STORE_KINDS[k % len(STORE_KINDS)])
        assert_store_matches_oracles(inst)
        groups = inst.costs.groups
        seen["arity 0"] += any(not t.scope for t in inst.terms)
        seen["arity 3"] += any(len(t.scope) == 3 for t in inst.terms)
        seen["repeats"] += inst.merged is not inst
        seen["all INF"] += any(not f.any() for _, _, _, f, _, _ in groups)
        seen["no scale"] += inst.costs.scale is None
        seen["exact and inexact"] += len({g[5] is None for g in groups}) == 2
        seen["object"] += any(g[2].dtype == object and g[5] is None
                              for g in groups)
        seen["past the float range"] += (inst.costs.scale or 0) > 10**308
    assert min(seen.values()) >= 30, seen


def test_store_matches_per_call_oracles_on_criterion_1_draws():
    # the draws of the criterion-1 corpus of test_acceptance
    rng = random.Random(20240)
    for _ in range(250):
        inst, _ = random_instance(rng, max_vars=6, max_size=4)
        assert_store_matches_oracles(inst)

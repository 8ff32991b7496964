"""Acceptance gate: end-to-end properties of the three-stage solver.

Each criterion prints one pass/fail line (run pytest with ``-s`` to see them
on success).  The shared corpus of mixed random instances backs the first
three criteria and the polymorphism half of criterion 7.
"""

import itertools
import random
import time

import numpy as np
import pytest

from vcsp import (
    BinaryPair,
    CostTable,
    DomainSpec,
    DEFAULT_CAP,
    Instance,
    PairSet,
    Term,
    check_binary_multimorphism,
    build_majority,
    solve_bruteforce,
    solve_pipeline,
    solve_stp,
)
from vcsp.consistency import (
    certify_decomposition,
    certify_decomposition_exhaustive,
    decompose_instance,
    enforce_strong_3_consistency,
    restrict_instance,
    support_maps,
)
from vcsp.costs import is_finite
from vcsp.operations import is_stp_on, ternary_polymorphism_closed
from vcsp.solvers import extract_tournament_order

from harness import (
    binary_on,
    random_boolean_mjn_instance,
    random_instance,
    random_majority_closed_instance,
    random_submodular_instance,
    random_system,
)
from oracles import feasible_assignments

CORPUS_SIZE = 200


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'pass' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    if not ok:
        pytest.fail(line)


@pytest.fixture(scope="module")
def corpus():
    """Mixed random instances solved by pipeline (paranoid) and oracle."""
    rng = random.Random(20240)
    runs = []
    feasible = 0
    start = time.perf_counter()
    # keep sampling until the corpus also holds enough feasible instances,
    # so stages 2 and 3 see real work, not just the infeasible early exit
    while len(runs) < CORPUS_SIZE or feasible < 100:
        inst, system = random_instance(rng, max_vars=6, max_size=4)
        res = solve_pipeline(inst, system, paranoid=True)
        ref = solve_bruteforce(inst)
        if is_finite(ref.optimum):
            feasible += 1
        elif len(runs) >= CORPUS_SIZE:
            continue
        runs.append((inst, system, res, ref))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_oracle_equivalence(corpus):
    runs, elapsed = corpus
    mismatches = sum(
        1 for _, _, res, ref in runs if res.optimum != ref.optimum)
    bad_argmin = sum(
        1 for inst, _, res, _ in runs
        if is_finite(res.optimum) and inst.evaluate(res.argmin) != res.optimum)
    ok = mismatches == 0 and bad_argmin == 0 and elapsed < 60
    report(1, ok,
           f"{len(runs)} instances, {mismatches} optimum mismatches, "
           f"{bad_argmin} bad argmins, {elapsed:.1f}s")


def test_criterion_2_stage2_postcondition(corpus):
    runs, _ = corpus
    checked = 0
    violations = 0
    for inst, system, res, _ in runs:
        final = res.stats.get("final_ops")
        if final is None:  # infeasible instances stop before stage 2
            continue
        checked += 1
        ok, _ = is_stp_on(final.pair, PairSet.full(final.domains))
        if not ok:
            violations += 1
            continue
        net, _ = enforce_strong_3_consistency(decompose_instance(inst))
        inst_r = restrict_instance(inst, support_maps(net))
        good, _ = check_binary_multimorphism(inst_r.terms, final.pair)
        if not good:
            violations += 1
    report(2, violations == 0,
           f"{checked} final operation systems, {violations} violations")


def test_criterion_3_region_invariants(corpus):
    # the corpus runs with the diagnostic scans enabled; any violated region
    # invariant or network scan would have raised during the fixture
    runs, _ = corpus
    report(3, len(runs) >= CORPUS_SIZE,
           f"{len(runs)} paranoid runs, 0 invariant violations")


def test_criterion_4_boolean_mjn_class():
    rng = random.Random(20241)
    mismatches = 0
    count = 100
    for _ in range(count):
        inst, system = random_boolean_mjn_instance(rng)
        res = solve_pipeline(inst, system)
        if res.optimum != solve_bruteforce(inst).optimum:
            mismatches += 1
    report(4, mismatches == 0, f"{count} Boolean instances, {mismatches} mismatches")


def test_local_certificate_stricter_never_looser(corpus):
    # the criterion-1 corpus and the criterion-4 Boolean corpus (same seed,
    # same draws); both generators build instances that pass validation
    rng = random.Random(20241)
    cases = [(inst, system) for inst, system, _, _ in corpus[0]]
    cases += [random_boolean_mjn_instance(rng) for _ in range(100)]
    looser = rejected_valid = 0
    for inst, system in cases:
        system.validate()
        mu = build_majority(system.pair, system.triple)
        assert ternary_polymorphism_closed(mu, inst.terms) == (True, None)
        net, _ = enforce_strong_3_consistency(decompose_instance(inst))
        local = certify_decomposition(inst)
        exhaustive = certify_decomposition_exhaustive(net, inst)
        looser += local and not exhaustive
        rejected_valid += not (local and exhaustive)
    assert looser == 0 and rejected_valid == 0, (
        f"{len(cases)} instances: {looser} passed only the per-term "
        f"certificate, {rejected_valid} valid ones were rejected")


def test_criterion_5_pure_stp_mincut():
    rng = random.Random(20242)
    count = 100
    wrong_path = 0
    mismatches = 0
    for _ in range(count):
        while True:
            inst, system = random_submodular_instance(rng, max_vars=8, max_size=5)
            if inst.domains.space_size() <= 60000:  # keep the oracle fast
                break
        res = solve_stp(inst, system.pair)
        ref = solve_bruteforce(inst)  # the fallback endpoint is this search
        if res.stats["path"] != "mincut":
            wrong_path += 1
        if res.optimum != ref.optimum:
            mismatches += 1
    report(5, wrong_path == 0 and mismatches == 0,
           f"{count} submodular instances, {wrong_path} off the cut path, "
           f"{mismatches} mismatches")


def test_criterion_6_consistency_uniqueness():
    rng = random.Random(20243)
    count = 100
    violations = 0
    for case in range(count):
        inst = random_majority_closed_instance(rng)
        base = decompose_instance(inst)
        feas = feasible_assignments(inst)
        n = inst.domains.variable_count
        for order_seed in range(5):
            net, empty = enforce_strong_3_consistency(
                base, rng=random.Random(order_seed * 1000 + case))
            if empty != (not feas):
                violations += 1
                continue
            if empty:
                continue
            for i in range(n):
                got = {a for a in range(inst.domains.sizes[i])
                       if net.unary[i][a]}
                if got != {x[i] for x in feas}:
                    violations += 1
            for i in range(n):
                for j in range(i + 1, n):
                    got = {(a, b) for a, b in zip(*np.nonzero(net.rel(i, j)))}
                    if got != {(x[i], x[j]) for x in feas}:
                        violations += 1
    report(6, violations == 0,
           f"{count} networks x 5 worklist orders, {violations} deviations")


def test_criterion_7_majority_construction(corpus):
    rng = random.Random(20244)
    count = 50
    bad_majority = 0
    for _ in range(count):
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        system = random_system(rng, DomainSpec(sizes))
        mu = build_majority(system.pair, system.triple)
        for i, s in enumerate(sizes):
            for x, y in itertools.product(range(s), repeat=2):
                if not (mu.apply(i, x, x, y) == mu.apply(i, x, y, x)
                        == mu.apply(i, y, x, x) == x):
                    bad_majority += 1
    runs, _ = corpus
    not_polymorphism = 0
    for inst, system, _, _ in runs:
        mu = build_majority(system.pair, system.triple)
        for term in inst.terms:
            if not ternary_polymorphism_closed(mu, [term])[0]:
                not_polymorphism += 1
    ok = bad_majority == 0 and not_polymorphism == 0
    report(7, ok,
           f"{count} systems, {bad_majority} majority failures; "
           f"{len(runs)} instances, {not_polymorphism} closure failures")


def test_criterion_8_negative_controls():
    from harness import minmax_system

    # parity has no majority polymorphism, so it is not 2-decomposable
    even = [t for t in itertools.product(range(2), repeat=3)
            if sum(t) % 2 == 0]
    parity = Instance(DomainSpec((2, 2, 2)), [
        Term(CostTable.relation((2, 2, 2), even), (0, 1, 2))])
    net, _ = enforce_strong_3_consistency(decompose_instance(parity))
    parity_ok = (not certify_decomposition_exhaustive(net, parity)
                 and not certify_decomposition(parity))

    # supermodular product table: smallest pairwise witness is ((0,1),(1,0))
    from fractions import Fraction
    table = CostTable.from_function((2, 2), lambda a, b: Fraction(a * b))
    ok, witness = binary_on(
        table, BinaryPair.min_max(DomainSpec((2, 2))), (0, 1))
    witness_ok = (not ok) and witness == ((0, 1), (1, 0))

    # commutative pair whose tournament is the 3-cycle 0>1>2>0
    meet = [[0, 0, 2], [0, 1, 1], [2, 1, 2]]
    join = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
    cyclic = BinaryPair(DomainSpec((3,)), [meet], [join])
    inst = Instance(DomainSpec((3,)), [
        Term(CostTable((3,), [Fraction(4), Fraction(2), Fraction(7)]), (0,))])
    res = solve_stp(inst, cyclic)
    cycle = extract_tournament_order(cyclic).cycles[0]
    cycle_ok = (res.stats["path"] == "bruteforce"
                and res.stats["cycles"] == [cycle]
                and cycle is not None
                and res.optimum == 2)

    ok = parity_ok and witness_ok and cycle_ok
    report(8, ok,
           f"parity rejected: {parity_ok}, witness exact: {witness_ok}, "
           f"cycle fallback: {cycle_ok}")

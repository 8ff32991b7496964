"""Command-line surface: subcommands, exit codes and determinism."""

import hashlib
import json
import random
import warnings
from fractions import Fraction

import pytest

from vcsp import (INF, BinaryPair, CostTable, DomainSpec, Instance,
                  MjnTriple, PairSet, Term, VcspError, solve_pipeline)
from vcsp.cli import main
from vcsp.io_formats import (parse_instance_text, parse_ops_text,
                             serialize_instance, serialize_ops)
from vcsp.operations import OperationSystem, is_stp_on
from vcsp.solvers import solve_bruteforce

from harness import (criterion_1_draws, minmax_system,
                     random_boolean_mjn_instance, random_instance,
                     submodular_chain)

D3 = DomainSpec((3, 3))
UNARY_3X3 = ("vcsp 2\ndomains 3 3\nterm 1 1\ndefault 0\nentry 2 1\n"
             "term 1 2\ndefault 1\n")


def pair_not_conservative():
    system = minmax_system(D3)
    meets = [[list(r) for r in t] for t in system.pair.meet_tables]
    meets[1][1][2] = 0
    pair = BinaryPair(D3, meets, system.pair.join_tables)
    return UNARY_3X3, OperationSystem(pair, system.triple, system.m)


def triple_not_majority():
    # the sorting triple's max is no majority once M leaves variable 1 empty
    system = minmax_system(D3)
    m = PairSet(D3, (system.m.members[0], frozenset()))
    return UNARY_3X3, OperationSystem(system.pair, system.triple, m)


def parity_not_closed():
    # the derived majority of a valid system is no polymorphism of parity
    return ("vcsp 3\ndomains 2 2 2\nterm 3 1 2 3\ndefault inf\n"
            "entry 0 0 0 0\nentry 0 1 1 0\nentry 1 0 1 0\nentry 1 1 0 0\n",
            minmax_system(DomainSpec((2, 2, 2))))


def disequality_not_closed():
    return (UNARY_3X3 + "term 2 1 2\ndefault 0\n"
            "entry 0 0 inf\nentry 1 1 inf\nentry 2 2 inf\n",
            minmax_system(D3))


def write_pair(tmp_path, inst, system):
    ipath = tmp_path / "instance.vcsp"
    opath = tmp_path / "system.ops"
    ipath.write_text(serialize_instance(inst))
    opath.write_text(serialize_ops(system))
    return str(ipath), str(opath)


def fixed_instance(seed=131):
    rng = random.Random(seed)
    while True:
        inst, system = random_instance(rng, max_vars=4, max_size=3)
        if solve_bruteforce(inst).argmin is not None:
            return inst, system


# Submodular on its feasible set, but not once each row is clamped to its
# feasible interval; the min-cut encoder used to reject it (exit 1).
CLAMPED = ("vcsp 2\ndomains 3 2\nterm 2 1 2\ndefault inf\n"
           "entry 0 0 6\nentry 0 1 1\nentry 1 1 4\nentry 2 1 6\n")


# Stage 1 leaves each variable one label; the optimum is that assignment's
# cost, 5/2 + 1/3 + 1/4.
ONE_LABEL = ("vcsp 2\ndomains 2 3\nterm 1 1\ndefault inf\nentry 1 5/2\n"
             "term 1 2\ndefault inf\nentry 2 1/3\n"
             "term 2 1 2\ndefault 1\nentry 1 2 1/4\n")


class TestSolve:
    def test_solve_prints_optimum_and_argmin(self, tmp_path, capsys):
        inst, system = fixed_instance()
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["solve", ipath, opath]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("optimum ")
        assert out[1].startswith("argmin ")

    def test_solve_matches_oracle_line(self, tmp_path, capsys):
        inst, system = fixed_instance(137)
        ipath, opath = write_pair(tmp_path, inst, system)
        main(["solve", ipath, opath])
        solve_line = capsys.readouterr().out.splitlines()[0]
        assert main(["oracle", ipath]) == 0
        oracle_line = capsys.readouterr().out.splitlines()[0]
        assert solve_line == oracle_line

    def test_infeasible_is_success(self, tmp_path, capsys):
        text = ("vcsp 2\ndomains 2 2\n"
                "term 2 1 2\ndefault inf\nentry 0 0 0\n"
                "term 2 1 2\ndefault inf\nentry 1 1 0\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        assert main(["solve", str(ipath), str(opath)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "optimum inf"
        assert out[1] == "argmin none"

    def test_json_output(self, tmp_path, capsys):
        inst, system = fixed_instance(139)
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["solve", ipath, opath, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "optimum" in payload and "argmin" in payload
        ref = solve_bruteforce(inst)
        assert payload["optimum"] == str(ref.optimum)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        inst, system = fixed_instance(149)
        ipath, opath = write_pair(tmp_path, inst, system)
        main(["solve", ipath, opath, "--paranoid"])
        first = capsys.readouterr().out
        main(["solve", ipath, opath, "--paranoid"])
        assert capsys.readouterr().out == first

    def test_trace_file_written(self, tmp_path, capsys):
        rng = random.Random(151)
        while True:
            inst, system = random_boolean_mjn_instance(rng)
            if solve_bruteforce(inst).argmin is not None:
                break
        ipath, opath = write_pair(tmp_path, inst, system)
        tpath = tmp_path / "trace.txt"
        assert main(["solve", ipath, opath, "--trace", str(tpath)]) == 0
        capsys.readouterr()
        for line in tpath.read_text().splitlines():
            assert line.startswith("iter ")

    @pytest.mark.parametrize("flags, out", [
        ([], "optimum 1\nargmin 0 1\nstat path mincut\n"
             "stat reduce_iterations 0\n"),
        (["--json"], '{"argmin": [0, 1], "optimum": "1", "stats": '
                     '{"path": "mincut", "reduce_iterations": 0}}\n'),
        (["--float"], "optimum 1.0\nargmin 0 1\nstat path mincut\n"
                      "stat reduce_iterations 0\n"),
    ])
    def test_clamped_table_not_submodular_solves(self, tmp_path, capsys,
                                                 flags, out):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text(CLAMPED)
        d = DomainSpec((3, 2))
        opath.write_text(serialize_ops(OperationSystem(
            BinaryPair.min_max(d), MjnTriple.canonical(d), PairSet.full(d))))
        assert main(["oracle", str(ipath)]) == 0
        assert capsys.readouterr().out.startswith("optimum 1\nargmin 0 1\n")
        assert main(["solve", str(ipath), str(opath), *flags]) == 0
        assert capsys.readouterr() == (out, "")

    # whole costs parse to int, p/q and decimals to Fraction; the printed
    # optimum is the same either way
    @pytest.mark.parametrize("costs, optimum, argmin", [
        (("1", "3", "1", "0"), "2", "2 2"),
        (("1/2", "3/4", "1/3", "0.5"), "19/12", "1 1"),
    ])
    def test_whole_and_fraction_costs_print_alike(self, tmp_path, capsys,
                                                  costs, optimum, argmin):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text(
            f"vcsp 2\ndomains 3 3\nterm 1 1\ndefault 2\nentry 1 {costs[0]}\n"
            f"term 1 2\ndefault {costs[1]}\nentry 2 0\nterm 2 1 2\n"
            f"default 2\nentry 0 0 0\nentry 0 2 4\nentry 1 1 {costs[2]}\n"
            f"entry 2 0 4\nentry 2 2 {costs[3]}\n")
        opath.write_text(serialize_ops(minmax_system(D3)))
        for args, stats in (
                (["solve", str(ipath), str(opath)],
                 "stat path mincut\nstat reduce_iterations 0\n"),
                (["oracle", str(ipath)], "stat path bruteforce\n")):
            assert main(args) == 0
            assert capsys.readouterr() == (
                f"optimum {optimum}\nargmin {argmin}\n{stats}", "")
            assert main(args + ["--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["optimum"] == optimum


    @pytest.mark.parametrize("flags, optimum", [
        ([], "37/12"), (["--json"], "37/12"), (["--paranoid"], "37/12"),
        (["--float"], "3.0833333333333335"),
        (["--float", "--json"], "3.0833333333333335"),
    ])
    def test_one_label_per_variable(self, tmp_path, capsys, flags, optimum):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text(ONE_LABEL)
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 3)))))
        float_mode = "--float" in flags
        want = solve_bruteforce(parse_instance_text(ONE_LABEL, float_mode))
        assert (str(want.optimum), want.argmin) == (optimum, (1, 2))
        assert main(["solve", str(ipath), str(opath), *flags]) == 0
        if "--json" in flags:
            assert capsys.readouterr() == (
                f'{{"argmin": [1, 2], "optimum": "{optimum}", "stats": '
                f'{{"path": "mincut", "reduce_iterations": 0}}}}\n', "")
        else:
            assert capsys.readouterr() == (
                f"optimum {optimum}\nargmin 1 2\nstat path mincut\n"
                "stat reduce_iterations 0\n", "")


    # a constant term admits every operation: 3 plus the unary 1 solves to
    # 4, and an infinite constant makes the instance infeasible; the cut
    # encoding dropped the constant, and stage 1 refused the infinite one
    @pytest.mark.parametrize("constant, optimum, argmin, path", [
        ("3", "4", "0 0", "mincut"), ("inf", "inf", "none", "infeasible")])
    @pytest.mark.parametrize("flags", [[], ["--paranoid"], ["--float"]])
    def test_nullary_term(self, tmp_path, capsys, constant, optimum, argmin,
                          path, flags):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text(f"vcsp 2\ndomains 2 2\nterm 0\ndefault {constant}\n"
                         "term 1 1\ndefault 1\n")
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        if "--float" in flags and constant != "inf":
            optimum = "4.0"
        assert main(["oracle", str(ipath), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            f"optimum {optimum}", f"argmin {argmin}"]
        assert main(["solve", str(ipath), str(opath), *flags]) == 0
        stats = (f"stat path {path}\n" if path == "infeasible"
                 else f"stat path {path}\nstat reduce_iterations 0\n")
        assert capsys.readouterr() == (
            f"optimum {optimum}\nargmin {argmin}\n{stats}", "")
        assert main(["reduce", str(ipath), str(opath), *flags]) == 0
        out = capsys.readouterr().out
        assert (out == "empty true\n") == (path == "infeasible")

    @pytest.mark.parametrize("flags", [[], ["--paranoid"]])
    def test_costs_past_the_float_range(self, tmp_path, capsys, flags):
        # scaled costs and scales above the largest float solve exactly
        rng = random.Random(20321)
        for factor in (10**400, Fraction(1, 3**700)):
            inst, system = submodular_chain(rng, 6)
            inst = Instance(inst.domains, [Term(CostTable(t.table.shape, [
                e if e is INF else e * factor for e in t.table.entries]),
                t.scope) for t in inst.terms])
            ipath, opath = write_pair(tmp_path, inst, system)
            want = solve_bruteforce(parse_instance_text(
                serialize_instance(inst)))
            assert main(["solve", ipath, opath, *flags]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[:2] == [
                f"optimum {want.optimum}",
                "argmin " + " ".join(map(str, want.argmin))]


class TestVerify:
    def test_valid_system_ok(self, tmp_path, capsys):
        inst, system = fixed_instance(157)
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["verify", ipath, opath]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_non_multimorphic_term_witness(self, tmp_path, capsys):
        # product table is supermodular: the pairwise inequality fails under min/max
        text = ("vcsp 2\ndomains 2 2\n"
                "term 2 1 2\ndefault 0\nentry 1 1 1\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        assert main(["verify", str(ipath), str(opath)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("violation term 1 binary")
        assert "(0, 1)" in out and "(1, 0)" in out

    @pytest.mark.parametrize("mode", [[], ["--float"]])
    @pytest.mark.parametrize("text, expected", [
        ("vcsp 3\ndomains 2 3 2\nterm 1 1\ndefault 1/3\nentry 1 2/3\n"
         "term 2 2 3\ndefault 0\nentry 2 1 7/2\nentry 1 1 1/2\n"
         "entry 0 0 5/4\n",
         "violation term 2 binary ((0, 1), (1, 0))\n"),
        ("vcsp 3\ndomains 2 3 2\nterm 1 2\ndefault 1/2\nentry 0 0\n"
         "entry 2 7/3\nterm 2 1 3\ndefault 0\nentry 0 1 1/3\n"
         "entry 1 0 1/3\n",
         "violation term 2 ternary ((0, 0), (0, 1), (1, 1))\n"),
    ])
    def test_witness_line_is_plain_ints(self, tmp_path, capsys, mode, text,
                                        expected):
        # min/max pair with the canonical triple; the expected lines are
        # those of the loop checkers the numpy kernel replaced
        d = DomainSpec((2, 3, 2))
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(OperationSystem(
            BinaryPair.min_max(d), MjnTriple.canonical(d), PairSet.full(d))))
        assert main(["verify", *mode, str(ipath), str(opath)]) == 1
        assert capsys.readouterr().out == expected

    def test_float_costs_compare_within_tolerance(self, tmp_path, capsys):
        # a coupling 1e-12 above submodular: exact costs fail the kernel and
        # the min-cut check, float costs pass both within FLOAT_TOL
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text("vcsp 2\ndomains 2 2\nterm 2 1 2\ndefault 0\n"
                         "entry 1 1 0.000000000001\n")
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        args = [str(ipath), str(opath)]
        assert main(["solve", *args]) == 1
        assert "not submodular" in capsys.readouterr().err
        assert main(["verify", *args]) == 1
        assert capsys.readouterr().out == (
            "violation term 1 binary ((0, 1), (1, 0))\n")
        assert main(["solve", "--float", *args]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "optimum 0.0" and "stat path mincut" in out
        assert main(["verify", "--float", *args]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_float_tolerance_is_each_terms_own(self, tmp_path, capsys):
        # term 2 breaks submodularity by 0.5 on costs near 1; term 1, of the
        # same shape, holds costs near 1e9, so a tolerance taken over both
        # (about 1) would let term 2 through
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text("vcsp 3\ndomains 2 2 2\n"
                         "term 2 2 3\ndefault 1000000000\n"
                         "term 2 1 2\ndefault 1\nentry 1 1 1.5\n")
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2, 2)))))
        args = ["--float", str(ipath), str(opath)]
        assert main(["verify", *args]) == 1
        assert capsys.readouterr().out == (
            "violation term 2 binary ((0, 1), (1, 0))\n")
        assert main(["solve", *args]) == 1
        assert "term 1 is not submodular" in capsys.readouterr().err

    def test_invalid_ops_reported(self, tmp_path, capsys):
        # projection pair with M claiming the pair commutative
        text = ("vcsp 1\ndomains 2\nterm 1 1\ndefault 0\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        ops_text = ("meet 1\n0 0\n1 1\n"
                    "join 1\n0 1\n0 1\n")
        canon = serialize_ops(minmax_system(DomainSpec((2,))))
        ops_text += canon[canon.index("mj1"):]
        opath = tmp_path / "bad.ops"
        opath.write_text(ops_text)
        assert main(["verify", str(ipath), str(opath)]) == 1
        assert capsys.readouterr().out.startswith("violation ops")


class TestConsistency:
    def test_dump_and_empty_flag(self, tmp_path, capsys):
        text = ("vcsp 2\ndomains 2 2\n"
                "term 2 1 2\ndefault inf\nentry 0 0 0\nentry 1 1 0\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        assert main(["consistency", str(ipath)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "empty false"
        assert out[1] == "unary 1 11"
        assert out[3] == "binary 1 2 1001"

    def test_empty_network(self, tmp_path, capsys):
        text = ("vcsp 1\ndomains 2\nterm 1 1\ndefault inf\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        assert main(["consistency", str(ipath)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "empty true"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_infinite_constant_empties_the_network(self, tmp_path, capsys,
                                                   as_json):
        # the constant term is infinite, so no assignment is feasible, as
        # oracle, solve and reduce report; the network lines stay the full
        # relations of the other term, which has no place for the constant
        text = ("vcsp 2\ndomains 2 2\nterm 0\ndefault inf\n"
                "term 1 1\ndefault 1\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "system.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        assert main(["oracle", str(ipath)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "optimum inf"
        assert main(["solve", str(ipath), str(opath)]) == 0
        assert capsys.readouterr().out.splitlines()[::2] == [
            "optimum inf", "stat path infeasible"]
        assert main(["reduce", str(ipath), str(opath)]) == 0
        assert capsys.readouterr().out == "empty true\n"
        network = ["unary 1 11", "unary 2 11", "binary 1 2 1111"]
        if as_json:
            assert main(["consistency", "--json", str(ipath)]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "empty": True, "network": network}
        else:
            assert main(["consistency", str(ipath)]) == 0
            assert capsys.readouterr().out.splitlines() == [
                "empty true"] + network

    def test_repeated_variable_outside_the_projected_pair(self, tmp_path,
                                                          capsys):
        # on scope (1, 2, 3, 1) tuple 1 0 0 0 gives variable 1 two labels,
        # so only (0, 0, 1) and (0, 1, 0) realize: (2, 3) is 01 or 10
        text = ("vcsp 3\ndomains 2 2 2\nterm 4 1 2 3 1\ndefault inf\n"
                "entry 0 0 1 0 0\nentry 0 1 0 0 0\nentry 1 0 0 0 0\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        assert main(["consistency", str(ipath)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "empty false", "unary 1 10", "unary 2 11", "unary 3 11",
            "binary 1 2 1100", "binary 1 3 1100", "binary 2 3 0110"]


class TestReduce:
    def test_final_ops_parse_back_full(self, tmp_path, capsys):
        rng = random.Random(167)
        while True:
            inst, system = random_boolean_mjn_instance(rng)
            if solve_bruteforce(inst).argmin is not None:
                break
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["reduce", ipath, opath]) == 0
        out = capsys.readouterr().out
        ops_text = "\n".join(
            l for l in out.splitlines() if not l.startswith("iter ")) + "\n"
        # final ops live on the consistency-shrunken domains
        from vcsp.consistency import (decompose_instance,
                                      enforce_strong_3_consistency,
                                      support_maps)
        net, _ = enforce_strong_3_consistency(decompose_instance(inst))
        sizes = tuple(len(k) for k in support_maps(net))
        final = parse_ops_text(ops_text, DomainSpec(sizes), validate=False)
        assert final.m.is_full()
        ok, _ = is_stp_on(final.pair, PairSet.full(final.domains))
        assert ok


class TestValidationErrors:
    # the expected lines are those of the per-entry loops that the numpy
    # masks replaced; a numpy integer in a witness would print differently
    @pytest.mark.parametrize("command", ["solve", "reduce"])
    @pytest.mark.parametrize("case, expected", [
        (pair_not_conservative,
         "error: binary pair violates its contract: not conservative at "
         "variable 1, labels (1, 2)\n"),
        (triple_not_majority,
         "error: ternary triple violates its contract: second component "
         "not majority at variable 1, labels (0, 0, 1)\n"),
        (parity_not_closed,
         "error: stage validate: derived majority operation is not a "
         "polymorphism of term 0; the required operation structure is "
         "missing\n"),
        (disequality_not_closed,
         "error: stage validate: derived majority operation is not a "
         "polymorphism of term 2; the required operation structure is "
         "missing\n"),
    ])
    def test_error_line_and_exit_code(self, tmp_path, capsys, command, case,
                                      expected):
        text, system = case()
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(system))
        assert main([command, str(ipath), str(opath)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", expected)


class TestOracle:
    def test_file_name_starting_with_vcsp(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        inst, _ = fixed_instance(181)
        for name in ("inst.txt", "vcsp_inst.txt"):
            (tmp_path / name).write_text(serialize_instance(inst))
        assert main(["oracle", "inst.txt"]) == 0
        want = capsys.readouterr().out
        assert main(["oracle", "vcsp_inst.txt"]) == 0
        assert capsys.readouterr().out == want


class TestExitCodes:
    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        ipath = tmp_path / "bad.vcsp"
        ipath.write_text("vcsp x\n")
        assert main(["oracle", str(ipath)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, mode, error", [
        ("vcsp 1\ndomains 2\nterm\n", [],
         "error: line 3: 'term' line needs an arity\n"),
        ("vcsp 1\ndomains 0\n", [],
         "error: line 2: every domain size must be at least 1\n"),
        ("vcsp 2\ndomains 2 -2\n", [],
         "error: line 2: every domain size must be at least 1\n"),
        ("vcsp 1\ndomains 2\nterm 1 1\ndefault 1e400\n", ["--float"],
         "error: line 4: bad cost '1e400'\n"),
        ("vcsp 1\ndomains 2\nterm 1 1\ndefault 0\nentry 1 1e400\n",
         ["--float"],
         "error: line 5: bad cost '1e400'\n"),
    ])
    def test_malformed_line_is_usage_error(self, tmp_path, capsys, text,
                                           mode, error):
        ipath = tmp_path / "bad.vcsp"
        ipath.write_text(text)
        assert main(["oracle", *mode, str(ipath)]) == 2
        assert capsys.readouterr().err == error

    def test_float_sum_overflow_is_bad_cost(self, tmp_path, capsys):
        # each cost fits a float, but the pairwise check's sums overflow
        text = ("vcsp 2\ndomains 2 2\nterm 2 1 2\ndefault {}\n"
                "entry 0 0 {}\nentry 1 1 {}\n")
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2)))))
        ipath.write_text(text.format("1.6e308", "1.7e308", "1.7e308"))
        for command in ("verify", "solve"):
            assert main([command, "--float", str(ipath), str(opath)]) == 2
            assert capsys.readouterr() == (
                "", "error: line 4: bad cost '1.6e308'\n")
        # exact costs have no limit; the supermodular term is found
        not_submodular = ("error: term 0 is not submodular under the "
                          "extracted order at ((0, 1), (1, 0)); the pair was "
                          "not a multimorphism of every term\n")
        violation = "violation term 1 binary ((0, 1), (1, 0))\n"
        for mode in ([], ["--float"]):
            if mode:  # the same table below a third of the float range
                ipath.write_text(text.format("5e307", "5.9e307", "5.9e307"))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["verify", *mode, str(ipath), str(opath)]) == 1
                assert capsys.readouterr() == (violation, "")
                assert main(["solve", *mode, str(ipath), str(opath)]) == 1
                assert capsys.readouterr() == ("", not_submodular)

    def test_cap_exceeded_is_usage_error(self, tmp_path, capsys):
        inst, system = fixed_instance(173)
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["oracle", ipath, "--cap", "1"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle", "verify", "solve"])
    def test_cap_bounds_a_table_as_it_is_parsed(self, tmp_path, capsys,
                                                command):
        # one table of 10**20 entries; verify never checked the cap
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text("vcsp 20\ndomains" + " 10" * 20 + "\nterm 20"
                         + "".join(f" {v}" for v in range(1, 21))
                         + "\ndefault 0\n")
        opath.write_text(serialize_ops(minmax_system(DomainSpec((10,) * 20))))
        args = [command, str(ipath)] + ([] if command == "oracle"
                                        else [str(opath)])
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"error: table of {10 ** 20} entries exceeds cap of "
                f"{10 ** 7}\n")

    def test_table_of_cap_entries_parses(self, tmp_path, capsys):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text("vcsp 3\ndomains 2 2 2\nterm 3 1 2 3\ndefault 1\n")
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2, 2)))))
        assert main(["verify", "--cap", "8", str(ipath), str(opath)]) == 0
        assert capsys.readouterr() == ("ok\n", "")
        assert main(["verify", "--cap", "7", str(ipath), str(opath)]) == 2
        assert capsys.readouterr() == (
            "", "error: table of 8 entries exceeds cap of 7\n")

    @pytest.mark.parametrize("command, which, data, error", [
        ("oracle", "instance",
         b"vcsp 1\ndomains 2\nterm 1 1\ndefault \xff\n",
         "error: line 4: byte 0xff is not UTF-8\n"),
        ("solve", "instance", b"vcsp 1\r\ndomains 2\r\n\xe2\x82\n",
         "error: line 3: byte 0xe2 is not UTF-8\n"),
        ("solve", "ops", b"meet 1\n0 0\n0 1\njoin 1\n0 1\n1 \xc3\n",
         "error: line 6: byte 0xc3 is not UTF-8\n"),
        ("verify", "ops", b"\x80", "error: line 1: byte 0x80 is not UTF-8\n"),
    ])
    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys, command,
                                           which, data, error):
        ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        ipath.write_text("vcsp 1\ndomains 2\nterm 1 1\ndefault 0\n")
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2,)))))
        (ipath if which == "instance" else opath).write_bytes(data)
        args = [command, str(ipath)] + ([] if command == "oracle"
                                        else [str(opath)])
        assert main(args) == 2
        assert capsys.readouterr() == ("", error)

    def test_chain_above_cap_solves(self, tmp_path, capsys):
        # 3^16 assignments exceed the default cap; no min-cut stage needs them
        inst, system = submodular_chain(random.Random(179), 16)
        ipath, opath = write_pair(tmp_path, inst, system)
        assert main(["solve", ipath, opath]) == 0
        assert "stat path mincut" in capsys.readouterr().out.splitlines()
        assert main(["reduce", ipath, opath]) == 0
        assert capsys.readouterr().err == ""

    def test_stage_failure_is_exit_one(self, tmp_path, capsys):
        # parity relation: validation of the derived majority fails
        text = ("vcsp 3\ndomains 2 2 2\n"
                "term 3 1 2 3\ndefault inf\n"
                "entry 0 0 0 0\nentry 0 1 1 0\nentry 1 0 1 0\nentry 1 1 0 0\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((2, 2, 2)))))
        assert main(["solve", str(ipath), str(opath)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        inst, system = fixed_instance(191)
        ipath, opath = write_pair(tmp_path, inst, system)
        missing = str(tmp_path / "absent.vcsp")
        assert main(["oracle", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["solve", ipath, missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["reduce", ipath, str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_reduce_validates_like_solve(self, tmp_path, capsys):
        # crisp disequality on three labels: the median is no polymorphism
        text = ("vcsp 2\ndomains 3 3\n"
                "term 2 1 2\ndefault 0\n"
                "entry 0 0 inf\nentry 1 1 inf\nentry 2 2 inf\n")
        ipath = tmp_path / "inst.vcsp"
        ipath.write_text(text)
        opath = tmp_path / "ops.ops"
        opath.write_text(serialize_ops(minmax_system(DomainSpec((3, 3)))))
        for command in ("solve", "reduce"):
            assert main([command, str(ipath), str(opath)]) == 1
            assert "stage validate" in capsys.readouterr().err


# -- the errors of the solver's multimorphism checks -------------------------

SUPERMODULAR_SECOND = ("vcsp 3\ndomains 2 2 2\nterm 1 1\ndefault 0\n"
                       "entry 1 2\nterm 2 2 3\ndefault 0\nentry 1 1 1\n")
DISEQUALITY_SECOND = ("vcsp 3\ndomains 2 2 2\nterm 1 1\ndefault 0\n"
                      "entry 1 2\nterm 2 2 3\ndefault inf\nentry 0 1 0\n"
                      "entry 1 0 0\n")
D2X3 = DomainSpec((2, 2, 2))


def projection_first():
    """The canonical triple, with min/max on variables 1 and 2 and, on
    variable 0, the projection pair (meet = first, join = second
    argument), which does not commute: stage 2 rewrites it."""
    minmax = BinaryPair.min_max(D2X3)
    pair = BinaryPair(D2X3, ([[0, 0], [1, 1]],) + minmax.meet_tables[1:],
                      ([[0, 1], [0, 1]],) + minmax.join_tables[1:])
    m = PairSet(D2X3, (frozenset(), frozenset({(0, 1)}), frozenset({(0, 1)})))
    return OperationSystem(pair, MjnTriple.canonical(D2X3), m)


@pytest.mark.parametrize("text, system, command, error, witness", [
    # stage 3: no stage-2 iteration checks a full commutative pair
    (SUPERMODULAR_SECOND, minmax_system(D2X3), ["solve"],
     "error: term 1 is not submodular under the extracted order at "
     "((0, 1), (1, 0)); the pair was not a multimorphism of every term\n",
     None),
    # stage 2: the initial pair already failed term 1, the rewrite keeps it
    (SUPERMODULAR_SECOND, projection_first(), ["reduce"],
     "error: stage reduce: rewritten pair is no longer a multimorphism of "
     "term 1 at ((0, 1), (1, 0))\n", (1, ((0, 1), (1, 0)))),
    (SUPERMODULAR_SECOND, projection_first(), ["solve"],
     "error: stage reduce: rewritten pair is no longer a multimorphism of "
     "term 1 at ((0, 1), (1, 0))\n", (1, ((0, 1), (1, 0)))),
    # the paranoid closure check names the relation, before stage 3 runs
    (DISEQUALITY_SECOND, minmax_system(D2X3), ["solve", "--paranoid"],
     "error: stage solve: network relation on variables 1 and 2 is not "
     "closed under the final pair at ((0, 1), (1, 0))\n",
     (1, 2, ((0, 1), (1, 0)))),
    (DISEQUALITY_SECOND, minmax_system(D2X3), ["solve"],
     "error: term 1 is not submodular under the extracted order at "
     "((0, 1), (1, 0)); the pair was not a multimorphism of every term\n",
     None),
])
def test_multimorphism_check_errors(tmp_path, capsys, text, system, command,
                                    error, witness):
    ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
    ipath.write_text(text)
    opath.write_text(serialize_ops(system))
    assert main([*command, str(ipath), str(opath)]) == 1
    assert capsys.readouterr() == ("", error)
    # the library raises the same error, with the witness as data
    instance = parse_instance_text(text)
    with pytest.raises(VcspError) as exc:
        solve_pipeline(instance, parse_ops_text(serialize_ops(system),
                                                instance.domains),
                       paranoid="--paranoid" in command)
    assert f"error: {exc.value}\n" == error
    assert getattr(exc.value, "witness", None) == witness


REWRITTEN_FAILS = ("error: stage reduce: rewritten pair is no longer a "
                   "multimorphism of term 1 at ((0, 1), (1, 0))\n")
SOLVE_STP_FAILS = ("error: term 1 is not submodular under the extracted "
                   "order at ((0, 1), (1, 0)); the pair was not a "
                   "multimorphism of every term\n")


@pytest.mark.parametrize("flags", [[], ["--paranoid"]])
@pytest.mark.parametrize("system, command, code, error", [
    (projection_first(), "solve", 1, REWRITTEN_FAILS),
    (projection_first(), "reduce", 1, REWRITTEN_FAILS),
    (minmax_system(D2X3), "solve", 1, SOLVE_STP_FAILS),
    (minmax_system(D2X3), "reduce", 0, ""),
])
def test_input_pair_already_fails_a_term(tmp_path, capsys, flags, system,
                                         command, code, error):
    # No step before stage 2 checks the pairwise inequality.  With a stage-2
    # iteration, the check after the first rewrite reports the failure; with
    # none, solve_stp reports it, and reduce prints the operations unchanged.
    ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
    ipath.write_text(SUPERMODULAR_SECOND)
    opath.write_text(serialize_ops(system))
    assert main([command, str(ipath), str(opath), *flags]) == code
    out = serialize_ops(system) if code == 0 else ""
    assert capsys.readouterr() == (out, error)


# -- byte identity of the CLI on the criterion-1 draws ------------------------

# SHA-256 over every command's exit code, stdout, stderr and trace file on
# the first 100 seed-20240 draws of random_instance.  Every command but
# ``solve --paranoid`` and ``verify`` printed the same bytes with Dinic's
# phases as the max-flow.  A change of output on purpose updates it.
CLI_BYTES_DIGEST = (
    "d1ff8f28efc50dbddfc79ffa48a8fd086e656e906acc2603ec3f42a277519582")


def test_cli_bytes_on_the_criterion_1_draws(tmp_path, capsys):
    # the answers, the float answers, the paranoid checks, the verdicts of
    # verify, the stage-2 traces and the networks that every solver change
    # leaves as they are, in one digest
    digest = hashlib.sha256()
    ipath, opath = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
    tpath = tmp_path / "trace.txt"
    for inst, system in criterion_1_draws(100):
        ipath.write_text(serialize_instance(inst))
        opath.write_text(serialize_ops(system))
        for command in (["solve"], ["solve", "--json"], ["solve", "--float"],
                        ["solve", "--paranoid"], ["verify"],
                        ["reduce", "--trace", str(tpath)], ["consistency"]):
            files = [str(ipath)] if command == ["consistency"] else [
                str(ipath), str(opath)]
            tpath.write_text("")
            code = main([command[0], *files, *command[1:]])
            out, err = capsys.readouterr()
            for part in (str(code), out, err, tpath.read_text()):
                digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == CLI_BYTES_DIGEST

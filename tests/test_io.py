"""Instance and operation-system file formats."""

import random
from fractions import Fraction

import pytest

from vcsp import CostTable, DomainSpec, INF, Instance, Term, ValidationError
from vcsp.errors import FormatError
from vcsp.io_formats import (
    parse_instance,
    parse_instance_text,
    parse_ops,
    parse_ops_text,
    serialize_instance,
    serialize_ops,
)

from harness import minmax_system, random_instance

MINIMAL = """
vcsp 1
domains 2
term 1 1
default 0
entry 1 3/2
"""


class TestParseInstance:
    def test_minimal_unary(self):
        inst = parse_instance_text(MINIMAL)
        assert inst.domains.sizes == (2,)
        assert len(inst.terms) == 1
        assert inst.terms[0].table[(0,)] == 0
        assert inst.terms[0].table[(1,)] == Fraction(3, 2)

    def test_inf_entry(self):
        inst = parse_instance_text("vcsp 1\ndomains 2\nterm 1 1\ndefault inf\nentry 0 1")
        assert inst.terms[0].table[(1,)] is INF
        assert inst.terms[0].table[(0,)] == 1

    def test_scope_index_out_of_range_names_line(self):
        text = "vcsp 2\ndomains 2 2\nterm 1 3\ndefault 0"
        with pytest.raises(FormatError) as exc:
            parse_instance_text(text)
        assert "line 3" in str(exc.value)

    def test_missing_default_rejected(self):
        with pytest.raises(FormatError):
            parse_instance_text("vcsp 1\ndomains 2\nterm 1 1\nentry 0 1")

    def test_duplicate_entry_rejected(self):
        with pytest.raises(FormatError):
            parse_instance_text(
                "vcsp 1\ndomains 2\nterm 1 1\ndefault 0\nentry 0 1\nentry 0 2")

    def test_negative_cost_rejected(self):
        with pytest.raises(FormatError):
            parse_instance_text("vcsp 1\ndomains 2\nterm 1 1\ndefault -1")

    def test_comments_and_blank_lines(self):
        text = "# header\nvcsp 1\n\ndomains 2  # two labels\nterm 1 1\ndefault 0\n"
        inst = parse_instance_text(text)
        assert inst.domains.sizes == (2,)

    def test_float_mode(self):
        inst = parse_instance_text(MINIMAL, float_mode=True)
        assert isinstance(inst.terms[0].table[(1,)], float)


class TestRoundTrip:
    def test_instance_round_trip(self):
        rng = random.Random(113)
        for _ in range(10):
            inst, _ = random_instance(rng, max_vars=4, max_size=3)
            text = serialize_instance(inst)
            back = parse_instance_text(text)
            assert back.domains.sizes == inst.domains.sizes
            assert len(back.terms) == len(inst.terms)
            for t1, t2 in zip(inst.terms, back.terms):
                assert t1.scope == t2.scope
                assert t1.table == t2.table
            assert serialize_instance(back) == text

    def test_ops_round_trip(self):
        rng = random.Random(127)
        from harness import random_system
        for _ in range(10):
            d = DomainSpec(tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3))))
            system = random_system(rng, d)
            text = serialize_ops(system)
            back = parse_ops_text(text, d)
            assert back.m.members == system.m.members
            assert back.pair.meet_tables == system.pair.meet_tables
            assert back.pair.join_tables == system.pair.join_tables
            for a, b in zip(back.triple.ops, system.triple.ops):
                assert a.tables == b.tables
            assert serialize_ops(back) == text


class TestParseOps:
    def test_minmax_canonical_validates(self):
        d = DomainSpec((2, 2))
        text = serialize_ops(minmax_system(d))
        parse_ops_text(text, d)  # validate=True by default

    def test_non_conservative_entry_rejected(self):
        d = DomainSpec((2,))
        text = serialize_ops(minmax_system(d)).replace(
            "meet 1\n0 0\n0 1", "meet 1\n0 1\n1 1")
        with pytest.raises(ValidationError) as exc:
            parse_ops_text(text, d)
        assert exc.value.witness[0] == 0

    def test_non_commutative_pair_in_m_rejected(self):
        d = DomainSpec((2,))
        # projection pair with M claiming {0,1} commutative
        text = ("meet 1\n0 0\n1 1\n"
                "join 1\n0 1\n0 1\n")
        canon = serialize_ops(minmax_system(d))
        tail = canon[canon.index("mj1"):]
        with pytest.raises(ValidationError) as exc:
            parse_ops_text(text + tail, d)
        assert "not commutative" in str(exc.value)

    def test_missing_table_rejected(self):
        d = DomainSpec((2,))
        text = serialize_ops(minmax_system(d))
        truncated = text[:text.index("mn3")]
        with pytest.raises(FormatError):
            parse_ops_text(truncated, d)

    def test_bad_pair_token_rejected(self):
        d = DomainSpec((2,))
        text = serialize_ops(minmax_system(d)).replace("M 1 0:1", "M 1 0-1")
        with pytest.raises(FormatError):
            parse_ops_text(text, d)

    def test_wrong_row_width_rejected(self):
        d = DomainSpec((3,))
        text = serialize_ops(minmax_system(d)).replace(
            "meet 1\n0 0 0", "meet 1\n0 0")
        with pytest.raises(FormatError):
            parse_ops_text(text, d)


class TestPathsAndText:
    # relative file names that look like the start of a file's text
    def test_instance_path_named_like_a_header(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "vcsp_inst.txt").write_text(MINIMAL)
        inst = parse_instance("vcsp_inst.txt")
        assert inst.terms[0].table[(1,)] == Fraction(3, 2)

    def test_ops_path_named_like_a_header(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        d = DomainSpec((2,))
        (tmp_path / "meet.ops").write_text(serialize_ops(minmax_system(d)))
        assert parse_ops("meet.ops", d).m.is_full()

    def test_ops_text_starting_with_comment(self):
        d = DomainSpec((2, 2))
        text = "# min/max system\n" + serialize_ops(minmax_system(d))
        assert parse_ops_text(text, d).m.is_full()

    def test_ops_text_starting_with_join(self):
        d = DomainSpec((2,))
        text = serialize_ops(minmax_system(d))
        meet = text[:text.index("join")]
        join = text[text.index("join"):text.index("mj1")]
        back = parse_ops_text(join + meet + text[text.index("mj1"):], d)
        assert serialize_ops(back) == text

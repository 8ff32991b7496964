"""Instance and operation-system file formats."""

import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vcsp import (CostTable, DomainSpec, INF, Instance, Term, ValidationError,
                  VcspError)
from vcsp.errors import CapExceeded, FormatError
from vcsp.io_formats import (
    _REWRITE,
    _SPACES,
    parse_instance,
    parse_instance_text,
    parse_ops,
    parse_ops_text,
    serialize_instance,
    serialize_ops,
)

from harness import (minmax_system, random_instance, random_system,
                     submodular_ladder)
from oracles import loop_parse_instance_text, loop_parse_ops_text

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


D1 = DomainSpec((2,))
#: The min/max system on one variable of two labels: ``meet 1`` on line 1,
#: ``join 1`` on 4, ``mj1 1`` on 7, ``mj2 1`` on 12, ``mn3 1`` on 17 and
#: ``M 1 0:1`` on 22.
OPS2 = serialize_ops(minmax_system(D1))
HEAD = "vcsp 1\ndomains 2\n"  # lines 1 and 2 of the instance cases


def _parse(kind, text, float_mode):
    if kind == "ops":
        return parse_ops_text(text, D1)
    return parse_instance_text(text, float_mode=float_mode)


# one case per ``raise FormatError`` site of the two parsers and of
# ``parse_cost``, then cases on the order in which errors are found: each
# error names the first offending line in file order
FORMAT_ERRORS = [
    ("inst", "", "file must start with a 'vcsp <V>' line", 1),
    ("inst", "# empty\n\n", "file must start with a 'vcsp <V>' line", 1),
    ("inst", "\n\ndomains 2\n", "file must start with a 'vcsp <V>' line", 3),
    ("inst", "vcsp 1 2\n", "'vcsp' line needs exactly one count", 1),
    ("inst", "vcsp x\n", "expected variable count, got 'x'", 1),
    ("inst", "vcsp 1\n", "second line must be 'domains <sizes>'", 1),
    ("inst", "vcsp 1\n\nterm 1 1\n", "second line must be 'domains <sizes>'",
     1),
    ("inst", "vcsp 2\ndomains 2\n", "'domains' line needs 2 sizes", 2),
    ("inst", "vcsp 1\ndomains two\n", "expected domain size, got 'two'", 2),
    ("inst", "vcsp 2\ndomains 2 0\n", "every domain size must be at least 1",
     2),
    ("inst", HEAD + "default 0\n", "expected 'term', got 'default'", 3),
    ("inst", HEAD + "term\n", "'term' line needs an arity", 3),
    ("inst", HEAD + "term one 1\n", "expected arity, got 'one'", 3),
    ("inst", HEAD + "term 2 1\n", "'term' line needs 2 variable indices", 3),
    ("inst", HEAD + "term -1 1\n", "'term' line needs -1 variable indices",
     3),
    ("inst", HEAD + "term 1 v\n", "expected variable index, got 'v'", 3),
    ("inst", HEAD + "term 1 2\n", "variable index 2 out of range 1..1", 3),
    ("inst", HEAD + "term 1 0\n", "variable index 0 out of range 1..1", 3),
    ("inst", HEAD + "term 1 1\ndefault 0\ndefault 1\n",
     "duplicate 'default' line", 5),
    ("inst", HEAD + "term 1 1\ndefault 0 1\n", "'default' needs one cost", 4),
    ("inst", HEAD + "term 1 1\ndefault\n", "'default' needs one cost", 4),
    ("inst", HEAD + "term 1 1\ndefault x\n", "bad cost 'x'", 4),
    ("inst", HEAD + "term 1 1\ndefault -1\n", "negative cost '-1'", 4),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 0\n",
     "'entry' needs 1 labels and a cost", 5),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 0 1 2\n",
     "'entry' needs 1 labels and a cost", 5),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry z 1\n",
     "expected label, got 'z'", 5),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 2 1\n",
     "label 2 out of range 0..1", 5),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry -1 1\n",
     "label -1 out of range 0..1", 5),
    ("inst", HEAD + "term 1 1\nentry 1 0\ndefault 0\nentry 1 2\n",
     "duplicate entry for (1,)", 6),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 1 1/0\n",
     "bad cost '1/0'", 5),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 1 -1/2\n",
     "negative cost '-1/2'", 5),
    ("inst", HEAD + "term 1 1\nterm 1 1\ndefault 0\n",
     "term is missing its 'default' line", 3),
    ("inst", HEAD + "term 1 1\ndefault 0\nterm 1 1\nentry 0 1\n\n",
     "term is missing its 'default' line", 6),
    ("inst", HEAD + "term 1 1\ndefault nan\n", "bad cost 'nan'", 4),
    ("float", HEAD + "term 1 1\ndefault 1e400\n", "bad cost '1e400'", 4),
    ("float", HEAD + "term 1 1\ndefault 0\nentry 0 -2.5\n",
     "negative cost '-2.5'", 5),
    # order within a term: labels by position, int before range, then the
    # duplicate, then the cost; lines in file order whatever their kind
    ("inst", "vcsp 2\ndomains 2 2\nterm 2 1 2\ndefault 0\nentry 5 x 0\n",
     "label 5 out of range 0..1", 5),
    ("inst", "vcsp 2\ndomains 2 2\nterm 2 1 2\ndefault 0\nentry x 5 0\n",
     "expected label, got 'x'", 5),
    ("inst", "vcsp 2\ndomains 2 2\nterm 2 1 2\ndefault 0\nentry 0 0 1\n"
     "entry 0 0 bad\n", "duplicate entry for (0, 0)", 6),
    ("inst", HEAD + "term 1 1\nentry 0 bad\ndefault 0\ndefault 0\n",
     "bad cost 'bad'", 4),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 0 1\nentry 0 bad\n"
     "entry 2 1\n", "duplicate entry for (0,)", 6),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 0 1\nentry 1 bad\n"
     "entry 0 1\n", "bad cost 'bad'", 6),
    ("inst", HEAD + "term 1 1\ndefault 0\nentry 1 1\nterm 1 2\n",
     "variable index 2 out of range 1..1", 6),
    ("inst", HEAD + "term 1 1\n# note\n\ndefault 0\nentry 3 1\n",
     "label 3 out of range 0..1", 7),
    ("inst", "vcsp 1\r\ndomains 2\r\nterm 1 1\r\ndefault 0\r\nentry 1 x\r\n",
     "bad cost 'x'", 5),
    ("inst", HEAD + "term 1 +1\ndefault 0\nentry 1_0 1\n",
     "label 10 out of range 0..1", 5),
    ("inst", HEAD + "term 0\ndefault 0\nentry 1\nentry 2\n",
     "duplicate entry for ()", 6),

    ("ops", "foo 1\n", "unknown block 'foo'", 1),
    ("ops", "\nmeet\n", "'meet' needs a variable index", 2),
    ("ops", "M\n", "'M' needs a variable index", 1),
    ("ops", "join one\n", "expected variable index, got 'one'", 1),
    ("ops", "mj1 2\n", "variable index 2 out of range", 1),
    ("ops", "M 0\n", "variable index 0 out of range", 1),
    ("ops", OPS2 + "M 1\n", "duplicate 'M' block for variable 1", 23),
    ("ops", OPS2.replace("M 1 0:1", "M 1 0-1"),
     "bad pair '0-1', expected a:b", 22),
    ("ops", OPS2.replace("M 1 0:1", "M 1 0:1:1"),
     "bad pair '0:1:1', expected a:b", 22),
    ("ops", OPS2.replace("M 1 0:1", "M 1 a:1"), "expected label, got 'a'", 22),
    ("ops", OPS2.replace("M 1 0:1", "M 1 0:b"), "expected label, got 'b'", 22),
    ("ops", OPS2.replace("M 1 0:1", "M 1 1:1"),
     "bad pair '1:1' for domain size 2", 22),
    ("ops", OPS2.replace("M 1 0:1", "M 1 0:2"),
     "bad pair '0:2' for domain size 2", 22),
    ("ops", OPS2 + "meet 1\n0 0\n0 1\n",
     "duplicate 'meet' block for variable 1", 23),
    ("ops", OPS2 + "mn3 1\n0 0\n", "duplicate 'mn3' block for variable 1",
     23),
    ("ops", "M 1 0:1\n" + OPS2[:OPS2.index("M 1") - len("0 1\n")],
     "'mn3' table for variable 1 is truncated", 18),
    ("ops", OPS2.replace("meet 1\n0 0", "meet 1\n0"),
     "table row needs 2 labels", 2),
    ("ops", OPS2.replace("join 1\n0 1\n1 1", "join 1\n0 1\n1 1 1"),
     "table row needs 2 labels", 6),
    ("ops", OPS2.replace("mj1 1\n0 0", "mj1 1\n0 q"),
     "expected label, got 'q'", 8),
    ("ops", OPS2.replace("mj2 1\n0 1", "mj2 1\n0 2"), "label 2 out of range",
     13),
    ("ops", OPS2.replace("mj2 1\n0 1", "mj2 1\n-1 1"),
     "label -1 out of range", 13),
    ("ops", OPS2[:OPS2.index("mn3")], "missing 'mn3' table for variables [1]",
     None),
    ("ops", OPS2[:OPS2.index("mj1")] + "M 1\n",
     "missing 'mj1' table for variables [1]", None),
    ("ops", OPS2.replace("M 1 0:1\n", ""),
     "missing 'M' line for variables [1]", None),
    # order within a block: rows in file order, each row's width before its
    # labels; a block takes its rows whatever they hold
    ("ops", OPS2.replace("meet 1\n0 0\n0 1", "meet 1\n0 q\n0"),
     "expected label, got 'q'", 2),
    ("ops", OPS2.replace("meet 1\n0 0\n0 1", "meet 1\n0\n0 q"),
     "table row needs 2 labels", 2),
    ("ops", OPS2.replace("meet 1\n0 0\n0 1", "meet 1\n3 q\n0 1"),
     "label 3 out of range", 2),
    ("ops", OPS2.replace("meet 1\n0 0\n0 1", "meet 1\n0 0"),
     "expected label, got 'join'", 3),
    ("ops", OPS2.replace("mj1 1\n0 0\n0 1\n0 1\n1 1", "mj1 1\n0 0"),
     "expected label, got 'mj2'", 9),
    ("ops", OPS2.replace("0 1\njoin 1", "join 1 x y"),
     "table row needs 2 labels", 3),
    ("ops", OPS2.replace("M 1 0:1\n", "") + "meet 1\n0 0\n",
     "duplicate 'meet' block for variable 1", 22),
    ("ops", "M 1 0:1\n" + OPS2.replace("M 1 0:1\n", "").replace(
        "mn3 1\n0 0\n0 0\n0 0\n0 1", "mn3 1\n0 0\n0 0\n0 9"),
     "label 9 out of range", 21),
    ("ops", OPS2.replace("mj1 1\n0 0\n", "mj1 1\n# row 0\n\n0 x\n"),
     "expected label, got 'x'", 10),
    ("ops", OPS2.replace("\n", "\r\n").replace("mj2 1\r\n0 1",
                                                "mj2 1\r\n0 2"),
     "label 2 out of range", 13),
    ("ops", OPS2.replace("mj2 1\n0 1", "mj2 1\n+1 1_0"),
     "label 10 out of range", 13),
]


class TestFormatErrors:
    @pytest.mark.parametrize("kind, text, message, line", FORMAT_ERRORS)
    def test_message_and_line(self, kind, text, message, line):
        with pytest.raises(FormatError) as exc:
            _parse(kind, text, kind == "float")
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None
                                  else f"line {line}: {message}")

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("0 1\n", "0 1  # a row\n\n   \n# more\n"),
        lambda t: "\n".join("+" + row.replace(" ", " 0_")
                            if row[:1].isdigit() else row
                            for row in t.split("\n")),
    ])
    def test_ops_layout_does_not_matter(self, edit):
        back = parse_ops_text(edit(OPS2), D1)
        assert serialize_ops(back) == OPS2

    def test_instance_layout_does_not_matter(self):
        text = "vcsp 2\ndomains 2 3\nterm 2 1 2\ndefault 1\nentry 1 2 3/2\n"
        plain = serialize_instance(parse_instance_text(text))
        crlf = text.replace("\n", "\r\n").replace(
            "entry", "# comment\r\n\r\n  entry")
        signed = text.replace("term 2 1 2", "term +2 +1 0_2").replace(
            "entry 1 2", "entry +1 0_2")
        for variant in (crlf, signed):
            assert serialize_instance(parse_instance_text(variant)) == plain


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


class TestStream:
    def test_the_whitespace_and_line_breaks_are_pythons(self):
        every = [chr(c) for c in range(sys.maxunicode + 1)]
        assert set(_SPACES) == {c for c in every if c.isspace()}
        assert set(_REWRITE) == {"#"} | {
            c for c in every if c != "\n" and len(f"a{c}b".splitlines()) == 2}

    def test_non_utf8_file_names_its_line(self, tmp_path):
        path = tmp_path / "inst.vcsp"
        path.write_bytes(b"vcsp 1\r\ndomains 2\n\nterm 1 1 \xff\n")
        with pytest.raises(FormatError) as exc:
            parse_instance(str(path))
        assert str(exc.value) == "line 4: byte 0xff is not UTF-8"
        path.write_bytes(serialize_ops(minmax_system(D1)).encode()[:-3]
                         + "\u00e9".encode("latin-1"))
        with pytest.raises(FormatError) as exc:
            parse_ops(str(path), D1)
        assert str(exc.value) == "line 22: byte 0xe9 is not UTF-8"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_files_read_as_their_text(self, tmp_path, newline):
        inst, system = random_instance(random.Random(139), max_vars=4)
        texts = serialize_instance(inst), serialize_ops(system)
        paths = tmp_path / "inst.vcsp", tmp_path / "ops.ops"
        for path, text in zip(paths, texts):
            path.write_bytes(text.replace("\n", newline).encode())
        assert same_instance(parse_instance(str(paths[0])),
                             parse_instance_text(texts[0]))
        assert same_system(parse_ops(str(paths[1]), inst.domains),
                           parse_ops_text(texts[1], inst.domains))


class TestCap:
    TEXT = "vcsp 2\ndomains 3 4\nterm 2 1 2\ndefault 0\nentry 2 3 1\n"

    def test_a_table_of_cap_entries_parses(self):
        assert parse_instance_text(self.TEXT, cap=12).terms[0].table[
            (2, 3)] == 1
        with pytest.raises(CapExceeded) as exc:
            parse_instance_text(self.TEXT, cap=11)
        assert (exc.value.required, exc.value.cap) == (12, 11)

    @pytest.mark.parametrize("tail, raised", [
        ("entry 2 4 1\n", "line 6: label 4 out of range 0..3"),
        ("default 1\n", "line 6: duplicate 'default' line"),
        ("term 1 3\ndefault 0\n",  # a later line's error comes after
         "table of 12 entries exceeds cap of 11"),
    ])
    def test_the_terms_own_errors_come_first(self, tail, raised):
        with pytest.raises((FormatError, CapExceeded), match=raised):
            parse_instance_text(self.TEXT + tail, cap=11)

    def test_a_huge_table_is_refused_before_it_is_built(self):
        text = ("vcsp 20\ndomains" + " 10" * 20 + "\nterm 20"
                + "".join(f" {v}" for v in range(1, 21)) + "\ndefault 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                parse_instance_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.required == 10 ** 20 and peak <= 2 ** 20


class TestParseMemory:
    # the 1000-variable ladder's 144 KB instance and 257 KB ops files; the
    # parser that read them line by line peaked at 4.9 and 14.8 MB
    @pytest.mark.parametrize("which, bound", [("instance", 4), ("ops", 11)])
    def test_peak(self, which, bound):
        inst, system = submodular_ladder(random.Random(1), 1, 1000)
        if which == "instance":
            parse, args = parse_instance_text, (serialize_instance(inst),)
        else:
            parse, args = parse_ops_text, (serialize_ops(system), inst.domains)
        parse(*args)  # the first call fills the caches it reads
        tracemalloc.start()
        try:
            parse(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20


def same_instance(a, b):
    """Equal domains and scopes, and equal table entries of equal types."""
    return a.domains == b.domains and len(a.terms) == len(b.terms) and all(
        s.scope == t.scope and s.table.shape == t.table.shape
        and list(map(type, s.table.entries)) == list(map(type, t.table.entries))
        and s.table.entries == t.table.entries
        for s, t in zip(a.terms, b.terms))


def same_system(a, b):
    """Equal domains, operation stacks and M masks, of equal dtypes."""
    def arrays(ops):
        return ops.pair.index_stacks(), ops.triple.index_stacks(), ops.m.mask
    return a.domains == b.domains and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(arrays(a), arrays(b)))


def outcome(parse, *args, **kwargs):
    """What ``parse`` returns, or the class, message and line it raises."""
    try:
        return parse(*args, **kwargs)
    except VcspError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.fixture(scope="module")
def corpus():
    """The criterion-1 corpus (the same seed and draws), serialized."""
    rng = random.Random(20240)
    out = []
    for _ in range(250):
        inst, system = random_instance(rng, max_vars=6, max_size=4)
        out.append((serialize_instance(inst), serialize_ops(system),
                    inst.domains))
    return out


def mutant(rng, text):
    """``text`` with one token replaced, deleted or repeated, or a line
    broken after it."""
    lines = text.split("\n")
    num = rng.choice([i for i, line in enumerate(lines) if line.split()])
    toks = lines[num].split()
    pos = rng.randrange(len(toks))
    edit = rng.choice(["replace"] * 4 + ["delete", "repeat", "break"])
    if edit == "replace":
        toks[pos] = rng.choice([
            "x", "-1", "0", "1", "2", "3", "9", "+1", "1_0", "01", "1/0",
            "-1/2", "3/2", "2.5", "inf", "nan", "1e400", "0:1", "1:0", "1:1",
            "a:b", "0:1:2", "default", "entry", "term", "meet", "join", "mj1",
            "M", "#", "\u0663"])
    elif edit == "delete":
        del toks[pos]
    elif edit == "repeat":
        toks.insert(pos, toks[pos])
    else:
        toks.insert(pos + 1, "\n")
    lines[num] = " ".join(toks)
    return "\n".join(lines)


#: Each line break of ``str.splitlines`` but ``\n``, and some of the in-line
#: whitespace of ``str.split``.
BREAKS = ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]
SPACES = ["\t", "\x1f", "\xa0", "\u3000"]


def layouts(text):
    """``text`` with each line break, with a cycle of all of them, with each
    in-line whitespace, without its final newline, and with comments
    straight after tokens."""
    cycle = BREAKS + ["\n"]
    return ([text.replace("\n", br) for br in BREAKS]
            + ["".join(row + cycle[i % len(cycle)]
                       for i, row in enumerate(text.split("\n")))]
            + [text.replace(" ", space) for space in SPACES]
            + [text.rstrip("\n"),
               text.replace("\n", "#a\n", 2).replace(" 1\n", " 1#b 2\n")])


class TestReferenceParsers:
    # the parsers read in bulk; the reference reads one token at a time

    @pytest.mark.parametrize("kind, text", [
        ("inst", "vcsp 2\ndomains 2 3\nterm 2 1 2\ndefault 1\nentry 1 2 3/2\n"
                 "\nterm 1 2\nentry 0 inf\ndefault 0\n"),
        ("inst", "vcsp 2\ndomains 2 3\nterm 2 1 2\ndefault 1\nentry 1 2 3/2\n"
                 "\nterm 1 2\nentry 0 inf\nentry 3 1\n"),
        ("inst", "vcsp 2\ndomains 2 3\nterm 1 1\ndefault 1\n\nterm 1 2\n"
                 "entry 0 1\n"),
        ("ops", OPS2),
        ("ops", OPS2.replace("mn3 1\n0 0\n0 0\n0 0\n0 1",
                             "mn3 1\n0 0\n0 0\n0 0\n0 2")),
        ("ops", OPS2.replace("M 1 0:1", "M 1 0:1 1:x")),
    ])
    def test_line_breaks_and_spaces(self, kind, text):
        # each text in every layout: its errors, on late lines, or the
        # objects it reads are the reference's
        for variant in layouts(text):
            if kind == "ops":
                parses = [(parse_ops_text, loop_parse_ops_text, (D1,), {})]
            else:
                parses = [(parse_instance_text, loop_parse_instance_text, (),
                           {"float_mode": mode}) for mode in (False, True)]
            for parse, reference, args, kwargs in parses:
                got = outcome(parse, variant, *args, **kwargs)
                want = outcome(reference, variant, *args, **kwargs)
                if isinstance(want, tuple):
                    assert got == want, variant
                else:
                    assert (same_system if kind == "ops" else same_instance)(
                        got, want), variant

    def test_corpus(self, corpus):
        for inst_text, ops_text, domains in corpus:
            for float_mode in (False, True):
                assert same_instance(
                    parse_instance_text(inst_text, float_mode=float_mode),
                    loop_parse_instance_text(inst_text, float_mode=float_mode))
            assert same_system(parse_ops_text(ops_text, domains),
                               loop_parse_ops_text(ops_text, domains))

    @pytest.mark.parametrize("width, columns", [(1, 1000), (4, 100), (10, 30)])
    def test_ladders(self, width, columns):
        inst, system = submodular_ladder(random.Random(width), width, columns)
        inst_text, ops_text = serialize_instance(inst), serialize_ops(system)
        for float_mode in (False, True):
            assert same_instance(
                parse_instance_text(inst_text, float_mode=float_mode),
                loop_parse_instance_text(inst_text, float_mode=float_mode))
        assert same_system(parse_ops_text(ops_text, inst.domains),
                           loop_parse_ops_text(ops_text, inst.domains))

    def test_mixed_domains_and_no_variables(self):
        rng = random.Random(131)
        for sizes in [(), (1,), (1, 4), (5, 2, 3), (2, 1, 4, 3)]:
            d = DomainSpec(sizes)
            text = serialize_ops(random_system(rng, d))
            assert same_system(parse_ops_text(text, d),
                               loop_parse_ops_text(text, d))
        text = "vcsp 0\ndomains\nterm 0\ndefault 3/4\n"
        assert same_instance(parse_instance_text(text),
                             loop_parse_instance_text(text))

    def test_single_token_mutants(self, corpus):
        rng = random.Random(137)
        texts = corpus[:40]
        raised = set()
        for k in range(240):
            inst_text, ops_text, domains = texts[k % len(texts)]
            if k % 2:
                text = mutant(rng, ops_text)
                got = outcome(parse_ops_text, text, domains)
                want = outcome(loop_parse_ops_text, text, domains)
                same = same_system
            else:
                float_mode = k % 4 == 0
                text = mutant(rng, inst_text)
                got = outcome(parse_instance_text, text, float_mode=float_mode)
                want = outcome(loop_parse_instance_text, text,
                               float_mode=float_mode)
                same = same_instance
            if isinstance(want, tuple):
                assert got == want, text
                raised.add(re.sub(r"'[^']*'|\(.*\)|-?\d+", "_", want[1]))
            else:
                assert same(got, want), text
        assert len(raised) >= 20, sorted(raised)  # the mutants reach far


"""Text formats for instances and operation systems.

Instance files::

    vcsp <V>
    domains <d_1> ... <d_V>
    term <m> <i_1> ... <i_m>
    default <cost|inf>
    entry <a_1> ... <a_m> <cost|inf>
    ...

Variable indices are 1-based in files (0-based internally); labels are
0-based in both.  Costs are non-negative integers, decimals, rationals
``p/q``, or ``inf``.  Every term needs exactly one ``default`` line; listed
entries override it and duplicates are rejected.

Operation files hold, per variable, square ``meet``/``join`` tables (one row
per first argument), cubic ``mj1``/``mj2``/``mn3`` tables (d*d rows of d
labels, first two arguments slice-major), and an ``M`` line listing the
commutative label pairs as ``a:b``.

``#`` starts a comment; blank lines are ignored.  A table block takes the
next d (or d*d) lines that are neither blank nor comments, whatever they
hold.  An error names the first offending line in file order.

A file is read as UTF-8; a byte that is not is an error naming its line.
Lines break where ``str.splitlines`` breaks them.  A text is read as one
token stream (``_Stream``): one ``str.split()`` gives the tokens, and a
whitespace mask over the text, with one binary search over the line
breaks, gives each token's line.  The instance parser walks the ``term``
lines by the positions of their first tokens and reads each term's lines
off the stream; a term table of more than ``cap`` entries raises
``CapExceeded`` where it would be built, after the errors of the term's own
lines.  The operation parser walks the block headers the same way, then
checks the width, labels and range of every table row of the file in a few
array passes; a block that fails is walked again row by row to name its
first error.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter

import numpy as np

from .costs import format_cost, parse_cost
from .errors import CapExceeded, FormatError
from .model import DEFAULT_CAP, CostTable, DomainSpec, Instance, Term
from .operations import (BinaryPair, MjnTriple, OperationSystem, PairSet,
                         _live_labels)

#: The characters ``str.split()`` splits on; none is above U+3000.
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
           "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
           "\u202f\u205f\u3000")
_IS_SPACE = np.zeros(0x3002, dtype=bool)  # by code point, clipped to 0x3001
_IS_SPACE[[ord(c) for c in _SPACES]] = True
#: The comment mark and the line breaks of ``str.splitlines`` other than
#: ``\n``: a text that holds one is rewritten as its lines, comments cut,
#: joined by ``\n``, before it is read.
_REWRITE = "#\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
#: What ``_Stream.ints`` reads where a token is not an integer label.
_NOT_INT = 1 << 62


class _Stream:
    """The tokens of a text and the lines that hold them.

    ``toks`` are the tokens, and ``starts`` their offsets in ``codes``, the
    text's code points.  The lines that hold a token are numbered k = 0, 1,
    ...: ``at[k]`` is the index of line k's first token, and ``at`` ends
    with the token count.
    """

    def __init__(self, text):
        if any(c in text for c in _REWRITE):
            text = "\n".join(line.split("#", 1)[0]
                             for line in text.splitlines())
        self.toks = text.split()
        text = f" {text} "  # every token then starts and ends at a change
        if text.isascii():
            codes = np.frombuffer(text.encode(), dtype=np.uint8)
        else:
            codes = np.minimum(np.frombuffer(text.encode("utf-32-le"),
                                             dtype=np.uint32), 0x3001)
        space = _IS_SPACE[codes]
        self.codes = codes[1:]
        self.starts = (space[:-1] > space[1:]).nonzero()[0]
        self._breaks = (self.codes == 10).nonzero()[0]
        line = self._breaks.searchsorted(self.starts)  # each token's, from 0
        new = np.ones(len(self.toks) + 1, dtype=bool)
        new[1:-1] = line[1:] != line[:-1]
        self._at = new.nonzero()[0]
        self.at = self._at.tolist()
        self.nlines = len(self.at) - 1

    @functools.cached_property
    def widths(self):
        """Each line's token count, an array."""
        return self._at[1:] - self._at[:-1]

    def num(self, k):
        """Line k's 1-based number in the file."""
        return int(self._breaks.searchsorted(self.starts[self.at[k]])) + 1

    def line(self, k):
        """Line k's tokens."""
        return self.toks[self.at[k]:self.at[k + 1]]

    def line_of(self, tok):
        """The line that holds the token of index ``tok``."""
        return bisect.bisect_right(self.at, tok) - 1

    def ints(self, idx):
        """The tokens of the indices ``idx`` as ``int()`` reads them, an
        intp array of ``idx``'s shape, with 2**62 where a token is not an
        integer in 0..2**62-1.  Single ASCII digits are read off the code
        points."""
        at = self.starts[idx]
        digit = self.codes[at] - 48  # unsigned: wraps below '0'
        if (digit < 10).all() and _IS_SPACE[self.codes[at + 1]].all():
            return digit.astype(np.intp)
        return np.array([_label(self.toks[i]) for i in idx.ravel().tolist()],
                        dtype=np.intp).reshape(idx.shape)


def _label(tok):
    """``int(tok)`` when that is in 0..2**62-1, else 2**62."""
    try:
        value = int(tok)
    except ValueError:
        return _NOT_INT
    return value if 0 <= value < _NOT_INT else _NOT_INT


def _read(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                          line=line) from None


def _int(tok, s, k, what):
    """``int(tok)``, or the error of token ``tok`` on line k of ``s``."""
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected {what}, got {tok!r}",
                          line=s.num(k)) from None


def parse_instance(path, float_mode=False, cap=DEFAULT_CAP):
    """Parse the instance file at ``path``."""
    return parse_instance_text(_read(path), float_mode=float_mode, cap=cap)


def parse_instance_text(text, float_mode=False, cap=DEFAULT_CAP):
    """Parse the text of an instance file; a term table of more than ``cap``
    entries raises ``CapExceeded``."""
    s = _Stream(text)
    if not s.nlines or s.toks[0] != "vcsp":
        raise FormatError("file must start with a 'vcsp <V>' line",
                          line=s.num(0) if s.nlines else 1)
    line = s.line(0)
    if len(line) != 2:
        raise FormatError("'vcsp' line needs exactly one count", line=s.num(0))
    nvars = _int(line[1], s, 0, "variable count")
    if s.nlines < 2 or s.toks[s.at[1]] != "domains":
        raise FormatError("second line must be 'domains <sizes>'",
                          line=s.num(0))
    line = s.line(1)
    if len(line) != nvars + 1:
        raise FormatError(f"'domains' line needs {nvars} sizes", line=s.num(1))
    sizes = [_int(t, s, 1, "domain size") for t in line[1:]]
    if any(size < 1 for size in sizes):
        raise FormatError("every domain size must be at least 1",
                          line=s.num(1))
    terms, costs, k = [], {}, 2
    while k < s.nlines:
        term, k = _term(s, k, sizes, costs, float_mode, cap)
        terms.append(term)
    return Instance(DomainSpec(tuple(sizes)), terms)


def _term(s, k, sizes, costs, float_mode, cap):
    """The term of the block at line k of the stream ``s``, a 'term' line and
    the 'default' and 'entry' lines after it, and the line after the block.
    The block is read in file order and raises its first error; a table of
    more than ``cap`` entries raises ``CapExceeded`` where it would be
    built.  ``costs`` holds each cost token's cost, parsed once."""
    toks, at, n = s.toks, s.at, s.nlines
    line = toks[at[k]:at[k + 1]]
    if line[0] != "term":
        raise FormatError(f"expected 'term', got {line[0]!r}", line=s.num(k))
    if len(line) < 2:
        raise FormatError("'term' line needs an arity", line=s.num(k))
    arity = _int(line[1], s, k, "arity")
    if len(line) != arity + 2:
        raise FormatError(f"'term' line needs {arity} variable indices",
                          line=s.num(k))
    scope = []
    for tok in line[2:]:
        v = _int(tok, s, k, "variable index")
        if not 1 <= v <= len(sizes):
            raise FormatError(f"variable index {v} out of range "
                              f"1..{len(sizes)}", line=s.num(k))
        scope.append(v - 1)
    shape = tuple([sizes[i] for i in scope])
    default = None
    entries = {}  # row-major index -> cost
    while (k := k + 1) < n:
        t = at[k]
        if toks[t] == "entry":
            if at[k + 1] - t != arity + 2:
                raise FormatError(f"'entry' needs {arity} labels and a cost",
                                  line=s.num(k))
            flat = 0
            for size, tok in zip(shape, toks[t + 1:t + 1 + arity]):
                try:
                    a = int(tok)
                except ValueError:
                    raise FormatError(f"expected label, got {tok!r}",
                                      line=s.num(k)) from None
                if not 0 <= a < size:
                    raise FormatError(f"label {a} out of range 0..{size - 1}",
                                      line=s.num(k))
                flat = flat * size + a
            if flat in entries:
                raise FormatError("duplicate entry for " + str(tuple(
                    map(int, toks[t + 1:t + 1 + arity]))), line=s.num(k))
            tok = toks[t + 1 + arity]
            cost = costs.get(tok)
            entries[flat] = cost if cost is not None else _cost(
                s, k, tok, costs, float_mode)
        elif toks[t] == "default":
            if default is not None:
                raise FormatError("duplicate 'default' line", line=s.num(k))
            if at[k + 1] - t != 2:
                raise FormatError("'default' needs one cost", line=s.num(k))
            tok = toks[t + 1]
            cost = costs.get(tok)
            default = cost if cost is not None else _cost(
                s, k, tok, costs, float_mode)
        else:
            break
    if default is None:
        raise FormatError("term is missing its 'default' line",
                          line=s.num(k - 1))
    count = math.prod(shape)
    if count > cap:
        raise CapExceeded(count, cap)
    table = [default] * count
    for flat, cost in entries.items():
        table[flat] = cost
    return Term(CostTable(shape, table), tuple(scope)), k


def _cost(s, k, tok, costs, float_mode):
    """The cost of token ``tok`` on line k of ``s``, parsed and kept in
    ``costs``."""
    costs[tok] = parse_cost(tok, float_mode, line=s.num(k))
    return costs[tok]


def serialize_instance(instance):
    lines = [f"vcsp {instance.domains.variable_count}",
             "domains " + " ".join(str(s) for s in instance.domains.sizes)]
    for term in instance.terms:
        scope = " ".join(str(i + 1) for i in term.scope)
        lines.append(f"term {term.table.arity} {scope}")
        counts = Counter(format_cost(e) for e in term.table.entries)
        default = min(counts, key=lambda k: (-counts[k], k))
        lines.append(f"default {default}")
        for t in term.table.tuples():
            text = format_cost(term.table[t])
            if text != default:
                lines.append("entry " + " ".join(str(a) for a in t)
                             + " " + text)
    return "\n".join(lines) + "\n"


_TABLE_KINDS = ("meet", "join", "mj1", "mj2", "mn3")
_SQUARE = ("meet", "join")


def parse_ops(path, domains, validate=True):
    """Parse the operation-system file at ``path`` against known domain sizes."""
    return parse_ops_text(_read(path), domains, validate=validate)


def parse_ops_text(text, domains, validate=True):
    """Parse the text of an operation-system file against known domain sizes."""
    s = _Stream(text)
    toks, at, sizes = s.toks, s.at, domains.sizes
    nvars = len(sizes)
    blocks = {kind: {} for kind in _TABLE_KINDS + ("M",)}  # var -> content
    # the header lines walked, and per table block in file order its header
    # line, domain size and row count
    heads, tline, tsize, trows = [], [], [], []
    error, k = None, 0
    try:
        while k < s.nlines:
            t = at[k]
            kind = toks[t]
            found = blocks.get(kind)
            if found is None:
                raise FormatError(f"unknown block {kind!r}", line=s.num(k))
            if at[k + 1] - t < 2:
                raise FormatError(f"{kind!r} needs a variable index",
                                  line=s.num(k))
            var = _int(toks[t + 1], s, k, "variable index") - 1
            if not 0 <= var < nvars:
                raise FormatError(f"variable index {var + 1} out of range",
                                  line=s.num(k))
            if var in found:
                raise FormatError(
                    f"duplicate {kind!r} block for variable {var + 1}",
                    line=s.num(k))
            size = sizes[var]
            if kind == "M":
                found[var] = _pairs(s, k, size)
                rows = 0
            else:
                rows = size if kind in _SQUARE else size * size
                found[var] = len(tline)
                tline.append(k)
                tsize.append(size)
                trows.append(rows)
            heads.append(k)
            k += 1 + rows
    except FormatError as exc:
        error = exc  # raised once the rows before it are checked

    # every table row the walk passed, in a few array passes
    stop = min(k, s.nlines)
    is_row = np.ones(stop, dtype=bool)
    is_row[heads] = False
    width = s.widths[:stop][is_row]
    tsize = np.array(tsize, dtype=np.intp)
    trows = np.array(trows, dtype=np.intp)
    want = tsize.repeat(trows)[:len(width)]  # each row's domain size
    idx = is_row.repeat(s.widths[:stop]).nonzero()[0]  # the row tokens
    labels = s.ints(idx)
    bad = labels >= want.repeat(width)
    if k > s.nlines or bad.any() or (width != want).any():
        faults = is_row.nonzero()[0][width != want][:1].tolist()
        if bad.any():
            faults.append(s.line_of(idx[bad.argmax()]))
        if k > s.nlines:
            faults.append(tline[-1])
        b = bisect.bisect_right(tline, min(faults)) - 1
        _bad_block(s, tline[b], min(tline[b] + 1 + int(trows[b]), s.nlines),
                   int(tsize[b]))
    if error is not None:
        raise error

    for kind, found in blocks.items():
        missing = [v + 1 for v in range(nvars) if v not in found]
        if missing:
            raise FormatError(f"missing {kind!r} "
                              f"{'line' if kind == 'M' else 'table'} "
                              f"for variables {missing}")

    # the labels of the table blocks, kind-major then variable-major: the
    # runs start[i], ..., start[i] + count[i] - 1 of ``labels``, joined
    count = tsize * trows
    order = [blocks[kind][v] for kind in _TABLE_KINDS for v in range(nvars)]
    start, count = (count.cumsum() - count)[order], count[order]
    labels = labels[np.arange(count.sum())
                    + (start - count.cumsum() + count).repeat(count)]
    split = 2 * sum(size * size for size in sizes)

    def stack(labels, kinds, depth):  # at their places in a padded stack
        live = _live_labels(sizes, depth)
        out = np.zeros((kinds,) + live.shape, dtype=np.intp)
        out[:, live] = labels.reshape(kinds, -1)
        return out

    system = OperationSystem(
        BinaryPair.of(domains, stack(labels[:split], 2, 2)),
        MjnTriple.of(domains, stack(labels[split:], 3, 3)),
        PairSet(domains, tuple(blocks["M"][v] for v in range(nvars))))
    if validate:
        system.validate()
    return system


def _pairs(s, k, size):
    """The label pairs ``a:b`` of the 'M' line k of ``s``, each as
    (min, max)."""
    chosen = set()
    for tok in s.line(k)[2:]:
        parts = tok.split(":")
        if len(parts) != 2:
            raise FormatError(f"bad pair {tok!r}, expected a:b", line=s.num(k))
        a = _int(parts[0], s, k, "label")
        b = _int(parts[1], s, k, "label")
        if a == b or not (0 <= a < size and 0 <= b < size):
            raise FormatError(f"bad pair {tok!r} for domain size {size}",
                              line=s.num(k))
        chosen.add((min(a, b), max(a, b)))
    return frozenset(chosen)


def _bad_block(s, head, end, size):
    """Raise the first error of the table block of lines head..end-1 of
    ``s``, its header and rows, walked in file order; that it is truncated
    when all are sound."""
    for k in range(head + 1, end):
        toks = s.line(k)
        if len(toks) != size:
            raise FormatError(f"table row needs {size} labels", line=s.num(k))
        for tok in toks:
            v = _int(tok, s, k, "label")
            if not 0 <= v < size:
                raise FormatError(f"label {v} out of range", line=s.num(k))
    toks = s.line(head)
    raise FormatError(f"{toks[0]!r} table for variable {int(toks[1])} is "
                      "truncated", line=s.num(head))


def serialize_ops(ops):
    lines = []
    pair, triple = ops.pair.index_stacks(), ops.triple.index_stacks()
    for v, size in enumerate(ops.domains.sizes):
        live = (v,) + (slice(size),) * 3  # the stacks pad labels at the end
        tables = [pair[(k,) + live[:3]] for k in range(2)] + [
            triple[(k,) + live].reshape(size * size, size) for k in range(3)]
        for kind, table in zip(_TABLE_KINDS, tables):
            lines.append(f"{kind} {v + 1}")
            lines.extend(" ".join(map(str, row)) for row in table.tolist())
        pairs = " ".join(f"{a}:{b}" for a, b in zip(*ops.m.mask[v].nonzero()))
        lines.append(f"M {v + 1}" + (" " + pairs if pairs else ""))
    return "\n".join(lines) + "\n"

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
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .costs import format_cost, parse_cost
from .errors import FormatError
from .model import CostTable, DomainSpec, Instance, Term
from .operations import (BinaryPair, MjnTriple, OperationSystem, PairSet,
                         _live_labels)


def _logical_lines(text):
    """The lines of ``text`` that hold tokens once comments are cut, as
    (line number, tokens)."""
    return [(num, toks) for num, raw in enumerate(text.splitlines(), start=1)
            if (toks := raw.split("#", 1)[0].split())]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _int(tok, num, what="integer"):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected {what}, got {tok!r}", line=num) from None


def parse_instance(path, float_mode=False):
    """Parse the instance file at ``path``."""
    return parse_instance_text(_read(path), float_mode=float_mode)


def parse_instance_text(text, float_mode=False):
    """Parse the text of an instance file."""
    lines = _logical_lines(text)
    if not lines or lines[0][1][0] != "vcsp":
        raise FormatError("file must start with a 'vcsp <V>' line",
                          line=lines[0][0] if lines else 1)
    num, toks = lines[0]
    if len(toks) != 2:
        raise FormatError("'vcsp' line needs exactly one count", line=num)
    nvars = _int(toks[1], num, "variable count")
    if len(lines) < 2 or lines[1][1][0] != "domains":
        raise FormatError("second line must be 'domains <sizes>'", line=num)
    num, toks = lines[1]
    if len(toks) != nvars + 1:
        raise FormatError(f"'domains' line needs {nvars} sizes", line=num)
    sizes = [_int(t, num, "domain size") for t in toks[1:]]
    if any(s < 1 for s in sizes):
        raise FormatError("every domain size must be at least 1", line=num)
    domains = DomainSpec(tuple(sizes))

    terms, costs = [], {}

    def cost(tok, num):  # parse_cost, once per token
        if tok not in costs:
            costs[tok] = parse_cost(tok, float_mode, line=num)
        return costs[tok]

    idx = 2
    while idx < len(lines):
        num, toks = lines[idx]
        if toks[0] != "term":
            raise FormatError(f"expected 'term', got {toks[0]!r}", line=num)
        if len(toks) < 2:
            raise FormatError("'term' line needs an arity", line=num)
        arity = _int(toks[1], num, "arity")
        if len(toks) != arity + 2:
            raise FormatError(f"'term' line needs {arity} variable indices",
                              line=num)
        scope = []
        for t in toks[2:]:
            v = _int(t, num, "variable index")
            if not 1 <= v <= nvars:
                raise FormatError(f"variable index {v} out of range 1..{nvars}",
                                  line=num)
            scope.append(v - 1)
        shape = tuple(sizes[i] for i in scope)
        default = None
        entries = {}
        idx += 1
        while idx < len(lines) and lines[idx][1][0] in ("default", "entry"):
            num, toks = lines[idx]
            if toks[0] == "default":
                if default is not None:
                    raise FormatError("duplicate 'default' line", line=num)
                if len(toks) != 2:
                    raise FormatError("'default' needs one cost", line=num)
                default = cost(toks[1], num)
            else:
                if len(toks) != arity + 2:
                    raise FormatError(
                        f"'entry' needs {arity} labels and a cost", line=num)
                flat = 0  # the entry's row-major index
                for size, t in zip(shape, toks[1:-1]):
                    a = _int(t, num, "label")
                    if not 0 <= a < size:
                        raise FormatError(
                            f"label {a} out of range 0..{size - 1}", line=num)
                    flat = flat * size + a
                if flat in entries:
                    raise FormatError("duplicate entry for "
                                      f"{tuple(map(int, toks[1:-1]))}", line=num)
                entries[flat] = cost(toks[-1], num)
            idx += 1
        if default is None:
            raise FormatError("term is missing its 'default' line", line=num)
        table = [default] * math.prod(shape)
        for flat, c in entries.items():
            table[flat] = c
        terms.append(Term(CostTable(shape, table), tuple(scope)))
    return Instance(domains, terms)


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


def parse_ops(path, domains, validate=True):
    """Parse the operation-system file at ``path`` against known domain sizes."""
    return parse_ops_text(_read(path), domains, validate=validate)


def parse_ops_text(text, domains, validate=True):
    """Parse the text of an operation-system file against known domain sizes."""
    lines = _logical_lines(text)
    rows = [toks for _, toks in lines]
    nvars = domains.variable_count
    blocks = {kind: {} for kind in _TABLE_KINDS + ("M",)}  # var -> content
    idx = 0
    while idx < len(lines):
        num, toks = lines[idx]
        kind = toks[0]
        if kind not in blocks:
            raise FormatError(f"unknown block {kind!r}", line=num)
        if len(toks) < 2:
            raise FormatError(f"{kind!r} needs a variable index", line=num)
        var = _int(toks[1], num, "variable index")
        if not 1 <= var <= nvars:
            raise FormatError(f"variable index {var} out of range", line=num)
        var -= 1
        size = domains.sizes[var]
        if var in blocks[kind]:
            raise FormatError(f"duplicate {kind!r} block for variable {var + 1}",
                              line=num)
        if kind == "M":
            chosen = set()
            for tok in toks[2:]:
                parts = tok.split(":")
                if len(parts) != 2:
                    raise FormatError(f"bad pair {tok!r}, expected a:b", line=num)
                a = _int(parts[0], num, "label")
                b = _int(parts[1], num, "label")
                if a == b or not (0 <= a < size and 0 <= b < size):
                    raise FormatError(f"bad pair {tok!r} for domain size {size}",
                                      line=num)
                chosen.add((min(a, b), max(a, b)))
            blocks["M"][var] = frozenset(chosen)
            idx += 1
            continue
        end = idx + 1 + (size if kind in ("meet", "join") else size * size)
        block = rows[idx + 1:end]  # the next rows, whatever they hold
        try:
            flat = (len(block) == end - idx - 1
                    and set(map(len, block)) == {size}
                    and list(map(int, itertools.chain.from_iterable(block))))
        except ValueError:
            flat = None
        if not flat or min(flat) < 0 or max(flat) >= size:
            _bad_block(lines[idx:end], size, f"{kind!r} table for variable "
                       f"{var + 1} is truncated")
        blocks[kind][var] = flat
        idx = end

    for kind, found in blocks.items():
        missing = [v + 1 for v in range(nvars) if v not in found]
        if missing:
            raise FormatError(f"missing {kind!r} "
                              f"{'line' if kind == 'M' else 'table'} "
                              f"for variables {missing}")

    def stack(kinds, depth):  # the labels at their places in a padded stack
        live = _live_labels(domains.sizes, depth)
        out = np.zeros((len(kinds),) + live.shape, dtype=np.intp)
        out[:, live] = [list(itertools.chain.from_iterable(
            blocks[kind][v] for v in range(nvars))) for kind in kinds]
        return out

    system = OperationSystem(
        BinaryPair.of(domains, stack(_TABLE_KINDS[:2], 2)),
        MjnTriple.of(domains, stack(_TABLE_KINDS[2:], 3)),
        PairSet(domains, tuple(blocks["M"][v] for v in range(nvars))))
    if validate:
        system.validate()
    return system


def _bad_block(lines, size, truncated):
    """Raise the first error of a table block, its header line and the rows
    after it, walked in file order; ``truncated`` when all are sound."""
    for num, toks in lines[1:]:
        if len(toks) != size:
            raise FormatError(f"table row needs {size} labels", line=num)
        for t in toks:
            v = _int(t, num, "label")
            if not 0 <= v < size:
                raise FormatError(f"label {v} out of range", line=num)
    raise FormatError(truncated, line=lines[0][0])


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

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

``#`` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

from collections import Counter

from .costs import format_cost, parse_cost
from .errors import FormatError, VcspError
from .model import CostTable, DomainSpec, Instance, Term
from .operations import BinaryPair, MjnTriple, OperationSystem, PairSet


def _logical_lines(text):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line.split()


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
    lines = list(_logical_lines(text))
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

    terms = []
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
                default = parse_cost(toks[1], float_mode, line=num)
            else:
                if len(toks) != arity + 2:
                    raise FormatError(
                        f"'entry' needs {arity} labels and a cost", line=num)
                key = []
                for pos, t in enumerate(toks[1:-1]):
                    a = _int(t, num, "label")
                    if not 0 <= a < shape[pos]:
                        raise FormatError(
                            f"label {a} out of range 0..{shape[pos] - 1}",
                            line=num)
                    key.append(a)
                key = tuple(key)
                if key in entries:
                    raise FormatError(f"duplicate entry for {key}", line=num)
                entries[key] = parse_cost(toks[-1], float_mode, line=num)
            idx += 1
        if default is None:
            raise FormatError("term is missing its 'default' line", line=num)
        table = CostTable.from_function(
            shape, lambda *t: entries.get(t, default))
        terms.append(Term(table, tuple(scope)))
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
    lines = list(_logical_lines(text))
    nvars = domains.variable_count
    tables = {kind: {} for kind in _TABLE_KINDS}
    pairs = {}
    idx = 0
    while idx < len(lines):
        num, toks = lines[idx]
        kind = toks[0]
        if kind not in _TABLE_KINDS + ("M",):
            raise FormatError(f"unknown block {kind!r}", line=num)
        if len(toks) < 2:
            raise FormatError(f"{kind!r} needs a variable index", line=num)
        var = _int(toks[1], num, "variable index")
        if not 1 <= var <= nvars:
            raise FormatError(f"variable index {var} out of range", line=num)
        var -= 1
        size = domains.sizes[var]
        if kind == "M":
            if var in pairs:
                raise FormatError(f"duplicate 'M' block for variable {var + 1}",
                                  line=num)
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
            pairs[var] = frozenset(chosen)
            idx += 1
            continue
        if var in tables[kind]:
            raise FormatError(f"duplicate {kind!r} block for variable {var + 1}",
                              line=num)
        rows_needed = size if kind in ("meet", "join") else size * size
        rows = []
        idx += 1
        for _ in range(rows_needed):
            if idx >= len(lines):
                raise FormatError(
                    f"{kind!r} table for variable {var + 1} is truncated",
                    line=num)
            rnum, rtoks = lines[idx]
            if len(rtoks) != size:
                raise FormatError(f"table row needs {size} labels", line=rnum)
            row = []
            for t in rtoks:
                v = _int(t, rnum, "label")
                if not 0 <= v < size:
                    raise FormatError(f"label {v} out of range", line=rnum)
                row.append(v)
            rows.append(row)
            idx += 1
        tables[kind][var] = rows

    for kind in _TABLE_KINDS:
        missing = [v + 1 for v in range(nvars) if v not in tables[kind]]
        if missing:
            raise FormatError(
                f"missing {kind!r} table for variables {missing}")
    missing = [v + 1 for v in range(nvars) if v not in pairs]
    if missing:
        raise FormatError(f"missing 'M' line for variables {missing}")

    pair = BinaryPair(domains,
                      [tables["meet"][v] for v in range(nvars)],
                      [tables["join"][v] for v in range(nvars)])
    terns = []
    for kind in ("mj1", "mj2", "mn3"):
        cubes = []
        for v in range(nvars):
            size = domains.sizes[v]
            rows = tables[kind][v]
            cubes.append([[rows[a * size + b] for b in range(size)]
                          for a in range(size)])
        terns.append(cubes)
    triple = MjnTriple(domains, *terns)
    m = PairSet(domains, tuple(pairs[v] for v in range(nvars)))
    system = OperationSystem(pair, triple, m)
    if validate:
        system.validate()
    return system


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

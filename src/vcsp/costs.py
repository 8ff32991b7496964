"""Extended costs: non-negative rationals (or floats) plus an absorbing infinity.

Costs are exact ``int`` or ``Fraction`` values (the default; the parser
reads a whole number as an ``int``) or ``float`` values, with the singleton
``INF`` as the unique infinite element.  ``INF`` absorbs addition
and compares strictly above every finite cost, so ordinary ``+``, ``<`` and
``sum`` work on mixed values.  Costs set their own comparison (``tolerance``).
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

from .errors import FormatError


class _Infinity:
    """The unique infinite cost.  Never instantiate; use ``INF``."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INF - INF is undefined")
        return self

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("vcsp-infinity")

    def __repr__(self):
        return "inf"


INF = _Infinity()

#: Relative tolerance of every comparison of costs that are not all exact.
FLOAT_TOL = 1e-9


def is_finite(c):
    return c is not INF


#: The types of exact costs, which ``integer_costs`` scales.
EXACT_TYPES = (int, Fraction)


def tolerance(costs):
    """0 when every finite cost among ``costs``, the costs compared or
    summed, is exact; otherwise ``FLOAT_TOL`` times their largest finite
    magnitude (at least 1), as rounding grows with it."""
    finite = [c for c in costs if c is not INF]
    if all(isinstance(c, EXACT_TYPES) for c in finite):
        return 0
    return FLOAT_TOL * max([1] + [abs(c) for c in finite])


def cost_eq(a, b):
    """a == b, within ``tolerance`` of the two costs; INF equals only INF."""
    if a is INF or b is INF:
        return a is b
    return a == b or abs(a - b) <= tolerance((a, b))


def integer_costs(tables):
    """Scale exact costs to integers, with one scale for all of ``tables``.

    ``tables`` is a sequence of entry lists.  When every finite entry is an
    int or a Fraction, returns ``(scale, scaled)``: the LCM of all their
    denominators, and each list scaled by it (``scale_entries``), or
    ``(1, tables)`` when they hold only ints and INF.  Float costs, or any
    other mix, return ``(None, tables)``: callers then keep the Python
    values and compare them within ``tolerance``.
    """
    if set(map(type, itertools.chain(*tables))) <= {int, _Infinity}:
        return 1, tables
    denominators = set()
    for entries in tables:
        for e in entries:
            if e is not INF:
                if not isinstance(e, EXACT_TYPES):
                    return None, tables
                denominators.add(e.denominator)
    scale = math.lcm(*denominators)
    return scale, [scale_entries(entries, scale) for entries in tables]


def scale_entries(entries, scale):
    """``entries`` with each finite one, an int or a Fraction whose
    denominator divides ``scale``, multiplied by ``scale`` as a Python int;
    INF kept."""
    if scale == 1:
        return [e if e is INF else e.numerator for e in entries]
    return [e if e is INF else e.numerator * (scale // e.denominator)
            for e in entries]


#: Largest float cost: a sum of three of them, the most a multimorphism check
#: adds, stays finite.
FLOAT_COST_MAX = sys.float_info.max / 3


def parse_cost(token, float_mode=False, line=None):
    """Parse a cost token: ``inf``, an integer, a decimal, or ``p/q``.

    A token of ASCII digits alone is an ``int``, any other a ``Fraction``.
    In float mode every cost is a ``float``, and a cost above
    ``FLOAT_COST_MAX`` is a bad cost, like one too large for a float."""
    if token == "inf":
        return INF
    try:
        value = (int(token) if token.isascii() and token.isdigit()
                 else Fraction(token))
        if float_mode and value >= 0:
            value = float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = None
    if value is None or float_mode and value > FLOAT_COST_MAX:
        raise FormatError(f"bad cost {token!r}", line=line)
    if value < 0:
        raise FormatError(f"negative cost {token!r}", line=line)
    return value


def format_cost(c):
    if c is INF:
        return "inf"
    if isinstance(c, Fraction):
        return str(c)
    return repr(c)

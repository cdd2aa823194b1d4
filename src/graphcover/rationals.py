"""Exact extended-rational arithmetic.

All numeric data in this package is either an exact rational (`Rat`) or the
positive-infinity sentinel `INF`.  Finite values are `gmpy2.mpq` when gmpy2 is
available and `fractions.Fraction` otherwise; both normalise to lowest terms
and print as ``p/q`` (integers print without the ``/1``).

INF compares above every rational and absorbs addition; any other
arithmetic on it (subtraction, multiplication, negation) is an error.
"""

from __future__ import annotations

from math import gcd
from typing import Union

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat


def _is_rational(value) -> bool:
    return isinstance(value, (Rat, int))


class _Infinity:
    """Positive infinity.  Compares above every rational, absorbs addition."""

    __slots__ = ()

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash(float("inf"))

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        if isinstance(other, _Infinity) or _is_rational(other):
            return self
        return NotImplemented

    __radd__ = __add__


INF = _Infinity()

#: A finite rational or the INF sentinel.
ExtRat = Union[Rat, _Infinity]

ZERO = Rat(0)
ONE = Rat(1)


def is_inf(value) -> bool:
    return isinstance(value, _Infinity)


def ext_min(*values: ExtRat) -> ExtRat:
    best: ExtRat = INF
    for v in values:
        if not is_inf(v) and (is_inf(best) or v < best):
            best = v
    return best


def parse_number(token: str, allow_inf: bool = False):
    """Parse ``p``, ``p/q`` or (optionally) ``inf`` into ``(p, q)`` in
    lowest terms with q positive, or INF; an integer token gives q = 1.

    Raises ValueError on malformed input; q must be positive.
    """
    if token == "inf":
        if allow_inf:
            return INF
        raise ValueError("'inf' is not allowed here")
    try:
        if "/" not in token:
            return int(token), 1
        num, _, den = token.partition("/")
        n, d = int(num), int(den)
    except ValueError:
        raise ValueError(f"malformed rational {token!r}") from None
    if d == 1:
        return n, 1
    if d <= 0:
        raise ValueError(f"denominator must be positive in {token!r}")
    g = gcd(n, d)
    return n // g, d // g


def parse_rat(token: str, allow_inf: bool = False) -> ExtRat:
    """Parse ``p``, ``p/q`` or (optionally) ``inf`` (see `parse_number`)."""
    value = parse_number(token.strip(), allow_inf)
    return value if is_inf(value) else Rat(*value)


def fmt_rat(value: ExtRat) -> str:
    """Render as ``p/q`` (integers without the ``/1``), or ``inf``."""
    if is_inf(value):
        return "inf"
    return str(value)

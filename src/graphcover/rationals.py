"""Exact extended-rational arithmetic.

All numeric data in this package is either an exact rational (`Rat`) or the
positive-infinity sentinel `INF`.  Finite values are `fractions.Fraction`,
which normalises to lowest terms and prints as ``p/q`` (integers print
without the ``/1``).

INF compares above every rational and absorbs addition; any other
arithmetic on it (subtraction, multiplication, negation) is an error.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Rat
from math import gcd
from typing import Union


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


class DigitLimitError(ValueError):
    """A number too long for Python's int and str conversions, which stop
    at ``sys.get_int_max_str_digits()`` digits (4300 by default).  The
    limit stays: it guards parsing against time quadratic in a token's
    length."""


def digit_limit(token: str) -> None:
    """Raise DigitLimitError if a part of the number ``token`` (``p``, or
    ``p`` or ``q`` of ``p/q``) has more digits than int() reads."""
    limit = sys.get_int_max_str_digits()
    digits = max(len(part.lstrip("+-")) for part in token.split("/"))
    if limit and digits > limit:
        raise DigitLimitError(f"a number of {digits} digits is over the {limit}-digit limit")


def parse_number(token: str, allow_inf: bool = False):
    """Parse ``p``, ``p/q`` or (optionally) ``inf`` into ``(p, q)`` in
    lowest terms with q positive, or INF; an integer token gives q = 1.

    Raises ValueError on malformed input (DigitLimitError for a part over
    the digit limit); q must be positive.
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
        digit_limit(token)
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
    """Render as ``p/q`` (integers without the ``/1``), or ``inf``; a
    value over the digit limit raises DigitLimitError."""
    if is_inf(value):
        return "inf"
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DigitLimitError(f"a result is over the {limit}-digit limit") from None

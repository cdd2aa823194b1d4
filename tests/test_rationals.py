"""Exact rational arithmetic, the infinity sentinel, and p/q formatting."""

import pytest

from graphcover import INF, Rat
from graphcover.rationals import (
    ONE,
    ZERO,
    ext_min,
    fmt_rat,
    is_inf,
    parse_rat,
)


def test_rat_is_exact():
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)
    assert Rat(1, 10) * 10 == 1
    assert Rat(2, 4) == Rat(1, 2)


def test_infinity_dominates_every_rational():
    assert INF > Rat(10**9)
    assert Rat(-5) < INF
    assert not (INF < INF)
    assert INF == INF


def test_infinity_absorbs_addition():
    assert is_inf(INF + Rat(3))
    assert is_inf(Rat(3) + INF)
    assert is_inf(INF + INF)
    # so a plain sum of int units, or of rationals, is INF when one term is
    assert is_inf(sum([1, INF, 3]))
    assert is_inf(sum([Rat(1, 2), INF], ZERO))
    assert sum([Rat(1, 2), Rat(1, 3)], ZERO) == Rat(5, 6)


def test_is_inf():
    assert is_inf(INF)
    assert not is_inf(Rat(7))
    assert not is_inf(ZERO)


def test_ext_min():
    assert ext_min(Rat(3), INF) == 3
    assert is_inf(ext_min(INF, INF))
    assert ext_min(Rat(3), Rat(1), Rat(2)) == 1


def test_parse_rat_fraction_and_integer():
    assert parse_rat("3/4") == Rat(3, 4)
    assert parse_rat("7") == 7
    assert parse_rat("0") == 0


def test_parse_rat_inf_token_gated():
    assert is_inf(parse_rat("inf", allow_inf=True))
    with pytest.raises(ValueError):
        parse_rat("inf")


def test_parse_rat_rejects_junk():
    for bad in ("", "3/", "/4", "1.5", "3/0", "a"):
        with pytest.raises(ValueError):
            parse_rat(bad, allow_inf=True)


def test_fmt_rat_round_trip():
    assert fmt_rat(Rat(3, 4)) == "3/4"
    assert fmt_rat(Rat(8, 4)) == "2"
    assert fmt_rat(ZERO) == "0"
    assert fmt_rat(ONE) == "1"
    assert fmt_rat(INF) == "inf"
    for text in ("3/4", "17", "0", "123456789/7"):
        assert fmt_rat(parse_rat(text)) == text

from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsums.arith import is_three_square_feasible
from mixedsums.three_squares import (
    NotRepresentableError,
    ThreeSquareRep,
    three_squares,
    two_squares,
)

from bruteforce import ordered_three_square_reps


def test_two_squares_values():
    assert two_squares(0) == (0, 0)
    assert two_squares(2) == (1, 1)
    assert two_squares(25) == (5, 0)
    assert two_squares(8) == (2, 2)
    assert two_squares(3) is None
    assert two_squares(7) is None


@given(st.integers(min_value=0, max_value=20000))
def test_two_squares_is_maximal_a(m):
    got = two_squares(m)
    best = None
    a = 0
    while a * a <= m:
        b = isqrt(m - a * a)
        if b * b == m - a * a and b <= a and (best is None or a > best[0]):
            best = (a, b)
        a += 1
    assert got == best


@pytest.mark.parametrize(
    "m,expected",
    [
        (0, (0, 0, 0)),
        (3, (1, 1, 1)),
        (11, (3, 1, 1)),
        (19, (3, 3, 1)),
        (24, (4, 2, 2)),
        (33, (5, 2, 2)),
        (45, (6, 3, 0)),
        (72, (8, 2, 2)),
    ],
)
def test_three_squares_values(m, expected):
    rep = three_squares(m)
    assert (rep.x, rep.y, rep.z) == expected


@pytest.mark.parametrize("m", [7, 15, 28, 60, 7 * 4**5, 2**4 * 23])
def test_three_squares_excluded(m):
    with pytest.raises(NotRepresentableError):
        three_squares(m)


def test_three_squares_is_lexicographic_maximum():
    # the search contract: largest x first, then largest feasible pair
    for m in range(0, 400):
        if not is_three_square_feasible(m):
            continue
        rep = three_squares(m)
        assert (rep.x, rep.y, rep.z) == max(ordered_three_square_reps(m))


def test_larger_leading_squares_leave_no_two_square_remainder():
    # three_squares rejects a leading x whose remainder's maximal pair has
    # a > x; on this range that rejection never fires: every x above the
    # accepted one leaves a remainder that is no sum of two squares at all
    for m in range(10**5 + 1):
        if not is_three_square_feasible(m):
            continue
        for x in range(three_squares(m).x + 1, isqrt(m) + 1):
            assert two_squares(m - x * x) is None, (m, x)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**7))
def test_three_squares_matches_classifier(m):
    if is_three_square_feasible(m):
        rep = three_squares(m)
        assert isinstance(rep, ThreeSquareRep)
        assert rep.x * rep.x + rep.y * rep.y + rep.z * rep.z == m
        assert rep.x >= rep.y >= rep.z >= 0
    else:
        with pytest.raises(NotRepresentableError):
            three_squares(m)


def test_three_squares_rejects_negative():
    with pytest.raises(ValueError):
        three_squares(-4)

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedsums.arith import (
    INT64_MAX,
    WidthError,
    is_three_square_feasible,
    triangular,
)

from bruteforce import three_square_representable, tri


@pytest.mark.parametrize(
    "i,expected",
    [(0, 0), (1, 1), (2, 3), (3, 6), (4, 10), (-1, 0), (-2, 1), (-3, 3), (-4, 6)],
)
def test_triangular_values(i, expected):
    assert triangular(i) == expected


@given(st.integers(min_value=-(10**6), max_value=10**6))
def test_triangular_index_symmetry(i):
    assert triangular(i) == triangular(-i - 1)
    assert triangular(i) == tri(i)
    assert triangular(i) >= 0


def test_triangular_width_guard():
    assert triangular(1 << 31) == (1 << 31) * ((1 << 31) + 1) // 2
    for bad in (1 << 40, -(1 << 40)):
        with pytest.raises(WidthError):
            triangular(bad)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=15))
def test_feasibility_strips_fours(m, k):
    # the classifier strips factors of 4 with shifts; 4^k * m is excluded
    # exactly when m, stripped by division, is 7 mod 8
    core = m
    while core % 4 == 0:
        core //= 4
    assert is_three_square_feasible(4**k * m) == (core % 8 != 7)


def test_feasibility_against_sieve():
    representable = three_square_representable(2000)
    for m in range(2001):
        assert is_three_square_feasible(m) == (m in representable), m


def test_feasibility_edge_cases():
    assert is_three_square_feasible(0)
    assert not is_three_square_feasible(7)
    assert not is_three_square_feasible(7 * 4**10)
    with pytest.raises(ValueError):
        is_three_square_feasible(-1)
    with pytest.raises(WidthError):
        is_three_square_feasible(INT64_MAX + 1)

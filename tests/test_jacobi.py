from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mixedsums.jacobi import align_mod3, jacobi_transform

# past 64 bits: the identity and the alignment are exact at any width
components = st.integers(min_value=-(2**100), max_value=2**100)


@given(components, components, components)
def test_identity_holds_on_parity_valid_triples(x, y, z):
    if (x - y) % 2:
        y += 1
    s, u, v = jacobi_transform(x, y, z)
    assert 3 * (x * x + y * y + z * z) == s * s + 2 * u * u + 6 * v * v


def test_transform_values():
    assert jacobi_transform(4, 2, 2) == (8, 1, 1)
    assert jacobi_transform(0, 0, 0) == (0, 0, 0)
    assert jacobi_transform(-8, -2, -2) == (-12, -3, -3)


@given(components, components, components)
def test_parity_violations_rejected(x, y, z):
    if (x - y) % 2 == 0:
        y += 1
    with pytest.raises(AssertionError, match="construction broke"):
        jacobi_transform(x, y, z)


@given(components, components, components)
def test_align_mod3_normalizes(x, y, z):
    assume((x * x + y * y + z * z) % 3 == 0)
    a = align_mod3(x, y, z)
    # sign flips only, slotwise
    assert all(got in (c, -c) for got, c in zip(a, (x, y, z)))
    assert all(c % 3 in (0, 1) for c in a)
    assert align_mod3(*a) == a


def test_align_mod3_values():
    assert align_mod3(4, 2, 2) == (4, -2, -2)
    assert align_mod3(6, 3, 0) == (6, 3, 0)
    assert align_mod3(5, 2, 2) == (-5, -2, -2)


def test_align_mod3_rejects_bad_sum():
    with pytest.raises(AssertionError, match="construction broke"):
        align_mod3(1, 0, 0)

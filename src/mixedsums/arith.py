"""Exact integer primitives: triangular numbers and the classical
three-square feasibility test.

Everything is plain integer arithmetic with an explicit width policy: values
live in the signed 64-bit range, and inputs that would push an intermediate
past it are rejected with :class:`WidthError` instead of ever wrapping.
Top-level representation requests are capped harder (``REPRESENT_MAX``) so
that every derived quantity used by the decomposers stays in range; the
largest is 3(48n + 24) = 144n + 72, checked for the x2+3t+t row by
``jacobi._check_components``, about 5.2e18 at n = 2^55.

Every public integer argument passes one check, ``_check_natural``, whose
errors name it: TypeError for a bool, float or str, ValueError when it is
negative and WidthError above its ceiling (2^63 - 1 unless set lower).
"""

from __future__ import annotations

import math

INT64_MAX = (1 << 63) - 1
REPRESENT_MAX = 1 << 55

# largest i with i(i+1)/2 <= INT64_MAX
_TRI_INDEX_MAX = (math.isqrt(8 * INT64_MAX + 1) - 1) // 2


class WidthError(OverflowError):
    """Input or result outside the supported 64-bit range."""


def _check_natural(value: int, what: str, ceiling: int = INT64_MAX) -> int:
    # a plain int pays one identity test; a bool would print as True
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be a natural number, got {value}")
    if value > ceiling:
        raise WidthError(f"{what}={value} exceeds the supported ceiling {ceiling}")
    return value


def triangular(i: int) -> int:
    """i(i+1)/2 for any sign of i; always >= 0 and symmetric under i -> -i-1."""
    if not -_TRI_INDEX_MAX - 1 <= i <= _TRI_INDEX_MAX:
        raise WidthError(f"triangular index {i} overflows 64 bits")
    return i * (i + 1) // 2


def is_three_square_feasible(m: int) -> bool:
    """True iff m is a sum of three integer squares.

    By the Gauss-Legendre three-square theorem this fails exactly for the
    numbers 4**k * (8l + 7); zero is feasible as 0+0+0.
    """
    _check_natural(m, "m")
    if m == 0:
        return True
    t = (m & -m).bit_length() - 1  # 2^t is m's lowest set bit
    return (m >> (t & ~1)) & 7 != 7  # shifting by t's even part strips every 4

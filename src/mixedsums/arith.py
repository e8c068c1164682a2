"""Exact integer primitives: triangular numbers and the classical
three-square feasibility test.

Python integers never wrap, so the arithmetic here and in the construction
is exact at any width.  The width policy is the ceilings at the public
entries alone: every public integer argument passes one check,
``_check_natural``, whose errors name it: TypeError for a bool, float or
str, ValueError when it is negative and WidthError above its ceiling
(``INT64_MAX`` = 2^63 - 1 unless set lower).  ``represent`` takes at most
``REPRESENT_MAX`` = 2^55, the ceiling its tests and golden outputs cover.
"""

from __future__ import annotations

INT64_MAX = (1 << 63) - 1
REPRESENT_MAX = 1 << 55


class WidthError(OverflowError):
    """A public integer argument above its ceiling."""


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

"""The exact rotation identity behind the mixed-form decomposers, plus the
"choose suitable signs" normalization.

Jacobi's identity

    3(x^2 + y^2 + z^2) = (x+y+z)^2 + 2*((x+y-2z)/2)^2 + 6*((x-y)/2)^2

holds whenever x and y share a parity.  Sign flips never change a square,
so a triple whose square-sum is divisible by 3 can always be flipped until
all components share a residue class mod 3 (squares mod 3 are 0 or 1, which
forces the nonzero-residue count to be 0 or 3).  Both steps are exact for
integers of any width; a precondition that fails means the construction
built a bad triple, so it raises AssertionError, even under ``python -O``.
"""

from __future__ import annotations


def jacobi_transform(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Map (x,y,z) with x == y (mod 2) to (s,u,v) with
    3(x^2+y^2+z^2) = s^2 + 2u^2 + 6v^2 exactly."""
    if (x - y) % 2 != 0:
        raise AssertionError(f"construction broke: x={x} and y={y} must share a parity")
    return x + y + z, (x + y - 2 * z) // 2, (x - y) // 2


def align_mod3(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Flip signs so all three components share a residue class mod 3.

    Requires x^2+y^2+z^2 == 0 (mod 3).  Components divisible by 3 are made
    nonnegative; the others get the sign giving residue 1.  The result is
    all == 0 or all == 1 (mod 3); absolute values are preserved and the
    operation is idempotent.
    """
    if (x * x + y * y + z * z) % 3 != 0:
        raise AssertionError(f"construction broke: {x}^2+{y}^2+{z}^2 not divisible by 3")
    return _flip(x), _flip(y), _flip(z)


def _flip(c: int) -> int:
    r = c % 3
    if r == 0:
        return abs(c)
    return c if r == 1 else -c

"""Deterministic decomposition of a natural number into three squares.

The Gauss-Legendre theorem guarantees a decomposition exists unless the
input has the shape 4**k * (8l + 7); the classifier gates entry, so the
search below never spins on an infeasible input.  The search order is part
of the contract: the leading square is taken as large as possible, then the
middle one, which makes repeated calls return the identical triple.
Squares are 0 or 1 mod 4, so three of them sum to 4m' only when all three
are even: every split of 4m' is twice a split of m', and so is the canonical
one.  The search therefore runs on m with its factors of 4 stripped and
scales the triple back.  Two-square remainders below 2^16 are read from a
table built at import.  Larger ones are found by a downward scan over a,
which visits only the a whose residue mod 128 can leave a square mod 256.
The scan runs from isqrt(m) to the least a with 2a^2 >= m (so b <= a), in
blocks of 128 a; both bounds are computed once, and only the two blocks
that hold them are clipped, so the blocks between test no bound per a.
Each block forms c = m - base^2 and t = 2 base once, so a = base + r leaves
b^2 = c - r(t + r).  That b^2 takes an isqrt only if b^2 mod 45045
(= 63 * 65 * 11) is a square mod 63, 65 and 11, which a byte table built at
import answers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from operator import neg

from .arith import _check_natural, is_three_square_feasible

# two-square remainders below this are read from _MAX_A, not scanned
_TABLE_BOUND = 1 << 16


def _max_a_table() -> bytearray:
    """Entry m < _TABLE_BOUND is the largest a with m = a*a + b*b and
    a >= b >= 0, or 0 when there is none (and at m = 0); ascending a
    overwrites each sum's smaller a.  Built in a function, whose local names
    are faster to read than globals."""
    table = bytearray(_TABLE_BOUND)
    squares = [a * a for a in range(isqrt(_TABLE_BOUND - 1) + 1)]
    for a, a2 in enumerate(squares):
        for b2 in squares[: min(a, isqrt(_TABLE_BOUND - 1 - a2)) + 1]:
            table[a2 + b2] = a
    return table


_MAX_A = _max_a_table()  # a <= 255 at 2^16, so a byte holds it


def _scan_residues() -> tuple[tuple[int, ...], ...]:
    """Entry m & 255 lists, in descending order, the r < 128 with m - r*r
    a square mod 256.  Squares hit only 44 residues mod 256, and
    (a + 128)^2 = a^2 (mod 256), so whether m - a*a can be a square depends
    on m & 255 and a & 127 alone: the scan above 2^16 visits only the a with
    a & 127 listed, 22 of 128 averaged over the 256 classes.  127 of them list
    none: m is 3 mod 4, 6 mod 8, 12 mod 16, ..., which no sum of two squares
    is.  Built from the 44 squares."""
    squares = {r * r & 255 for r in range(256)}
    table: list[list[int]] = [[] for _ in range(256)]
    for r in range(127, -1, -1):
        for q in squares:  # m - r*r = q, a square
            table[(q + r * r) & 255].append(r)
    return tuple(map(tuple, table))


_SCAN_RESIDUES = _scan_residues()

# the scan takes the isqrt of b^2 only where b^2 mod this is a square; it is
# odd, so it rejects independently of the residue lists mod 256
_FILTER_MOD = 63 * 65 * 11


def _square_filter() -> bytes:
    """Entry r < _FILTER_MOD is 1 iff r is a square mod 63, mod 65 and
    mod 11, which by the Chinese remainder theorem is iff r is a square mod
    _FILTER_MOD: 2016 of the 45045 entries, 16/63 * 21/65 * 6/11.  Each
    non-square r mod q clears the entries r, r + q, ..., by slice
    assignment."""
    table = bytearray(b"\1") * _FILTER_MOD
    for q in (63, 65, 11):
        squares = {s * s % q for s in range(q)}
        for r in range(q):
            if r not in squares:
                table[r::q] = bytes(_FILTER_MOD // q)
    return bytes(table)


_SQUARE_FILTER = _square_filter()


class NotRepresentableError(ValueError):
    """The number is of the excluded 4**k (8l+7) shape."""


@dataclass(frozen=True, slots=True)
class ThreeSquareRep:
    """m = x*x + y*y + z*z with x >= y >= z >= 0."""

    m: int
    x: int
    y: int
    z: int


def two_squares(m: int) -> tuple[int, int] | None:
    """m = a*a + b*b with a >= b >= 0 and a maximal, or None if impossible."""
    _check_natural(m, "m")  # first: a negative m would index the table from its end
    if m < _TABLE_BOUND:
        a = _MAX_A[m]
        return (a, isqrt(m - a * a)) if a or not m else None
    residues = _SCAN_RESIDUES[m & 255]
    if not residues:
        return None
    top = isqrt(m)
    least = isqrt((m - 1) // 2) + 1  # the smallest a with 2a^2 >= m, so b <= a
    high, low = top & ~127, least & ~127
    squares, mod = _SQUARE_FILTER, _FILTER_MOD
    # blocks of 128 from the one holding top down to the one holding least;
    # a descends throughout, and only those two blocks are clipped
    for base in range(high, low - 1, -128):
        rs = residues
        if base == high or base == low:
            # keep least <= base + r <= top: the listed r descend, so -r
            # ascends from base - top to base - least
            first = bisect_left(rs, base - top, key=neg)
            rs = rs[first : bisect_right(rs, base - least, first, key=neg)]
        # m - (base + r)^2 = c - r(t + r)
        c, t = m - base * base, base << 1
        for r in rs:
            b2 = c - r * (t + r)
            if squares[b2 % mod]:
                b = isqrt(b2)
                if b * b == b2:
                    return base + r, b
    return None


def three_squares(m: int) -> ThreeSquareRep:
    """Canonical three-square decomposition of m.

    Strips m to core = m / 4^k, scans the leading square x downward from
    isqrt(core) and accepts the first x whose remainder splits into two
    squares b <= a <= x, so 2^k (x, a, b) is the lexicographically greatest
    ordered triple of m.

    Raises NotRepresentableError iff is_three_square_feasible(m) is false.
    """
    if not is_three_square_feasible(m):
        raise NotRepresentableError(f"{m} = 4^k(8l+7) is not a sum of three squares")
    core, k = m, 0
    while core and not core & 3:
        core >>= 2
        k += 1
    x = isqrt(core)
    while x >= 0:
        rem = core - x * x
        # sums of two squares never land on 3, 6 or 7 mod 8
        if rem & 7 not in (3, 6, 7):
            pair = two_squares(rem)
            if pair is not None and pair[0] <= x:
                return ThreeSquareRep(m, x << k, pair[0] << k, pair[1] << k)
        x -= 1
    raise AssertionError(f"search exhausted for feasible {m}")

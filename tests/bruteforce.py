"""Naive reference routines the test suite trusts over the package.

Everything here is a full loop over a finite index box with no shortcuts,
sharing nothing with the library under test except the stdlib.  Expected
values in the test files were derived with these (or by hand) before the
library existed; keep these dumb.
"""

from __future__ import annotations

from math import isqrt


def tri(i: int) -> int:
    return i * (i + 1) // 2


def ordered_three_square_reps(m: int) -> list[tuple[int, int, int]]:
    """All triples x >= y >= z >= 0 with x^2 + y^2 + z^2 == m."""
    out = []
    x = 0
    while x * x <= m:
        y = 0
        while y <= x and x * x + y * y <= m:
            r = m - x * x - y * y
            z = isqrt(r)
            if z <= y and z * z == r:
                out.append((x, y, z))
            y += 1
        x += 1
    return out


def max_a_two_squares(m: int) -> tuple[int, int] | None:
    """m == a^2 + b^2 with a >= b >= 0 and a maximal: b counts up from 0,
    so the first hit has the smallest b and so the largest a."""
    b = 0
    while 2 * b * b <= m:
        a = isqrt(m - b * b)
        if a * a == m - b * b:
            return a, b
        b += 1
    return None


def max_three_squares(m: int) -> tuple[int, int, int] | None:
    """The lexicographically greatest x >= y >= z >= 0 with x^2 + y^2 + z^2
    == m: x counts down from isqrt(m), then y down from min(x, isqrt(m - x^2)),
    and the first square z^2 <= y^2 wins.  No table, no residue filter."""
    x = isqrt(m)
    while x >= 0:
        r = m - x * x
        y = min(x, isqrt(r))
        while 2 * y * y >= r:
            z = isqrt(r - y * y)
            if z * z == r - y * y:
                return x, y, z
            y -= 1
        x -= 1
    return None


def three_square_representable(hi: int) -> set[int]:
    """Every m <= hi expressible as x^2 + y^2 + z^2, by forward sieve."""
    out: set[int] = set()
    x = 0
    while x * x <= hi:
        y = 0
        while x * x + y * y <= hi:
            z = 0
            while (s := x * x + y * y + z * z) <= hi:
                out.add(s)
                z += 1
            y += 1
        x += 1
    return out


def gauss_legendre_excluded(hi: int) -> list[int]:
    """All 4^k(8l+7) <= hi, enumerated directly from the shape."""
    out = set()
    p = 1
    while p * 7 <= hi:
        m = 7 * p
        while m <= hi:
            out.add(m)
            m += 8 * p
        p *= 4
    return sorted(out)


def term_value(coeff: int, kind: str, i: int) -> int:
    return coeff * (i * i if kind == "sq" else tri(i))


def index_range(coeff: int, kind: str, n: int) -> range:
    """Every index whose term value can fit under n."""
    if kind == "sq":
        s = isqrt(n // coeff)
        return range(-s, s + 1)
    m = (isqrt(8 * (n // coeff) + 1) - 1) // 2
    return range(-m - 1, m + 1)


def all_witnesses(terms: list[tuple[int, str]], n: int) -> list[tuple[int, int, int]]:
    """Every integer triple evaluating to n, sorted lexicographically."""
    (c0, k0), (c1, k1), (c2, k2) = terms
    out = []
    for i in index_range(c0, k0, n):
        for j in index_range(c1, k1, n):
            for k in index_range(c2, k2, n):
                if term_value(c0, k0, i) + term_value(c1, k1, j) + term_value(c2, k2, k) == n:
                    out.append((i, j, k))
    return sorted(out)


def naive_count(terms: list[tuple[int, str]], n: int) -> int:
    return len(all_witnesses(terms, n))


def represented(terms: list[tuple[int, str]], hi: int) -> set[int]:
    """Every m <= hi that some triple evaluates to, by forward sieve over
    the non-negative indices (every term value has one)."""
    (c0, k0), (c1, k1), (c2, k2) = terms
    out: set[int] = set()
    i = 0
    while (v0 := term_value(c0, k0, i)) <= hi:
        j = 0
        while (v1 := v0 + term_value(c1, k1, j)) <= hi:
            k = 0
            while (m := v1 + term_value(c2, k2, k)) <= hi:
                out.add(m)
                k += 1
            j += 1
        i += 1
    return out


def constrained_two_squares_tri(n: int) -> bool:
    """n == t_i + x^2 + y^2 with x, y opposite parity or x == y > 0."""
    i = 0
    while tri(i) <= n:
        rem = n - tri(i)
        for x in range(isqrt(rem) + 1):
            for y in range(isqrt(rem - x * x) + 1):
                if x * x + y * y == rem and (x % 2 != y % 2 or (x == y and x > 0)):
                    return True
        i += 1
    return False

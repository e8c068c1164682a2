"""Brute-force oracle for arbitrary three-term square/triangular forms.

Everything here is deliberately naive.  Representations are found by direct
enumeration over integer indices, using no number theory beyond recognizing
a perfect square (exact isqrt) and a triangular number (8v+1 a perfect
square).  The constructive decomposer is judged against these routines,
never the other way around, so this module must stay independent of the
construction machinery: it imports only the named forms and their term
table (to translate them into term lists) and the width checks.

Range windows (`representable_window`) enumerate the same term values, but
over a whole range at once: the represented numbers up to hi are the sumset
of the three slots' value sets, built as Python-integer bitsets with one
shift-OR per value of the second and third slot.  `rebracketed_window`
builds the same sumset associated the other way, so a scan can check one
window against the other.

Counting convention: every coordinate ranges over all of Z within its
evaluation bound.  Sign pairs x, -x of a square index and the index pair
i, -i-1 of a triangular value are distinct witnesses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .arith import _check_natural, isqrt
from .forms import FORM_TERMS, MixedForm


class Term(NamedTuple):
    """One summand c*x^2 (kind "sq") or c*t_x (kind "tri")."""

    coeff: int
    kind: str

    def __str__(self) -> str:
        return f"{self.coeff}*{self.kind}"


@dataclass(frozen=True)
class FormSpec:
    """A three-term form, e.g. 1*sq+2*sq+4*tri for x^2 + 2y^2 + 4t_z."""

    terms: tuple[Term, Term, Term]

    def __post_init__(self) -> None:
        if len(self.terms) != 3:
            raise ValueError("a form has exactly three terms")
        for t in self.terms:
            if not isinstance(t, Term):
                raise TypeError(f"not a Term: {t!r}")
            if t.kind not in ("sq", "tri"):
                raise ValueError(f"term kind must be 'sq' or 'tri', got {t.kind!r}")
            if t.coeff < 1:
                raise ValueError(f"term coefficient must be positive, got {t.coeff}")

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.terms)


class FormSpecSyntaxError(ValueError):
    """Raised on malformed form strings; message carries the offset."""


_TERM_RE = re.compile(r"([0-9]+)\*(sq|tri)\Z")


def parse_form_spec(text: str) -> FormSpec:
    """Parse "<coeff>*sq|tri + ..." (exactly three terms, no spaces)."""
    parts = text.split("+")
    if len(parts) != 3:
        raise FormSpecSyntaxError(
            f"expected three '+'-separated terms in {text!r}, got {len(parts)}"
        )
    terms = []
    offset = 0
    for part in parts:
        m = _TERM_RE.match(part)
        if m is None:
            raise FormSpecSyntaxError(
                f"bad term {part!r} at offset {offset} in {text!r}:"
                " want '<coeff>*sq' or '<coeff>*tri'"
            )
        coeff = int(m.group(1))
        if coeff < 1:
            raise FormSpecSyntaxError(f"zero coefficient at offset {offset} in {text!r}")
        terms.append(Term(coeff, m.group(2)))
        offset += len(part) + 1
    return FormSpec((terms[0], terms[1], terms[2]))


def form_spec_of(form: MixedForm) -> FormSpec:
    """Term list of a named mixed form, slots in evaluation order."""
    a, b, c = FORM_TERMS[form]
    return FormSpec((Term(*a), Term(*b), Term(*c)))


def spec_of(name: str) -> FormSpec:
    """The term list a name stands for: a named form spelling ("x2+6t+t")
    or a term list ("1*sq+2*sq+4*tri")."""
    try:
        form = MixedForm(name)
    except ValueError:
        return parse_form_spec(name)
    return form_spec_of(form)


def check_range(lo: int, hi: int) -> None:
    """Reject a range [lo, hi] that is empty or outside the naturals."""
    _check_natural(lo, "lo")
    _check_natural(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")


# ── value/index enumeration ────────────────────────────────────────────────


def _term_values(term: Term, budget: int) -> Iterator[tuple[int, int]]:
    """Yield (value, index multiplicity), values ascending, value <= budget."""
    c, kind = term
    if kind == "sq":
        s, v = 0, 0
        while v <= budget:
            yield v, (1 if s == 0 else 2)
            s += 1
            v = c * s * s
    else:
        i, v = 0, 0
        while v <= budget:
            yield v, 2
            i += 1
            v = c * (i * (i + 1) // 2)


def _slot_indices(term: Term, budget: int) -> Iterator[tuple[int, int]]:
    """Yield (index, value) with value <= budget, indices ascending.

    Square indices run -s..s; triangular indices run -i-1..i, covering both
    preimages of every triangular value.
    """
    c, kind = term
    if budget < 0:
        return
    if kind == "sq":
        s = isqrt(budget // c)
        for i in range(-s, s + 1):
            yield i, c * i * i
    else:
        m = (isqrt(8 * (budget // c) + 1) - 1) // 2
        for i in range(-m - 1, m + 1):
            yield i, c * (i * (i + 1) // 2)


def _third_indices(term: Term, value: int) -> tuple[int, ...]:
    """All indices solving the final slot exactly, ascending."""
    q, r = divmod(value, term.coeff)
    if r:
        return ()
    if term.kind == "sq":
        s = isqrt(q)
        if s * s != q:
            return ()
        return (0,) if s == 0 else (-s, s)
    d = 8 * q + 1
    s = isqrt(d)
    if s * s != d:
        return ()
    i = (s - 1) // 2
    return (-i - 1, i)


# ── the oracle proper ──────────────────────────────────────────────────────


def exists(spec: FormSpec, n: int) -> bool:
    """True iff some integer triple evaluates to n under spec."""
    _check_natural(n, "n")
    # largest coefficient outermost (fewest candidate values), last term
    # solved directly: v is c*square iff c | v and v/c is square, similarly
    # v is c*triangular iff c | v and 8(v/c)+1 is a perfect square.  The
    # solve is inlined, not a _third_indices call, because a miss runs this
    # loop to its end: it is the hot loop of the negative control's misses
    a, b, c = sorted(spec.terms, key=lambda t: -t.coeff)
    cc = c.coeff
    tri = c.kind == "tri"
    for va, _ in _term_values(a, n):
        rb = n - va
        for vb, _ in _term_values(b, rb):
            q, r = divmod(rb - vb, cc)
            if r:
                continue
            if tri:
                d = 8 * q + 1
                s = isqrt(d)
                if s * s == d:
                    return True
            else:
                s = isqrt(q)
                if s * s == q:
                    return True
    return False


# count and witnesses walk O(n) slot pairs per call, witnesses up to four
# times as many as count (both signs of every index), so they refuse n above
# this cap.  On a 2-core x86 VM (Python 3.11) the slowest term list,
# 1*tri+1*tri+1*tri, took 1.4 s to count and 6.5 s to list every witness
# at n = 10^6, and 6.6 s and 23 s at n = 4*10^6.
MAX_ENUMERATED_N = 10**6


def _check_enumerable(n: int) -> None:
    _check_natural(n, "n")
    if n > MAX_ENUMERATED_N:
        raise ValueError(
            f"n={n} is above {MAX_ENUMERATED_N}, the largest n count and witnesses enumerate"
        )


def count(spec: FormSpec, n: int) -> int:
    """Number of integer triples evaluating to n (full signed domain).

    n may not exceed MAX_ENUMERATED_N.
    """
    _check_enumerable(n)
    a, b, c = sorted(spec.terms, key=lambda t: -t.coeff)
    total = 0
    for va, ma in _term_values(a, n):
        rb = n - va
        for vb, mb in _term_values(b, rb):
            total += ma * mb * len(_third_indices(c, rb - vb))
    return total


def _values(term: Term, budget: int) -> Iterator[int]:
    return (v for v, _ in _term_values(term, budget))


def _bits(values: Iterable[int], hi: int) -> int:
    """Bitset with bit v set for each v in values (all v <= hi)."""
    buf = bytearray(hi // 8 + 1)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _shifted_union(bits: int, shifts: Iterable[int], lo: int, hi: int) -> int:
    """Bit k set iff lo + k <= hi is u + v for a set bit u and some v in shifts."""
    out = 0
    for v in shifts:
        out |= bits >> (lo - v) if v <= lo else bits << (v - lo)
    return out & ((1 << (hi - lo + 1)) - 1)


def _by_density(spec: FormSpec) -> list[Term]:
    """The slots, the one with the most values first (c*t_i has as many
    values as 2c*x^2)."""
    return sorted(spec.terms, key=lambda t: t.coeff * (2 if t.kind == "sq" else 1))


def _sumset_window(first: Term, second: Term, third: Term, lo: int, hi: int) -> int:
    """(first + second) + third over [lo, hi], as a bitset offset by lo."""
    pair = _shifted_union(_bits(_values(first, hi), hi), _values(second, hi), 0, hi)
    return _shifted_union(pair, _values(third, hi), lo, hi)


def representable_window(spec: FormSpec, lo: int, hi: int) -> int:
    """Bitset over [lo, hi]: bit k is set iff lo + k is represented by spec.

    The sumset of the three slots' value sets up to hi, so it costs
    O(sqrt(hi)) shift-ORs of (hi + 1)-bit integers whatever the width.
    The densest slot a becomes the shifted bitset and the sparser b and c
    supply the shifts: (a + b) + c.
    """
    check_range(lo, hi)
    a, b, c = _by_density(spec)
    return _sumset_window(a, b, c, lo, hi)


def rebracketed_window(spec: FormSpec, lo: int, hi: int) -> int:
    """`representable_window` bracketed the other way, a + (b + c).

    The two sparser slots are summed first and the sum is shifted by every
    value of the densest slot, so no intermediate bitset is shared with
    `representable_window`; the two are equal whenever both are right.
    """
    check_range(lo, hi)
    a, b, c = _by_density(spec)
    return _sumset_window(b, c, a, lo, hi)


def constrained_two_squares_triangular_window(lo: int, hi: int) -> int:
    """`exists_constrained_two_squares_triangular` over [lo, hi] as a bitset.

    Split by parity: x^2 + y^2 with x, y of opposite parity is the sumset of
    the even and the odd squares, x = y > 0 adds 2x^2, and every triangular
    number shifts the union.
    """
    check_range(lo, hi)
    squares = [x * x for x in range(isqrt(hi) + 1)]
    pairs = _shifted_union(_bits(squares[0::2], hi), squares[1::2], 0, hi)
    pairs |= _bits((2 * s for s in squares[1:] if 2 * s <= hi), hi)
    return _shifted_union(pairs, _values(Term(1, "tri"), hi), lo, hi)


@dataclass(frozen=True)
class WitnessList:
    """Witness triples of n under spec, lexicographic, capped at limit."""

    spec: FormSpec
    n: int
    limit: int
    items: tuple[tuple[int, int, int], ...]
    truncated: bool


def witnesses(spec: FormSpec, n: int, limit: int) -> WitnessList:
    """Up to limit witnesses of n, in lexicographic index order.

    Slots are enumerated in the form's declared term order (never
    coefficient-sorted), first two by ascending index, the third solved
    exactly; that makes the output order lexicographic without a sort.
    n may not exceed MAX_ENUMERATED_N.
    """
    _check_enumerable(n)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    t0, t1, t2 = spec.terms
    found: list[tuple[int, int, int]] = []
    truncated = False
    for i0, v0 in _slot_indices(t0, n):
        for i1, v1 in _slot_indices(t1, n - v0):
            for i2 in _third_indices(t2, n - v0 - v1):
                if len(found) == limit:
                    truncated = True
                    break
                found.append((i0, i1, i2))
            if truncated:
                break
        if truncated:
            break
    return WitnessList(spec, n, limit, tuple(found), truncated)


def exists_constrained_two_squares_triangular(n: int) -> bool:
    """True iff n = t_i + x^2 + y^2 with x, y of opposite parity or x = y > 0.

    Plain two-squares-plus-triangular with the witness constrained; only the
    pairs 0 <= x <= y need scanning since the constraint is symmetric.
    Fails exactly at n = 0 among the naturals checked in the catalogs.
    """
    _check_natural(n, "n")
    i = 0
    t = 0
    while t <= n:
        rem = n - t
        x = 0
        while 2 * x * x <= rem:
            yy = rem - x * x
            y = isqrt(yy)
            if y * y == yy and ((x ^ y) & 1 == 1 or (x == y and x > 0)):
                return True
            x += 1
        i += 1
        t = i * (i + 1) // 2
    return False

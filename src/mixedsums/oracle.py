"""Brute-force oracle for arbitrary three-term square/triangular forms.

Everything here is deliberately naive.  Representations are found by direct
enumeration over integer indices, using no number theory beyond recognizing
a perfect square (exact isqrt) and a triangular number (8v+1 a perfect
square), or looking a remainder up among a slot's enumerated values.  The
constructive decomposer is judged against these routines, never the other
way around, so this module must stay independent of the construction
machinery: it imports only the named forms and their term table (to
translate them into term lists) and the input check.

Pointwise, `exists` walks the slots' values (`_walk`), and `count` and
`witnesses` enumerate them.  Over a whole range, `representable_window`
reads every verdict off one sumset bitset of the slots' values
(`_shifted_union`), keeping one pair sumset for the next call.  The
parity-constrained predicate has its own pointwise test and window.  A
window shares nothing with `exists`, so a scan can judge any of its bits
pointwise.

Counting convention: every coordinate ranges over all of Z within its
evaluation bound.  Sign pairs x, -x of a square index and the index pair
i, -i-1 of a triangular value are distinct witnesses.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Iterable, Iterator, NamedTuple

from .arith import _check_natural
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


def spec_of(name: str) -> FormSpec:
    """The term list a name stands for: a named form spelling ("x2+6t+t"),
    its slots read from FORM_TERMS in evaluation order, or a term list
    ("1*sq+2*sq+4*tri")."""
    try:
        a, b, c = FORM_TERMS[MixedForm(name)]
    except ValueError:
        return parse_form_spec(name)
    return FormSpec((Term(*a), Term(*b), Term(*c)))


def check_range(lo: int, hi: int) -> None:
    """Reject a range [lo, hi] that is empty or outside the naturals."""
    _check_natural(lo, "lo")
    _check_natural(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")


# ── value/index enumeration ────────────────────────────────────────────────


def _top_index(term: Term, budget: int) -> int:
    """The largest i >= 0 with c*i^2 (or c*t_i) <= budget, for budget >= 0."""
    q = budget // term.coeff
    return isqrt(q) if term.kind == "sq" else (isqrt(8 * q + 1) - 1) // 2


def _value(term: Term, i: int) -> int:
    """The slot's value at index i >= 0."""
    return term.coeff * (i * i if term.kind == "sq" else i * (i + 1) // 2)


def _values(term: Term, budget: int) -> Iterator[int]:
    """The slot's values up to budget, ascending, each once.  They come one
    at a time, so a caller that streams them, as count does, holds no list
    of them."""
    return _index_values(term, range(_top_index(term, budget) + 1))


def _index_values(term: Term, indices: range) -> Iterator[int]:
    """The slot's values at indices >= 0, in the order of indices."""
    c = term.coeff
    if term.kind == "sq":
        return (c * i * i for i in indices)
    return (c * (i * (i + 1) // 2) for i in indices)


def _slot_indices(term: Term, budget: int) -> Iterator[tuple[int, int]]:
    """The (index, value) pairs with value <= budget, indices ascending.

    Square indices run -s..s; triangular indices run -i-1..i, covering both
    preimages of every triangular value.
    """
    c = term.coeff
    top = _top_index(term, budget)
    if term.kind == "sq":
        return ((i, c * i * i) for i in range(-top, top + 1))
    return ((i, c * (i * (i + 1) // 2)) for i in range(-top - 1, top + 1))


def _terms(spec: FormSpec) -> tuple[Term, Term, Term]:
    if not isinstance(spec, FormSpec):
        raise TypeError(f"spec must be a FormSpec, got {type(spec).__name__}; see spec_of")
    return spec.terms


def _by_density(spec: FormSpec) -> list[Term]:
    """The slots, the one with the most values first (c*t_i has as many
    values as 2c*x^2)."""
    return sorted(_terms(spec), key=lambda t: t.coeff * (2 if t.kind == "sq" else 1))


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
    # the two sparsest slots outermost (fewest candidate values, in
    # _by_density order), the densest looked up among its values
    c, b, a = _by_density(spec)
    return _walk(a, b, c, n)


def _walk(a: Term, b: Term, c: Term, n: int) -> bool:
    """True iff n = va + vb + vc for values va, vb, vc of the slots a, b, c.

    The outer values va run from the top down, so the remainder rb = n - va
    only grows.  The middle values up to rb, in a list, and the solved
    slot's values up to rb, in a set, grow with it, and each va is one probe
    of that set by every rb - vb.  When b and c are the same slot, one loop
    fills its one ascending list and that list's set, and only the listed
    vb >= rb / 2 probe the set: the larger value of any split of rb lies
    there, so each unordered split is probed once, and a slot's values are
    sparser in its upper half.  When all three are the same slot, the
    largest of three values summing to n is at least n / 3, and every va
    down to there has tried every split of its rb, so the walk stops once
    3 * va < n: the set then grows only to 2n / 3.  A hit usually comes
    within a few outer values, whose remainders are O(sqrt(n)), so it builds
    only about n^(1/4) slot values.  A miss tries O(n) (va, vb) pairs, but
    the probes run in C; it holds O(sqrt(n)) values, built only as far as rb
    has grown.  This is the hot loop of the negative control's misses.
    """
    one_slot = a == b == c
    bvals: list[int] = []
    cvals: set[int] = set()
    j = k = 0
    for i in range(_top_index(a, n), -1, -1):
        va = _value(a, i)
        if one_slot and 3 * va < n:
            return False
        rb = n - va
        if b == c:
            while (vb := _value(b, j)) <= rb:
                bvals.append(vb)
                cvals.add(vb)
                j += 1
            probes = bvals[bisect_left(bvals, rb - rb // 2):]
        else:
            while (vb := _value(b, j)) <= rb:
                bvals.append(vb)
                j += 1
            while (vc := _value(c, k)) <= rb:
                cvals.add(vc)
                k += 1
            probes = bvals
        if not cvals.isdisjoint([rb - vb for vb in probes]):
            return True
    return False


# count and witnesses walk O(n) slot pairs per call, witnesses up to four
# times as many as count, and the negative control's first counterexample is
# one exists miss near lo, so all three refuse n above this bound; the
# figures are in BENCH_control_walk.json.
MAX_ENUMERATED_N = 10**6


def _check_enumerable(n: int, what: str) -> None:
    if _check_natural(n, what) > MAX_ENUMERATED_N:
        raise ValueError(f"{what}={n} is above {MAX_ENUMERATED_N}, the largest n enumerated")


def count(spec: FormSpec, n: int) -> int:
    """Number of integer triples evaluating to n (full signed domain).

    n may not exceed MAX_ENUMERATED_N.
    """
    _check_enumerable(n, "n")
    c, b, a = _by_density(spec)
    # a value's index multiplicity: 1 for the square 0, 2 for every other
    # value (x and -x, or i and -i-1)
    a_sq, b_sq = a.kind == "sq", b.kind == "sq"
    total = 0
    for va in _values(a, n):
        ma = 1 if a_sq and va == 0 else 2
        rb = n - va
        for vb in _values(b, rb):
            mb = 1 if b_sq and vb == 0 else 2
            total += ma * mb * len(_third_indices(c, rb - vb))
    return total


def _bits(values: Iterable[int], hi: int) -> int:
    """Bitset with bit v set for each v in values (all v <= hi)."""
    buf = bytearray(hi // 8 + 1)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _shifted_union(bits: int, term: Term, lo: int, hi: int, floor: int = 0) -> int:
    """Bit k set iff lo + k <= hi is u + v for a set bit u and a value
    v >= floor of term.

    The values v in (lo, hi] run first, ascending.  Their shifts
    bits << (v - lo) cannot set bit 0, so no window is full before they
    end.  Then the values in [floor, lo] run from the top down, each ORing
    bits >> (lo - v) masked to the window, and the loop stops once every bit
    is set.  Set bits are sums u + v, and a bit is left clear only after
    every value has been tried, so the window is exact wherever it stops.  A
    window from 0 tries every value, plus one mask; a narrow window high up
    is usually full after a few of the largest values at or below lo.
    """
    full = (1 << (hi - lo + 1)) - 1
    mid = _top_index(term, lo)
    out = 0
    for v in _index_values(term, range(mid + 1, _top_index(term, hi) + 1)):
        out |= bits << (v - lo)
    out &= full
    below_floor = _top_index(term, floor - 1) if floor else -1
    for v in _index_values(term, range(mid, below_floor, -1)):
        out |= bits >> (lo - v) & full
        if out == full:
            break
    return out


def _pair_sumset(first: Term, second: Term, hi: int) -> int:
    """first + second up to hi, as a bitset.

    When first and second are the same slot, each unordered pair of values
    is shifted in once: the smaller of two values summing to at most hi is
    at most hi / 2, so only the slot's values up to there shift the bitset
    of all its values up to hi.
    """
    bits = _bits(_values(first, hi), hi)
    out = 0
    for v in _values(second, hi // 2 if first == second else hi):
        out |= bits << v
    return out & (1 << hi + 1) - 1


# A window holds several bitsets of up to hi bits at once (the pair sumset,
# the window, shift-OR temporaries and, in a scan, the domain mask), so both
# windows refuse hi above this bound; the figures are in
# BENCH_sumset_early_exit.json.
MAX_WINDOW_HI = 1 << 26


def _check_window(lo: int, hi: int) -> None:
    check_range(lo, hi)
    if hi > MAX_WINDOW_HI:
        raise ValueError(f"hi={hi} is above {MAX_WINDOW_HI}, the largest window hi")


# The last pair sumset representable_window built, as ((first, second, hi),
# bitset), or None: a scan that runs the term lists sharing a pair one after
# the other builds that pair once.  forget_pair drops it.
_last_pair: tuple[tuple[Term, Term, int], int] | None = None


def forget_pair() -> None:
    """Drop the pair sumset representable_window keeps for its next call."""
    global _last_pair
    _last_pair = None


def representable_window(spec: FormSpec, lo: int, hi: int) -> int:
    """Bitset over [lo, hi]: bit k is set iff lo + k is represented by spec.

    The sumset of the three slots' value sets up to hi, so it costs at
    most O(sqrt(hi)) shift-ORs of (hi + 1)-bit integers whatever the width.
    The densest slot a becomes the shifted bitset and the sparser b and c
    supply the shifts: (a + b) + c.  The pair a + b is reused when the last
    call built the same one.  Over three identical slots only the values
    v >= lo / 3 of c shift it, since the largest of three values summing to
    n >= lo is at least lo / 3 (as in _walk).  hi may not exceed
    MAX_WINDOW_HI.
    """
    global _last_pair
    _check_window(lo, hi)
    a, b, c = _by_density(spec)
    key = (a, b, hi)
    if _last_pair is None or _last_pair[0] != key:
        _last_pair = None  # never two pairs alive at once
        _last_pair = key, _pair_sumset(a, b, hi)
    floor = -(-lo // 3) if a == b == c else 0
    return _shifted_union(_last_pair[1], c, lo, hi, floor)


def constrained_two_squares_triangular_window(lo: int, hi: int) -> int:
    """`exists_constrained_two_squares_triangular` over [lo, hi] as a bitset.

    Split by parity: x^2 + y^2 with x, y of opposite parity is
    (2u)^2 + (2v+1)^2 = 4u^2 + 8t_v + 1, the sumset of 4u^2 and 8t_v
    shifted up by one; x = y > 0 adds 2x^2, and every triangular number
    shifts the union.  hi may not exceed MAX_WINDOW_HI.
    """
    _check_window(lo, hi)
    # 1 + 4u^2 may reach bit hi + 1; every shift-OR masks to its window
    pairs = _shifted_union(_bits(_values(Term(4, "sq"), hi), hi) << 1, Term(8, "tri"), 0, hi)
    pairs |= _bits(islice(_values(Term(2, "sq"), hi), 1, None), hi)
    return _shifted_union(pairs, Term(1, "tri"), lo, hi)


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
    _check_enumerable(n, "n")
    if _check_natural(limit, "limit") < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    t0, t1, t2 = _terms(spec)
    triples = (
        (i0, i1, i2)
        for i0, v0 in _slot_indices(t0, n)
        for i1, v1 in _slot_indices(t1, n - v0)
        for i2 in _third_indices(t2, n - v0 - v1)
    )
    found = tuple(islice(triples, limit))
    # one witness past the cap tells whether the list was truncated
    return WitnessList(spec, n, limit, found, next(triples, None) is not None)


# _walk's slots for t_i + 4u^2 + 8t_v, parsed and sorted once: the sparsest
# outermost, the densest looked up, as in exists
_ODD_SLOTS = tuple(reversed(_by_density(parse_form_spec("1*tri+4*sq+8*tri"))))


def exists_constrained_two_squares_triangular(n: int) -> bool:
    """True iff n = t_i + x^2 + y^2 with x, y of opposite parity or x = y > 0.

    Plain two-squares-plus-triangular with the witness constrained.  The
    constraint is one of the remainder r = n - t_i's parity: x^2 + y^2 is odd
    exactly when x and y have opposite parity, and an even r is allowed only
    as 2x^2 with x > 0.  Fails exactly at n = 0 among the naturals checked
    in the catalogs.
    """
    _check_natural(n, "n")
    # first pass: t from the top down, an odd r tried with its largest
    # square only, an even r settled exactly as 2x^2
    tri = Term(1, "tri")
    for i in range(_top_index(tri, n), -1, -1):
        r = n - _value(tri, i)
        if r & 1:
            y = isqrt(r)
            x = isqrt(r - y * y)
            if x * x == r - y * y:
                return True
        elif r:
            x = isqrt(r // 2)
            if 2 * x * x == r:
                return True
    # then every odd r, so the answer stays exact: r = (2u)^2 + (2v+1)^2
    # exactly when n - 1 = t_i + 4u^2 + 8t_v
    return n > 0 and _walk(*_ODD_SLOTS, n - 1)

from __future__ import annotations

import copy
import dataclasses
import pickle
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsums.three_squares as ts
from mixedsums.arith import is_three_square_feasible
from mixedsums.three_squares import (
    NotRepresentableError,
    ThreeSquareRep,
    three_squares,
    two_squares,
)

from bruteforce import max_a_two_squares, max_three_squares, ordered_three_square_reps


def test_two_squares_values():
    assert two_squares(0) == (0, 0)
    assert two_squares(2) == (1, 1)
    assert two_squares(25) == (5, 0)
    assert two_squares(8) == (2, 2)
    assert two_squares(3) is None
    assert two_squares(7) is None


def test_two_squares_table_matches_reference_below_2_16():
    # every m the table answers, against a loop over b with no table
    for m in range(1 << 16):
        assert two_squares(m) == max_a_two_squares(m), m


@pytest.mark.parametrize(
    "m,expected",
    [
        (65024, None),  # 2^16 - 512 = 2^9 * 127, and 127 is 3 mod 4
        (65025, (255, 0)),  # 255^2, the largest a the table holds
        (65535, None),  # 3 mod 4
        (65536, (256, 0)),  # the first value the scan answers
        (65537, (256, 1)),  # 2^16 + 1, prime
        (131072, (256, 256)),  # 2 * 256^2: the scan's last step, a == b
        # the scan's blocks of 128 a
        (262145, (512, 1)),  # isqrt(m) = 4 * 128 is the answer, its block's first a
        (147473, (383, 28)),  # isqrt(m) = 3 * 128; 383 = 127 mod 128 is the next block's first
        (294912, (384, 384)),  # 2 * (3 * 128)^2: a == b, the scan's last a and its block's last
    ],
)
def test_two_squares_at_the_table_bound(m, expected):
    assert two_squares(m) == expected == max_a_two_squares(m)


def test_two_squares_scan_matches_reference_above_2_16():
    # every m of the first 2^15 the scan answers
    for m in range(1 << 16, (1 << 16) + (1 << 15)):
        assert two_squares(m) == max_a_two_squares(m), m


def test_two_squares_scan_covers_every_class_mod_256():
    # 2^30 + j is j mod 256, so every class is scanned once, including the
    # 127 whose list is empty (m 3 mod 4, 6 mod 8, 12 mod 16, ...)
    for j in range(256):
        m = (1 << 30) + j
        assert two_squares(m) == max_a_two_squares(m), m


_FILTER, _FILTER_MOD = ts._SQUARE_FILTER, ts._FILTER_MOD


class _RecordingFilter:
    """Stands in for the scan's square filter under a modulus of 2^64, so
    each index the scan reads is its b^2 = m - a^2 itself; records them and
    answers as the real filter does."""

    def __init__(self):
        self.reads = []

    def __getitem__(self, b2):
        self.reads.append(b2)
        return _FILTER[b2 % _FILTER_MOD]


def _record_filter(monkeypatch):
    """The list of b^2 the scan looks up, from now to the test's end."""
    table = _RecordingFilter()
    monkeypatch.setattr(ts, "_SQUARE_FILTER", table)
    monkeypatch.setattr(ts, "_FILTER_MOD", 1 << 64)
    return table.reads


def test_square_filter_keeps_exactly_the_squares():
    # the scan's filter keeps every square mod 45045, so it skips no split,
    # and clears all the other residues, so it is not all ones
    assert len(_FILTER) == _FILTER_MOD == 45045
    squares = {s * s % _FILTER_MOD for s in range(_FILTER_MOD)}
    assert {r for r in range(_FILTER_MOD) if _FILTER[r]} == squares
    assert sum(_FILTER) == len(squares) == 16 * 21 * 6


def _bounds(m):
    """The scan's first and last candidate a: isqrt(m), and the least a
    with 2a^2 >= m."""
    return isqrt(m), isqrt((m - 1) // 2) + 1


@pytest.mark.parametrize(
    "ms, case",
    [
        # isqrt(m) = 383 and least = 271 or 272: both in the block of 256
        (range(383**2, 384**2), lambda top, least: top >> 7 == least >> 7),
        # isqrt(m) = 400 (block 384), least = 283 or 284 (block 256)
        (range(400**2, 401**2), lambda top, least: top >> 7 == (least >> 7) + 1),
        # isqrt(m) on a block's first a (512) and on its last (511)
        (range(512**2, 513**2), lambda top, least: top & 127 == 0),
        (range(511**2, 512**2), lambda top, least: top & 127 == 127),
        # least on a block's first a (384) and on its last (383)
        (range(2 * 383**2 + 1, 2 * 384**2 + 1), lambda top, least: least & 127 == 0),
        (range(2 * 382**2 + 1, 2 * 383**2 + 1), lambda top, least: least & 127 == 127),
    ],
    ids=["one-block", "adjacent-blocks", "top-first", "top-last", "least-first", "least-last"],
)
def test_two_squares_scan_clips_its_first_and_last_block(monkeypatch, ms, case):
    # the scan clips only the blocks holding isqrt(m) and least; every m of
    # each range puts a bound where the case says.  Past its two bounds the
    # scan looks up m - a^2 for each listed a it visits, in descending order
    # from isqrt(m) down to the answer, or on a miss to least and no further.
    # It takes the isqrt of m, of (m - 1) // 2 and of each m - a^2 the filter
    # passes, and none at all in a class that lists no a
    roots = 0

    def counting_isqrt(n):
        nonlocal roots
        roots += 1
        return isqrt(n)

    reads = _record_filter(monkeypatch)
    monkeypatch.setattr(ts, "isqrt", counting_isqrt)
    for m in ms:
        top, least = _bounds(m)
        assert m > 1 << 16 and case(top, least), m
        reads.clear()
        roots = 0
        pair = two_squares(m)
        assert pair == max_a_two_squares(m), m
        listed = ts._SCAN_RESIDUES[m & 255]
        visited = range(top, (pair[0] if pair else least) - 1, -1)
        assert reads == [m - a * a for a in visited if a & 127 in listed], m
        passed = sum(_FILTER[b2 % _FILTER_MOD] for b2 in reads)
        assert roots == (2 + passed if listed else 0), m


# k with no prime factor 1 mod 4, so (k, k) is the only split of 2k^2;
# 383 and 384 end and start a block, 2688 = 21 * 128 starts one too
@pytest.mark.parametrize("k", [256, 383, 384, 2187, 2688, 4389])
def test_two_squares_of_twice_a_square_is_the_least_a(k):
    m = 2 * k * k
    assert _bounds(m)[1] == k
    assert two_squares(m) == (k, k) == max_a_two_squares(m)


@pytest.mark.parametrize("k", [257, 383, 384, 511, 512, 1000, 10**5])
def test_two_squares_of_a_square_has_b_zero(k):
    m = k * k
    assert _bounds(m)[0] == k
    assert two_squares(m) == (k, 0) == max_a_two_squares(m)


class _CountingInt(int):
    """An int that counts the subtractions m - x made from it."""

    subtractions = 0

    def __sub__(self, other):
        _CountingInt.subtractions += 1
        return int(self) - other


def test_two_squares_scan_visits_only_the_listed_residues(monkeypatch):
    # a miss near 2^34 in a class (m = 20 mod 256) that lets 24 of 128 a
    # through: the scan looks up m - a^2 for those a alone, about that share
    # of the a the plain scan would visit.  It takes the isqrt of m, of
    # (m - 1) // 2 and of each b^2 the filter passes, about 1 in 22, and it
    # subtracts from m once for least and once per block of 128 a
    m = (1 << 34) + 20
    assert max_a_two_squares(m) is None
    top, least = _bounds(m)
    span = top - least + 1  # the a with a^2 <= m <= 2a^2
    roots = 0

    def counting_isqrt(n):
        nonlocal roots
        roots += 1
        return isqrt(n)

    reads = _record_filter(monkeypatch)
    monkeypatch.setattr(ts, "isqrt", counting_isqrt)
    monkeypatch.setattr(_CountingInt, "subtractions", 0)
    assert two_squares(_CountingInt(m)) is None
    listed = ts._SCAN_RESIDUES[m & 255]
    assert len(listed) == 24
    assert reads == [m - a * a for a in range(top, least - 1, -1) if a & 127 in listed]
    assert len(reads) <= span // 5 + 8
    assert roots == 2 + sum(_FILTER[b2 % _FILTER_MOD] for b2 in reads) <= len(reads) // 10
    blocks = (top >> 7) - (least >> 7) + 1
    assert _CountingInt.subtractions == 1 + blocks


# straddles the table's bound, so the scan above it is drawn from too
@given(st.integers(min_value=0, max_value=10**7))
def test_two_squares_is_maximal_a(m):
    assert two_squares(m) == max_a_two_squares(m)


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


def test_three_squares_of_4k_m_matches_reference_scan():
    # the search runs on m / 4^k and scales the triple back by 2^k
    for k in range(4):
        for m in range(10**4 + 1):
            if is_three_square_feasible(m):
                rep = three_squares(4**k * m)
                assert rep.m == 4**k * m
                assert (rep.x, rep.y, rep.z) == max_three_squares(4**k * m), (k, m)


# up to 10^10 the remainders of the x tried straddle the table's bound 2^16
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**10))
def test_three_squares_matches_reference_scan(m):
    if is_three_square_feasible(m):
        rep = three_squares(m)
        assert (rep.x, rep.y, rep.z) == max_three_squares(m)


# 24n + 3 is the target x2+3y2+t splits; near the ceiling n = 2^55 every
# remainder is far above 2^16.  survey._price puts a decomposition there at
# 3.6 ms and the reference scan takes longer, so the examples are few
@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2**55 - 2**40, max_value=2**55))
def test_three_squares_matches_reference_scan_near_ceiling(n):
    m = 24 * n + 3
    rep = three_squares(m)
    assert (rep.x, rep.y, rep.z) == max_three_squares(m)


def test_rep_is_frozen_and_survives_copy_and_pickle():
    rep = three_squares(10**6 + 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.x = 0
    copies = [copy.copy(rep), copy.deepcopy(rep)]
    copies += [pickle.loads(pickle.dumps(rep, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies:
        assert again == rep and hash(again) == hash(rep)
        assert (again.m, again.x, again.y, again.z) == (rep.m, rep.x, rep.y, rep.z)


def test_two_squares_rejects_negative():
    # checked before the table is read, which a negative index would wrap
    with pytest.raises(ValueError):
        two_squares(-1)


def test_three_squares_rejects_negative():
    with pytest.raises(ValueError):
        three_squares(-4)

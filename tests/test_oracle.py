from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsums.oracle as oracle
from mixedsums.forms import MixedForm, represent
from mixedsums.oracle import (
    MAX_ENUMERATED_N,
    FormSpec,
    FormSpecSyntaxError,
    Term,
    constrained_two_squares_triangular_window,
    count,
    exists,
    exists_constrained_two_squares_triangular,
    parse_form_spec,
    representable_window,
    spec_of,
    witnesses,
)
from mixedsums.survey import CATALOG

from bruteforce import all_witnesses, constrained_two_squares_tri, naive_count, represented

THREE_SQUARES = FormSpec((Term(1, "sq"), Term(1, "sq"), Term(1, "sq")))

# every distinct term list the catalogs scan, plus the negative control
SCANNED_SPECS = list(
    dict.fromkeys(
        [e.spec for e in CATALOG if e.predicate is None]
        + [THREE_SQUARES]
    )
)


# term lists whose exact walk the catalog does not exercise: repeated slots,
# and a coefficient above 1 in the solved (densest) slot
WALK_SPECS = [
    parse_form_spec(text)
    for text in ("1*tri+1*tri+1*tri", "2*sq+2*sq+2*sq", "3*tri+3*tri+5*sq", "2*sq+3*sq+7*tri")
]


def spec_terms(spec: FormSpec) -> list[tuple[int, str]]:
    return [(t.coeff, t.kind) for t in spec.terms]


# ── spec construction and parsing ──────────────────────────────────────────


def test_term_validation():
    with pytest.raises(ValueError):
        FormSpec((Term(0, "sq"), Term(1, "sq"), Term(1, "tri")))
    with pytest.raises(ValueError):
        FormSpec((Term(1, "cube"), Term(1, "sq"), Term(1, "tri")))
    with pytest.raises(ValueError):
        FormSpec((Term(1, "sq"), Term(1, "tri")))  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "text",
    ["1*sq+3*sq+1*tri", "4*sq+2*tri+1*tri", "2*sq+2*sq+1*tri", "1*sq+1*tri+1*tri"],
)
def test_parse_round_trips(text):
    assert str(parse_form_spec(text)) == text


@pytest.mark.parametrize(
    "text",
    ["1*sq+", "1*sq", "1*sq+2*sq+3*sq+4*sq", "1*sq+x*sq+1*tri", "1*sq+2*cube+1*tri",
     "0*sq+1*sq+1*tri", "+1*sq+1*tri", "1 *sq+1*sq+1*tri"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(FormSpecSyntaxError):
        parse_form_spec(text)


def test_parse_error_names_offset():
    with pytest.raises(FormSpecSyntaxError, match="offset 5"):
        parse_form_spec("1*sq+bogus+1*tri")


def test_named_form_specs():
    assert str(spec_of("x2+3y2+t")) == "1*sq+3*sq+1*tri"
    assert str(spec_of("x2+3t+t")) == "1*sq+3*tri+1*tri"
    assert str(spec_of("x2+6t+t")) == "1*sq+6*tri+1*tri"
    assert str(spec_of("3x2+2t+t")) == "3*sq+2*tri+1*tri"
    assert str(spec_of("4x2+2t+t")) == "4*sq+2*tri+1*tri"


def test_spec_of_reads_form_names_and_term_lists():
    assert spec_of("1*sq+2*sq+4*tri") == parse_form_spec("1*sq+2*sq+4*tri")
    with pytest.raises(FormSpecSyntaxError):
        spec_of("mixed-parity-two-squares")


# ── counting ───────────────────────────────────────────────────────────────


def test_count_frozen_values():
    assert count(spec_of("x2+3y2+t"), 0) == 2
    assert count(spec_of("x2+3y2+t"), 5) == 12
    assert count(spec_of("4x2+2t+t"), 1) == 4


@pytest.mark.parametrize(
    "spec",
    [
        spec_of("x2+3y2+t"),
        spec_of("x2+3t+t"),
        spec_of("4x2+2t+t"),
        THREE_SQUARES,
        parse_form_spec("1*sq+2*sq+4*tri"),
        parse_form_spec("1*sq+5*tri+2*tri"),
    ],
)
def test_count_matches_naive_enumeration(spec):
    for n in range(0, 48):
        assert count(spec, n) == naive_count(spec_terms(spec), n), (str(spec), n)


# per named form, count over [0, 300]: the mean, the minimum and every n
# attaining it, the maximum and every n attaining it.  A minimum of at least
# 1 is Theorem 2 on that prefix; the thinnest n are its hardest cases
COUNT_PROFILES = {
    "x2+3y2+t": (58.81, 2, [0], 224, [274]),
    "x2+3t+t": (83.76, 4, [0], 336, [280]),
    "x2+6t+t": (59.63, 4, [0, 3], 224, [295]),
    "3x2+2t+t": (59.31, 4, [0, 1, 2, 7], 240, [258, 285]),
    "4x2+2t+t": (51.26, 4, [0, 1, 2, 8], 160, [277]),
}


def test_count_profiles_of_the_named_forms():
    profiles = {}
    for form in MixedForm:
        counts = [count(spec_of(form.value), n) for n in range(301)]
        least, most = min(counts), max(counts)
        profiles[form.value] = (
            round(sum(counts) / len(counts), 2),
            least,
            [n for n, c in enumerate(counts) if c == least],
            most,
            [n for n, c in enumerate(counts) if c == most],
        )
    assert profiles == COUNT_PROFILES


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=3000))
def test_exists_iff_positive_count(n):
    for spec in (spec_of("x2+6t+t"), THREE_SQUARES, *WALK_SPECS):
        assert exists(spec, n) == (count(spec, n) > 0)


@pytest.mark.parametrize("spec", SCANNED_SPECS + WALK_SPECS, ids=str)
def test_exists_and_its_walk_match_bruteforce(spec):
    # exists is the exact walk and nothing else, so it must answer every n
    truth = represented(spec_terms(spec), 3000)
    assert [exists(spec, n) for n in range(3001)] == [n in truth for n in range(3001)]


# any term list with coefficients 1 to 8, the lists a classification of
# every coefficient triple by escalation asks about
TERM_LISTS = st.builds(
    lambda terms: FormSpec(tuple(terms)),
    st.lists(
        st.builds(Term, st.integers(min_value=1, max_value=8), st.sampled_from(["sq", "tri"])),
        min_size=3,
        max_size=3,
    ),
)


@settings(max_examples=200, deadline=None)
@given(TERM_LISTS)
def test_exists_and_window_match_bruteforce_on_any_term_list(spec):
    truth = represented(spec_terms(spec), 200)
    flags = [n in truth for n in range(201)]
    assert [exists(spec, n) for n in range(201)] == flags
    assert window_flags(representable_window(spec, 0, 200), 0, 200) == flags


def test_exists_examples():
    assert exists(spec_of("x2+3y2+t"), 2)
    assert exists(spec_of("3x2+2t+t"), 4)
    assert not exists(THREE_SQUARES, 7)


# n = t_(2^31) < 2^63 - 1, even, so in the domain of every term list but
# Panaitopol's, which are scanned at odd n only
NEAR_2_TO_61 = (1 << 31) * ((1 << 31) + 1) // 2


def test_exists_near_the_ceiling_solves_the_first_pair():
    # the walk starts from the largest outer value, so a hit needs only the
    # slot values up to the small remainders left there, never the ~1.5e9
    # values below n
    assert NEAR_2_TO_61 == 2305843010287435776
    assert exists(spec_of("1*sq+1*sq+1*tri"), NEAR_2_TO_61)


@pytest.mark.parametrize(
    "spec",
    dict.fromkeys(e.spec for e in CATALOG if e.predicate is None and e.domain != "positive_odd"),
    ids=str,
)
def test_exists_near_2_to_61_is_a_cheap_hit(spec, monkeypatch):
    # every term list hits there within 360,502 slot values (1*sq+8*tri+1*tri);
    # a walk that slid towards its O(n) miss fails at the 10^6th value
    # instead of running for hours
    value = oracle._value
    calls = []

    def counted(term, i):
        calls.append(1)
        assert len(calls) < 10**6, "no hit within 10^6 slot values"
        return value(term, i)

    monkeypatch.setattr(oracle, "_value", counted)
    assert exists(spec, NEAR_2_TO_61)


# represented n that trying only the largest middle value for each outer
# value misses: the first ten such n of the control, and the 24 represented
# control block starts k*2^14 below 10^6 among the 33 it misses (the other 9
# are 4^k(8l+7)); 49152 = 3*128^2 is only 128^2 + 128^2 + 128^2
LARGEST_MIDDLE_MISSES = [48, 88, 142, 172, 192, 267, 268, 280, 352, 384] + [
    k << 14
    for k in (3, 6, 11, 12, 14, 19, 21, 22, 24, 27, 30, 33, 35, 38, 42, 43, 44, 46, 48, 51, 54,
              56, 57, 59)
]


def test_exists_accepts_what_the_largest_middle_value_misses():
    assert all(exists(THREE_SQUARES, n) for n in LARGEST_MIDDLE_MISSES)


def test_walk_over_one_slot_stops_below_a_third(monkeypatch):
    # over three identical slots the largest value is at least n/3, so the
    # walk stops there: 2,662 slot values at the control's miss 999999,
    # against 4,708 for a walk down to 0
    value = oracle._value
    calls = []
    monkeypatch.setattr(oracle, "_value", lambda *args: calls.append(1) or value(*args))
    sq = Term(1, "sq")
    assert not oracle._walk(sq, sq, sq, 999999)
    assert len(calls) < 3000


def test_exists_miss_memory_is_sublinear():
    # a miss at n walks O(n) pairs but holds only O(sqrt(n)) values
    tracemalloc.start()
    try:
        assert not exists(THREE_SQUARES, 999999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count(THREE_SQUARES, -3)


def test_count_and_witnesses_refuse_n_above_the_cap():
    with pytest.raises(ValueError, match=str(MAX_ENUMERATED_N)):
        count(THREE_SQUARES, MAX_ENUMERATED_N + 1)
    with pytest.raises(ValueError, match=str(MAX_ENUMERATED_N)):
        witnesses(THREE_SQUARES, MAX_ENUMERATED_N + 1, 1)


# ── witness enumeration ────────────────────────────────────────────────────


def test_witnesses_frozen_lists():
    wl = witnesses(spec_of("x2+3y2+t"), 0, 10)
    assert wl.items == ((0, 0, -1), (0, 0, 0))
    assert not wl.truncated

    wl = witnesses(spec_of("x2+3t+t"), 1, 1)
    assert wl.items == ((-1, -1, -1),)
    assert wl.truncated

    wl = witnesses(spec_of("x2+6t+t"), 3, 100)
    assert wl.items == ((0, -1, -3), (0, -1, 2), (0, 0, -3), (0, 0, 2))
    assert not wl.truncated


@pytest.mark.parametrize("n", [0, 1, 5, 12, 33, 40])
def test_witnesses_match_naive_enumeration(n):
    for spec in (spec_of("x2+3y2+t"), parse_form_spec("1*sq+2*sq+1*tri")):
        expect = all_witnesses(spec_terms(spec), n)
        wl = witnesses(spec, n, len(expect) + 5 if expect else 5)
        assert list(wl.items) == expect
        assert not wl.truncated
        assert len(expect) == count(spec, n)


def test_witnesses_truncation_and_limit():
    spec = spec_of("x2+3y2+t")
    full = witnesses(spec, 5, 100)
    assert len(full.items) == 12
    cut = witnesses(spec, 5, 3)
    assert cut.items == full.items[:3]
    assert cut.truncated
    with pytest.raises(ValueError):
        witnesses(spec, 5, 0)


def test_constructive_certificates_appear_in_enumeration():
    for form in MixedForm:
        for n in (0, 1, 17, 64, 203):
            cert = represent(form, n)
            spec = spec_of(form.value)
            wl = witnesses(spec, n, count(spec, n))
            assert (cert.x, cert.y, cert.z) in wl.items


# ── the parity-constrained two-squares predicate ───────────────────────────


def test_constrained_predicate_matches_naive():
    for n in range(0, 3001):
        got = exists_constrained_two_squares_triangular(n)
        assert got == constrained_two_squares_tri(n), n


# the n <= 300 that the predicate's first pass misses, so its exact walk
# must answer them; the walk is asked for n - 1 = t_i + 4u^2 + 8t_v
PREDICATE_PASS_MISSES = [69, 132, 204, 279, 300]


def test_predicate_walk_answers_what_the_first_pass_misses(monkeypatch):
    walk = oracle._walk
    walked = []
    monkeypatch.setattr(oracle, "_walk", lambda *args: walked.append(args[-1]) or walk(*args))
    assert [n for n in range(1, 301) if exists_constrained_two_squares_triangular(n)] == list(
        range(1, 301)
    )
    assert walked == [n - 1 for n in PREDICATE_PASS_MISSES]  # [68, 131, 203, 278, 299]


def test_predicate_near_2_to_61_answers_in_its_first_pass(monkeypatch):
    # n = t_(2^31): the remainders left by the largest triangular numbers
    # are small, and one of them is 2x^2 or an odd sum of two squares; the
    # exact walk would try about n pairs
    def no_walk(*args):
        raise AssertionError("the exact walk ran")

    monkeypatch.setattr(oracle, "_walk", no_walk)
    assert exists_constrained_two_squares_triangular(2305843010287435776)


def test_constrained_predicate_edges():
    assert not exists_constrained_two_squares_triangular(0)
    assert all(exists_constrained_two_squares_triangular(n) for n in range(1, 301))


# ── range windows ──────────────────────────────────────────────────────────


def window_flags(window: int, lo: int, hi: int) -> list[bool]:
    assert window >> (hi - lo + 1) == 0, "bits beyond the window"
    return [window >> (n - lo) & 1 == 1 for n in range(lo, hi + 1)]


@pytest.mark.parametrize("spec", SCANNED_SPECS, ids=str)
def test_window_matches_exists_on_prefix(spec):
    window = representable_window(spec, 0, 2000)
    flags = window_flags(window, 0, 2000)
    assert flags == [exists(spec, n) for n in range(2001)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SCANNED_SPECS),
    st.integers(min_value=0, max_value=3 * 10**4),
    st.integers(min_value=1, max_value=300),
)
def test_window_matches_exists_anywhere(spec, lo, width):
    hi = lo + width - 1
    window = representable_window(spec, lo, hi)
    flags = window_flags(window, lo, hi)
    assert flags == [exists(spec, n) for n in range(lo, hi + 1)]


def window_reads(spec: FormSpec, lo: int, hi: int) -> tuple[int, list[int]]:
    """spec's window over [lo, hi] and the third slot's values it reads, in
    order, its pair sumset built beforehand."""
    representable_window(spec, lo, hi)  # builds the pair, or keeps it
    read = []
    values = oracle._index_values

    def spy(term, indices):
        for v in values(term, indices):
            read.append(v)
            yield v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_index_values", spy)
        window = representable_window(spec, lo, hi)
    return window, read


def test_full_windows_read_few_values_at_or_below_lo():
    # at [16384, 16511] 31 of the 34 catalog term lists have no hole, and
    # each window is full after at most 22 of the 46 to 129 largest values
    # at or below lo, read from the top down; the three Panaitopol forms
    # miss some even n, so they read every value
    lo, hi = 16384, 16511
    full = (1 << (hi - lo + 1)) - 1
    specs = list(dict.fromkeys(e.spec for e in CATALOG if e.predicate is None))
    holed = []
    for spec in specs:
        window, read = window_reads(spec, lo, hi)
        assert window_flags(window, lo, hi) == [exists(spec, n) for n in range(lo, hi + 1)]
        below = [v for v in read if v <= lo]
        everything = list(oracle._values(oracle._by_density(spec)[2], lo))[::-1]
        assert below == everything[: len(below)]
        if window == full:
            assert len(below) <= 22
        else:
            holed.append(str(spec))
            assert below == everything
    assert holed == ["1*sq+1*sq+2*sq", "1*sq+2*sq+3*sq", "1*sq+2*sq+4*sq"]


ONE_SLOT_SPECS = [THREE_SQUARES] + [
    parse_form_spec(text) for text in ("1*tri+1*tri+1*tri", "2*sq+2*sq+2*sq")
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ONE_SLOT_SPECS),
    st.integers(min_value=1, max_value=3 * 10**4),
    st.integers(min_value=1, max_value=300),
)
def test_one_slot_window_reads_no_value_below_a_third_of_lo(spec, lo, width):
    # the largest of three values summing to n >= lo is at least lo/3
    hi = lo + width - 1
    window, read = window_reads(spec, lo, hi)
    assert window_flags(window, lo, hi) == [exists(spec, n) for n in range(lo, hi + 1)]
    assert all(v >= -(-lo // 3) for v in read)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([e.spec for e in CATALOG if e.source == "panaitopol"]),
    st.integers(min_value=0, max_value=3 * 10**4),
    st.integers(min_value=1, max_value=300),
)
def test_windows_with_holes_stay_exact(spec, lo, width):
    # a Panaitopol form misses even n such as 4^k(16l+14) for x^2+y^2+2z^2;
    # a window that holds one cannot be full, so it reads every value at or
    # below lo before it leaves that bit clear
    hi = lo + width - 1
    window, read = window_reads(spec, lo, hi)
    flags = window_flags(window, lo, hi)
    assert flags == [exists(spec, n) for n in range(lo, hi + 1)]
    if not all(flags):
        last = oracle._by_density(spec)[2]
        assert [v for v in read if v <= lo] == list(oracle._values(last, lo))[::-1]


def test_predicate_window_matches_pointwise():
    flags = window_flags(constrained_two_squares_triangular_window(0, 2000), 0, 2000)
    assert flags == [exists_constrained_two_squares_triangular(n) for n in range(2001)]
    assert not flags[0] and all(flags[1:])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3 * 10**4), st.integers(min_value=1, max_value=300))
def test_predicate_window_matches_pointwise_anywhere(lo, width):
    hi = lo + width - 1
    flags = window_flags(constrained_two_squares_triangular_window(lo, hi), lo, hi)
    assert flags == [exists_constrained_two_squares_triangular(n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "spec",
    [
        spec_of("x2+3y2+t"),
        spec_of("4x2+2t+t"),
        parse_form_spec("1*sq+2*sq+4*sq"),
        parse_form_spec("1*sq+5*tri+2*tri"),
        THREE_SQUARES,
    ],
    ids=str,
)
def test_window_and_exists_match_bruteforce(spec):
    truth = [naive_count(spec_terms(spec), n) > 0 for n in range(201)]
    assert window_flags(representable_window(spec, 0, 200), 0, 200) == truth
    assert [exists(spec, n) for n in range(201)] == truth


def test_predicate_window_and_exists_match_bruteforce():
    flags = window_flags(constrained_two_squares_triangular_window(0, 200), 0, 200)
    truth = [constrained_two_squares_tri(n) for n in range(201)]
    assert flags == truth
    assert [exists_constrained_two_squares_triangular(n) for n in range(201)] == truth


def test_window_rejects_bad_bounds():
    with pytest.raises(ValueError):
        representable_window(THREE_SQUARES, 5, 4)
    with pytest.raises(ValueError):
        representable_window(THREE_SQUARES, -1, 4)
    with pytest.raises(ValueError):
        constrained_two_squares_triangular_window(3, 2)

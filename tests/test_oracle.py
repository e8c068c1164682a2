from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    form_spec_of,
    parse_form_spec,
    rebracketed_window,
    representable_window,
    spec_of,
    witnesses,
)
from mixedsums.survey import CATALOG

from bruteforce import all_witnesses, constrained_two_squares_tri, naive_count

THREE_SQUARES = FormSpec((Term(1, "sq"), Term(1, "sq"), Term(1, "sq")))

# every distinct term list the catalogs scan, plus the negative control
SCANNED_SPECS = list(
    dict.fromkeys(
        [e.spec for e in CATALOG if e.predicate is None]
        + [THREE_SQUARES]
    )
)


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
    assert str(form_spec_of(MixedForm.X2_3Y2_T)) == "1*sq+3*sq+1*tri"
    assert str(form_spec_of(MixedForm.FOUR_X2_2T_T)) == "4*sq+2*tri+1*tri"
    assert str(form_spec_of(MixedForm.THREE_X2_2T_T)) == "3*sq+2*tri+1*tri"


def test_spec_of_reads_form_names_and_term_lists():
    for form in MixedForm:
        assert spec_of(form.value) == form_spec_of(form)
    assert spec_of("1*sq+2*sq+4*tri") == parse_form_spec("1*sq+2*sq+4*tri")
    with pytest.raises(FormSpecSyntaxError):
        spec_of("mixed-parity-two-squares")


# ── counting ───────────────────────────────────────────────────────────────


def test_count_frozen_values():
    assert count(form_spec_of(MixedForm.X2_3Y2_T), 0) == 2
    assert count(form_spec_of(MixedForm.X2_3Y2_T), 5) == 12
    assert count(form_spec_of(MixedForm.FOUR_X2_2T_T), 1) == 4


@pytest.mark.parametrize(
    "spec",
    [
        form_spec_of(MixedForm.X2_3Y2_T),
        form_spec_of(MixedForm.X2_3T_T),
        form_spec_of(MixedForm.FOUR_X2_2T_T),
        THREE_SQUARES,
        parse_form_spec("1*sq+2*sq+4*tri"),
        parse_form_spec("1*sq+5*tri+2*tri"),
    ],
)
def test_count_matches_naive_enumeration(spec):
    for n in range(0, 48):
        assert count(spec, n) == naive_count(spec_terms(spec), n), (str(spec), n)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=3000))
def test_exists_iff_positive_count(n):
    for spec in (form_spec_of(MixedForm.X2_6T_T), THREE_SQUARES):
        assert exists(spec, n) == (count(spec, n) > 0)


def test_exists_examples():
    assert exists(form_spec_of(MixedForm.X2_3Y2_T), 2)
    assert exists(form_spec_of(MixedForm.THREE_X2_2T_T), 4)
    assert not exists(THREE_SQUARES, 7)


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
    wl = witnesses(form_spec_of(MixedForm.X2_3Y2_T), 0, 10)
    assert wl.items == ((0, 0, -1), (0, 0, 0))
    assert not wl.truncated

    wl = witnesses(form_spec_of(MixedForm.X2_3T_T), 1, 1)
    assert wl.items == ((-1, -1, -1),)
    assert wl.truncated

    wl = witnesses(form_spec_of(MixedForm.X2_6T_T), 3, 100)
    assert wl.items == ((0, -1, -3), (0, -1, 2), (0, 0, -3), (0, 0, 2))
    assert not wl.truncated


@pytest.mark.parametrize("n", [0, 1, 5, 12, 33, 40])
def test_witnesses_match_naive_enumeration(n):
    for spec in (form_spec_of(MixedForm.X2_3Y2_T), parse_form_spec("1*sq+2*sq+1*tri")):
        expect = all_witnesses(spec_terms(spec), n)
        wl = witnesses(spec, n, len(expect) + 5 if expect else 5)
        assert list(wl.items) == expect
        assert not wl.truncated
        assert len(expect) == count(spec, n)


def test_witnesses_truncation_and_limit():
    spec = form_spec_of(MixedForm.X2_3Y2_T)
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
            spec = form_spec_of(form)
            wl = witnesses(spec, n, count(spec, n))
            assert (cert.x, cert.y, cert.z) in wl.items


# ── the parity-constrained two-squares predicate ───────────────────────────


def test_constrained_predicate_matches_naive():
    for n in range(0, 120):
        got = exists_constrained_two_squares_triangular(n)
        assert got == constrained_two_squares_tri(n), n


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
    assert rebracketed_window(spec, 0, 2000) == window


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
    assert rebracketed_window(spec, lo, hi) == window


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
        form_spec_of(MixedForm.X2_3Y2_T),
        form_spec_of(MixedForm.FOUR_X2_2T_T),
        parse_form_spec("1*sq+2*sq+4*sq"),
        parse_form_spec("1*sq+5*tri+2*tri"),
        THREE_SQUARES,
    ],
    ids=str,
)
def test_window_and_exists_match_bruteforce(spec):
    truth = [naive_count(spec_terms(spec), n) > 0 for n in range(201)]
    assert window_flags(representable_window(spec, 0, 200), 0, 200) == truth
    assert window_flags(rebracketed_window(spec, 0, 200), 0, 200) == truth
    assert [exists(spec, n) for n in range(201)] == truth


def test_predicate_window_and_exists_match_bruteforce():
    flags = window_flags(constrained_two_squares_triangular_window(0, 200), 0, 200)
    truth = [constrained_two_squares_tri(n) for n in range(201)]
    assert flags == truth
    assert [exists_constrained_two_squares_triangular(n) for n in range(201)] == truth


def test_window_rejects_bad_bounds():
    for window in (representable_window, rebracketed_window):
        with pytest.raises(ValueError):
            window(THREE_SQUARES, 5, 4)
        with pytest.raises(ValueError):
            window(THREE_SQUARES, -1, 4)
    with pytest.raises(ValueError):
        constrained_two_squares_triangular_window(3, 2)

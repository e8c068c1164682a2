"""The one input contract of the public entry points.

Every integer argument is a natural number no larger than its ceiling: a
bool, a float or a str raises TypeError naming the argument, a negative
value raises ValueError, and one past the ceiling raises WidthError, or
ValueError past the enumeration cap of count, witnesses and the negative
control and past the window bound on the two windows' hi.  Each message
names the argument, its value and the ceiling.  Int subclasses pass.  A
spec that is not a FormSpec raises TypeError pointing to spec_of.
"""

from __future__ import annotations

import pytest

from mixedsums.arith import INT64_MAX, WidthError, _check_natural, is_three_square_feasible
from mixedsums.forms import MixedForm, represent
from mixedsums.oracle import (
    MAX_ENUMERATED_N,
    MAX_WINDOW_HI,
    check_range,
    constrained_two_squares_triangular_window,
    count,
    exists,
    exists_constrained_two_squares_triangular,
    representable_window,
    spec_of,
    witnesses,
)
from mixedsums.survey import negative_control, verify_catalog, verify_theorem2_range
from mixedsums.three_squares import three_squares, two_squares

SPEC = spec_of("1*sq+3*sq+1*tri")

# represent's n and verify_theorem2_range's bounds are checked by the loops
# of test_forms.test_request_bounds and test_survey.test_bad_ranges_rejected.
# Each case: the entry point with the argument under test as x, the
# argument's name, its ceiling and the error one past the ceiling raises.
# The other arguments are valid, so no case gets as far as a scan.
CASES = {
    "exists.n": (lambda x: exists(SPEC, x), "n", INT64_MAX, WidthError),
    "count.n": (lambda x: count(SPEC, x), "n", MAX_ENUMERATED_N, ValueError),
    "witnesses.n": (lambda x: witnesses(SPEC, x, 1), "n", MAX_ENUMERATED_N, ValueError),
    "witnesses.limit": (lambda x: witnesses(SPEC, 4, x), "limit", INT64_MAX, WidthError),
    "predicate.n": (exists_constrained_two_squares_triangular, "n", INT64_MAX, WidthError),
    "three_squares.m": (three_squares, "m", INT64_MAX, WidthError),
    "two_squares.m": (two_squares, "m", INT64_MAX, WidthError),
    "classifier.m": (is_three_square_feasible, "m", INT64_MAX, WidthError),
    "check_range.lo": (lambda x: check_range(x, 10), "lo", INT64_MAX, WidthError),
    "check_range.hi": (lambda x: check_range(0, x), "hi", INT64_MAX, WidthError),
    "window.lo": (lambda x: representable_window(SPEC, x, 10), "lo", INT64_MAX, WidthError),
    "window.hi": (lambda x: representable_window(SPEC, 0, x), "hi", MAX_WINDOW_HI, ValueError),
    "predicate_window.hi": (
        lambda x: constrained_two_squares_triangular_window(0, x), "hi", MAX_WINDOW_HI, ValueError
    ),
    "verify_catalog.lo": (lambda x: verify_catalog(None, x, 10), "lo", INT64_MAX, WidthError),
    "verify_catalog.jobs": (
        lambda x: verify_catalog(None, 0, 10, jobs=x), "jobs", INT64_MAX, WidthError
    ),
    "verify_theorem2_range.jobs": (
        lambda x: verify_theorem2_range(0, 10, jobs=x), "jobs", INT64_MAX, WidthError
    ),
    "negative_control.lo": (lambda x: negative_control(x, 10), "lo", INT64_MAX, WidthError),
    "negative_control.hi": (
        lambda x: negative_control(0, x), "hi", MAX_ENUMERATED_N, ValueError
    ),
    "negative_control.jobs": (
        lambda x: negative_control(0, 10, jobs=x), "jobs", INT64_MAX, WidthError
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_integer_arguments_share_one_contract(case):
    call, name, ceiling, too_large = CASES[case]
    for bad in (True, 5.0, "5"):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be a natural number"):
        call(-1)
    # the message names the argument, its value and the ceiling
    with pytest.raises(too_large, match=rf"^{name}={ceiling + 1} .* {ceiling}\b"):
        call(ceiling + 1)


class _Int(int):
    pass


def test_int_subclasses_pass():
    assert _check_natural(_Int(5), "n") == 5
    assert count(SPEC, _Int(4)) == count(SPEC, 4)
    assert three_squares(_Int(14)) == three_squares(14)
    form = MixedForm.X2_6T_T
    assert represent(form, _Int(9)).to_json() == represent(form, 9).to_json()
    assert witnesses(SPEC, 4, _Int(2)).items == witnesses(SPEC, 4, 2).items


def test_limit_reaches_the_ceiling():
    # a cap of 2^63 - 1 lists every witness, never one past it
    every = witnesses(SPEC, 4, INT64_MAX)
    assert len(every.items) == count(SPEC, 4) and not every.truncated


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: exists(spec, 5),
        lambda spec: count(spec, 5),
        lambda spec: witnesses(spec, 5, 1),
        lambda spec: representable_window(spec, 0, 5),
    ],
    ids=["exists", "count", "witnesses", "representable_window"],
)
def test_spec_must_be_a_formspec(call):
    with pytest.raises(TypeError, match=r"^spec must be a FormSpec, got str; see spec_of"):
        call("1*sq+3*sq+1*tri")

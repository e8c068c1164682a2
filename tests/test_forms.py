from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsums
from mixedsums.arith import REPRESENT_MAX, WidthError
from mixedsums.forms import (
    FORM_TERMS as LIBRARY_FORM_TERMS,
    Certificate,
    MixedForm,
    evaluate,
    represent,
    verify,
)

from bruteforce import term_value

# the five forms, restated independently of the library
FORM_TERMS = {
    MixedForm.X2_3Y2_T: ((1, "sq"), (3, "sq"), (1, "tri")),
    MixedForm.X2_3T_T: ((1, "sq"), (3, "tri"), (1, "tri")),
    MixedForm.X2_6T_T: ((1, "sq"), (6, "tri"), (1, "tri")),
    MixedForm.THREE_X2_2T_T: ((3, "sq"), (2, "tri"), (1, "tri")),
    MixedForm.FOUR_X2_2T_T: ((4, "sq"), (2, "tri"), (1, "tri")),
}


def naive_evaluate(form: MixedForm, x: int, y: int, z: int) -> int:
    return sum(term_value(c, k, i) for (c, k), i in zip(FORM_TERMS[form], (x, y, z)))


def test_evaluate_matches_naive_formulas():
    for form in MixedForm:
        for triple in [(0, 0, 0), (1, -2, 3), (-4, 5, -6), (7, 0, -1)]:
            assert evaluate(form, *triple) == naive_evaluate(form, *triple)


def test_evaluate_rejects_non_form():
    with pytest.raises(TypeError):
        evaluate("x2+3y2+t", 0, 0, 0)


# hand-traced through the construction before the library existed
FROZEN_CERTIFICATES = [
    (MixedForm.FOUR_X2_2T_T, 0, (0, 0, 0)),
    (MixedForm.FOUR_X2_2T_T, 1, (0, 0, -2)),
    (MixedForm.FOUR_X2_2T_T, 2, (0, -2, 0)),
    (MixedForm.X2_3T_T, 0, (0, 0, 0)),
    (MixedForm.X2_3T_T, 1, (-1, -1, -1)),
    (MixedForm.X2_3Y2_T, 0, (0, 0, 0)),
    (MixedForm.THREE_X2_2T_T, 1, (0, 0, -2)),
    (MixedForm.X2_6T_T, 1, (0, 0, 1)),
]


@pytest.mark.parametrize("form,n,witness", FROZEN_CERTIFICATES)
def test_frozen_certificates(form, n, witness):
    cert = represent(form, n)
    assert (cert.x, cert.y, cert.z) == witness
    assert cert.n == n and cert.form is form
    assert naive_evaluate(form, *witness) == n


@pytest.mark.parametrize("form", list(MixedForm))
def test_small_range_all_verify(form):
    for n in range(0, 600):
        cert = represent(form, n)
        assert verify(cert)
        assert naive_evaluate(form, cert.x, cert.y, cert.z) == n


@settings(max_examples=200)
@given(st.sampled_from(list(MixedForm)), st.integers(min_value=0, max_value=10**7))
def test_represent_verifies_everywhere(form, n):
    cert = represent(form, n)
    assert verify(cert)
    assert naive_evaluate(form, cert.x, cert.y, cert.z) == n


def test_represent_is_deterministic():
    for form in MixedForm:
        a = represent(form, 91)
        b = represent(form, 91)
        assert a == b


def test_request_bounds():
    with pytest.raises(ValueError):
        represent(MixedForm.X2_3Y2_T, -1)
    # True would become "n":true in the certificate's JSON, which from_json
    # rejects; 5.0 would reach the bit arithmetic of three_squares
    for bad in (True, False, 5.0, "5"):
        with pytest.raises(TypeError, match="^n must be an int"):
            represent(MixedForm.X2_3Y2_T, bad)
    for form in MixedForm:
        with pytest.raises(WidthError):
            represent(form, REPRESENT_MAX + 1)
        # the ceiling itself is admissible on every construction path
        cert = represent(form, REPRESENT_MAX)
        assert verify(cert)
        assert naive_evaluate(form, cert.x, cert.y, cert.z) == REPRESENT_MAX


# Run under python -O: the mod-3 sign alignment is replaced by the identity,
# and every n whose three-square split has mixed residues mod 3 (so x+y+z is
# not divisible by 3) must make represent raise instead of returning.
_BROKEN_ALIGNMENT = """
import json, sys
import mixedsums.forms as forms

mixed = []

def unaligned(x, y, z):
    mixed.append(len({c % 3 for c in (x, y, z)}) > 1)
    return x, y, z

forms.align_mod3 = unaligned
rows = []
for form in forms.MixedForm:
    for n in range(200):
        mixed.clear()
        try:
            outcome = "verifies" if forms.verify(forms.represent(form, n)) else "wrong"
        except AssertionError:
            outcome = "raised"
        rows.append([form.value, n, bool(mixed) and mixed[0], outcome])
print(json.dumps({"optimize": sys.flags.optimize, "debug": __debug__, "rows": rows}))
"""


def test_broken_step_raises_under_python_O():
    src = str(Path(mixedsums.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ALIGNMENT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1 and out["debug"] is False
    rows = out["rows"]
    assert not [r for r in rows if r[3] == "wrong"]
    broken = [r for r in rows if r[2]]
    assert len(broken) > 100
    assert [r for r in broken if r[3] != "raised"] == []


def test_certificate_json_golden():
    cert = represent(MixedForm.FOUR_X2_2T_T, 2)
    assert cert.to_json() == '{"form":"4x2+2t+t","n":2,"x":0,"y":-2,"z":0}'


# every form at the ceiling 2^55, just below it, and at 2^54 + 1; 48n + 24,
# the target x2+3t+t splits, has a factor of 4 that three_squares strips
CEILING_GOLDEN = [
    '{"form":"x2+3y2+t","n":36028797018963968,"x":77504180,"y":77490899,"z":154966969}',
    '{"form":"x2+3t+t","n":36028797018963968,"x":109592293,"y":-109575137,"z":109619893}',
    '{"form":"x2+6t+t","n":36028797018963968,"x":77487236,"y":-77493619,"z":154975756}',
    '{"form":"3x2+2t+t","n":36028797018963968,"x":77487753,"y":77495035,"z":154985553}',
    '{"form":"4x2+2t+t","n":36028797018963968,"x":-67099713,"y":-134236028,"z":-1584}',
    '{"form":"x2+3y2+t","n":36028797018963967,"x":-77502506,"y":-77478355,"z":-155006272}',
    '{"form":"x2+3t+t","n":36028797018963967,"x":109582931,"y":-109587499,"z":109601537}',
    '{"form":"x2+6t+t","n":36028797018963967,"x":77493604,"y":-77487657,"z":154987274}',
    '{"form":"3x2+2t+t","n":36028797018963967,"x":77487885,"y":77495688,"z":154984504}',
    '{"form":"4x2+2t+t","n":36028797018963967,"x":-67106343,"y":-134222770,"z":-12914}',
    '{"form":"x2+3y2+t","n":18014398509481985,"x":109584008,"y":-1005,"z":-109596932}',
    '{"form":"x2+3t+t","n":18014398509481985,"x":77479354,"y":-77499654,"z":77486176}',
    '{"form":"x2+6t+t","n":18014398509481985,"x":-109596517,"y":5035,"z":109571911}',
    '{"form":"3x2+2t+t","n":18014398509481985,"x":-54800119,"y":-54785633,"z":-109578957}',
    '{"form":"4x2+2t+t","n":18014398509481985,"x":47456599,"y":94899330,"z":-29174}',
]


def test_certificate_json_golden_near_the_ceiling():
    lines = [represent(f, n).to_json() for n in (2**55, 2**55 - 1, 2**54 + 1) for f in MixedForm]
    assert lines == CEILING_GOLDEN


def test_certificate_json_golden_across_the_represent_range():
    # 64 n, one per octave of [2^30, 2^55) in turn, for each of the five
    # forms: the sha256 of their JSON lines, one per line in that order, as
    # the two-square scan without its square filter produced them
    rng = random.Random(55)
    ns = [rng.randrange(1 << k, 2 << k) for k in (30 + i % 25 for i in range(64))]
    lines = "\n".join(represent(f, n).to_json() for n in ns for f in MixedForm)
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "b5fe31dbdd2759ec8229055d26d4a5d9918b77157836fdc541c15306e066eeb6"


@settings(max_examples=100)
@given(st.sampled_from(list(MixedForm)), st.integers(min_value=0, max_value=10**6))
def test_certificate_json_round_trip(form, n):
    cert = represent(form, n)
    again = Certificate.from_json(cert.to_json())
    assert again == cert


@pytest.mark.parametrize(
    "text",
    [
        '{"form":"4x2+2t+t","n":2,"x":0,"y":-2}',  # missing field
        '{"form":"4x2+2t+t","n":2,"x":0,"y":-2,"z":0,"w":1}',  # extra field
        '{"form":"nope","n":2,"x":0,"y":-2,"z":0}',  # unknown form
        '{"form":"4x2+2t+t","n":2.0,"x":0,"y":-2,"z":0}',  # non-integer
        '{"form":"4x2+2t+t","n":true,"x":0,"y":-2,"z":0}',  # bool is not an int here
        '[1,2,3]',  # not an object
    ],
)
def test_certificate_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Certificate.from_json(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_NAMES = st.sampled_from([f.value for f in MixedForm])
# well-formed objects, near-certificates (each field right or wrong, maybe one
# extra or missing), any JSON value, and any text
_CERT_TEXT = st.one_of(
    st.fixed_dictionaries({"form": _NAMES, **{k: st.integers() for k in "nxyz"}}).map(json.dumps),
    st.dictionaries(
        st.sampled_from(["form", "n", "x", "y", "z", "w"]), _NAMES | st.integers() | _JSON, min_size=4
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(),
)


@given(_CERT_TEXT)
def test_certificate_json_fuzz(text):
    try:
        cert = Certificate.from_json(text)
    except ValueError:
        return
    assert Certificate.from_json(cert.to_json()) == cert


def test_certificate_is_frozen_and_survives_copy_and_pickle():
    cert = represent(MixedForm.X2_3T_T, 91)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.n = 92
    copies = [copy.copy(cert), copy.deepcopy(cert)]
    copies += [pickle.loads(pickle.dumps(cert, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies:
        assert again == cert and hash(again) == hash(cert)
        assert again.form is cert.form and verify(again)


def test_form_members_key_the_tables_after_pickle():
    # forms hash by identity, so a form that came back as another object
    # would miss its row
    for form in MixedForm:
        for again in (
            MixedForm(form.value),
            copy.deepcopy(form),
            *(pickle.loads(pickle.dumps(form, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert again is form and hash(again) == hash(form)
            assert LIBRARY_FORM_TERMS[again] == FORM_TERMS[form]


def test_certificate_json_field_order():
    cert = represent(MixedForm.X2_6T_T, 44)
    keys = list(json.loads(cert.to_json()).keys())
    assert keys == ["form", "n", "x", "y", "z"]

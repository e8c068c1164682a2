"""The five complete mixed square/triangular forms and their constructive
decomposer.

Every natural number n is representable by each of

    x^2 + 3y^2 + t_z,   x^2 + 3t_y + t_z,   x^2 + 6t_y + t_z,
    3x^2 + 2t_y + t_z,  4x^2 + 2t_y + t_z      (t_i = i(i+1)/2, indices in Z),

and one construction produces an explicit witness for each: split a shifted
multiple of n into three squares, normalize the signs, order the triple
until the form's congruence pattern appears, rotate it through
3(x^2+y^2+z^2) = s^2 + 2u^2 + 6v^2 and divide exactly.  FORM_TERMS defines
each form and _RECIPES holds its construction; nothing else names a form's
coefficients.  Every congruence the proof relies on is either the ordering
test or an exact division, and both are checked unconditionally (under
``python -O`` too): a failed check raises AssertionError, so the decomposer
can only ever return a certificate that verifies.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, NamedTuple

from .arith import REPRESENT_MAX, _check_natural, triangular
from .jacobi import align_mod3, jacobi_transform
from .three_squares import three_squares


class MixedForm(enum.Enum):
    """One of the five complete three-term forms; values are CLI spellings."""

    X2_3Y2_T = "x2+3y2+t"  # x^2 + 3y^2 + t_z
    X2_3T_T = "x2+3t+t"  # x^2 + 3 t_y + t_z
    X2_6T_T = "x2+6t+t"  # x^2 + 6 t_y + t_z
    THREE_X2_2T_T = "3x2+2t+t"  # 3x^2 + 2 t_y + t_z
    FOUR_X2_2T_T = "4x2+2t+t"  # 4x^2 + 2 t_y + t_z

    # Members are singletons (pickle and MixedForm(value) return the member
    # itself), so identity hashing is consistent with equality; it keeps the
    # per-value table lookups in C, where Enum.__hash__ is Python code
    __hash__ = object.__hash__

    @classmethod
    def _missing_(cls, value: object) -> MixedForm:
        # the one message for every unknown name: CLI tokens, spellings
        # passed to the library and certificate JSON alike
        raise ValueError(f"unknown form {value!r}, expected one of {', '.join(FORM_NAMES)}")


FORM_NAMES = tuple(f.value for f in MixedForm)

# (coefficient, "sq" for c*i^2 or "tri" for c*t_i) per slot, in the
# certificate's (x, y, z) order
FORM_TERMS: dict[MixedForm, tuple[tuple[int, str], ...]] = {
    MixedForm.X2_3Y2_T: ((1, "sq"), (3, "sq"), (1, "tri")),
    MixedForm.X2_3T_T: ((1, "sq"), (3, "tri"), (1, "tri")),
    MixedForm.X2_6T_T: ((1, "sq"), (6, "tri"), (1, "tri")),
    MixedForm.THREE_X2_2T_T: ((3, "sq"), (2, "tri"), (1, "tri")),
    MixedForm.FOUR_X2_2T_T: ((4, "sq"), (2, "tri"), (1, "tri")),
}


def _row(table: dict, form: MixedForm) -> tuple:
    try:
        return table[form]
    except KeyError:
        raise TypeError(f"not a MixedForm: {form!r}") from None


def evaluate(form: MixedForm, x: int, y: int, z: int) -> int:
    """Evaluate the form at an integer witness triple (exact)."""
    (cx, kx), (cy, ky), (cz, kz) = _row(FORM_TERMS, form)
    return (
        cx * (x * x if kx == "sq" else triangular(x))
        + cy * (y * y if ky == "sq" else triangular(y))
        + cz * (z * z if kz == "sq" else triangular(z))
    )


@dataclass(frozen=True, slots=True)
class Certificate:
    """An explicit witness that evaluate(form, x, y, z) == n.

    Triangular indices are kept exactly as the construction produced them,
    negative values included; verification handles any sign.
    """

    form: MixedForm
    n: int
    x: int
    y: int
    z: int

    def to_json(self) -> str:
        # field order is part of the wire format
        return json.dumps(
            {"form": self.form.value, "n": self.n, "x": self.x, "y": self.y, "z": self.z},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        raw = json.loads(text)
        fields = {"form", "n", "x", "y", "z"}
        if not isinstance(raw, dict) or set(raw) != fields:
            raise ValueError(f"certificate object must have exactly the fields {sorted(fields)}")
        form = MixedForm(raw["form"])
        n, x, y, z = raw["n"], raw["x"], raw["y"], raw["z"]
        for v in (n, x, y, z):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("certificate numeric fields must be integers")
        return cls(form, n, x, y, z)


def verify(cert: Certificate) -> bool:
    """Exact arithmetic re-check of a certificate."""
    return evaluate(cert.form, cert.x, cert.y, cert.z) == cert.n


class _Recipe(NamedTuple):
    """How represent builds a witness for one form.

    Split mul*n + add into three squares; flip signs (align_mod3 when mod3,
    else every component to 1 mod 4); take the first order of the triple,
    in itertools.permutations order, that passes slots; map it to
    (s, u, v) = jacobi_transform(x, y, z); witness slot i is then
    (a*s + b*u + c*v + d) / q exactly, for (a, b, c, d, q) = rows[i].
    """

    mul: int
    add: int
    mod3: bool
    slots: Callable[[int, int, int], bool]
    rows: tuple[tuple[int, int, int, int, int], ...]


_RECIPES = {
    # 24n+3+6e for e in {0, 1, 3}: the target is odd, never of the excluded
    # shape, and divisible by 3, so the triple sign-aligns mod 3, giving
    # x+y+z == 3 (mod 6) and z0 = (s-3)/6.  Its residue 3+6e mod 8 pins the
    # parity pattern the ordering test asks for.
    #
    # e=0: all odd, so some pair agrees mod 4 (the first by position); as
    # (x, y) it gives x+y-2z == 0 and x-y == 0 (mod 12), and
    # n = (u/6)^2 + 3(v/6)^2 + t_z0.
    MixedForm.X2_3Y2_T: _Recipe(
        24, 3, True,
        lambda x, y, z: (x - y) % 4 == 0,
        ((0, 1, 0, 0, 6), (0, 0, 1, 0, 6), (1, 0, 0, -3, 6)),
    ),
    # e=1: one odd component (z); the even pair agrees mod 4 automatically,
    # so x+y-2z == 6 and x-y == 0 (mod 12), and
    # n = 3(v/6)^2 + 2t_{(u-3)/6} + t_z0.
    MixedForm.THREE_X2_2T_T: _Recipe(
        24, 9, True,
        lambda x, y, z: x % 2 == 0 and y % 2 == 0 and z % 2 == 1,
        ((0, 0, 1, 0, 6), (0, 1, 0, -3, 6), (1, 0, 0, -3, 6)),
    ),
    # e=3: x == 2, y == 0 (mod 4), z odd, so x+y-2z == 0 and x-y == 6
    # (mod 12), and n = (u/6)^2 + 6t_{(v-3)/6} + t_z0.
    MixedForm.X2_6T_T: _Recipe(
        24, 21, True,
        lambda x, y, z: x % 4 == 2 and y % 4 == 0 and z % 2 == 1,
        ((0, 1, 0, 0, 6), (0, 0, 1, -3, 6), (1, 0, 0, -3, 6)),
    ),
    # 48n+24 = 12(4n+2) strips to 12n+6 == 2 or 6 (mod 8), so it is never
    # excluded.  Its square-sum is divisible by 3 (sign-aligned mod 3) and
    # is 8 mod 16, forcing all components even with exactly one multiple of
    # 4.  That one first as x and the other two as (y, z) give
    # x+y+z == 0, x+y-2z == 6, x-y == 6 (mod 12), so
    # n = (s/12)^2 + t_{(u-3)/6} + 3t_{(v-3)/6}, stored in slot order.
    MixedForm.X2_3T_T: _Recipe(
        48, 24, True,
        lambda x, y, z: x % 4 == 0 and y % 4 == 2 and z % 4 == 2,
        ((1, 0, 0, 0, 12), (0, 0, 1, -3, 6), (0, 1, 0, -3, 6)),
    ),
    # 8n+3 == 3 (mod 8) is never excluded and forces all three components
    # odd.  Flipped to 1 mod 4 they are 1 or 5 mod 8, so some pair agrees
    # mod 8 (all three agreeing: the two smallest, ascending); with that
    # pair as (x, y) and the leftover as z,
    #
    #     8n+3 = 2((x-y)/2)^2 + 2((x+y)/2)^2 + z^2
    #          = 2(4 x0)^2 + 2(2 y0 + 1)^2 + (2 z0 + 1)^2
    #
    # for x0 = (x-y)/8 = v/4, y0 = (x+y-2)/4 = (s+u-3)/6 and
    # z0 = (z-1)/2 = (s-2u-3)/6, which unwinds to n = 4x0^2 + 2t_y0 + t_z0.
    MixedForm.FOUR_X2_2T_T: _Recipe(
        8, 3, False,
        lambda x, y, z: (x - y) % 8 == 0 and ((x - z) % 8 != 0 or x <= y <= z),
        ((0, 0, 1, 0, 4), (1, 1, 0, -3, 6), (1, -2, 0, -3, 6)),
    ),
}


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"construction broke: {num} not divisible by {den}")
    return q


def represent(form: MixedForm, n: int) -> Certificate:
    """Constructive witness for n under the given form (always succeeds)."""
    recipe = _row(_RECIPES, form)
    _check_natural(n, "n", REPRESENT_MAX)
    # three_squares, align_mod3 and jacobi_transform are looked up in the
    # module globals at each call, never stored in _RECIPES, so tracing and
    # tests can rebind them
    rep = three_squares(recipe.mul * n + recipe.add)
    if recipe.mod3:
        comps = align_mod3(rep.x, rep.y, rep.z)
    else:
        x, y, z = rep.x, rep.y, rep.z
        comps = (x if x % 4 == 1 else -x, y if y % 4 == 1 else -y, z if z % 4 == 1 else -z)
    for x, y, z in permutations(comps):
        if recipe.slots(x, y, z):
            break
    else:
        raise AssertionError(f"construction broke: no order of {comps} fits {form.value}")
    s, u, v = jacobi_transform(x, y, z)
    (a0, b0, c0, d0, q0), (a1, b1, c1, d1, q1), (a2, b2, c2, d2, q2) = recipe.rows
    x0 = _exact_div(a0 * s + b0 * u + c0 * v + d0, q0)
    y0 = _exact_div(a1 * s + b1 * u + c1 * v + d1, q1)
    z0 = _exact_div(a2 * s + b2 * u + c2 * v + d2, q2)
    return Certificate(form, n, x0, y0, z0)

"""Case classification and reciprocal scaling plans for a complex scalar.

A plan is one or two multiplier steps whose mathematical product equals
1/a.  Building a plan never performs a complex division and uses at most
four real divisions, independent of any vector length.

`_reciprocal_plan` holds the whole case tree, and one compensation rule
serves axis (one part zero, v the other) and full denominators: below
sfmin (v, or both parts of a) the denominator is scaled by 1/sfmin, exactly,
before any division and a last real step applies 1/sfmin; above 1/sfmin
(v, ur or ui) a first real step applies sfmin and the factor is built from
the sfmin-scaled value.  The case fixes the division count: 1 (1/v) on an
axis, else 4 (r1, r2, 1/ur, 1/ui).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fpenv import FpEnv


class CaseTag(enum.Enum):
    REAL_DENOMINATOR = "real_denominator"
    IMAGINARY_DENOMINATOR = "imaginary_denominator"
    FULL_SAFE = "full_safe"
    FULL_SMALL = "full_small"
    FULL_INF_OPERAND = "full_inf_operand"
    FULL_INF_RESCUE = "full_inf_rescue"
    FULL_LARGE = "full_large"


class StepKind(enum.Enum):
    REAL_FACTOR = "real"
    IMAGINARY_FACTOR = "imaginary"
    COMPLEX_FACTOR = "complex"


# Module constants for the per-call paths: reading an enum member through
# its class costs about 0.1 us in Python 3.11.
_REAL, _IMAGINARY, _COMPLEX = StepKind.REAL_FACTOR, StepKind.IMAGINARY_FACTOR, StepKind.COMPLEX_FACTOR
_AXIS_CASES = (CaseTag.REAL_DENOMINATOR, CaseTag.IMAGINARY_DENOMINATOR)


@dataclass(frozen=True)
class ScaleStep:
    kind: StepKind
    re: object
    im: object

    @classmethod
    def real(cls, v) -> "ScaleStep":
        return cls(StepKind.REAL_FACTOR, v, type(v)(0.0))

    @classmethod
    def imaginary(cls, v) -> "ScaleStep":
        return cls(StepKind.IMAGINARY_FACTOR, type(v)(0.0), v)

    @classmethod
    def complex_(cls, re, im) -> "ScaleStep":
        return cls(StepKind.COMPLEX_FACTOR, re, im)


@dataclass
class FlopCounter:
    real_mul: int = 0
    real_add: int = 0
    real_div: int = 0
    complex_div: int = 0

    def add(self, other: "FlopCounter") -> None:
        self.real_mul += other.real_mul
        self.real_add += other.real_add
        self.real_div += other.real_div
        self.complex_div += other.complex_div


@dataclass(frozen=True)
class ScalePlan:
    steps: tuple
    case: CaseTag

    @property
    def axis(self) -> bool:
        """True for a real or an imaginary denominator."""
        return self.case in _AXIS_CASES

    @property
    def division_count(self) -> int:
        """Real divisions of building the plan."""
        return 1 if self.axis else 4

    def cost(self, n: int) -> FlopCounter:
        """Real operations of building the plan and applying it to n
        elements: 2 multiplies per element for a real or imaginary step,
        4 multiplies and 2 adds for a complex one."""
        complex_steps = sum(s.kind is _COMPLEX for s in self.steps)
        # (real_mul, real_add, real_div), positional: keywords cost more.
        return FlopCounter(2 * n * (len(self.steps) + complex_steps), 2 * n * complex_steps, self.division_count)


# The private helpers below run under the caller's np.errstate, so that a
# public call enters one context, not one per helper.  They build steps
# directly rather than through the classmethods: a plan is built on every
# crscl call, so its fixed cost is paid per call.

# (1, -1, 0) in each working precision, keyed by the part type.
_UNITS = {f: (f(1.0), f(-1.0), f(0.0)) for f in (np.float32, np.float64)}


def _as_parts(a, env: FpEnv):
    """Round a complex-like value to the target precision's part pair."""
    f = env.ftype
    if isinstance(a, tuple):
        return f(a[0]), f(a[1])
    c = complex(a)
    return f(c.real), f(c.imag)


def _uv_chain(ar, ai):
    """(r1, ur, r2, ui): r1 = ai/ar, ur = ar + ai*r1, r2 = ar/ai and
    ui = ai + ar*r2, each operation rounded to the working precision."""
    # The parenthesization is load-bearing: it decides where NaN and
    # infinity appear for extreme operands.
    r1 = ai / ar
    r2 = ar / ai
    return r1, ar + ai * r1, r2, ai + ar * r2


def reciprocal_plan(a, env: FpEnv) -> ScalePlan:
    """Build the multiplier sequence for scaling by 1/a.

    Every bit pattern of a is accepted; NaN operands and doubly-infinite
    operands propagate NaN factors, and only a == +-0 +- 0i yields
    infinite factors.
    """
    with np.errstate(all="ignore"):
        return _reciprocal_plan(*_as_parts(a, env), env)


def _reciprocal_plan(ar, ai, env: FpEnv) -> ScalePlan:
    """The case tree, on parts already in the working precision."""
    one, neg, zero = _UNITS[type(ar)]
    sfmin, inv_sfmin = env.sfmin, env.inv_sfmin

    if ai == 0 or ar == 0:
        # make(c) builds the step of factor c = 1/v; 1/(v*i) = -(1/v)*i.
        if ai == 0:
            v, tag = ar, CaseTag.REAL_DENOMINATOR
            make = lambda c: ScaleStep(_REAL, c, zero)
        else:
            v, tag = ai, CaseTag.IMAGINARY_DENOMINATOR
            make = lambda c: ScaleStep(_IMAGINARY, zero, -c)
        av = abs(v)
        if av < sfmin:
            # The FULL_SMALL prescale.  v == +-0 gives an infinite factor,
            # as IEEE division semantics dictate for a zero denominator.
            return ScalePlan((make(one / (v * inv_sfmin)), ScaleStep(_REAL, inv_sfmin, zero)), tag)
        if av > inv_sfmin:
            return ScalePlan((ScaleStep(_REAL, sfmin, zero), make(one / (sfmin * v))), tag)
        # In range, or NaN: a single propagating factor.
        return ScalePlan((make(one / v),), tag)

    if abs(ar) < sfmin and abs(ai) < sfmin:
        # Built from these parts, the chain could round inexactly in the
        # subnormal range (the paper's Remark 1); the inv_sfmin-scaled parts
        # are exact, and every operand and result of their chain is normal.
        _, ur, _, ui = _uv_chain(ar * inv_sfmin, ai * inv_sfmin)
        steps = (ScaleStep(_COMPLEX, one / ur, neg / ui), ScaleStep(_REAL, inv_sfmin, zero))
        return ScalePlan(steps, CaseTag.FULL_SMALL)

    # With a part of at least sfmin, rounding keeps |ur| and |ui| at least
    # sfmin too, so only the large end of the range is left.
    r1, ur, r2, ui = _uv_chain(ar, ai)
    if math.isinf(ar) or math.isinf(ai):
        # ur/ui are both infinite or both NaN; apply them directly so
        # infinities map to zero factors and NaNs propagate.
        return ScalePlan((ScaleStep(_COMPLEX, one / ur, neg / ui),), CaseTag.FULL_INF_OPERAND)
    if math.isinf(ur) or math.isinf(ui):
        # Spurious overflow with finite a: rebuild sfmin-scaled ur/ui.
        # sfmin*r is a power-of-two rescale of the already-computed ratio,
        # so every intermediate stays near sfmin*|u|.
        urs = sfmin * ar + ai * (sfmin * r1)
        uis = sfmin * ai + ar * (sfmin * r2)
        steps = (ScaleStep(_REAL, sfmin, zero), ScaleStep(_COMPLEX, one / urs, neg / uis))
        return ScalePlan(steps, CaseTag.FULL_INF_RESCUE)
    if abs(ur) > inv_sfmin or abs(ui) > inv_sfmin:
        steps = (
            ScaleStep(_REAL, sfmin, zero),
            ScaleStep(_COMPLEX, one / (sfmin * ur), neg / (sfmin * ui)),
        )
        return ScalePlan(steps, CaseTag.FULL_LARGE)
    # In range, or NaN (a NaN part of a): one propagating factor.
    return ScalePlan((ScaleStep(_COMPLEX, one / ur, neg / ui),), CaseTag.FULL_SAFE)

"""Case classification and reciprocal scaling plans for a complex scalar.

A plan is one or two multiplier steps whose mathematical product equals
1/a.  Building a plan never performs a complex division and uses at most
four real divisions, independent of any vector length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fpenv import FpEnv, safe_range


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
    division_count: int

    def cost(self, n: int) -> FlopCounter:
        """Real operations of building the plan and applying it to n
        elements: 2 multiplies per element for a real or imaginary step,
        4 multiplies and 2 adds for a complex one."""
        complex_steps = sum(s.kind is StepKind.COMPLEX_FACTOR for s in self.steps)
        return FlopCounter(
            real_mul=2 * n * (len(self.steps) + complex_steps),
            real_add=2 * n * complex_steps,
            real_div=self.division_count,
        )


def as_parts(a, env: FpEnv):
    """Round a complex-like value to the target precision's part pair."""
    with np.errstate(all="ignore"):
        return _as_parts(a, env)


# The private helpers below run under the caller's np.errstate, so that a
# public call enters one context, not one per helper.


def _as_parts(a, env: FpEnv):
    f = env.ftype
    if isinstance(a, tuple):
        return f(a[0]), f(a[1])
    c = complex(a)
    return f(c.real), f(c.imag)


def compute_uv(a, env: FpEnv):
    """ur = ar + ai*(ai/ar), ui = ai + ar*(ar/ai), in the working precision.

    (1/ur, -1/ui) is mathematically the reciprocal of a.  Both parts of a
    must be nonzero; zero-part denominators are routed elsewhere.
    """
    with np.errstate(all="ignore"):
        _, ur, _, ui = _uv_chain(*_as_parts(a, env))
    return ur, ui


def _uv_chain(ar, ai):
    """(r1, ur, r2, ui): r1 = ai/ar, ur = ar + ai*r1, r2 = ar/ai and
    ui = ai + ar*r2, each operation rounded to the working precision."""
    # The parenthesization is load-bearing: it decides where NaN and
    # infinity appear for extreme operands.
    r1 = ai / ar
    r2 = ar / ai
    return r1, ar + ai * r1, r2, ai + ar * r2


def _axis_steps(v, env: FpEnv, make):
    """One or two power-of-two-compensated factors for a real-axis denominator.

    `make(x)` builds the step carrying factor x (real factor 1/v, or
    imaginary factor -1/v).  Returns (steps, real division count).
    """
    one = env.ftype(1.0)
    if safe_range(v, env):
        return (make(one / v),), 1
    av = abs(v)
    if av < env.sfmin:
        # Includes v == +-0: the factor becomes infinite, as IEEE
        # division semantics dictate for a zero denominator.
        return (make(env.sfmin / v), ScaleStep.real(env.inv_sfmin)), 1
    if av > env.inv_sfmin:
        return (ScaleStep.real(env.sfmin), make(one / (env.sfmin * v))), 1
    # NaN: a single propagating factor.
    return (make(one / v),), 1


def reciprocal_plan(a, env: FpEnv) -> ScalePlan:
    """Build the multiplier sequence for scaling by 1/a.

    Every bit pattern of a is accepted; NaN operands and doubly-infinite
    operands propagate NaN factors, and only a == +-0 +- 0i yields
    infinite factors.
    """
    with np.errstate(all="ignore"):
        ar, ai = _as_parts(a, env)
        f = env.ftype
        one = f(1.0)
        neg = f(-1.0)

        if ai == 0:
            steps, divs = _axis_steps(ar, env, ScaleStep.real)
            return ScalePlan(steps, CaseTag.REAL_DENOMINATOR, divs)
        if ar == 0:
            steps, divs = _axis_steps(ai, env, lambda x: ScaleStep.imaginary(-x))
            return ScalePlan(steps, CaseTag.IMAGINARY_DENOMINATOR, divs)

        sfmin = env.sfmin
        if abs(ar) < sfmin and abs(ai) < sfmin:
            # Both parts below sfmin.  Built from these parts, the chain can
            # round inexactly in the subnormal range (the paper's Remark 1).
            # Scaled by inv_sfmin, a power of two, the parts are exact and
            # every operand and result of the chain is normal; the second
            # step multiplies inv_sfmin back in.
            inv_sfmin = env.inv_sfmin
            _, ur, _, ui = _uv_chain(ar * inv_sfmin, ai * inv_sfmin)
            steps = (ScaleStep.complex_(one / ur, neg / ui), ScaleStep.real(inv_sfmin))
            return ScalePlan(steps, CaseTag.FULL_SMALL, 4)

        # With a part of at least sfmin, rounding keeps |ur| and |ui| at
        # least sfmin too, so only the large end of the range is left.
        r1, ur, r2, ui = _uv_chain(ar, ai)
        if safe_range(ur, env) and safe_range(ui, env):
            steps = (ScaleStep.complex_(one / ur, neg / ui),)
            tag = CaseTag.FULL_SAFE
        elif np.isinf(ar) or np.isinf(ai):
            # ur/ui are both infinite or both NaN; apply them directly so
            # infinities map to zero factors and NaNs propagate.
            steps = (ScaleStep.complex_(one / ur, neg / ui),)
            tag = CaseTag.FULL_INF_OPERAND
        elif np.isinf(ur) or np.isinf(ui):
            # Spurious overflow with finite a: rebuild sfmin-scaled ur/ui.
            # sfmin*r is a power-of-two rescale of the already-computed
            # ratio, so every intermediate stays near sfmin*|u|.
            urs = sfmin * ar + ai * (sfmin * r1)
            uis = sfmin * ai + ar * (sfmin * r2)
            steps = (
                ScaleStep.real(sfmin),
                ScaleStep.complex_(one / urs, neg / uis),
            )
            tag = CaseTag.FULL_INF_RESCUE
        elif abs(ur) > env.inv_sfmin or abs(ui) > env.inv_sfmin:
            steps = (
                ScaleStep.real(sfmin),
                ScaleStep.complex_(one / (sfmin * ur), neg / (sfmin * ui)),
            )
            tag = CaseTag.FULL_LARGE
        else:
            # ur or ui is NaN with finite a (a NaN part): propagate.
            steps = (ScaleStep.complex_(one / ur, neg / ui),)
            tag = CaseTag.FULL_SAFE
        return ScalePlan(steps, tag, 4)

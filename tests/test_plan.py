import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crscl import (
    CaseTag,
    Precision,
    StepKind,
    StridedVector,
    crscl,
    fp_env,
    gamma,
    reciprocal_plan,
)
from crscl.plan import _uv_chain

ENV32 = fp_env(Precision.BINARY32)
ENV64 = fp_env(Precision.BINARY64)


def factors(plan):
    return [(float(s.re), float(s.im)) for s in plan.steps]


class TestAxisCases:
    def test_real_safe(self):
        plan = reciprocal_plan(complex(4.0, 0.0), ENV32)
        assert plan.case is CaseTag.REAL_DENOMINATOR
        assert plan.division_count == 1
        (step,) = plan.steps
        assert step.kind is StepKind.REAL_FACTOR
        assert step.re == np.float32(0.25)

    def test_imaginary_safe(self):
        # 1/(2i) = -0.5i: a single imaginary factor.
        plan = reciprocal_plan(complex(0.0, 2.0), ENV32)
        assert plan.case is CaseTag.IMAGINARY_DENOMINATOR
        assert plan.division_count == 1
        (step,) = plan.steps
        assert step.kind is StepKind.IMAGINARY_FACTOR
        assert step.im == np.float32(-0.5)

    def test_real_below_sfmin_two_steps(self):
        v = np.float32(2.0**-140)
        plan = reciprocal_plan(complex(float(v), 0.0), ENV32)
        assert plan.case is CaseTag.REAL_DENOMINATOR
        assert plan.division_count == 1
        s0, s1 = plan.steps
        assert s0.re == np.float32(2.0**-126) / v  # sfmin/v = 2^14
        assert s1.kind is StepKind.REAL_FACTOR
        assert s1.re == ENV32.inv_sfmin
        # product of the two factors is 1/v exactly (powers of two)
        assert float(s0.re) * float(s1.re) == 1.0 / float(v)

    def test_real_above_inv_sfmin_two_steps(self):
        v = 2.0**1023
        plan = reciprocal_plan(complex(v, 0.0), ENV64)
        assert plan.case is CaseTag.REAL_DENOMINATOR
        s0, s1 = plan.steps
        assert s0.re == ENV64.sfmin
        assert float(s1.re) == 0.5  # 1/(sfmin*v)


class TestFullCases:
    def test_full_safe_three_four(self):
        plan = reciprocal_plan(complex(3.0, 4.0), ENV64)
        assert plan.case is CaseTag.FULL_SAFE
        assert plan.division_count == 4
        (step,) = plan.steps
        assert step.kind is StepKind.COMPLEX_FACTOR
        # 1/(3+4i) = 0.12 - 0.16i
        assert float(step.re) == pytest.approx(0.12, rel=1e-15)
        assert float(step.im) == pytest.approx(-0.16, rel=1e-15)

    def test_full_small(self):
        a = complex(2.0**-130, 2.0**-130)
        plan = reciprocal_plan(a, ENV32)
        assert plan.case is CaseTag.FULL_SMALL
        s0, s1 = plan.steps
        # ur = ui = 2^-129; sfmin/ur = 2^3
        assert factors(plan)[0] == (8.0, -8.0)
        assert s1.re == ENV32.inv_sfmin

    def test_full_large(self):
        a = complex(2.0**126, 2.0**126)
        plan = reciprocal_plan(a, ENV32)
        assert plan.case is CaseTag.FULL_LARGE
        s0, s1 = plan.steps
        assert s0.re == ENV32.sfmin
        # sfmin*ur = 2^-126 * 2^127 = 2
        assert factors(plan)[1] == (0.5, -0.5)

    def test_full_inf_rescue(self):
        # ur = 2^127 + 2^127 overflows binary32 although a is finite.
        a = complex(2.0**127, 2.0**127)
        plan = reciprocal_plan(a, ENV32)
        assert plan.case is CaseTag.FULL_INF_RESCUE
        s0, s1 = plan.steps
        assert s0.re == ENV32.sfmin
        assert factors(plan)[1] == (0.25, -0.25)
        assert all(np.isfinite(s.re) and np.isfinite(s.im) for s in plan.steps)

    def test_full_inf_operand_gives_zero_factors(self):
        plan = reciprocal_plan(complex(math.inf, 1.0), ENV32)
        assert plan.case is CaseTag.FULL_INF_OPERAND
        (step,) = plan.steps
        assert float(step.re) == 0.0
        assert float(step.im) == 0.0


class TestSpecialOperands:
    def test_zero_denominator_infinite_factor(self):
        plan = reciprocal_plan(complex(0.0, 0.0), ENV32)
        assert np.isinf(plan.steps[0].re)

    def test_nan_part_propagates(self):
        plan = reciprocal_plan(complex(math.nan, 5.0), ENV32)
        assert any(np.isnan(s.re) or np.isnan(s.im) for s in plan.steps)

    def test_double_infinity_propagates_nan(self):
        plan = reciprocal_plan(complex(math.inf, -math.inf), ENV32)
        assert plan.case is CaseTag.FULL_INF_OPERAND
        assert any(np.isnan(s.re) or np.isnan(s.im) for s in plan.steps)


# One denominator per case, as (binary32 parts, binary64 parts).
CASE_DENOMINATORS = {
    CaseTag.REAL_DENOMINATOR: ((4.0, 0.0), (4.0, 0.0)),
    CaseTag.IMAGINARY_DENOMINATOR: ((0.0, 2.0), (0.0, 2.0)),
    CaseTag.FULL_SAFE: ((3.0, -7.0), (3.0, -7.0)),
    CaseTag.FULL_SMALL: ((3 * 2.0**-132, 2.0**-130), (3 * 2.0**-1028, 2.0**-1026)),
    CaseTag.FULL_INF_OPERAND: ((math.inf, 3.0), (math.inf, 3.0)),
    CaseTag.FULL_INF_RESCUE: ((2.0**127, 3 * 2.0**126), (2.0**1023, 3 * 2.0**1022)),
    CaseTag.FULL_LARGE: ((2.0**126, 3 * 2.0**124), (2.0**1022, 3 * 2.0**1020)),
}


def _chain(ar, ai):
    """The ur/ui chain one rounded operation at a time, as the paper writes it."""
    with np.errstate(all="ignore"):
        r1 = ai / ar
        t1 = ai * r1
        ur = ar + t1
        r2 = ar / ai
        t2 = ar * r2
        ui = ai + t2
    return r1, t1, ur, r2, t2, ui


def _expected_steps(case, ar, ai, env):
    """(kind, re, im) of each step, built from the explicit chain."""
    one, sfmin, inv_sfmin = env.ftype(1.0), env.sfmin, env.inv_sfmin
    zero = env.ftype(0.0)
    with np.errstate(all="ignore"):
        if case is CaseTag.REAL_DENOMINATOR:
            return [("real", one / ar, zero)]
        if case is CaseTag.IMAGINARY_DENOMINATOR:
            return [("imaginary", zero, -(one / ai))]
        if case is CaseTag.FULL_SMALL:
            _, _, ur, _, _, ui = _chain(ar * inv_sfmin, ai * inv_sfmin)
            return [("complex", one / ur, -(one / ui)), ("real", inv_sfmin, zero)]
        r1, _, ur, r2, _, ui = _chain(ar, ai)
        if case is CaseTag.FULL_INF_RESCUE:
            ur = sfmin * ar + ai * (sfmin * r1)
            ui = sfmin * ai + ar * (sfmin * r2)
            return [("real", sfmin, zero), ("complex", one / ur, -(one / ui))]
        if case is CaseTag.FULL_LARGE:
            return [("real", sfmin, zero), ("complex", one / (sfmin * ur), -(one / (sfmin * ui)))]
        return [("complex", one / ur, -(one / ui))]


@pytest.mark.parametrize("env", [ENV32, ENV64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("case", list(CASE_DENOMINATORS), ids=lambda c: c.value)
def test_plan_chain_is_the_rounded_uv_chain(env, case):
    """Every factor comes from the explicit chain (of the parts scaled by
    inv_sfmin for FULL_SMALL), bit for bit and in the working type."""
    parts32, parts64 = CASE_DENOMINATORS[case]
    ar, ai = (env.ftype(v) for v in (parts32 if env is ENV32 else parts64))
    plan = reciprocal_plan(complex(ar, ai), env)
    assert plan.case is case
    expected = _expected_steps(case, ar, ai, env)
    got = [(s.kind.value, s.re, s.im) for s in plan.steps]
    assert [type(v) for _, re, im in got for v in (re, im)] == [env.ftype] * 2 * len(got)
    assert [(k, re.tobytes(), im.tobytes()) for k, re, im in got] == [
        (k, re.tobytes(), im.tobytes()) for k, re, im in expected
    ]


# The first FULL_SMALL denominator of the binary32 tiny profile at seed 0,
# whose unscaled t1 = ai*r1 is subnormal and inexact (the paper's Remark 1),
# and one with parts in a power-of-two ratio, whose unscaled chain is exact.
# The binary64 pair is the binary32 one times 2^-896.
REMARK1 = (float.fromhex("0x1.044p-139"), float.fromhex("0x1.dp-140"))
EXACT_CHAIN = (2.0**-130, 2.0**-131)


@pytest.mark.parametrize("env", [ENV32, ENV64], ids=["binary32", "binary64"])
def test_full_small_prescale_on_remark1_denominators(env):
    shift = 0 if env is ENV32 else -896
    remark1, exact = (tuple(env.ftype(math.ldexp(v, shift)) for v in p) for p in (REMARK1, EXACT_CHAIN))

    # Exact unscaled chain: the prescale leaves the factors' bits as they were.
    ar, ai = exact
    _, _, ur, _, _, ui = _chain(ar, ai)
    plan = reciprocal_plan(complex(ar, ai), env)
    assert plan.case is CaseTag.FULL_SMALL
    s0, s1 = plan.steps
    assert (s0.re.tobytes(), s0.im.tobytes()) == (
        (env.sfmin / ur).tobytes(),
        (-(env.sfmin / ui)).tobytes(),
    )
    assert (s1.kind, s1.re) == (StepKind.REAL_FACTOR, env.inv_sfmin)

    # Remark 1: the unscaled chain rounds inexactly, the scaled plan does not.
    ar, ai = remark1
    r1, t1 = _chain(ar, ai)[:2]
    assert Fraction(float(ai)) * Fraction(float(r1)) != Fraction(float(t1))
    a = complex(ar, ai)
    assert reciprocal_plan(a, env).case is CaseTag.FULL_SMALL
    xs = [complex(2**-20, 2**-20), complex(2**-16, 0.0), complex(0.0, 2**-16),
          complex(3.0**-14, -(5.0**-9)), complex(0.75 * 2**-14, 0.3 * 2**-14)]
    x = np.array(xs, dtype=env.ctype)
    y = x.copy()
    crscl(StridedVector.wrap(y), a, env)
    bound_sq = Fraction(math.sqrt(2.0) * gamma(6, env)) ** 2
    far, fai = Fraction(float(ar)), Fraction(float(ai))
    den = far * far + fai * fai
    for xv, yv in zip(x, y):
        xr, xi = Fraction(float(xv.real)), Fraction(float(xv.imag))
        qr, qi = (xr * far + xi * fai) / den, (xi * far - xr * fai) / den
        yr, yi = Fraction(float(yv.real)), Fraction(float(yv.imag))
        assert (yr - qr) ** 2 + (yi - qi) ** 2 <= bound_sq * (qr * qr + qi * qi), (xv, yv)


def test_compute_uv_formula():
    ar, ai = 3.0, 4.0
    _, ur, _, ui = _uv_chain(np.float64(ar), np.float64(ai))
    r1 = ai / ar
    r2 = ar / ai
    assert float(ur) == ar + ai * r1
    assert float(ui) == ai + ar * r2


finite32 = st.floats(
    min_value=2.0**-140, max_value=2.0**127, allow_nan=False, width=32
)
signed32 = st.tuples(finite32, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])

# Invertibility needs normal parts: a subnormal part next to a normal one
# can push a scaled factor out of range even though 1/a is representable.
normal32 = st.floats(
    min_value=2.0**-126, max_value=2.0**127, allow_nan=False, width=32
)
signed_normal32 = st.tuples(normal32, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(re=signed32, im=signed32)
@settings(max_examples=300, deadline=None)
def test_plan_shape_is_total(re, im):
    """Every finite operand yields 1-2 steps and at most 4 divisions."""
    plan = reciprocal_plan(complex(re, im), ENV32)
    assert 1 <= len(plan.steps) <= 2
    assert plan.division_count <= 4
    assert plan.case in CaseTag
    assert all(not (np.isnan(s.re) or np.isnan(s.im)) for s in plan.steps)


@given(re=signed_normal32, im=signed_normal32)
@settings(max_examples=300, deadline=None)
def test_plan_inverts_multiplication(re, im):
    """The factor product times a lands near 1 whenever everything is safe."""
    a = complex(re, im)
    plan = reciprocal_plan(a, ENV32)
    prod = complex(1.0, 0.0)
    for s in plan.steps:
        if s.kind is StepKind.REAL_FACTOR:
            prod *= float(s.re)
        elif s.kind is StepKind.IMAGINARY_FACTOR:
            prod *= complex(0.0, float(s.im))
        else:
            prod *= complex(float(s.re), float(s.im))
    z = prod * a
    assert math.isfinite(z.real) and math.isfinite(z.imag)
    assert abs(z - 1.0) < 1e-4

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crscl import CaseTag, Precision, ScaleStep, StepKind, compute_uv, fp_env, reciprocal_plan
from crscl.oracle import _uv_chain_dirty

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


@pytest.mark.parametrize("env", [ENV32, ENV64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("case", list(CASE_DENOMINATORS), ids=lambda c: c.value)
def test_plan_chain_is_the_rounded_uv_chain(env, case):
    parts32, parts64 = CASE_DENOMINATORS[case]
    ar, ai = (env.ftype(v) for v in (parts32 if env is ENV32 else parts64))
    plan = reciprocal_plan(complex(ar, ai), env)
    assert plan.case is case
    if case in (CaseTag.REAL_DENOMINATOR, CaseTag.IMAGINARY_DENOMINATOR):
        assert plan.chain == ()
        return
    with np.errstate(all="ignore"):
        r1 = ai / ar
        t1 = ai * r1
        ur = ar + t1
        r2 = ar / ai
        t2 = ar * r2
        ui = ai + t2
    expected = (r1, t1, ur, r2, t2, ui)
    assert [type(v) for v in plan.chain] == [env.ftype] * 6
    assert [v.tobytes() for v in plan.chain] == [v.tobytes() for v in expected]


def test_uv_chain_dirty_reads_the_plan_chain():
    # First FULL_SMALL denominator of the binary32 tiny profile at seed 0:
    # t1 = ai*r1 is subnormal and inexact (the paper's Remark 1).
    remark1 = complex(float.fromhex("0x1.044p-139"), float.fromhex("0x1.dp-140"))
    # Parts in a power-of-two ratio: every subnormal intermediate is exact.
    exact = complex(2.0**-130, 2.0**-131)
    for a, dirty in ((remark1, True), (exact, False)):
        plan = reciprocal_plan(a, ENV32)
        assert plan.case is CaseTag.FULL_SMALL
        assert _uv_chain_dirty(plan, a, ENV32) is dirty


def test_compute_uv_formula():
    ar, ai = 3.0, 4.0
    ur, ui = compute_uv(complex(ar, ai), ENV64)
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

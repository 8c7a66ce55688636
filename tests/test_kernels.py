import math

import numpy as np
import pytest

from crscl import (
    CaseTag,
    Division,
    FlopCounter,
    Precision,
    ScalePlan,
    ScaleStep,
    StepKind,
    StridedVector,
    crscl,
    fp_env,
    naive_div_scale,
    reciprocal_plan,
    rscl,
    scal_complex,
    scal_imaginary,
    scal_real,
)
from crscl.vector import BLOCK

ENV32 = fp_env(Precision.BINARY32)
ENV64 = fp_env(Precision.BINARY64)


def cvec(vals, env=ENV32):
    return np.array(vals, dtype=env.ctype)


class TestStridedVector:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            StridedVector(np.zeros((2, 2), dtype=np.complex64))

    def test_validates_extent(self):
        with pytest.raises(ValueError):
            StridedVector(np.zeros(4, dtype=np.complex64), offset=1, stride=2, n=3)

    def test_view_is_writable_alias(self):
        buf = cvec([1, 2, 3, 4, 5])
        v = StridedVector(buf, offset=1, stride=2, n=2)
        v.view()[:] = 0
        assert list(buf) == [1, 0, 3, 0, 5]

    def test_untouched_elements_are_bit_identical(self):
        buf = cvec([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j, 9 + 10j])
        before = buf.copy()
        v = StridedVector(buf, offset=0, stride=2, n=3)
        scal_real(v, np.float32(2.0))
        assert np.array_equal(buf[[1, 3]].view(np.uint64), before[[1, 3]].view(np.uint64))
        assert list(buf[[0, 2, 4]]) == [2 + 4j, 10 + 12j, 18 + 20j]


class TestKernels:
    def test_scal_real(self):
        x = cvec([1 + 2j, -3 + 4j])
        scal_real(StridedVector.wrap(x), np.float32(0.5))
        assert list(x) == [0.5 + 1j, -1.5 + 2j]
        c = ScalePlan((ScaleStep.real(np.float32(0.5)),), CaseTag.REAL_DENOMINATOR).cost(len(x))
        assert c.real_mul == 4 and c.real_add == 0

    def test_scal_imaginary(self):
        # (3+4i) * 0.25i = -1 + 0.75i
        x = cvec([3 + 4j])
        scal_imaginary(StridedVector.wrap(x), np.float32(0.25))
        assert x[0] == np.complex64(-1 + 0.75j)

    def test_scal_imaginary_avoids_nan_on_infinite_element(self):
        # An infinite part must not meet a zero multiplier: no 0*Inf NaN.
        x = cvec([complex(math.inf, 0.0)])
        scal_imaginary(StridedVector.wrap(x), np.float32(-0.5))
        assert x[0].real == 0.0
        assert x[0].imag == -math.inf

    def test_scal_complex(self):
        x = cvec([2 + 1j], ENV64)
        scal_complex(StridedVector.wrap(x), 3.0, -2.0)
        assert x[0] == complex(2 + 1j) * complex(3, -2)
        c = ScalePlan((ScaleStep.complex_(3.0, -2.0),), CaseTag.FULL_SAFE).cost(len(x))
        assert c.real_mul == 4 and c.real_add == 2


class TestRscl:
    def test_safe_divisor(self):
        x = cvec([4 + 8j])
        rscl(StridedVector.wrap(x), 4.0, ENV32)
        assert x[0] == np.complex64(1 + 2j)

    def test_tiny_divisor_reaches_huge_result(self):
        # 2^-20 / 2^-140 = 2^120: a plain 1/a would overflow to Inf.
        x = cvec([complex(2.0**-20, 0.0)])
        rscl(StridedVector.wrap(x), np.float32(2.0**-140), ENV32)
        assert x[0].real == np.float32(2.0**120)

    def test_huge_divisor_reaches_subnormal_result(self):
        # 1 / 2^127: the result 2^-127 is subnormal yet exact.
        x = cvec([1 + 0j])
        rscl(StridedVector.wrap(x), np.float32(2.0**127), ENV32)
        assert x[0].real == np.float32(2.0**-127)

    def test_counts_one_division(self):
        for a in (3.0, 2.0**-140, 2.0**127):
            c = FlopCounter()
            x = cvec([1 + 1j, 2 + 2j])
            rscl(StridedVector.wrap(x), np.float32(a), ENV32, c)
            assert c.real_div == 1
            assert c.complex_div == 0


class TestCrscl:
    def test_exact_quotient_power_of_two_denominator(self):
        # ur = ui = 2 exactly for a = 1+1i, so the whole plan is exact:
        # [2, 2i] / (1+1i) = [1-1i, 1+1i].
        x = cvec([2 + 0j, 2j], ENV64)
        crscl(StridedVector.wrap(x), complex(1, 1), ENV64)
        assert x[0] == 1 - 1j
        assert x[1] == 1 + 1j

    def test_safe_quotient_close_to_reference(self):
        x = cvec([25 + 0j, 25j], ENV64)
        crscl(StridedVector.wrap(x), complex(3, 4), ENV64)
        assert x[0] == pytest.approx(3 - 4j, rel=1e-14)
        assert x[1] == pytest.approx(4 + 3j, rel=1e-14)

    def test_division_budget(self):
        c = FlopCounter()
        x = cvec([1 + 1j] * 8)
        crscl(StridedVector.wrap(x), complex(2.0**127, 2.0**127), ENV32, c)
        assert c.real_div <= 4
        assert c.complex_div == 0

    def test_huge_denominator_no_spurious_zero(self):
        # 1/(2^127+2^127i) has normal parts; naive engines flush them.
        a = complex(2.0**127, 2.0**127)
        x = cvec([1 + 0j])
        crscl(StridedVector.wrap(x), a, ENV32)
        assert x[0].real != 0 and x[0].imag != 0
        q = 1.0 / a
        assert float(x[0].real) == pytest.approx(q.real, rel=1e-6)
        assert float(x[0].imag) == pytest.approx(q.imag, rel=1e-6)

    def test_tiny_denominator_no_spurious_overflow(self):
        # Quotient modulus ~2^119: representable, but 1/ur alone overflows.
        a = complex(2.0**-130, 2.0**-130)
        x = cvec([complex(2.0**-10 * 0.5, 2.0**-10 * 0.25)])
        crscl(StridedVector.wrap(x), a, ENV32)
        assert np.isfinite(x[0].real) and np.isfinite(x[0].imag)
        q = complex(2.0**-10 * 0.5, 2.0**-10 * 0.25) / a
        assert float(x[0].real) == pytest.approx(q.real, rel=1e-6)
        assert float(x[0].imag) == pytest.approx(q.imag, rel=1e-6)

    def test_empty_vector(self):
        x = cvec([])
        plan = crscl(StridedVector.wrap(x), complex(3, 4), ENV32)
        assert len(x) == 0
        assert plan.division_count <= 4


class TestNaiveEngines:
    def test_smith_matches_reference_in_safe_range(self):
        x = cvec([1.5 - 2.25j, -0.75 + 3j], ENV64)
        a = complex(3, 4)
        naive_div_scale(StridedVector.wrap(x), a, Division.SMITH, ENV64)
        assert x[0] == pytest.approx(complex(1.5, -2.25) / a, rel=1e-15)

    def test_textbook_matches_reference_in_safe_range(self):
        x = cvec([1.5 - 2.25j], ENV64)
        a = complex(3, 4)
        naive_div_scale(StridedVector.wrap(x), a, Division.TEXTBOOK, ENV64)
        assert x[0] == pytest.approx(complex(1.5, -2.25) / a, rel=1e-15)

    def test_smith_flushes_huge_denominator(self):
        # The failure signature crscl exists to fix: quotient flushed to 0.
        a = complex(2.0**127, 2.0**127)
        x = cvec([complex(2.0**127, 0.0)])
        naive_div_scale(StridedVector.wrap(x), a, Division.SMITH, ENV32)
        assert x[0] == 0

    def test_counts_complex_divisions(self):
        c = FlopCounter()
        x = cvec([1 + 1j] * 5)
        naive_div_scale(StridedVector.wrap(x), complex(3, 4), Division.SMITH, ENV32, c)
        assert c.complex_div == 5
        assert c.real_div == 15  # 3 per element for Smith


# --------------------------------------------------------------------------
# Bit identity of the blocked kernel against each element's expression
# --------------------------------------------------------------------------


def reference_scale(x, steps):
    """Each step's per-element expression, in operand order, applied to a
    contiguous copy of the addressed elements."""
    re, im = x.real.copy(), x.imag.copy()
    with np.errstate(all="ignore"):
        for s in steps:
            if s.kind is StepKind.REAL_FACTOR:
                re, im = re * s.re, im * s.re
            elif s.kind is StepKind.IMAGINARY_FACTOR:
                re, im = -(im * s.im), re * s.im
            else:
                re, im = (re * s.re) - (im * s.im), (re * s.im) + (im * s.re)
    out = np.empty_like(x)
    out.real, out.imag = re, im
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def special_values(n, env, rng):
    """n complex values mixing signed zeros, infinities, NaN, subnormals,
    extremes and random normals, each part drawn independently."""
    f = np.finfo(env.ftype)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, f.smallest_subnormal, -f.smallest_subnormal,
         f.tiny / 3, f.tiny, f.max, -f.max, 1.0],
        dtype=env.ftype,
    )
    with np.errstate(all="ignore"):
        normal = (rng.standard_normal(2 * n) * np.exp2(rng.integers(-30, 30, 2 * n))).astype(env.ftype)
    pick = rng.random(2 * n) < 0.3
    normal[pick] = specials[rng.integers(0, len(specials), pick.sum())]
    out = np.empty(n, dtype=env.ctype)
    out.real, out.imag = normal[:n], normal[n:]
    return out


def denominators(env):
    """One denominator per plan case and step count, plus zero and NaN."""
    if env.precision is Precision.BINARY32:
        tiny, huge = 2.0**-140, 2.0**126
    else:
        tiny, huge = 2.0**-1030, 2.0**1022
    return [
        3.0, tiny, 1.5 * huge, 0.0,
        3j, complex(0, -tiny), complex(0, 1.5 * huge),
        complex(3, 4), complex(float("nan"), 1.0),
        complex(tiny, tiny / 2), complex(tiny, -3.0),
        complex(float("inf"), 1.0),
        complex(2 * huge, 2 * huge),
        complex(huge, huge / 2),
    ]


@pytest.mark.parametrize("env", [ENV32, ENV64], ids=["b32", "b64"])
def test_blocked_kernel_bit_identity(env):
    rng = np.random.default_rng(20231109)
    plans = [reciprocal_plan(a, env) for a in denominators(env)]
    assert {p.case for p in plans} == set(CaseTag)
    assert {len(p.steps) for p in plans} == {1, 2}
    # Stride 4 too: numpy 2.4.6 negates wrongly in place on a float view
    # with a 16-byte (binary32 stride 2) or 64-byte (binary64 stride 4) step.
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        for stride in (1, 2, 3, 4):
            for offset in (0, 1):
                buf = special_values(offset + stride * n + 1, env, rng)
                sel = slice(offset, offset + stride * n, stride)
                others = np.ones(len(buf), dtype=bool)
                others[sel] = False
                for a, plan in zip(denominators(env), plans):
                    y = buf.copy()
                    counter = FlopCounter()
                    crscl(StridedVector(y, offset, stride, n), a, env, counter)
                    expected = reference_scale(buf[sel], plan.steps)
                    where = f"n={n} stride={stride} offset={offset} case={plan.case.value}"
                    assert np.array_equal(bits(y[sel]), bits(expected)), where
                    assert np.array_equal(bits(y[others]), bits(buf[others])), where
                    muls = sum(4 if s.kind is StepKind.COMPLEX_FACTOR else 2 for s in plan.steps)
                    adds = sum(2 for s in plan.steps if s.kind is StepKind.COMPLEX_FACTOR)
                    assert (counter.real_mul, counter.real_add) == (muls * n, adds * n), where
                    assert counter.real_div == plan.division_count, where


@pytest.mark.parametrize("stride", [1, 2])
def test_rscl_bit_identity_across_blocks(stride):
    rng = np.random.default_rng(7)
    n = 2 * BLOCK + 3
    for env in (ENV32, ENV64):
        buf = special_values(stride * n, env, rng)
        for a in denominators(env)[:4]:
            y = buf.copy()
            rscl(StridedVector(y, 0, stride, n), a, env)
            expected = reference_scale(buf[::stride], reciprocal_plan((a, 0.0), env).steps)
            assert np.array_equal(bits(y[::stride]), bits(expected))


def test_wider_factor_keeps_wide_intermediates():
    # binary64 factors on a binary32 vector: every product and sum stays in
    # binary64 and is rounded once, when stored, as the expression does.
    x = (np.arange(1, 41) * (1.3 - 0.7j)).astype(np.complex64)
    cr, ci = np.float64(1 / 3), np.float64(0.1)
    y = x.copy()
    scal_complex(StridedVector(y, 1, 2, 19), cr, ci)
    re, im = x[1::2][:19].real, x[1::2][:19].imag
    assert np.array_equal(y[1::2][:19].real, ((re * cr) - (im * ci)).astype(np.float32))
    assert np.array_equal(y[1::2][:19].imag, ((re * ci) + (im * cr)).astype(np.float32))

import math
import warnings

import numpy as np
import pytest

from crscl import (
    CaseProfile,
    CaseTag,
    DenseMatrix,
    Precision,
    ProfileName,
    StridedVector,
    apply_plan,
    crscl,
    fp_env,
    gamma,
    gen_cases,
    getf2,
    reciprocal_plan,
    rscl,
)


@pytest.fixture(params=list(Precision), ids=lambda p: p.value)
def env(request):
    return fp_env(request.param)


def test_constants_binary32():
    env = fp_env(Precision.BINARY32)
    assert env.sfmin == np.float32(2.0**-126)
    assert env.eps == np.float32(2.0**-24)
    assert env.min_subnormal == np.float32(2.0**-149)
    assert env.inv_sfmin == np.float32(2.0**126)
    assert env.overflow == np.finfo(np.float32).max
    assert env.ftype is np.float32
    assert env.ctype is np.complex64


def test_constants_binary64():
    env = fp_env(Precision.BINARY64)
    assert env.sfmin == 2.0**-1022
    assert env.eps == 2.0**-53
    assert env.min_subnormal == 5e-324
    assert env.inv_sfmin == 2.0**1022


def test_constants_are_self_consistent(env):
    # 1/sfmin must be exact and finite; sfmin*inv_sfmin == 1 exactly.
    f = env.ftype
    assert f(1.0) / env.sfmin == env.inv_sfmin
    assert env.sfmin * env.inv_sfmin == f(1.0)
    assert np.isfinite(env.inv_sfmin)
    # min_subnormal/2 is not representable: rounds to zero.
    assert env.min_subnormal * f(0.5) == f(0.0)


def test_gamma_values(env):
    u = float(env.eps)
    assert gamma(1, env) == pytest.approx(u / (1 - u), rel=1e-15)
    assert gamma(6, env) == pytest.approx(6 * u / (1 - 6 * u), rel=1e-15)
    assert gamma(2, env) > gamma(1, env)


def test_gamma_rejects_bad_k(env):
    with pytest.raises(ValueError):
        gamma(0, env)
    with pytest.raises(ValueError):
        gamma(int(1.0 / float(env.eps)) + 1, env)


def test_precision_parse():
    assert Precision.parse("binary32") is Precision.BINARY32
    assert Precision.parse("BINARY64") is Precision.BINARY64
    with pytest.raises(ValueError):
        Precision.parse("binary16")


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
def test_public_calls_leave_the_fp_environment_clean(precision):
    """Each public call keeps its floating-point exceptions inside its own
    np.errstate: no RuntimeWarning escapes, even where numpy would warn on
    underflow, and the caller's error state is the same afterwards.  The
    special profile's 15 x 15 grid of zero, infinite, NaN, subnormal and
    extreme parts reaches every plan case."""
    env = fp_env(precision)
    runs, seen = [], set()
    for a, x in gen_cases(CaseProfile(ProfileName.SPECIAL_VALUES, seed=2, count=225), precision):
        plan = reciprocal_plan(a, env)
        seen.add(plan.case)
        m = DenseMatrix.from_rows([[a, 1], [x[0] if len(x) else 0.5, 1]], precision)
        runs += [
            lambda a=a: reciprocal_plan(a, env),
            lambda a=a, x=x: crscl(StridedVector.wrap(x.copy()), a, env),
            lambda a=a, x=x: rscl(StridedVector.wrap(x.copy()), a.real, env),
            lambda x=x, plan=plan: apply_plan(StridedVector.wrap(x.copy()), plan),
            lambda m=m: getf2(m, env),
        ]
    assert seen == set(CaseTag)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        for run in runs:
            run()
            assert np.geterr() == before

import math
from fractions import Fraction

import numpy as np
import pytest

from crscl import (
    CaseProfile,
    StridedVector,
    apply_plan,
    CaseTag,
    Engine,
    Precision,
    ProfileName,
    error_report,
    fp_env,
    gen_cases,
    reciprocal_plan,
    ulp_distance,
)
from crscl.oracle import _apply_plans, _exact_quotients_wide, _normwise_error, _part_error
from crscl.vector import BLOCK, apply_step

ENV32 = fp_env(Precision.BINARY32)


class TestUlpDistance:
    def test_equal_is_zero(self):
        assert ulp_distance(1.0, 1.0, Precision.BINARY32) == 0

    def test_adjacent_is_one(self):
        q = float(np.nextafter(np.float32(1.0), np.float32(2.0)))
        assert ulp_distance(1.0, q, Precision.BINARY32) == 1

    def test_two_steps_above_one(self):
        # spacing in [1, 2) is 2^-23, so 1 + 2^-22 is two representables up
        assert ulp_distance(1.0, 1.0 + 2.0**-22, Precision.BINARY32) == 2

    def test_counts_across_zero_from_signed_zero(self):
        assert ulp_distance(0.0, float(np.float32(1e-45)), Precision.BINARY32) == 1
        assert ulp_distance(-0.0, 0.0, Precision.BINARY32) == 0

    def test_subnormal_spacing(self):
        env = ENV32
        assert (
            ulp_distance(float(env.min_subnormal), 2 * float(env.min_subnormal), Precision.BINARY32)
            == 1
        )

    def test_incomparable(self):
        assert ulp_distance(math.nan, 1.0, Precision.BINARY32) is None
        assert ulp_distance(-1.0, 1.0, Precision.BINARY32) is None

    def test_binary64(self):
        assert ulp_distance(1.0, 1.0 + 2.0**-52, Precision.BINARY64) == 1

    @pytest.mark.filterwarnings("error")
    def test_operand_beyond_range_is_quiet(self):
        # 1e300 rounds to +inf in binary32: the distance is +inf's bits
        # minus 1.0's.
        assert ulp_distance(1e300, 1.0, Precision.BINARY32) == 0x7F800000 - 0x3F800000


class TestRelativeError:
    def test_zero_error(self):
        assert _normwise_error(1.0, 2.0, 1.0, 2.0, math.hypot(1.0, 2.0)) == 0.0

    def test_value(self):
        assert _normwise_error(3.0, 0.0, 4.0, 0.0, 4.0) == pytest.approx(0.25)

    def test_parts(self):
        # The helper runs under its caller's errstate, as in error_report.
        with np.errstate(all="ignore"):
            assert _part_error(1.0, 2.0) == 0.5
            assert _part_error(2.0, 2.0) == 0.0
            assert _part_error(0.0, 0.0) == 0.0
            assert _part_error(1.0, 0.0) == math.inf


def exact_quotient(x, a, precision):
    """The oracle's wide quotient of one element, x/a."""
    return _exact_quotients_wide(np.array([x], dtype=precision.ctype), a, precision)[0]


class TestExactReference:
    def test_safe_quotient_binary32(self):
        q = exact_quotient(1 + 0j, np.complex64(3 + 4j), Precision.BINARY32)
        assert np.complex64(q) == np.complex64(1.0 / complex(3, 4))

    def test_rational_path_binary64(self):
        # 1/3 rounded once, not through an intermediate rounding of 1/3's parts
        q = exact_quotient(complex(1, 0), complex(3, 0), Precision.BINARY64)
        assert q.real == 1.0 / 3.0
        assert q.imag == 0.0

    def test_round_trip_on_exact_products(self):
        # x*a exact in binary32 => dividing back recovers x to <= 1 ulp/part
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = rng.integers(-1000, 1001, size=4)
            if m[2] == 0 and m[3] == 0:
                continue
            e = int(rng.integers(-10, 11))
            x = np.complex64(complex(int(m[0]), int(m[1])) * 2.0**e)
            a = np.complex64(complex(int(m[2]), int(m[3])) * 2.0**e)
            xa = np.complex64(complex(x) * complex(a))
            back = np.complex64(exact_quotient(xa, a, Precision.BINARY32))
            for got, want in ((back.real, x.real), (back.imag, x.imag)):
                d = ulp_distance(got, want, Precision.BINARY32)
                assert d is not None and d <= 1

    @pytest.mark.filterwarnings("error")
    def test_quotient_beyond_binary32_rounds_without_warning(self):
        # The wide quotient 2^140 is finite; only the target cannot hold it.
        q = exact_quotient(1, np.complex64(2.0**-140), Precision.BINARY32)
        assert q == 2.0**140

    def test_extreme_quotient_binary64(self):
        q = exact_quotient(complex(1, 0), complex(2.0**-1000, 0), Precision.BINARY64)
        assert q.real == 2.0**1000

    def test_quotient_beyond_range_rounds_to_infinity(self):
        # 1 / 2^-1040 = 2^1040 exceeds binary64: the reference says so
        q = exact_quotient(complex(1, 0), complex(2.0**-1040, 0), Precision.BINARY64)
        assert q.real == math.inf


def _fraction_quotient(x: complex, a: complex):
    """x/a in Fraction arithmetic: the exact parts, and each rounded once
    to binary64."""
    fxr, fxi, far, fai = map(Fraction, (x.real, x.imag, a.real, a.imag))
    den = far * far + fai * fai
    exact = ((fxr * far + fxi * fai) / den, (fxi * far - fxr * fai) / den)
    rounded = []
    for q in exact:
        try:
            rounded.append(float(q))
        except OverflowError:
            rounded.append(math.inf if q > 0 else -math.inf)
    return exact, rounded


def _draw_binary64_parts(rng, n):
    """n finite binary64 values over the whole format: about 10% signed
    zeros, 15% subnormals and the rest normal with a uniform exponent."""
    kind = rng.random(n)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    mant = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
    expo = rng.integers(1, 2047, size=n, dtype=np.uint64)
    expo[kind < 0.25] = 0
    mant[kind < 0.10] = 0
    return (sign | (expo << np.uint64(52)) | mant).view(np.float64)


def test_integer_quotients_match_fraction_reference():
    # Binary64 wide quotients against an independent Fraction reference,
    # bit for bit and with the sign of zero, on operand sets (xr, xi, ar,
    # ai) spanning the whole format: 10 elements x per denominator a.
    rng = np.random.default_rng(19)
    sets = mismatches = 0
    seen = dict.fromkeys(("subnormal_part", "zero_part", "overflow", "subnormal", "underflow_to_zero"), 0)
    while sets < 40_000:
        ar, ai, *xp = _draw_binary64_parts(rng, 22).tolist()
        if ar == 0 and ai == 0:
            continue
        a = complex(ar, ai)
        x = np.array([complex(r, i) for r, i in zip(xp[0::2], xp[1::2])])
        got = _exact_quotients_wide(x, np.complex128(a), Precision.BINARY64)
        for v, g in zip(x.tolist(), got.tolist()):
            exact, rounded = _fraction_quotient(v, a)
            sets += 1
            mismatches += np.array([g.real, g.imag]).tobytes() != np.array(rounded).tobytes()
            for q, r in zip(exact, rounded):
                seen["overflow"] += math.isinf(r)
                seen["subnormal"] += 0 < abs(r) < 2.0**-1022
                seen["underflow_to_zero"] += r == 0 and q != 0
        for p in (ar, ai, *xp):
            seen["zero_part"] += p == 0
            seen["subnormal_part"] += 0 < abs(p) < 2.0**-1022
    assert mismatches == 0
    assert min(seen.values()) >= 100, seen


class TestGenCases:
    def test_deterministic(self):
        p = CaseProfile(ProfileName.SAFE, seed=42, count=50)
        s1 = [(complex(a), x.tobytes()) for a, x in gen_cases(p, Precision.BINARY32)]
        s2 = [(complex(a), x.tobytes()) for a, x in gen_cases(p, Precision.BINARY32)]
        assert s1 == s2

    def test_seed_changes_stream(self):
        a1 = [complex(a) for a, _ in gen_cases(CaseProfile(ProfileName.SAFE, 1, 20), Precision.BINARY32)]
        a2 = [complex(a) for a, _ in gen_cases(CaseProfile(ProfileName.SAFE, 2, 20), Precision.BINARY32)]
        assert a1 != a2

    def test_count_respected(self):
        for name in ProfileName:
            p = CaseProfile(name, seed=0, count=37)
            assert sum(1 for _ in gen_cases(p, Precision.BINARY32)) == 37

    def test_tiny_profile_hits_small_case(self):
        hits = 0
        for a, _ in gen_cases(CaseProfile(ProfileName.TINY_DENOMINATOR, 0, 200), Precision.BINARY32):
            if reciprocal_plan(a, ENV32).case is CaseTag.FULL_SMALL:
                hits += 1
        assert hits > 100

    def test_profiles_cover_axis_cases(self):
        tags = set()
        for a, _ in gen_cases(CaseProfile(ProfileName.SAFE, 0, 400), Precision.BINARY32):
            tags.add(reciprocal_plan(a, ENV32).case)
        assert CaseTag.REAL_DENOMINATOR in tags
        assert CaseTag.IMAGINARY_DENOMINATOR in tags
        assert CaseTag.FULL_SAFE in tags


class TestErrorReport:
    def test_crscl_clean_on_safe_profile(self):
        rep = error_report(
            Engine.CRSCL, CaseProfile(ProfileName.SAFE, seed=0, count=400), Precision.BINARY32
        )
        assert rep.violations == 0
        assert rep.samples > 0
        assert rep.included > 0
        assert rep.max_rel_err <= rep.bound

    def test_naive_textbook_violates_on_huge_profile(self):
        # the squared denominator overflows long before the quotient does
        rep = error_report(
            Engine.NAIVE_TEXTBOOK,
            CaseProfile(ProfileName.HUGE_DENOMINATOR, seed=0, count=400),
            Precision.BINARY32,
        )
        assert rep.violations > 0
        assert rep.failures  # recorded in hex for reproduction

    def test_histogram_totals(self):
        rep = error_report(
            Engine.CRSCL, CaseProfile(ProfileName.MIXED_EXTREME, seed=0, count=300), Precision.BINARY32
        )
        assert sum(rep.case_histogram.values()) == rep.samples

    @pytest.mark.parametrize(
        "name", [ProfileName.TINY_DENOMINATOR, ProfileName.SUBNORMAL_PARTS], ids=lambda n: n.value
    )
    def test_binary64_small_denominators_within_bound(self, name):
        # Both parts below sfmin: the prescaled plan keeps the uv chain
        # normal, so the bound holds with no chain-based exclusion.
        rep = error_report(Engine.CRSCL, CaseProfile(name, seed=0, count=1000), Precision.BINARY64)
        assert rep.violations == 0
        assert rep.included > 0
        assert rep.max_rel_err <= rep.bound


def _per_case(cases, env):
    """Each case's apply_plan result, and the mid-step mask from its first
    step alone, concatenated."""
    ys, mids = [], []
    for a, x in cases:
        plan = reciprocal_plan(a, env)
        y = x.copy()
        apply_plan(StridedVector.wrap(y), plan)
        ys.append(y)
        mid = np.zeros(len(x), dtype=bool)
        if len(plan.steps) == 2:
            m = x.copy()
            apply_step(StridedVector.wrap(m), plan.steps[0])
            for part in (m.real, m.imag):
                ap = np.abs(part)
                mid |= ~np.isfinite(part) | ((ap != 0) & (ap < env.sfmin))
        mids.append(mid)
    return np.concatenate(ys), np.concatenate(mids)


def _assert_grouped_matches_per_case(cases, env):
    cases = [(a, x) for a, x in cases if len(x)]
    plans = [reciprocal_plan(a, env) for a, _ in cases]
    lengths = np.array([len(x) for _, x in cases])
    x = np.concatenate([x for _, x in cases])
    with np.errstate(all="ignore"):
        y, mid = _apply_plans(x, plans, lengths, env)
    want_y, want_mid = _per_case(cases, env)
    bits = np.uint32 if env.precision is Precision.BINARY32 else np.uint64
    # Bit patterns of each part, so NaN signs and payloads count too.
    for got, want in ((y.real, want_y.real), (y.imag, want_y.imag)):
        assert np.array_equal(np.ascontiguousarray(got).view(bits), np.ascontiguousarray(want).view(bits))
    assert np.array_equal(mid, want_mid)


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize("name", list(ProfileName), ids=lambda n: n.value)
def test_grouped_plans_match_per_case_apply_plan(name, precision):
    cases = gen_cases(CaseProfile(name, seed=3, count=400), precision)
    _assert_grouped_matches_per_case(cases, fp_env(precision))


def test_grouped_plans_match_per_case_past_one_block():
    # More than BLOCK elements share the full_inf_rescue plan kinds, so
    # the group runs in several chunks.
    cases = list(gen_cases(CaseProfile(ProfileName.MIXED_EXTREME, seed=5, count=1500), Precision.BINARY32))
    env = fp_env(Precision.BINARY32)
    rescue = sum(len(x) for a, x in cases if reciprocal_plan(a, env).case is CaseTag.FULL_INF_RESCUE)
    assert rescue > BLOCK
    _assert_grouped_matches_per_case(cases, env)

import math

import numpy as np
import pytest

from crscl import (
    CaseProfile,
    CaseTag,
    Engine,
    Precision,
    ProfileName,
    error_report,
    exact_reciprocal_scale,
    fp_env,
    gen_cases,
    reciprocal_plan,
    relative_error,
    relative_error_parts,
    ulp_distance,
)

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
        assert relative_error(1 + 2j, 1 + 2j) == 0.0

    def test_value(self):
        assert relative_error(3.0, 4.0) == pytest.approx(0.25)

    def test_excluded_references(self):
        assert relative_error(1.0, 0.0) is None
        assert relative_error(1.0, complex(math.inf, 0)) is None
        assert relative_error(1.0, math.nan) is None

    def test_parts(self):
        r = relative_error_parts(complex(1.0, 2.0), complex(2.0, 2.0))
        assert r == (0.5, 0.0)
        assert relative_error_parts(complex(1.0, 0.0), complex(1.0, 0.0)) == (0.0, 0.0)
        assert relative_error_parts(complex(1.0, 1.0), complex(1.0, 0.0))[1] == math.inf


class TestExactReference:
    def test_safe_quotient_binary32(self):
        q = exact_reciprocal_scale(np.complex64(1 + 0j), np.complex64(3 + 4j), Precision.BINARY32)
        assert q == np.complex64(1.0 / complex(3, 4))

    def test_rational_path_binary64(self):
        # 1/3 rounded once, not through an intermediate rounding of 1/3's parts
        q = exact_reciprocal_scale(complex(1, 0), complex(3, 0), Precision.BINARY64)
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
            back = exact_reciprocal_scale(xa, a, Precision.BINARY32)
            for got, want in ((back.real, x.real), (back.imag, x.imag)):
                d = ulp_distance(got, want, Precision.BINARY32)
                assert d is not None and d <= 1

    @pytest.mark.filterwarnings("error")
    def test_quotient_beyond_binary32_rounds_without_warning(self):
        q = exact_reciprocal_scale(1, 2.0**-140, Precision.BINARY32)
        assert q == np.complex64(complex(math.inf, 0.0))

    def test_extreme_quotient_binary64(self):
        q = exact_reciprocal_scale(
            complex(1, 0), complex(2.0**-1000, 0), Precision.BINARY64
        )
        assert q.real == 2.0**1000

    def test_quotient_beyond_range_rounds_to_infinity(self):
        # 1 / 2^-1040 = 2^1040 exceeds binary64: the reference says so
        q = exact_reciprocal_scale(
            complex(1, 0), complex(2.0**-1040, 0), Precision.BINARY64
        )
        assert q.real == math.inf


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

import math

import numpy as np
import pytest

from crscl import (
    DenseMatrix,
    Division,
    Precision,
    backward_error,
    fp_env,
    getf2,
    getf2_naive,
    paper_issue_matrices,
)
from crscl.lu import permuted, _unpack
from crscl.vector import smith_quotient, textbook_quotient


def random_matrix(rng, n, precision=Precision.BINARY32):
    mod = np.exp2(rng.uniform(-3, 3, size=(n, n)))
    ang = rng.uniform(0, 2 * math.pi, size=(n, n))
    a = np.zeros((n, n), dtype=precision.ctype, order="F")
    a.real = (mod * np.cos(ang)).astype(precision.ftype)
    a.imag = (mod * np.sin(ang)).astype(precision.ftype)
    return DenseMatrix(a, precision)


class TestFactorizationBasics:
    def test_identity(self):
        m = DenseMatrix.from_rows(np.eye(3), Precision.BINARY32)
        r = getf2(m)
        assert r.info == 0
        assert r.ipiv == [1, 2, 3]
        assert np.array_equal(r.lu.data, np.eye(3))

    def test_two_by_two_exact(self):
        # [[2, 1], [1, 1]]: no pivoting, L21 = 0.5, U22 = 0.5.
        m = DenseMatrix.from_rows([[2, 1], [1, 1]], Precision.BINARY64)
        r = getf2(m)
        assert r.info == 0
        assert r.lu.data[1, 0] == 0.5
        assert r.lu.data[1, 1] == 0.5

    def test_pivoting_selects_largest_cabs1(self):
        m = DenseMatrix.from_rows([[1, 0], [3 + 4j, 1]], Precision.BINARY32)
        r = getf2(m)
        assert r.ipiv[0] == 2

    def test_singular_matrix_reports_info(self):
        m = DenseMatrix.from_rows([[1, 1], [1, 1]], Precision.BINARY32)
        r = getf2(m)
        assert r.info == 2

    def test_zero_matrix(self):
        m = DenseMatrix.from_rows(np.zeros((3, 3)), Precision.BINARY32)
        r = getf2(m)
        assert r.info == 1

    def test_rectangular_tall(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 6).data[:, :3].copy(order="F")
        m = DenseMatrix(a, Precision.BINARY32)
        r = getf2(m)
        assert r.info == 0
        assert len(r.ipiv) == 3
        assert backward_error(m, r) < 10

    def test_input_not_mutated(self):
        rng = np.random.default_rng(6)
        m = random_matrix(rng, 5)
        before = m.data.copy()
        getf2(m)
        assert np.array_equal(m.data, before)


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
def test_naive_tiny_pivot_divides_each_entry(precision, division):
    # |pivot| < sfmin: getf2_naive divides every subcolumn entry by the
    # pivot instead of scaling by its reciprocal.  Textbook division
    # squares the pivot to zero, so its column is all NaN.  One column, so
    # no later interchange reorders the result.
    env = fp_env(precision)
    f, s = env.ftype, env.sfmin
    column = [0.75 + 0.5j, 0.3 - 0.2j, -0.45 + 0.1j, 0.0, 0.7j, -1 / 3 + 0.6j]
    m = DenseMatrix.from_rows([[c] for c in column], precision)
    m.data *= s
    pr, pi = f(m.data[0, 0].real), f(m.data[0, 0].imag)
    assert np.hypot(pr, pi) < s
    quotient = {Division.SMITH: smith_quotient, Division.TEXTBOOK: textbook_quotient}[division]
    expected = np.array(
        [complex(*quotient(f(e.real), f(e.imag), pr, pi)) for e in m.data[1:, 0]],
        dtype=precision.ctype,
    )
    r = getf2_naive(m, env, division)
    assert r.ipiv[0] == 1
    got = np.ascontiguousarray(r.lu.data[1:, 0])
    bits = np.uint32 if precision is Precision.BINARY32 else np.uint64
    assert np.array_equal(got.view(bits), expected.view(bits))


class TestBackwardError:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_for_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 20)
        for r in (getf2(m), getf2_naive(m)):
            assert r.info == 0
            assert backward_error(m, r) < 10

    def test_binary64_path(self):
        rng = np.random.default_rng(3)
        mod = np.exp2(rng.uniform(-3, 3, size=(8, 8)))
        ang = rng.uniform(0, 2 * math.pi, size=(8, 8))
        a = (mod * np.exp(1j * ang)).astype(np.complex128, order="F")
        m = DenseMatrix(np.asfortranarray(a), Precision.BINARY64)
        r = getf2(m)
        assert backward_error(m, r) < 10

    def test_exact_factorization_is_zero(self):
        m = DenseMatrix.from_rows([[2, 1], [1, 1]], Precision.BINARY64)
        assert backward_error(m, getf2(m)) == 0.0

    @pytest.mark.parametrize(
        "precision, e", [(Precision.BINARY32, -140), (Precision.BINARY64, -1070)], ids=["b32", "b64"]
    )
    def test_non_finite_factors_fail_the_check(self, precision, e):
        # The pivot 2^e + 2^-10*i gets a FULL_INF_RESCUE plan whose factor
        # is not finite (ROADMAP item 1), so getf2 returns L21 = NaN - inf*i
        # with info 0.  The residual is then not finite: backward_error must
        # say inf, not the 0.0 that max(0.0, nan) gives.
        m = DenseMatrix.from_rows([[complex(2.0**e, 2.0**-10), 1], [2.0**-20, 1]], precision)
        r = getf2(m)
        assert r.info == 0
        assert not np.isfinite(r.lu.data).all()
        assert backward_error(m, r) == math.inf
        assert backward_error(m, getf2_naive(m)) <= 10

    @pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, -math.inf), complex(math.inf, math.inf)])
    def test_any_non_finite_factor_gives_inf(self, precision, bad):
        m = random_matrix(np.random.default_rng(4), 6, precision)
        r = getf2_naive(m)
        assert backward_error(m, r) < 10
        r.lu.data[4, 1] = bad
        assert backward_error(m, r) == math.inf


class TestUnpackAndPermute:
    def test_plu_reconstructs(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 10)
        r = getf2(m)
        l, u = _unpack(r)
        pa = permuted(m.data, r.ipiv)
        assert np.max(np.abs(pa - l @ u)) < 1e-4 * np.max(np.abs(m.data))


class TestIssueMatrices:
    def test_issue1_binary32(self):
        env = fp_env(Precision.BINARY32)
        label, matrix, expected = paper_issue_matrices(Precision.BINARY32)[0]
        naive = getf2_naive(matrix, env, Division.SMITH)
        assert naive.info == 2
        assert naive.lu.data[1, 1] == 0  # flushed pivot column kills U22
        fixed = getf2(matrix, env)
        assert fixed.info == 0
        assert complex(fixed.lu.data[1, 0]) == complex(0.5, -0.5)
        assert complex(fixed.lu.data[1, 1]) == complex(-(2.0**126), 2.0**126)
        # the naive variant's residual is catastrophically larger
        assert backward_error(matrix, naive) > 1e5
        assert backward_error(matrix, fixed) <= 1.0

    def test_issue2_binary32(self):
        env = fp_env(Precision.BINARY32)
        label, matrix, expected = paper_issue_matrices(Precision.BINARY32)[1]
        naive = getf2_naive(matrix, env, Division.SMITH)
        assert naive.info == 2
        fixed = getf2(matrix, env)
        assert fixed.info == 0
        assert complex(fixed.lu.data[1, 0]) == complex(1.0, -(2.0**-75))
        u22 = complex(fixed.lu.data[1, 1])
        assert abs(u22 - expected["u22"]) <= 2.0**-20 * abs(expected["u22"])

    @pytest.mark.parametrize("idx", [0, 1])
    def test_binary64_analogues(self, idx):
        env = fp_env(Precision.BINARY64)
        label, matrix, expected = paper_issue_matrices(Precision.BINARY64)[idx]
        naive = getf2_naive(matrix, env, Division.SMITH)
        assert naive.info == expected["naive_info"]
        fixed = getf2(matrix, env)
        assert fixed.info == 0
        assert complex(fixed.lu.data[1, 0]) == expected["l21"]

"""Unblocked LU with partial pivoting, in two pivot-scaling variants.

`getf2` scales each pivot subcolumn through the reciprocal-plan kernel;
`getf2_naive` replicates the LAPACK 3.11 control flow, where the pivot
column is scaled by an explicitly divided reciprocal (or divided entry by
entry when the pivot is tiny).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpenv import FpEnv, Precision, fp_env
from .vector import (
    QUOTIENT,
    Division,
    StridedVector,
    crscl,
    naive_div_scale,
    scal_complex,
)


@dataclass
class DenseMatrix:
    """Column-major complex matrix in one precision."""

    data: np.ndarray
    precision: Precision

    @classmethod
    def from_rows(cls, rows, precision: Precision) -> "DenseMatrix":
        a = np.array(rows, dtype=precision.ctype, order="F")
        return cls(a, precision)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def copy(self) -> "DenseMatrix":
        return DenseMatrix(np.array(self.data, order="F"), self.precision)


@dataclass
class LuResult:
    """Packed factors: L strictly below the diagonal (unit diagonal
    implied), U on and above.  ipiv is 1-based; info is the first exactly
    zero pivot, 0 on success."""

    lu: DenseMatrix
    ipiv: list
    info: int


def _pivot_row(col_re, col_im, j):
    # CABS1 pivoting: largest |re| + |im|, ties to the lowest row index.
    with np.errstate(all="ignore"):
        mags = np.abs(col_re) + np.abs(col_im)
    return j + int(np.argmax(mags))


def _rank1_update(a, j, env):
    # A[j+1:, j+1:] -= L[j+1:, j] * U[j, j+1:], with the conventional
    # 4-multiply/2-add complex product, in the working precision.
    if j + 1 >= a.shape[0] or j + 1 >= a.shape[1]:
        return
    with np.errstate(all="ignore"):
        lr = a[j + 1 :, j].real[:, None]
        li = a[j + 1 :, j].imag[:, None]
        ur = a[j, j + 1 :].real[None, :]
        ui = a[j, j + 1 :].imag[None, :]
        prod_re = (lr * ur) - (li * ui)
        prod_im = (lr * ui) + (li * ur)
        block = a[j + 1 :, j + 1 :]
        block.real = block.real - prod_re
        block.imag = block.imag - prod_im


def _factor(a_in: DenseMatrix, env: FpEnv, scale_column) -> LuResult:
    out = a_in.copy()
    a = out.data
    m, n = a.shape
    k = min(m, n)
    ipiv = []
    info = 0
    for j in range(k):
        p = _pivot_row(a[j:, j].real, a[j:, j].imag, j)
        ipiv.append(p + 1)
        if p != j:
            a[[j, p], :] = a[[p, j], :]
        pivot = a[j, j]
        if pivot == 0:
            if info == 0:
                info = j + 1
        elif j + 1 < m:
            scale_column(a, j, pivot)
        _rank1_update(a, j, env)
    return LuResult(DenseMatrix(a, a_in.precision), ipiv, info)


def getf2(a_in: DenseMatrix, env: FpEnv | None = None) -> LuResult:
    """LU with the subcolumn scaled via the reciprocal plan (no complex
    division anywhere)."""
    env = env or fp_env(a_in.precision)

    def scale(a, j, pivot):
        sub = StridedVector(a[:, j], offset=j + 1, n=a.shape[0] - j - 1)
        crscl(sub, pivot, env)

    return _factor(a_in, env, scale)


def getf2_naive(
    a_in: DenseMatrix, env: FpEnv | None = None, division: Division = Division.SMITH
) -> LuResult:
    """LAPACK 3.11-style variant: scale by an explicitly divided reciprocal
    when |pivot| >= sfmin, else divide each entry by the pivot."""
    env = env or fp_env(a_in.precision)
    one = env.ftype(1.0)
    zero = env.ftype(0.0)

    def scale(a, j, pivot):
        pr = env.ftype(pivot.real)
        pi = env.ftype(pivot.imag)
        sub = StridedVector(a[:, j], offset=j + 1, n=a.shape[0] - j - 1)
        with np.errstate(all="ignore"):
            # Overflow-free modulus, like the Fortran complex ABS.
            if np.hypot(pr, pi) >= env.sfmin:
                rr, ri = QUOTIENT[division](one, zero, pr, pi)
                scal_complex(sub, rr, ri)
            else:
                naive_div_scale(sub, (pr, pi), division, env)

    return _factor(a_in, env, scale)


def _unpack(r: LuResult):
    a = r.lu.data
    m, n = a.shape
    k = min(m, n)
    l = np.zeros((m, k), dtype=np.complex128)
    u = np.zeros((k, n), dtype=np.complex128)
    for j in range(k):
        l[j, j] = 1.0
        l[j + 1 :, j] = a[j + 1 :, j]
        u[j, j:] = a[j, j:]
    return l, u


def permuted(a: np.ndarray, ipiv) -> np.ndarray:
    """Apply the pivot interchanges to the rows of a copy of a."""
    pa = np.array(a, dtype=np.complex128)
    for j, p in enumerate(ipiv):
        p0 = p - 1
        if p0 != j:
            pa[[j, p0], :] = pa[[p0, j], :]
    return pa


def backward_error(a_in: DenseMatrix, r: LuResult) -> float:
    """max-norm of P*A - L*U relative to n * u * max-norm of A.

    Residuals for binary32 inputs are evaluated in binary64; binary64
    inputs use compensated (fsum) accumulation entry by entry.
    """
    env = fp_env(a_in.precision)
    pa = permuted(a_in.data, r.ipiv)
    l, u = _unpack(r)
    if a_in.precision is Precision.BINARY32:
        resid = pa - l @ u
        rmax = float(np.max(np.abs(resid))) if resid.size else 0.0
    else:
        rmax = 0.0
        m, n = pa.shape
        k = l.shape[1]
        for i in range(m):
            for j in range(n):
                terms_re = [pa[i, j].real]
                terms_im = [pa[i, j].imag]
                for t in range(k):
                    lr, li = l[i, t].real, l[i, t].imag
                    ur, ui = u[t, j].real, u[t, j].imag
                    terms_re += [-(lr * ur), li * ui]
                    terms_im += [-(lr * ui), -(li * ur)]
                rmax = max(rmax, math.hypot(math.fsum(terms_re), math.fsum(terms_im)))
    amax = float(np.max(np.abs(np.array(a_in.data, dtype=np.complex128))))
    if rmax == 0.0:
        return 0.0
    n_dim = max(a_in.m, a_in.n)
    return rmax / (n_dim * float(env.eps) * amax)


def paper_issue_matrices(precision: Precision):
    """The two ill-behaved matrices with machine-exact entries, plus the
    expected outcome of each factorization variant."""
    if precision is Precision.BINARY32:
        big_e, sub_e = 127, 75
    else:
        # Chosen so 2*M overflows and the Smith quotient's imaginary part
        # (2**-2b) falls below half the smallest subnormal.
        big_e, sub_e = 1023, 538
    mm = math.ldexp(1.0, big_e)
    b = math.ldexp(1.0, sub_e)
    issue1 = DenseMatrix.from_rows(
        [[complex(mm, mm), mm], [mm, 0.0]], precision
    )
    issue2 = DenseMatrix.from_rows(
        [[complex(b, 1.0), b], [b, b]], precision
    )
    return [
        (
            "issue1",
            issue1,
            {
                "naive_info": 2,
                "l21": complex(0.5, -0.5),
                "u22": complex(-math.ldexp(1.0, big_e - 1), math.ldexp(1.0, big_e - 1)),
            },
        ),
        (
            "issue2",
            issue2,
            {
                "naive_info": 2,
                "l21": complex(1.0, -1.0 / b),
                "u22": complex(1.0 / b, 1.0),
                "u22_rtol": math.ldexp(1.0, -20),
            },
        ),
    ]

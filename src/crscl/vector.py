"""Strided in-place scaling kernels and the rscl/crscl entry points.

All kernels follow BLAS SCAL calling conventions: they mutate the
addressed elements of a caller-owned buffer and never touch anything
else.  Only `crscl`, `rscl` and `naive_div_scale` take a `FlopCounter`,
which they fill from the cost of what ran: `ScalePlan.cost` or `_NAIVE_COST`.

One kernel, `_scale`, applies a sequence of steps (a plan, or the one
step of `scal_real`, `scal_imaginary`, `scal_complex`, `apply_step`, or
the axis steps of `rscl`) in a single pass over the addressed elements.
It walks them in blocks of BLOCK elements and runs every step on a block
while the block is still in L2, so a two-step plan reads and writes main
memory once, not twice.  Each block is seen as contiguous interleaved
(re, im) pairs: in place when the view is contiguous, otherwise through
a block-sized staging copy.  The products go by ufunc `out=` into two
block-sized temporaries (one product per part per factor, over all pairs
at once), and the sums go back into the block's re/im slots.

Bit-identity contract: every addressed element gets exactly the value of
the per-element expression of its step, in this operand order, with
products and sums rounded in the dtype numpy gives that expression:

    real factor c:          (re*c, im*c)
    imaginary factor t:     (-(im*t), re*t)
    complex factor cr+ci*i: ((re*cr) - (im*ci), (re*ci) + (im*cr))

so results, NaN signs included, do not depend on the block size, the
stride or the offset.  numpy's own complex multiply is not used: it
rounds differently on about a quarter of complex steps.

numpy 2.4.6 trap: `np.negative(a, out=a)` returns wrong values when `a` is
a float view with a 16-byte stride (`.real` of a stride-2 complex64
vector) or a 64-byte one (stride-4 complex128).  The kernel negates only
contiguous temporaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fpenv import FpEnv, fp_env, Precision
from .plan import (
    CaseTag,
    FlopCounter,
    ScalePlan,
    ScaleStep,
    StepKind,
    as_parts,
    reciprocal_plan,
    _axis_steps,
)


# Elements per block: the block, its staging copy and both temporaries
# (1 MiB together in binary64) stay in a 2 MiB L2 through every step of a
# plan.  Stream throughput was flat from 2**13 to 2**15.
BLOCK = 1 << 14


class Division(enum.Enum):
    SMITH = "smith"
    TEXTBOOK = "textbook"


@dataclass
class StridedVector:
    """A view selecting n elements of a complex buffer at a fixed stride."""

    data: np.ndarray
    offset: int = 0
    stride: int = 1
    n: int | None = None

    def __post_init__(self):
        if self.data.ndim != 1:
            raise ValueError("buffer must be one-dimensional")
        if self.n is None:
            self.n = len(self.data)
        if self.stride < 1 or self.offset < 0:
            raise ValueError("stride must be positive and offset non-negative")
        if self.n < 0:
            raise ValueError("length must be non-negative")
        if self.n > 0 and self.offset + (self.n - 1) * self.stride >= len(self.data):
            raise ValueError("stride pattern exceeds the buffer")

    @classmethod
    def wrap(cls, data: np.ndarray) -> "StridedVector":
        return cls(data)

    def view(self) -> np.ndarray:
        end = self.offset + self.n * self.stride if self.n > 0 else self.offset
        return self.data[self.offset : end : self.stride]


def _work_dtype(part: np.dtype, steps) -> np.dtype:
    # The dtype numpy gives the per-element expressions: the part dtype,
    # unless a factor is wider (Python floats are weak and never widen).
    for s in steps:
        for f in (s.re, s.im):
            if type(f) is not part.type and type(f) is not float:
                return np.result_type(part, *(g for t in steps for g in (t.re, t.im)))
    return part


def _scale(x: StridedVector, steps) -> None:
    """Apply every step to each block in turn; the caller holds np.errstate."""
    n = x.n
    if n == 0:
        return
    v = x.view()
    part = v.real.dtype
    work = _work_dtype(part, steps)
    size = min(n, BLOCK)
    # A view that is not contiguous is staged through `stage` one block at
    # a time, so the steps always run on contiguous (re, im) pairs.
    stage = None if v.flags.c_contiguous else np.empty(size, v.dtype)
    p = np.empty(2 * size, work)
    q = np.empty(2 * size, work)
    for lo in range(0, n, BLOCK):
        blk = v[lo : lo + BLOCK]
        m = len(blk)
        if m < size:
            p, q = p[: 2 * m], q[: 2 * m]
            if stage is not None:
                stage = stage[:m]
        if stage is None:
            f = blk.view(part)
        else:
            np.copyto(stage, blk)
            f = stage.view(part)
        re, im = f[0::2], f[1::2]
        for s in steps:
            if s.kind is StepKind.REAL_FACTOR:
                # (re, im) <- (re*c, im*c)
                np.multiply(f, s.re, out=f)
            elif s.kind is StepKind.IMAGINARY_FACTOR:
                # (re, im) <- (-(im*t), re*t)
                np.multiply(f, s.im, out=p)
                np.negative(p, out=q)
                np.copyto(re, q[1::2])
                np.copyto(im, p[0::2])
            else:
                # (re, im) <- (re*cr - im*ci, re*ci + im*cr)
                np.multiply(f, s.re, out=p)
                np.multiply(f, s.im, out=q)
                np.subtract(p[0::2], q[1::2], out=re)
                np.add(q[0::2], p[1::2], out=im)
        if stage is not None:
            np.copyto(blk, stage)


def apply_plan(x: StridedVector, plan: ScalePlan) -> None:
    with np.errstate(all="ignore"):
        _scale(x, plan.steps)


def apply_step(x: StridedVector, step: ScaleStep) -> None:
    with np.errstate(all="ignore"):
        _scale(x, (step,))


def scal_real(x: StridedVector, c) -> None:
    """(re, im) <- (re*c, im*c) for each addressed element."""
    apply_step(x, ScaleStep.real(c))


def scal_imaginary(x: StridedVector, t) -> None:
    """Multiply each addressed element by (0 + t*i): (re, im) <- (-im*t, re*t).

    No zero products are formed, so a finite*infinite element never turns
    into NaN here, unlike a generic complex multiply by (0, t).
    """
    apply_step(x, ScaleStep.imaginary(t))


def scal_complex(x: StridedVector, cr, ci) -> None:
    """Conventional 4-multiply/2-add complex product with (cr + ci*i)."""
    apply_step(x, ScaleStep.complex_(cr, ci))


def rscl(x: StridedVector, a, env: FpEnv, counter: FlopCounter | None = None) -> None:
    """Scale x by the reciprocal of the real number a."""
    with np.errstate(all="ignore"):
        steps, divs = _axis_steps(env.ftype(a), env, ScaleStep.real)
        _scale(x, steps)
    if counter is not None:
        counter.add(ScalePlan(steps, CaseTag.REAL_DENOMINATOR, divs).cost(x.n))


def crscl(x: StridedVector, a, env: FpEnv, counter: FlopCounter | None = None) -> ScalePlan:
    """Scale x by the reciprocal of the complex number a, without complex
    division and with at most four real divisions."""
    plan = reciprocal_plan(a, env)
    apply_plan(x, plan)
    if counter is not None:
        counter.add(plan.cost(x.n))
    return plan


def smith_quotient(nr, ni, dr, di):
    """Smith's scaled-ratio division: (nr + ni*i) / (dr + di*i).

    Numerator parts may be arrays; the denominator is a scalar pair.  All
    arithmetic stays in the operands' precision.
    """
    with np.errstate(all="ignore"):
        if abs(dr) >= abs(di):
            r = di / dr
            den = dr + di * r
            return (nr + ni * r) / den, (ni - nr * r) / den
        r = dr / di
        den = di + dr * r
        return (nr * r + ni) / den, (ni * r - nr) / den


def textbook_quotient(nr, ni, dr, di):
    """Schoolbook division through dr**2 + di**2."""
    with np.errstate(all="ignore"):
        den = dr * dr + di * di
        return (nr * dr + ni * di) / den, (ni * dr - nr * di) / den


QUOTIENT = {Division.SMITH: smith_quotient, Division.TEXTBOOK: textbook_quotient}

# Per-element (real_mul, real_add, real_div) of one naive division: Smith
# needs r, den and two quotients; textbook squares the denominator.
_NAIVE_COST = {Division.SMITH: (3, 3, 3), Division.TEXTBOOK: (6, 3, 2)}


def naive_div_scale(
    x: StridedVector,
    a,
    division: Division,
    env: FpEnv | None = None,
    counter: FlopCounter | None = None,
) -> None:
    """Reference engine: divide each element by a, one complex division per
    element, using the selected division algorithm."""
    if env is None:
        precision = Precision.BINARY32 if x.data.dtype == np.complex64 else Precision.BINARY64
        env = fp_env(precision)
    dr, di = as_parts(a, env)
    v = x.view()
    with np.errstate(all="ignore"):
        # Both quotient parts are formed before either is written back.
        v.real, v.imag = QUOTIENT[division](v.real, v.imag, dr, di)
    if counter is not None:
        n = x.n
        mul, add, div = _NAIVE_COST[division]
        counter.add(FlopCounter(mul * n, add * n, div * n, n))

"""Strided in-place scaling kernels and the rscl/crscl entry points.

All kernels follow BLAS SCAL calling conventions: they mutate the
addressed elements of a caller-owned buffer and never touch anything
else.  Only `crscl`, `rscl` and `naive_div_scale` take a `FlopCounter`,
which they fill from the cost of what ran: `ScalePlan.cost` or `_NAIVE_COST`.

One kernel, `_scale`, applies a sequence of steps (a plan, or the one
step of `scal_real`, `scal_imaginary`, `scal_complex` or `apply_step`)
in a single pass over the addressed elements.
It walks them in blocks of BLOCK elements and runs every step on a block
while the block is still in L2, so a two-step plan reads and writes main
memory once, not twice.  Each block is seen as contiguous interleaved
(re, im) pairs: in place when the view is contiguous, otherwise through
a block-sized staging copy.  A contiguous view of at most BLOCK elements
is its own single block: no staging copy and no slicing.  The products
of an imaginary or complex step go into two temporaries (one product per
part per factor, over all pairs at once) that its first multiply
allocates and later blocks reuse, and the sums go back into the block's
re/im slots; a plan of real steps allocates nothing.

One errstate per public call: `crscl` and `rscl` enter a single
`np.errstate` around both the plan (`plan._reciprocal_plan`) and the
kernel, which run under it; `apply_plan` and `apply_step` enter one around
the kernel alone.  Each context costs 1-2 us, a large share of a call on
a short vector.

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

from .fpenv import FpEnv
from .plan import (
    FlopCounter,
    ScalePlan,
    ScaleStep,
    _IMAGINARY,
    _REAL,
    _as_parts,
    _reciprocal_plan,
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


def _scale(x: StridedVector, steps) -> None:
    """Apply every step to each block in turn; the caller holds np.errstate."""
    n = x.n
    if n == 0:
        return
    v = x.view()
    part = v.real.dtype
    # A view that is not contiguous is staged through `stage` one block at
    # a time, so the steps always run on contiguous (re, im) pairs.
    stage = None if v.flags.c_contiguous else np.empty(min(n, BLOCK), v.dtype)
    # The product temporaries: allocated by the first non-real step's
    # multiply, in the dtype numpy gives its products, and reused by every
    # later block (a plan has at most one non-real step).
    p = q = None
    for lo in range(0, n, BLOCK):
        if n <= BLOCK:
            blk = v
        else:
            blk = v[lo : lo + BLOCK]
            m = len(blk)
            if m < BLOCK:
                # The last block is shorter than the others.
                if p is not None:
                    p, q = p[: 2 * m], q[: 2 * m]
                if stage is not None:
                    stage = stage[:m]
        if stage is None:
            f = blk.view(part)
        else:
            np.copyto(stage, blk)
            f = stage.view(part)
        for s in steps:
            kind = s.kind
            if kind is _REAL:
                # (re, im) <- (re*c, im*c)
                np.multiply(f, s.re, out=f)
            elif kind is _IMAGINARY:
                # (re, im) <- (-(im*t), re*t)
                p = np.multiply(f, s.im, out=p)
                q = np.negative(p, out=q)
                np.copyto(f[0::2], q[1::2])
                np.copyto(f[1::2], p[0::2])
            else:
                # (re, im) <- (re*cr - im*ci, re*ci + im*cr)
                p = np.multiply(f, s.re, out=p)
                q = np.multiply(f, s.im, out=q)
                np.subtract(p[0::2], q[1::2], out=f[0::2])
                np.add(q[0::2], p[1::2], out=f[1::2])
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
    f = env.ftype
    with np.errstate(all="ignore"):
        plan = _reciprocal_plan(f(a), f(0.0), env)
        _scale(x, plan.steps)
    if counter is not None:
        counter.add(plan.cost(x.n))


def crscl(x: StridedVector, a, env: FpEnv, counter: FlopCounter | None = None) -> ScalePlan:
    """Scale x by the reciprocal of the complex number a, without complex
    division and with at most four real divisions."""
    with np.errstate(all="ignore"):
        plan = _reciprocal_plan(*_as_parts(a, env), env)
        _scale(x, plan.steps)
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
    env: FpEnv,
    counter: FlopCounter | None = None,
) -> None:
    """Reference engine: divide each element by a, one complex division per
    element, using the selected division algorithm."""
    v = x.view()
    with np.errstate(all="ignore"):
        dr, di = _as_parts(a, env)
        # Both quotient parts are formed before either is written back.
        v.real, v.imag = QUOTIENT[division](v.real, v.imag, dr, di)
    if counter is not None:
        n = x.n
        mul, add, div = _NAIVE_COST[division]
        counter.add(FlopCounter(mul * n, add * n, div * n, n))

"""Ground truth, error metrics, and structured case generation.

Binary32 kernels are measured against a binary64 reference; binary64
results are checked against exact rational arithmetic, done in integers
and rounded once.
Case profiles target specific branches of the reciprocal-plan case tree
and reproduce bit-identical streams from their seed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fpenv import FpEnv, Precision, fp_env, gamma
from .hexfloat import format_hex
from .plan import CaseTag, ScaleStep, reciprocal_plan
from .vector import BLOCK, QUOTIENT, Division, StridedVector, _scale

SQRT2 = math.sqrt(2.0)

VECTOR_LENGTHS = (0, 1, 2, 7, 64)


class ProfileName(enum.Enum):
    SAFE = "safe"
    HUGE_DENOMINATOR = "huge"
    TINY_DENOMINATOR = "tiny"
    MIXED_EXTREME = "mixed"
    SUBNORMAL_PARTS = "subnormal"
    SPECIAL_VALUES = "special"


class Engine(enum.Enum):
    CRSCL = "crscl"
    NAIVE_SMITH = "naive_smith"
    NAIVE_TEXTBOOK = "naive_textbook"


# The per-element division each naive engine runs.
NAIVE_DIVISION = {Engine.NAIVE_SMITH: Division.SMITH, Engine.NAIVE_TEXTBOOK: Division.TEXTBOOK}


@dataclass(frozen=True)
class CaseProfile:
    name: ProfileName
    seed: int = 0
    count: int = 1000


@dataclass
class ErrorReport:
    samples: int = 0
    excluded: int = 0
    violations: int = 0
    max_rel_err: float = 0.0
    bound: float = 0.0
    case_histogram: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def included(self) -> int:
        return self.samples - self.excluded


# --------------------------------------------------------------------------
# Reference values
# --------------------------------------------------------------------------


def _exact_quotient(xr: float, xi: float, ar: float, ai: float) -> complex:
    """(xr + xi*i) / (ar + ai*i) for finite binary64 parts and a != 0,
    each part rounded once.

    Every part is scaled to its integer multiple of 2^-1074, so each
    quotient part is a ratio of integers.  Python's int / int rounds it
    correctly, to a subnormal or a signed zero too, and raises
    OverflowError beyond the binary64 range, which maps to the infinity of
    the quotient's sign.
    """
    xr, xi, ar, ai = (
        num << (1075 - den.bit_length()) for num, den in map(float.as_integer_ratio, (xr, xi, ar, ai))
    )
    den = ar * ar + ai * ai
    parts = []
    for num in (xr * ar + xi * ai, xi * ar - xr * ai):
        try:
            parts.append(num / den)
        except OverflowError:
            parts.append(math.inf if num > 0 else -math.inf)
    return complex(*parts)


def _exact_quotients_wide(x: np.ndarray, a, precision: Precision):
    """Unrounded wider-precision quotients x/a for a whole vector; a is
    one denominator or one per element.

    Runs under the caller's np.errstate.
    """
    a = np.broadcast_to(np.asarray(a, dtype=np.complex128), x.shape)
    if precision is Precision.BINARY32:
        return x.astype(np.complex128) / a
    out = np.empty(len(x), dtype=np.complex128)
    parts = (p.tolist() for p in (x.real, x.imag, a.real, a.imag))
    for i, (xr, xi, ar, ai) in enumerate(zip(*parts)):
        if (ar or ai) and all(map(math.isfinite, (xr, xi, ar, ai))):
            out[i] = _exact_quotient(xr, xi, ar, ai)
        else:
            out[i] = np.complex128(complex(xr, xi)) / np.complex128(complex(ar, ai))
    return out


# The error helpers work elementwise on arrays or scalars and run under the
# caller's np.errstate.


def _normwise_error(yr, yi, ex_re, ex_im, mod):
    """|y - exact| / mod, where mod = |exact|."""
    return np.hypot(yr - ex_re, yi - ex_im) / mod


def _part_error(y, ex):
    """|y - ex| / |ex|; 0 where both are zero, inf where only ex is."""
    return np.where(ex != 0, np.abs(y - ex) / np.abs(ex), np.where(y == 0, 0.0, np.inf))


# --------------------------------------------------------------------------
# ULP distance
# --------------------------------------------------------------------------

_INT_TYPE = {Precision.BINARY32: np.int32, Precision.BINARY64: np.int64}


def _ordered_ints(values: np.ndarray, precision: Precision) -> np.ndarray:
    bits = values.view(_INT_TYPE[precision]).astype(np.int64)
    width = 32 if precision is Precision.BINARY32 else 64
    sign = bits < 0
    mag = bits & ((1 << (width - 1)) - 1)
    return np.where(sign, -mag, mag)


def ulp_distance(p, q, precision: Precision):
    """Representable values strictly between p and q, plus one if p != q.

    None (incomparable) for NaNs or operands of opposite nonzero sign.
    """
    f = precision.ftype
    with np.errstate(over="ignore"):
        p, q = np.array([p], f), np.array([q], f)
    d = int(_ulp_distance_array(p, q, precision)[0])
    return None if d < 0 else d


def _ulp_distance_array(p: np.ndarray, q: np.ndarray, precision: Precision):
    """Vectorized distance; -1 marks incomparable pairs."""
    op = _ordered_ints(np.ascontiguousarray(p), precision)
    oq = _ordered_ints(np.ascontiguousarray(q), precision)
    d = np.abs(op - oq)
    bad = np.isnan(p) | np.isnan(q) | ((p < 0) & (q > 0)) | ((q < 0) & (p > 0))
    return np.where(bad, -1, d)


# --------------------------------------------------------------------------
# Case generation
# --------------------------------------------------------------------------

_ZERO_PART_SHARE = 0.15  # share of draws routed through a zero-part axis case


def _special_values(env: FpEnv):
    base = [
        0.0,
        float(env.min_subnormal),
        float(env.sfmin),
        1.0,
        float(env.inv_sfmin),
        float(env.overflow),
        math.inf,
    ]
    vals = []
    for v in base:
        vals.append(v)
        vals.append(-v)
    vals.append(math.nan)
    return vals


def _ldexp_cast(mant, expo, ftype):
    return ftype(np.ldexp(mant, expo))


def _draw(rng, ftype, emin, emax, sign=True):
    m = 1.0 + rng.random()
    e = int(rng.integers(emin, emax + 1))
    s = -1.0 if (sign and rng.integers(0, 2)) else 1.0
    return _ldexp_cast(s * m, e, ftype)


def _profile_limits(precision: Precision):
    fi = np.finfo(precision.ftype)
    return dict(emax=fi.maxexp - 1, emin_n=fi.minexp, emin_s=fi.minexp - fi.nmant)


def _draw_denominator(rng, name: ProfileName, env: FpEnv, lim):
    f = env.ftype
    emax, emin_n, emin_s = lim["emax"], lim["emin_n"], lim["emin_s"]
    if name is ProfileName.SAFE:
        half = emax // 2
        return _draw(rng, f, -half, half), _draw(rng, f, -half, half)
    if name is ProfileName.HUGE_DENOMINATOR:
        if rng.integers(0, 2):
            return (
                _draw(rng, f, emax - 3, emax - 1),
                _draw(rng, f, emax - 3, emax - 1),
            )
        small = _draw(rng, f, -10, 10)
        big = _draw(rng, f, 3 * emax // 4, emax - 1)
        return (small, big) if rng.integers(0, 2) else (big, small)
    if name is ProfileName.TINY_DENOMINATOR:
        # Balanced parts well below sfmin, so the plan is FULL_SMALL.
        e0 = int(rng.integers(emin_s + 4, emin_n - 7))
        d = int(rng.integers(-1, 2))
        s0 = -1.0 if rng.integers(0, 2) else 1.0
        s1 = -1.0 if rng.integers(0, 2) else 1.0
        return (
            _ldexp_cast(s0 * (1.0 + rng.random()), e0, f),
            _ldexp_cast(s1 * (1.0 + rng.random()), e0 + d, f),
        )
    if name is ProfileName.MIXED_EXTREME:
        tiny = _draw(rng, f, emin_s + 5, emin_n + 20)
        huge = _draw(rng, f, emax - 60, emax - 1)
        return (tiny, huge) if rng.integers(0, 2) else (huge, tiny)
    # SUBNORMAL_PARTS
    return (
        _draw(rng, f, emin_s, emin_n - 1),
        _draw(rng, f, emin_s, emin_n - 1),
    )


def _draw_vector(rng, env: FpEnv, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=env.ctype)
    for part in (out.real, out.imag):
        mants = 1.0 + rng.random(n)
        expos = rng.integers(-16, 17, size=n)
        signs = np.where(rng.integers(0, 2, size=n), -1.0, 1.0)
        part[:] = np.ldexp(signs * mants, expos)
    return out


def gen_cases(profile: CaseProfile, precision: Precision):
    """Deterministic stream of (a, x) pairs for one profile."""
    env = fp_env(precision)
    rng = np.random.default_rng(profile.seed)
    lim = _profile_limits(precision)

    if profile.name is ProfileName.SPECIAL_VALUES:
        vals = _special_values(env)
        pairs = itertools.cycle(itertools.product(vals, vals))
        for re, im in itertools.islice(pairs, profile.count):
            n = VECTOR_LENGTHS[rng.integers(len(VECTOR_LENGTHS))]
            yield env.ctype(complex(re, im)), _draw_vector(rng, env, n)
        return

    tiny_axis_hi = lim["emin_n"] - 1  # exponents that force the scaled axis path
    for k in range(profile.count):
        if rng.random() < _ZERO_PART_SHARE:
            # Axis case: one part exactly zero.
            if profile.name is ProfileName.TINY_DENOMINATOR:
                v = _draw(rng, env.ftype, lim["emin_s"] + 2, tiny_axis_hi)
            else:
                v = _draw(rng, env.ftype, -lim["emax"] // 2, lim["emax"] // 2)
            zero = math.copysign(0.0, 1 if rng.integers(0, 2) else -1)
            re, im = (v, zero) if k % 2 == 0 else (zero, v)
        else:
            re, im = _draw_denominator(rng, profile.name, env, lim)
        a = env.ctype(complex(float(re), float(im)))
        # Index rather than rng.choice: the same draw, without its overhead.
        n = VECTOR_LENGTHS[rng.integers(len(VECTOR_LENGTHS))]
        yield a, _draw_vector(rng, env, n)


# --------------------------------------------------------------------------
# Differential measurement
#
# A profile runs as arrays: its cases are drawn first and their vectors
# concatenated.  Plans are built once per case, the kernel runs once per
# group of cases with the same step kinds, and the references, exclusions
# and errors are whole-array operations.
# --------------------------------------------------------------------------

def _apply_plans(x: np.ndarray, plans, lengths, env: FpEnv):
    """x scaled by each case's plan, and the mask of the elements that a
    two-step plan's first step takes out of the normal range: an
    intermediate part that is not finite, or nonzero and below sfmin.  The
    bound does not apply to them.

    x concatenates the cases' vectors, lengths[k] elements for plans[k].
    The cases whose plans have the same step kinds form one group.  Its
    elements are gathered, each step's factors are repeated per element
    and interleaved to the kernel's (re, im) pairs, and `_scale` runs one
    step at a time on chunks of at most BLOCK elements.  Runs under the
    caller's np.errstate.
    """
    kinds = {}
    group = np.array([kinds.setdefault(tuple(s.kind for s in p.steps), len(kinds)) for p in plans])
    order = np.argsort(np.repeat(group, lengths), kind="stable")
    ys = x[order]
    mid = np.zeros(len(x), dtype=bool)
    lo = 0
    for g, step_kinds in enumerate(kinds):
        members = group == g
        group_plans = [p for p, m in zip(plans, members.tolist()) if m]
        pairs = 2 * lengths[members]
        hi = lo + int(pairs.sum()) // 2
        # Each step with its factors per element, repeated for both slots.
        steps = [
            ScaleStep(kind, *(
                np.repeat(np.array([getattr(p.steps[j], part) for p in group_plans], env.ftype), pairs)
                for part in ("re", "im")
            ))
            for j, kind in enumerate(step_kinds)
        ]
        for c in range(lo, hi, BLOCK):
            e = min(c + BLOCK, hi)
            chunk, pair = ys[c:e], slice(2 * (c - lo), 2 * (e - lo))
            for j, s in enumerate(steps):
                _scale(StridedVector.wrap(chunk), (ScaleStep(s.kind, s.re[pair], s.im[pair]),))
                if j == 0 and len(steps) == 2:
                    for part in (chunk.real, chunk.imag):
                        ap = np.abs(part)
                        mid[c:e] |= ~np.isfinite(part) | ((ap != 0) & (ap < env.sfmin))
        lo = hi
    y = np.empty_like(x)
    y[order] = ys
    bad_mid = np.empty_like(mid)
    bad_mid[order] = mid
    return y, bad_mid


_MAX_RECORDED_FAILURES = 100


def error_report(engine: Engine, profile: CaseProfile, precision: Precision) -> ErrorReport:
    """Run the engine over the profile's stream and compare against the
    wider-precision reference, aggregating bound conformance.

    The whole profile is drawn first; every later step works on the
    concatenated vectors, with each case's denominator, plan flags and
    bound repeated per element.
    """
    env = fp_env(precision)
    min_normal = float(env.sfmin)
    rep = ErrorReport(bound=SQRT2 * gamma(6, env))
    cases = [(a, x) for a, x in gen_cases(profile, precision) if len(x)]
    if not cases:
        return rep
    plans = [reciprocal_plan(a, env) for a, _ in cases]
    lengths = np.array([len(x) for _, x in cases])
    x = np.concatenate([x for _, x in cases])
    a = np.repeat(np.array([a for a, _ in cases], dtype=env.ctype), lengths)
    axis = np.repeat([p.axis for p in plans], lengths)
    # A plan with a non-finite factor (a zero, infinite or NaN a): the
    # bound does not apply to any of its elements.
    bad_plan = np.repeat(
        [not all(math.isfinite(f) for s in p.steps for f in (s.re, s.im)) for p in plans], lengths
    )
    hist = {tag: 0 for tag in CaseTag}
    for plan, n in zip(plans, lengths.tolist()):
        hist[plan.case] += n
    rep.case_histogram = {tag.value: c for tag, c in hist.items() if c}
    rep.samples = len(x)

    with np.errstate(all="ignore"):
        y, bad_mid = _apply_plans(x, plans, lengths, env)
        if engine is not Engine.CRSCL:
            y.real, y.imag = QUOTIENT[NAIVE_DIVISION[engine]](x.real, x.imag, a.real, a.imag)
        exact = _exact_quotients_wide(x, a, precision)
        ex_re, ex_im = exact.real, exact.imag
        # The reference must be representable in the target precision:
        # quotients that overflow the target are outside the bound's
        # validity region even when finite in the wider arithmetic.
        finite_exact = (
            np.isfinite(ex_re.astype(precision.ftype))
            & np.isfinite(ex_im.astype(precision.ftype))
        )
        mod = np.hypot(np.where(finite_exact, ex_re, 0.0), np.where(finite_exact, ex_im, 0.0))
        x_zero = (x.real == 0) & (x.imag == 0)
        x_bad = ~(np.isfinite(x.real) & np.isfinite(x.imag))
        exclude = x_zero | x_bad | ~finite_exact | (mod < min_normal) | bad_mid | bad_plan
        for part in (ex_re, ex_im):
            ap = np.abs(part)
            exclude |= axis & np.isfinite(part) & (ap != 0) & (ap < min_normal)
        included = ~exclude
        rep.excluded = int(np.count_nonzero(exclude))

        yr = y.real.astype(np.float64)
        yi = y.imag.astype(np.float64)
        err = np.where(
            axis,
            np.maximum(_part_error(yr, ex_re), _part_error(yi, ex_im)),
            _normwise_error(yr, yi, ex_re, ex_im, mod),
        )
        err = np.where(included, err, 0.0)
        err = np.where(included & ~np.isfinite(err), np.inf, err)
        rep.max_rel_err = float(np.max(err))
        viol = included & (err > np.where(axis, gamma(2, env), rep.bound))
        rep.violations = int(np.count_nonzero(viol))

    for i in np.flatnonzero(viol)[:_MAX_RECORDED_FAILURES]:
        rep.failures.append(
            {
                "a": [format_hex(a[i].real), format_hex(a[i].imag)],
                "x": [format_hex(x[i].real), format_hex(x[i].imag)],
                "computed": [format_hex(y[i].real), format_hex(y[i].imag)],
                "exact": [format_hex(exact[i].real), format_hex(exact[i].imag)],
                "rel_err": format_hex(err[i]),
            }
        )
    return rep

"""Ground truth, error metrics, and structured case generation.

Binary32 kernels are measured against a binary64 reference; binary64
results are checked against exact rational arithmetic rounded once.
Case profiles target specific branches of the reciprocal-plan case tree
and reproduce bit-identical streams from their seed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fpenv import FpEnv, Precision, fp_env, gamma
from .plan import CaseTag, as_parts, reciprocal_plan
from .vector import (
    Division,
    StridedVector,
    apply_step,
    naive_div_scale,
)

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


# The per-element division each naive engine runs through naive_div_scale.
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
    max_ulp_re: int = 0
    max_ulp_im: int = 0
    case_histogram: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def included(self) -> int:
        return self.samples - self.excluded


# --------------------------------------------------------------------------
# Reference values
# --------------------------------------------------------------------------


def _to_float(fr) -> float:
    # Rational quotients can exceed the binary64 range even when every
    # operand is representable; round those to the correct infinity.
    try:
        return float(fr)
    except OverflowError:
        return math.inf if fr > 0 else -math.inf


def _rational_quotient(xr, xi, ar, ai):
    fxr, fxi = Fraction(xr), Fraction(xi)
    far, fai = Fraction(ar), Fraction(ai)
    den = far * far + fai * fai
    qr = (fxr * far + fxi * fai) / den
    qi = (fxi * far - fxr * fai) / den
    return qr, qi


def exact_reciprocal_scale(x, a, target: Precision):
    """x/a in wider arithmetic, rounded once to the target precision."""
    with np.errstate(all="ignore"):
        return target.ctype(_exact_quotients_wide(np.array([complex(x)]), a, target)[0])


def _exact_quotients_wide(x: np.ndarray, a, precision: Precision):
    """Unrounded wider-precision quotients for a whole vector.

    Runs under the caller's np.errstate.
    """
    if precision is Precision.BINARY32:
        return x.astype(np.complex128) / np.complex128(complex(a))
    ac = complex(a)
    out = np.empty(len(x), dtype=np.complex128)
    finite_a = math.isfinite(ac.real) and math.isfinite(ac.imag) and ac != 0
    for i, v in enumerate(x):
        vc = complex(v)
        if finite_a and math.isfinite(vc.real) and math.isfinite(vc.imag):
            qr, qi = _rational_quotient(vc.real, vc.imag, ac.real, ac.imag)
            out[i] = complex(_to_float(qr), _to_float(qi))
        else:
            out[i] = np.complex128(vc) / np.complex128(ac)
    return out


# The error helpers work elementwise on arrays or scalars and run under the
# caller's np.errstate.


def _normwise_error(yr, yi, ex_re, ex_im, mod):
    """|y - exact| / mod, where mod = |exact|."""
    return np.hypot(yr - ex_re, yi - ex_im) / mod


def _part_error(y, ex):
    """|y - ex| / |ex|; 0 where both are zero, inf where only ex is."""
    return np.where(ex != 0, np.abs(y - ex) / np.abs(ex), np.where(y == 0, 0.0, np.inf))


def relative_error(computed, exact):
    """|computed - exact| / |exact| in wider arithmetic; None when the
    exact value is zero or non-finite (exclusion, not failure)."""
    e = complex(exact)
    if e == 0 or not (math.isfinite(e.real) and math.isfinite(e.imag)):
        return None
    c = complex(computed)
    with np.errstate(all="ignore"):
        return float(_normwise_error(c.real, c.imag, e.real, e.imag, np.hypot(e.real, e.imag)))


def relative_error_parts(computed, exact):
    """Per-part variant; each entry is None when that exact part is not a
    usable reference (non-finite), 0.0 when both are zero."""
    c, e = complex(computed), complex(exact)
    with np.errstate(all="ignore"):
        return tuple(
            float(_part_error(cp, ep)) if math.isfinite(ep) else None
            for cp, ep in ((c.real, e.real), (c.imag, e.imag))
        )


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
        # Balanced parts well below sfmin, so |ur| (or |ui|) < sfmin holds.
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
            n = int(rng.choice(VECTOR_LENGTHS))
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
        n = int(rng.choice(VECTOR_LENGTHS))
        yield a, _draw_vector(rng, env, n)


# --------------------------------------------------------------------------
# Differential measurement
# --------------------------------------------------------------------------

_AXIS_CASES = (CaseTag.REAL_DENOMINATOR, CaseTag.IMAGINARY_DENOMINATOR)


def _uv_chain_dirty(plan, a, env: FpEnv) -> bool:
    """True when the plan's ur/ui chain rounded inexactly in the subnormal
    range.

    The gamma-style bounds assume the standard rounding model, which does
    not hold for subnormal results; a subnormal intermediate is harmless
    only when it is exact.  Exactness is checked against a binary64
    recomputation of the same chain.  In binary64 that recomputation
    repeats the plan's own arithmetic, so the check cannot fire there.
    """
    if not plan.chain:
        return False
    ar, ai = (float(p) for p in as_parts(a, env))
    sfmin = float(env.sfmin)
    if min(abs(ar), abs(ai)) >= sfmin:
        return False
    w1 = ai / ar
    w2 = ar / ai
    wide = (w1, ai * w1, ar + ai * w1, w2, ar * w2, ai + ar * w2)
    return any(0 < abs(float(v)) < sfmin and float(v) != w for v, w in zip(plan.chain, wide))


def _plan_factors_finite(plan) -> bool:
    for s in plan.steps:
        if not (np.isfinite(s.re) and np.isfinite(s.im)):
            return False
    return True


def _run_crscl_with_plan(x: np.ndarray, plan, env: FpEnv):
    """Apply the plan, returning the result and a mask of elements whose
    two-step intermediate left the normal range (bound not applicable)."""
    y = x.copy()
    sv = StridedVector.wrap(y)
    bad_mid = np.zeros(len(x), dtype=bool)
    for idx, step in enumerate(plan.steps):
        apply_step(sv, step)
        if idx == 0 and len(plan.steps) == 2 and len(x):
            for part in (y.real, y.imag):
                ap = np.abs(part)
                bad_mid |= ~np.isfinite(part) | ((ap != 0) & (ap < env.sfmin))
    return y, bad_mid


def error_report(engine: Engine, profile: CaseProfile, precision: Precision) -> ErrorReport:
    """Run the engine over the profile's stream and compare against the
    wider-precision reference, aggregating bound conformance."""
    env = fp_env(precision)
    g2 = gamma(2, env)
    bound_full = SQRT2 * gamma(6, env)
    min_normal = float(env.sfmin)
    rep = ErrorReport(bound=bound_full)
    hist = {tag: 0 for tag in CaseTag}

    for a, x in gen_cases(profile, precision):
        n = len(x)
        rep.samples += n
        if n == 0:
            continue
        plan = reciprocal_plan(a, env)
        hist[plan.case] += n
        axis = plan.case in _AXIS_CASES

        y_plan, bad_mid = _run_crscl_with_plan(x, plan, env)
        if engine is Engine.CRSCL:
            y = y_plan
        else:
            y = x.copy()
            naive_div_scale(StridedVector.wrap(y), a, NAIVE_DIVISION[engine], env)

        with np.errstate(all="ignore"):
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
            exclude = x_zero | x_bad | ~finite_exact | (mod < min_normal) | bad_mid
            if not _plan_factors_finite(plan) or _uv_chain_dirty(plan, a, env):
                exclude |= True
            if axis:
                for part in (ex_re, ex_im):
                    ap = np.abs(part)
                    exclude |= np.isfinite(part) & (ap != 0) & (ap < min_normal)

            included = ~exclude
            rep.excluded += int(np.count_nonzero(exclude))
            if not included.any():
                continue

            yr = y.real.astype(np.float64)
            yi = y.imag.astype(np.float64)
            if axis:
                err = np.maximum(_part_error(yr, ex_re), _part_error(yi, ex_im))
                bound = g2
            else:
                err = _normwise_error(yr, yi, ex_re, ex_im, mod)
                bound = bound_full
            err = np.where(included, err, 0.0)
            bad = included & ~np.isfinite(err)
            err = np.where(bad, np.inf, err)

            rep.max_rel_err = max(rep.max_rel_err, float(np.max(err)))
            viol = included & (err > bound)
            nviol = int(np.count_nonzero(viol))
            if nviol:
                rep.violations += nviol
                _record_failures(rep, a, x, y, exact, err, viol, precision)

            # ULP statistics against the once-rounded reference.
            ex_t_re = ex_re.astype(precision.ftype)
            ex_t_im = ex_im.astype(precision.ftype)
            d_re = _ulp_distance_array(y.real, ex_t_re, precision)
            d_im = _ulp_distance_array(y.imag, ex_t_im, precision)
            d_re = np.where(included, d_re, -1)
            d_im = np.where(included, d_im, -1)
            rep.max_ulp_re = max(rep.max_ulp_re, int(np.max(d_re, initial=-1)))
            rep.max_ulp_im = max(rep.max_ulp_im, int(np.max(d_im, initial=-1)))

    rep.max_ulp_re = max(rep.max_ulp_re, 0)
    rep.max_ulp_im = max(rep.max_ulp_im, 0)
    rep.case_histogram = {tag.value: c for tag, c in hist.items() if c}
    return rep


_MAX_RECORDED_FAILURES = 100


def _record_failures(rep, a, x, y, exact, err, viol, precision):
    from .hexfloat import format_hex

    idxs = np.nonzero(viol)[0]
    for i in idxs:
        if len(rep.failures) >= _MAX_RECORDED_FAILURES:
            return
        rep.failures.append(
            {
                "a": [format_hex(complex(a).real), format_hex(complex(a).imag)],
                "x": [format_hex(x[i].real), format_hex(x[i].imag)],
                "computed": [format_hex(y[i].real), format_hex(y[i].imag)],
                "exact": [format_hex(exact[i].real), format_hex(exact[i].imag)],
                "rel_err": format_hex(err[i]),
            }
        )

"""Exact reference checks for scaled elements, in rational arithmetic.

The reference for x/a is the exact `Fraction` quotient, rounded once to
the target format.  An element conforms when its error against the exact
quotient is within the paper's bound: sqrt(2)*gamma_6 on the modulus for
complex plans, gamma_2 per part for axis plans.  Both sides are compared
squared, as rationals, so no comparison is itself rounded.

An element is skipped only where the bound provably does not apply:
zero or non-finite input; a reference outside the normal range; a
non-finite plan factor; a product or sum of the kernel whose exact value
leaves the normal range (the standard rounding model fails there); a
FULL_SMALL plan whose ur/ui chain rounded inexactly in the subnormal
range (paper Remark 1).  Where a has an infinite part and the plan's
factors are finite, the exact quotient is zero and must be produced
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# precision -> (significand bits, min normal exponent, max exponent)
FORMATS = {"binary32": (24, -126, 127), "binary64": (53, -1022, 1023)}
FTYPES = {"binary32": np.float32, "binary64": np.float64}

AXIS_CASES = ("real_denominator", "imaginary_denominator")

class Format:
    """Exact constants of one binary format."""

    def __init__(self, precision: str):
        p, emin, emax = FORMATS[precision]
        self.ftype = FTYPES[precision]
        self.p, self.emin = p, emin
        self.sfmin = Fraction(2) ** emin
        self.fmax = (2 - Fraction(2) ** (1 - p)) * Fraction(2) ** emax
        u = Fraction(1, 2**p)
        gamma2 = 2 * u / (1 - 2 * u)
        gamma6 = 6 * u / (1 - 6 * u)
        self.gamma2 = gamma2
        self.full_bound_sq = 2 * gamma6 * gamma6

    def round_once(self, fr: Fraction) -> float:
        """Nearest value of the format to fr, ties to even (inf past max)."""
        if fr == 0:
            return 0.0
        a = abs(fr)
        e = a.numerator.bit_length() - a.denominator.bit_length()
        if Fraction(2) ** e > a:
            e -= 1
        quantum = Fraction(2) ** (max(e, self.emin) - self.p + 1)
        v = round(a / quantum) * quantum
        r = math.inf if v > self.fmax else float(v)
        return r if fr > 0 else -r

    def outside_normal(self, fr: Fraction) -> bool:
        """Nonzero and below the normal range, or rounding to infinity."""
        return fr != 0 and (abs(fr) < self.sfmin or math.isinf(self.round_once(fr)))


def _fr(v) -> Fraction:
    return Fraction(float(v))


def uv_chain_dirty(ar, ai, fmt: Format) -> bool:
    """True when an operation of the ur/ui chain had a result in the
    subnormal range (or flushed to zero) and rounded inexactly.

    The chain is recomputed in the target format, exactly as the paper
    writes it (r1 = ai/ar, t1 = ai*r1, ur = ar + t1, and the mirror for
    ui), and each operation's rounded result is compared with its exact
    value on the same operands.
    """
    f = fmt.ftype
    ar, ai = f(ar), f(ai)
    with np.errstate(all="ignore"):
        for p, q in ((ar, ai), (ai, ar)):
            r = q / p
            t = q * r
            u = p + t
            exact = ((_fr(q) / _fr(p), r), (_fr(q) * _fr(r), t), (_fr(p) + _fr(t), u))
            for ex, got in exact:
                if not np.isfinite(got):
                    continue
                if ex != 0 and abs(ex) < fmt.sfmin and _fr(got) != ex:
                    return True
    return False


def _factor(step):
    return _fr(step.re), _fr(step.im)


def _kernel_ops_outside(xr: Fraction, xi: Fraction, steps, fmt: Format) -> bool:
    """Exact values of every product and sum the steps form, in order."""
    for kind, cr, ci in steps:
        if kind == "real":
            vals = (xr * cr, xi * cr)
            xr, xi = vals
        elif kind == "imaginary":
            vals = (xi * ci, xr * ci)
            xr, xi = -vals[0], vals[1]
        else:
            p = (xr * cr, xi * ci, xr * ci, xi * cr)
            xr, xi = p[0] - p[1], p[2] + p[3]
            vals = (*p, xr, xi)
        if any(fmt.outside_normal(v) for v in vals):
            return True
    return False


def plan_steps(plan):
    """(kind, re, im) triples of a ScalePlan, with exact factors."""
    return [(s.kind.value, *_factor(s)) for s in plan.steps]


def plan_finite(plan) -> bool:
    return all(np.isfinite(s.re) and np.isfinite(s.im) for s in plan.steps)


def check_element(x, y, a, steps, axis: bool, fmt: Format):
    """Verdict for one scaled element: None if it conforms, "skip:<reason>"
    where the bound does not apply, or a failure message.

    x is the input, y the computed result, a the denominator (complex),
    steps the plan as given by `plan_steps`, axis whether the gamma_2
    per-part bound applies.
    """
    if x == 0 or not (math.isfinite(x.real) and math.isfinite(x.imag)):
        return "skip:x_zero_or_nonfinite"
    xr, xi = _fr(x.real), _fr(x.imag)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        # Finite planned factors with an infinite part of a: x/a is zero.
        return None if y == 0 else f"nonzero result {y!r} for exact zero"
    ar, ai = _fr(a.real), _fr(a.imag)
    den = ar * ar + ai * ai
    qr = (xr * ar + xi * ai) / den
    qi = (xi * ar - xr * ai) / den
    yr_f, yi_f = float(y.real), float(y.imag)
    if math.isinf(fmt.round_once(qr)) or math.isinf(fmt.round_once(qi)):
        return "skip:ref_outside_normal"
    if axis:
        if any(q != 0 and abs(q) < fmt.sfmin for q in (qr, qi)):
            return "skip:ref_outside_normal"
    elif qr * qr + qi * qi < fmt.sfmin * fmt.sfmin:
        return "skip:ref_outside_normal"
    if _kernel_ops_outside(xr, xi, steps, fmt):
        return "skip:kernel_op_outside_normal"
    if not (math.isfinite(yr_f) and math.isfinite(yi_f)):
        return f"non-finite result {y!r}, exact {float(qr)!r}{float(qi):+}j"
    yr, yi = Fraction(yr_f), Fraction(yi_f)
    if axis:
        for got, q in ((yr, qr), (yi, qi)):
            if abs(got - q) > fmt.gamma2 * abs(q):
                return f"axis bound violated: {y!r} vs exact {float(qr)!r}{float(qi):+}j"
        return None
    err_sq = (yr - qr) ** 2 + (yi - qi) ** 2
    if err_sq > fmt.full_bound_sq * (qr * qr + qi * qi):
        return f"complex bound violated: {y!r} vs exact {float(qr)!r}{float(qi):+}j"
    return None


def check_scaled(xs, ys, a, plan, fmt: Format):
    """Check parallel samples of inputs xs and results ys of one call.

    `plan` is the ScalePlan that scaled them; axis plans get the per-part
    bound.  Returns (checked, skips: dict reason -> count, failures).
    """
    case = plan.case.value
    axis = case in AXIS_CASES
    skips: dict[str, int] = {}
    finite = plan_finite(plan)
    plan_skip = None
    if not finite:
        plan_skip = "nonfinite_plan"
    elif case == "full_small" and uv_chain_dirty(a.real, a.imag, fmt):
        plan_skip = "dirty_uv_chain"
    if plan_skip:
        skips[plan_skip] = len(xs)
        return 0, skips, []
    steps = plan_steps(plan)
    checked = 0
    failures = []
    for x, y in zip(xs, ys):
        verdict = check_element(complex(x), complex(y), complex(a), steps, axis, fmt)
        if verdict is None:
            checked += 1
        elif verdict.startswith("skip:"):
            reason = verdict[5:]
            skips[reason] = skips.get(reason, 0) + 1
        else:
            failures.append(verdict)
    return checked, skips, failures

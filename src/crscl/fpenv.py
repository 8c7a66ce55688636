"""IEEE-754 environment constants and the standard rounding-error quantities."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class Precision(enum.Enum):
    BINARY32 = "binary32"
    BINARY64 = "binary64"

    @property
    def ftype(self):
        return np.float32 if self is Precision.BINARY32 else np.float64

    @property
    def ctype(self):
        return np.complex64 if self is Precision.BINARY32 else np.complex128

    @classmethod
    def parse(cls, s: str) -> "Precision":
        try:
            return cls(s.lower())
        except ValueError:
            raise ValueError(f"unsupported precision: {s!r}") from None


# (min normal exponent, unit-roundoff exponent, min subnormal exponent)
_FORMAT = {
    Precision.BINARY32: (-126, -24, -149),
    Precision.BINARY64: (-1022, -53, -1074),
}


@dataclass(frozen=True)
class FpEnv:
    """Constant table for one precision.

    All fields are derived from the format parameters alone; nothing is
    probed at runtime.  `sfmin` is the smallest normal number whose
    reciprocal is still finite, `eps` is the unit roundoff.
    """

    precision: Precision
    sfmin: object
    eps: object
    overflow: object
    min_subnormal: object
    inv_sfmin: object

    # Cached on first use: the plan and kernel read them on every call.
    @cached_property
    def ftype(self):
        return self.precision.ftype

    @cached_property
    def ctype(self):
        return self.precision.ctype


def fp_env(precision: Precision) -> FpEnv:
    f = precision.ftype
    e_min, e_u, e_sub = _FORMAT[precision]
    return FpEnv(
        precision=precision,
        sfmin=f(math.ldexp(1.0, e_min)),
        eps=f(math.ldexp(1.0, e_u)),
        overflow=np.finfo(f).max,
        min_subnormal=f(math.ldexp(1.0, e_sub)),
        inv_sfmin=f(math.ldexp(1.0, -e_min)),
    )


def gamma(k: int, env: FpEnv) -> float:
    """ku/(1-ku), the error bound for a chain of k rounded operations."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    u = float(env.eps)
    ku = k * u
    if ku >= 1.0:
        raise ValueError(f"gamma undefined: k*u = {ku} >= 1")
    return ku / (1.0 - ku)


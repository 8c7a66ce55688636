"""Bit-exact text formats: hex-float scalars and vector files.

Machine-readable output is always hex-float so extreme-exponent values
round-trip exactly; decimal is accepted on input.

Every literal is rounded once to the target precision.  It is read to
binary64 first, which is already the correctly rounded binary64 value.  The
binary32 rounding of that value is the correctly rounded binary32 value
except where the binary64 value lies exactly halfway between two binary32
values; only those literals are read again, exactly.
"""

from __future__ import annotations

import math
import re
from array import array
from fractions import Fraction

import numpy as np

from .fpenv import Precision


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def format_hex(v) -> str:
    x = float(v)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x.hex()


def format_complex_hex(re, im) -> str:
    return f"{format_hex(re)} {format_hex(im)}"


def _binary64(s: str) -> float:
    """The literal s (no surrounding blanks) rounded once to binary64:
    decimal, else hex-float.

    Decimal comes first, since fromhex would read "0.25" as hex digits; a
    token with an "x" can only be hex.
    """
    if "x" not in s and "X" not in s:
        try:
            return float(s)
        except ValueError:
            pass
    try:
        return float.fromhex(s)
    except ValueError:
        raise FormatError(f"not a number: {s!r}") from None


_HEX = re.compile(r"([+-]?)(?:0x)?([0-9a-f]*)(?:\.([0-9a-f]*))?(?:p([+-]?[0-9]+))?", re.IGNORECASE)


def _exact(s: str) -> Fraction:
    """The exact value of a finite literal that `_binary64` accepts."""
    if "x" not in s and "X" not in s:
        try:
            # Fraction reads the same finite decimal literals as float.
            return Fraction(s)
        except ValueError:
            pass
    sign, whole, frac, exp = _HEX.fullmatch(s).groups()
    frac = frac or ""
    q = Fraction(int(whole + frac or "0", 16)) * Fraction(2) ** (int(exp or 0) - 4 * len(frac))
    return -q if sign == "-" else q


def _binary32_midpoints(v: np.ndarray) -> np.ndarray:
    """Mask of the binary64 values halfway between two adjacent binary32
    values, 2^128 counting as the one above the largest.

    A literal that rounds to one of them in binary64 may round the wrong
    way when rounded again to binary32; any other binary64 value rounds to
    binary32 as its literal does.
    """
    m, e = np.frexp(v)
    # v in units of half a binary32 ulp (2^(e-25) when normal, 2^-150 when
    # subnormal): an odd integer exactly at a midpoint.
    q = np.ldexp(m, 25 + e - np.maximum(e, -125))
    with np.errstate(invalid="ignore"):
        return (np.mod(q, 2) == 1) & (e <= 128)


def _round(values, token, precision: Precision) -> np.ndarray:
    """Binary64 values, rounded once to the target; token(i) is the
    literal that values[i] was parsed from.

    A binary32 midpoint is decided from its literal's exact value; rounding
    beyond the binary32 range gives an infinity without a warning.
    """
    v = np.asarray(values, dtype=np.float64)
    if precision is Precision.BINARY64:
        return v
    with np.errstate(over="ignore"):
        out = v.astype(np.float32)
        for i in np.flatnonzero(_binary32_midpoints(v)).tolist():
            mid, exact = values[i], _exact(token(i))
            # out[i] is the even neighbour; the other one is a step toward
            # the exact value, when that lies on its side of the midpoint.
            # float(): against a Python float, numpy compares in float32.
            if exact != mid and (exact > mid) != (float(out[i]) > mid):
                out[i] = np.nextafter(out[i], np.float32(math.inf if exact > mid else -math.inf))
    return out


def parse_real(s: str, precision: Precision):
    """Parse a hex-float or decimal literal, rounding once to the target."""
    s = s.strip()
    return _round([_binary64(s)], lambda i: s, precision)[0]


def _fields(line: str) -> list:
    return line.partition("#")[0].split()


def read_vector(text: str, precision: Precision) -> np.ndarray:
    """One element per line, "re im"; blank lines and # comments ignored."""
    lines = text.splitlines()
    # Flat binary64 parts, and the index in lines of each element.
    values, rows = array("d"), array("q")
    for row, raw in enumerate(lines):
        parts = _fields(raw)
        if len(parts) != 2:
            if not parts:
                continue
            raise FormatError("expected two fields: re im", row + 1)
        try:
            values.append(_binary64(parts[0]))
            values.append(_binary64(parts[1]))
        except FormatError as e:
            raise FormatError(str(e), row + 1) from None
        rows.append(row)
    parts = _round(values, lambda i: _fields(lines[rows[i // 2]])[i % 2], precision)
    out = np.empty(len(rows), dtype=precision.ctype)
    out.real, out.imag = parts[0::2], parts[1::2]
    return out


def write_vector(x: np.ndarray) -> str:
    lines = [format_complex_hex(v.real, v.imag) for v in x]
    return "\n".join(lines) + ("\n" if lines else "")


"""Bit-exact text formats: hex-float scalars, vector files, matrix files.

Machine-readable output is always hex-float so extreme-exponent values
round-trip exactly; decimal is accepted on input.
"""

from __future__ import annotations

import math

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


# A literal beyond the binary32 range may round to infinity, which numpy
# reports as an overflow warning; only those take an np.errstate.  (A
# finite Python float always fits binary64.)
_BINARY32_MAX = float(np.finfo(np.float32).max)


def parse_real(s: str, precision: Precision):
    """Parse a hex-float or decimal literal, rounding once to the target."""
    s = s.strip()
    # Decimal first: fromhex would happily read "0.25" as hex digits.
    try:
        x = float(s)
    except ValueError:
        try:
            x = float.fromhex(s)
        except ValueError:
            raise FormatError(f"not a number: {s!r}") from None
    if abs(x) > _BINARY32_MAX:
        with np.errstate(over="ignore"):
            return precision.ftype(x)
    return precision.ftype(x)


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_pair(line: str, lineno: int, precision: Precision):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError("expected two fields: re im", lineno)
    try:
        return parse_real(parts[0], precision), parse_real(parts[1], precision)
    except FormatError as e:
        raise FormatError(str(e), lineno) from None


def read_vector(text: str, precision: Precision) -> np.ndarray:
    """One element per line, "re im"; blank lines and # comments ignored."""
    out = []
    for lineno, line in _data_lines(text):
        re, im = _parse_pair(line, lineno, precision)
        out.append(complex(float(re), float(im)))
    return np.array(out, dtype=precision.ctype)


def write_vector(x: np.ndarray) -> str:
    lines = [format_complex_hex(v.real, v.imag) for v in x]
    return "\n".join(lines) + ("\n" if lines else "")


def read_matrix(text: str):
    """Header "m n precision", then m*n lines "re im", column-major."""
    lines = list(_data_lines(text))
    if not lines:
        raise FormatError("empty matrix file")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise FormatError("expected header: m n precision", lineno)
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError("bad dimensions in header", lineno) from None
    precision = Precision.parse(fields[2])
    if m < 1 or n < 1:
        raise FormatError("dimensions must be positive", lineno)
    if len(lines) - 1 != m * n:
        raise FormatError(f"expected {m * n} entries, found {len(lines) - 1}")
    data = np.zeros((m, n), dtype=precision.ctype, order="F")
    for k, (lno, line) in enumerate(lines[1:]):
        re, im = _parse_pair(line, lno, precision)
        data[k % m, k // m] = complex(float(re), float(im))
    return data, precision


def write_matrix(a: np.ndarray, precision: Precision) -> str:
    m, n = a.shape
    lines = [f"{m} {n} {precision.value}"]
    for j in range(n):
        for i in range(m):
            v = a[i, j]
            lines.append(format_complex_hex(v.real, v.imag))
    return "\n".join(lines) + "\n"

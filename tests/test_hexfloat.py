import math

import numpy as np
import pytest

from crscl import Precision
from crscl.hexfloat import (
    FormatError,
    format_complex_hex,
    format_hex,
    parse_real,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)


class TestScalars:
    @pytest.mark.parametrize(
        "v", [0.0, -0.0, 1.0, -1.5, 2.0**-149, 2.0**127, 2.0**-1074, math.pi]
    )
    def test_round_trip_exact(self, v):
        assert float.fromhex(format_hex(v)) == v
        assert math.copysign(1, float.fromhex(format_hex(v))) == math.copysign(1, v)

    def test_non_finite(self):
        assert format_hex(math.inf) == "inf"
        assert format_hex(-math.inf) == "-inf"
        assert format_hex(math.nan) == "nan"

    def test_parse_hex_and_decimal(self):
        assert parse_real("0x1.8p+1", Precision.BINARY64) == 3.0
        assert parse_real("3.0", Precision.BINARY64) == 3.0
        assert parse_real("-inf", Precision.BINARY32) == -math.inf

    def test_parse_rounds_to_target(self):
        # a value with more bits than binary32 carries
        v = parse_real("0x1.00000010p+0", Precision.BINARY32)
        assert v == np.float32(1.0)

    @pytest.mark.filterwarnings("error")
    def test_parse_beyond_range_rounds_without_warning(self):
        assert parse_real("0x1.8p1023", Precision.BINARY32) == math.inf
        assert parse_real("-1e300", Precision.BINARY32) == -math.inf
        # just past the largest binary32 value, still rounding down to it
        assert parse_real("0x1.fffffefp127", Precision.BINARY32) == np.finfo(np.float32).max

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_real("zz", Precision.BINARY32)


class TestVectors:
    def test_round_trip(self):
        x = np.array([1 + 2j, -3.5 + 0j, complex(2.0**-140, -(2.0**120))], dtype=np.complex64)
        back = read_vector(write_vector(x), Precision.BINARY32)
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))

    def test_comments_and_blanks(self):
        text = "# header\n\n1.0 2.0  # trailing\n\n0x1p-1 -0.25\n"
        x = read_vector(text, Precision.BINARY32)
        assert list(x) == [1 + 2j, 0.5 - 0.25j]

    def test_bad_field_count_reports_line(self):
        with pytest.raises(FormatError) as e:
            read_vector("1.0 2.0\n1.0\n", Precision.BINARY32)
        assert e.value.line == 2

    def test_empty(self):
        assert len(read_vector("", Precision.BINARY32)) == 0
        assert write_vector(np.array([], dtype=np.complex64)) == ""


class TestMatrices:
    def test_round_trip_column_major(self):
        a = np.array([[1 + 1j, 2], [3, 4 - 2j]], dtype=np.complex64, order="F")
        text = write_matrix(a, Precision.BINARY32)
        back, prec = read_matrix(text)
        assert prec is Precision.BINARY32
        assert back.flags.f_contiguous
        assert np.array_equal(back, a)

    def test_header_errors(self):
        with pytest.raises(FormatError):
            read_matrix("")
        with pytest.raises(FormatError):
            read_matrix("2 2\n")
        with pytest.raises(FormatError):
            read_matrix("2 2 binary32\n1 0\n")  # wrong entry count

    def test_complex_format(self):
        assert format_complex_hex(1.0, -2.0) == "0x1.0000000000000p+0 -0x1.0000000000000p+1"

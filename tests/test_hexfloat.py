import math

import numpy as np
import pytest

from crscl import Precision
from crscl.hexfloat import (
    FormatError,
    format_complex_hex,
    format_hex,
    parse_real,
    read_vector,
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

    @pytest.mark.parametrize(
        "literal,want",
        [
            # Just above the midpoint 1 + 2^-24, which binary64 rounds to.
            ("0x1.0000010000000001p0", "0x1.000002p+0"),
            ("1.00000005960464477539062500000001", "0x1.000002p+0"),
            ("-0x1.0000010000000001p0", "-0x1.000002p+0"),
            # Just above half the smallest subnormal.
            ("0x1.00000000000000001p-150", "0x1p-149"),
            ("-0x1.00000000000000001p-150", "-0x1p-149"),
            # Just below the overflow threshold 2^128 - 2^103.
            ("0x1.fffffefffffffffffp127", "0x1.fffffep+127"),
            # Exactly on a midpoint: ties to even.
            ("0x1.000001p0", "0x1p+0"),
            ("0x1p-150", "0x0p+0"),
        ],
    )
    def test_parse_rounds_binary32_once(self, literal, want):
        assert parse_real(literal, Precision.BINARY32) == float.fromhex(want)
        # Either part of an element, after comment and blank lines.
        x = read_vector(f"# c\n{literal} 1\n\n0 {literal}  # c\n", Precision.BINARY32)
        assert x[0].real == x[1].imag == float.fromhex(want)

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_real("zz", Precision.BINARY32)

    def test_complex_format(self):
        assert format_complex_hex(1.0, -2.0) == "0x1.0000000000000p+0 -0x1.0000000000000p+1"


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


    def test_accepted_syntax(self):
        # Bare hex without 0x, digit underscores, infinities and NaNs.
        text = "1p3 ff\n1_0 -0x1.8p-1\ninf -nan\n-inf nan\n"
        x = read_vector(text, Precision.BINARY64)
        assert list(x[:2]) == [8 + 255j, 10 - 0.75j]
        assert x[2].real == math.inf and x[3].real == -math.inf
        assert np.isnan(x[2].imag) and math.copysign(1, x[2].imag) == -1
        assert np.isnan(x[3].imag) and math.copysign(1, x[3].imag) == 1

    def test_comment_only_blank_and_crlf_lines(self):
        text = "# header only\r\n\r\n   \r\n1 2\r\n  # indented comment\r\n3 -4 # tail\r\n"
        x = read_vector(text, Precision.BINARY32)
        assert list(x) == [1 + 2j, 3 - 4j]

    def test_bad_token_message_and_line(self):
        with pytest.raises(FormatError) as e:
            read_vector("1 2\n# c\n\n3 0x1.zp0\n", Precision.BINARY32)
        assert e.value.line == 4
        assert str(e.value) == "line 4: not a number: '0x1.zp0'"

    def test_three_fields_message_and_line(self):
        with pytest.raises(FormatError) as e:
            read_vector("1 2\n\n1 2 3\n", Precision.BINARY64)
        assert e.value.line == 3
        assert str(e.value) == "line 3: expected two fields: re im"

    @pytest.mark.filterwarnings("error")
    def test_binary32_overflow_is_quiet(self):
        x = read_vector("1e300 -0x1.8p1023\n0x1.ffffffp127 1\n", Precision.BINARY32)
        assert list(x.real) == [math.inf, math.inf]
        assert x[0].imag == -math.inf

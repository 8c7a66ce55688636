import json
import os
import subprocess
import sys

import numpy as np
import pytest

import crscl
from crscl.cli import main
from crscl.hexfloat import read_vector, write_vector
from crscl import Precision, StridedVector, crscl as crscl_scale, fp_env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReproduceIssues:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "reproduce-issues")
        assert code == 0
        assert "issue1" in out and "issue2" in out
        assert "MISMATCH" not in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "reproduce-issues", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "reproduce-issues"
        assert [i["label"] for i in payload["issues"]] == ["issue1", "issue2"]
        assert all(i["match"] for i in payload["issues"])

    def test_binary64(self, capsys):
        code, out, _ = run(capsys, "reproduce-issues", "--precision", "binary64", "--format", "json")
        assert code == 0
        assert all(i["match"] for i in json.loads(out)["issues"])


class TestStress:
    def test_json_clean(self, capsys):
        code, out, _ = run(
            capsys, "stress", "--profile", "mixed", "--count", "300",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["samples"] > 0

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "stress", "--profile", "safe", "--count", "100", "--format", "csv",
            "--engine", "crscl", "--engine", "naive_smith",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("engine,")
        assert len(lines) == 3

    def test_naive_violations_do_not_fail_run(self, capsys):
        # exit reflects crscl conformance only; naive rows are informational
        code, out, _ = run(
            capsys, "stress", "--profile", "huge", "--count", "200",
            "--engine", "naive_textbook", "--engine", "crscl", "--format", "csv",
        )
        assert code == 0

    def test_unknown_profile(self, capsys):
        code, _, err = run(capsys, "stress", "--profile", "nope")
        assert code == 2
        assert "choose from" in err

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CRSCL_SEED", "7")
        code1, out1, _ = run(capsys, "stress", "--profile", "safe", "--count", "50", "--format", "csv")
        code2, out2, _ = run(capsys, "stress", "--profile", "safe", "--count", "50",
                             "--seed", "7", "--format", "csv")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CRSCL_SEED", "0x1p3")
        code, out, err = run(capsys, "stress", "--profile", "safe", "--count", "10")
        assert code == 2
        assert out == ""
        assert "bad CRSCL_SEED: '0x1p3'" in err


class TestScale:
    def test_scales_file(self, capsys, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("4.0 8.0\n-2.0 0.0\n")
        code, out, _ = run(
            capsys, "scale", "--in", str(src), "--denom", "2.0", "0.0",
        )
        assert code == 0
        x = read_vector(out, Precision.BINARY32)
        assert list(x) == [2 + 4j, -1 + 0j]

    def test_explain_prints_plan(self, capsys, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("1.0 0.0\n")
        code, out, err = run(
            capsys, "scale", "--in", str(src), "--denom", "0x1p-140", "0.0", "--explain",
        )
        assert code == 0
        assert "case: real_denominator" in err
        assert err.count("step:") == 2

    @pytest.mark.parametrize("denom", [("-0x1p+3", "0x1p+0"), ("0x1p+0", "-0x1.8p-1"), ("-inf", "-.5")])
    def test_negative_denominator_parts(self, capsys, tmp_path, denom):
        src = tmp_path / "v.txt"
        src.write_text("1.0 0.0\n2.5 -1.0\n")
        code, out, err = run(capsys, "scale", "--in", str(src), "--denom", *denom)
        assert code == 0, err
        x = np.array([1.0, 2.5 - 1.0j], dtype=np.complex64)
        parts = tuple(np.float32(float.fromhex(d) if "x" in d else float(d)) for d in denom)
        crscl_scale(StridedVector.wrap(x), parts, fp_env(Precision.BINARY32))
        assert out == write_vector(x)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "scale", "--in", str(tmp_path / "absent"), "--denom", "1", "0")
        assert code == 2

    def test_bad_vector(self, capsys, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("1.0\n")
        code, _, err = run(capsys, "scale", "--in", str(src), "--denom", "1", "0")
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_denominator_beyond_range_is_quiet(self, capsys, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("0x1p+0 0x1p+0\n")
        code, out, err = run(
            capsys, "scale", "--in", str(src), "--denom", "0x1.8p1023", "0x1p1022",
        )
        assert code == 0
        assert err == ""
        assert out == "nan nan\n"

    def test_output_file(self, capsys, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("1.0 1.0\n")
        dst = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "scale", "--in", str(src), "--denom", "1.0", "0.0", "--out", str(dst),
        )
        assert code == 0
        assert out == ""
        assert read_vector(dst.read_text(), Precision.BINARY32)[0] == 1 + 1j


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce-issues",),
        ("reproduce-issues", "--format", "json"),
        ("scale", "--in", "{vec}", "--denom", "1", "0"),
    ],
)
def test_unwritable_out_is_an_io_error(capsys, tmp_path, argv):
    vec = tmp_path / "v.txt"
    vec.write_text("1.0 1.0\n")
    dst = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *(a.format(vec=vec) for a in argv), "--out", str(dst))
    assert code == 2
    assert str(dst) in err
    assert "Traceback" not in err
    assert not dst.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scale", "--in", "{vec}", "--denom", "1", "0", "--format", "text"), "unrecognized arguments"),
        (("scale", "--in", "{vec}", "--denom", "1", "0", "--format", "json"), "unrecognized arguments"),
        (("scale", "--in", "{vec}", "--denom", "1", "0", "--format", "csv"), "unrecognized arguments"),
        (("scale", "--in", "{vec}", "--denom", "1", "0", "--seed", "3"), "unrecognized arguments"),
        (("reproduce-issues", "--seed", "3"), "unrecognized arguments"),
        (("reproduce-issues", "--format", "csv"), "invalid choice"),
        (("bench", "--format", "csv"), "invalid choice"),
    ],
)
def test_ignored_options_are_rejected(capsys, tmp_path, argv, message):
    vec = tmp_path / "v.txt"
    vec.write_text("1.0 1.0\n")
    code, out, err = run(capsys, *(a.format(vec=vec) for a in argv))
    assert code == 2
    assert out == ""
    assert message in err


class TestBench:
    def test_emits_valid_json(self, capsys, monkeypatch):
        import crscl.cli as cli
        monkeypatch.setattr(cli, "_BENCH_SIZES", (64, 256))
        monkeypatch.setattr(cli, "_BENCH_REPS", 3)
        code, out, _ = run(capsys, "bench", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "bench"
        assert "6 flops/element" in payload["comparison"]
        engines = {r["engine"] for r in payload["rows"]}
        assert engines == {"crscl", "naive_smith", "naive_textbook"}


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "bench", "--bogus")[0] == 2


def test_python_dash_m(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(crscl.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "crscl", "reproduce-issues", "--format", "json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["command"] == "reproduce-issues"
    assert all(i["match"] for i in payload["issues"])

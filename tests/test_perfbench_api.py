"""The benchmark's view of the library: every function its tracer wraps
exists, and the calls its stream workload makes still work as written."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from crscl import Precision, StridedVector, fp_env

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # No bytecode cache, so loading leaves perfbench/ untouched.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.TARGETS
    for mod_name, fn_name, annotate in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"crscl.{mod_name}"), fn_name, None)
        assert callable(fn), f"crscl.{mod_name}.{fn_name}"
        if annotate is None:
            assert inspect.isgeneratorfunction(fn), f"crscl.{mod_name}.{fn_name}"


def test_stream_reference_calls():
    # Positional, through crscl.vector, as the stream workload's traced
    # reference pass calls them.
    V = importlib.import_module("crscl.vector")
    env = fp_env(Precision.BINARY32)
    a = complex(3.0, -4.0)
    x = np.full(8, 1 + 1j, dtype=np.complex64)
    counters = {e: V.FlopCounter() for e in ("crscl", "naive_smith", "naive_textbook")}
    plan = V.crscl(StridedVector.wrap(x.copy()), a, env, counters["crscl"])
    V.naive_div_scale(StridedVector.wrap(x.copy()), a, V.Division.SMITH, env, counters["naive_smith"])
    V.naive_div_scale(StridedVector.wrap(x.copy()), a, V.Division.TEXTBOOK, env, counters["naive_textbook"])
    assert counters["crscl"] == plan.cost(8)
    assert (counters["crscl"].real_mul, counters["crscl"].real_div) == (32, 4)
    smith, textbook = counters["naive_smith"], counters["naive_textbook"]
    assert (smith.real_mul, smith.real_add, smith.real_div, smith.complex_div) == (24, 24, 24, 8)
    assert (textbook.real_mul, textbook.real_add, textbook.real_div) == (48, 24, 16)

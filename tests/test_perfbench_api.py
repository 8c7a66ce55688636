"""The benchmark's view of the library: every function its tracer wraps
exists, and the calls its stream workload makes still work as written."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from crscl import (
    CaseProfile,
    CaseTag,
    Precision,
    ProfileName,
    StridedVector,
    apply_plan,
    fp_env,
    gen_cases,
    reciprocal_plan,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    # No bytecode cache, so loading leaves perfbench/ untouched.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
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


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
def test_full_small_plans_pass_the_rational_check(monkeypatch, precision):
    # The benchmark's own Fraction check, element by element, on every
    # FULL_SMALL plan of the profiles that make them: no element may break
    # the bound, and enough elements must be checked to mean something.
    exact = load_perfbench(monkeypatch, "exact")
    fmt = exact.Format(precision.value)
    env = fp_env(precision)
    checked = 0
    for name in (ProfileName.TINY_DENOMINATOR, ProfileName.SUBNORMAL_PARTS):
        for a, x in gen_cases(CaseProfile(name, seed=3, count=150), precision):
            plan = reciprocal_plan(a, env)
            if plan.case is not CaseTag.FULL_SMALL:
                continue
            y = x.copy()
            apply_plan(StridedVector.wrap(y), plan)
            steps = exact.plan_steps(plan)
            for xv, yv in zip(x, y):
                verdict = exact.check_element(complex(xv), complex(yv), complex(a), steps, False, fmt)
                assert verdict is None or verdict.startswith("skip:"), (a, xv, verdict)
                checked += verdict is None
    assert checked >= 100, checked


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py puts its own directory on sys.path and imports its
    # siblings under bare names; both are undone afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        yield load_perfbench(monkeypatch, "workloads")
    finally:
        for name in ("exact", "layers", "tracer"):
            if name not in before:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", ["Short", "Lu"])
def test_workload_round_verifies(workloads, tmp_path, name, seed):
    # One round of the workload's op list, each output checked by the
    # benchmark's own verify: a failed check here is a failed benchmark op.
    w = getattr(workloads, name)(seed, workloads._crscl_modules(), str(tmp_path), False)
    notes = []
    for i in range(len(w.ops)):
        w.prepare(i)
        ok, note = w.verify(i, w.run(i))
        if not ok:
            notes.append(note)
    assert len(w.ops) > 0
    assert notes == []
    if name == "Short":
        assert w.check_stats["checked"] > 0

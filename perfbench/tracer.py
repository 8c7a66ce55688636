"""In-memory span tracer for the crscl layers.

`install()` wraps each layer's public functions and rebinds every module
attribute of the `crscl` package that refers to one of them.  Layers call
each other through those module attributes (`lu` calls `crscl`, `crscl`
calls `reciprocal_plan` and `apply_plan`, ...), so nested calls are traced
too.  A span records its function, its parent span, start and end times
(perf_counter_ns, CLOCK_MONOTONIC), and two integers that the function's
annotator derives from its arguments and result (`tag`, `n`).  Rare calls may
also keep an `extra` value.  Spans stay in flat arrays in memory and are
written out once, by `dump`.
"""

from __future__ import annotations

import atexit
import importlib
import inspect
import json
import os
import time
from array import array

import numpy as np

LAYER_MODULES = ("plan", "vector", "lu", "oracle", "hexfloat", "cli")
PRECISIONS = ("binary32", "binary64")
CASES = (
    "real_denominator",
    "imaginary_denominator",
    "full_safe",
    "full_inf_operand",
    "full_small",
    "full_large",
    "full_inf_rescue",
)
PROFILES = ("safe", "huge", "tiny", "mixed", "subnormal", "special")
COMMANDS = ("stress", "scale", "reproduce-issues")


def _prec_of_vector(x) -> int:
    return 0 if x.data.dtype == np.complex64 else 1


def _prec_of_env(env) -> int:
    return PRECISIONS.index(env.precision.value)


def _plan_tag(args, res):
    # tag: case index, precision (bit 3), two-step (bit 4); n: real divisions.
    tag = CASES.index(res.case.value) | _prec_of_env(args[1]) << 3 | (len(res.steps) - 1) << 4
    return tag, res.division_count


def _crscl_tag(args, res):
    x = args[0]
    steps = len(res.steps)
    tag = (
        _prec_of_vector(x)
        | (0 if x.stride == 1 else 2)
        | (steps - 1) << 2
        | CASES.index(res.case.value) << 3
    )
    return tag, x.n


def _vector_tag(args, res):
    x = args[0]
    return _prec_of_vector(x) | (0 if x.stride == 1 else 2), x.n


def _matrix_tag(args, res):
    a = args[0]
    return PRECISIONS.index(a.precision.value), a.n


def _report_tag(args, res):
    # tag: profile index * 2 + precision index; n: samples; extra: the rest.
    profile, precision = args[1], args[2]
    tag = PROFILES.index(profile.name.value) * 2 + PRECISIONS.index(precision.value)
    return tag, res.samples, [res.excluded, res.violations]


def _read_vector_tag(args, res):
    return len(args[0]), len(res)


def _write_vector_tag(args, res):
    return len(res), len(args[0])


def _main_tag(args, res):
    argv = args[0] if args else None
    cmd = argv[0] if argv else ""
    return COMMANDS.index(cmd) if cmd in COMMANDS else -1, int(res or 0)


# (module, function, annotator); every public function of a layer that the
# workloads reach.  fpenv is a constant table and is left to plan's time.
TARGETS = (
    ("plan", "reciprocal_plan", _plan_tag),
    ("vector", "crscl", _crscl_tag),
    ("vector", "rscl", _vector_tag),
    ("vector", "apply_plan", _vector_tag),
    ("vector", "apply_step", _vector_tag),
    ("vector", "scal_real", _vector_tag),
    ("vector", "scal_imaginary", _vector_tag),
    ("vector", "scal_complex", _vector_tag),
    ("vector", "naive_div_scale", _vector_tag),
    ("lu", "getf2", _matrix_tag),
    ("lu", "getf2_naive", _matrix_tag),
    ("lu", "backward_error", _matrix_tag),
    ("oracle", "error_report", _report_tag),
    ("oracle", "gen_cases", None),
    ("hexfloat", "read_vector", _read_vector_tag),
    ("hexfloat", "write_vector", _write_vector_tag),
    ("cli", "main", _main_tag),
)

COLUMNS = ("name", "parent", "t0", "t1", "tag", "n")


class Tracer:
    """Span store plus the wrappers that fill it.  Single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.stack: list[int] = []
        self.extra: dict[int, object] = {}
        self.enabled = True

    def _open(self, name_id: int) -> int:
        c = self.cols
        idx = len(c["t0"])
        c["name"].append(name_id)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["t0"].append(0)
        c["t1"].append(0)
        c["tag"].append(0)
        c["n"].append(0)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, name: str, annotate):
        name_id = len(self.names)
        self.names.append(name)
        t0s, t1s, tags, ns = (self.cols[k] for k in ("t0", "t1", "tag", "n"))
        clock = time.perf_counter_ns

        if annotate is None:
            # Generator: one span per item produced, parented to whichever
            # span is consuming it; the final (exhausting) span has n = 0.
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self.enabled:
                    return it
                return self._trace_items(it, name_id)

        else:

            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                idx = self._open(name_id)
                t0s[idx] = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    t1s[idx] = clock()
                    self.stack.pop()
                ann = annotate(args, res)
                tags[idx], ns[idx] = ann[0], ann[1]
                if len(ann) > 2:
                    self.extra[idx] = ann[2]
                return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _trace_items(self, it, name_id):
        t0s, t1s, ns = self.cols["t0"], self.cols["t1"], self.cols["n"]
        clock = time.perf_counter_ns
        while True:
            idx = self._open(name_id)
            t0s[idx] = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                t1s[idx] = clock()
                self.stack.pop()
            ns[idx] = 1
            yield item

    def install(self) -> None:
        mods = {m: importlib.import_module(f"crscl.{m}") for m in LAYER_MODULES}
        every = [importlib.import_module("crscl"), *mods.values()]
        for mod_name, fn_name, annotate in TARGETS:
            fn = getattr(mods[mod_name], fn_name)
            if annotate is None and not inspect.isgeneratorfunction(fn):
                raise TypeError(f"{mod_name}.{fn_name} is not a generator")
            w = self._wrap(fn, f"{mod_name}.{fn_name}", annotate)
            for m in every:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, w)

    def dump(self, path: str, **meta) -> None:
        arrays = {c: np.frombuffer(self.cols[c], dtype=np.int64) for c in COLUMNS}
        text = {k: np.array(json.dumps(v)) for k, v in (("names", self.names), ("meta", meta), ("extra", self.extra))}
        np.savez(path, **text, **arrays)


def load(path: str) -> dict:
    """One dumped span file as numpy columns, with self time per span."""
    with np.load(path) as z:
        spans = {c: z[c].copy() for c in COLUMNS}
        spans["names"] = json.loads(str(z["names"]))
        spans["meta"] = json.loads(str(z["meta"]))
        spans["extra"] = {int(k): v for k, v in json.loads(str(z["extra"])).items()}
    dur = spans["t1"] - spans["t0"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    spans["dur"] = dur
    spans["self"] = dur - child.astype(np.int64)
    return spans


def install_for_cli_child() -> None:
    """Trace a CLI process; spans go to $PERFBENCH_TRACE_OUT at exit.

    Records, as meta `t_imported`, the CLOCK_MONOTONIC time at which the
    interpreter had started and imported `crscl.cli`.
    """
    out = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    tracer.install()
    t_imported = time.monotonic()
    atexit.register(tracer.dump, out, t_imported=t_imported)

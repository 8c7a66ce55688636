"""Command-line front end.

Subcommands: reproduce-issues (the two ill-behaved LU matrices),
stress (bound-conformance sweeps), bench (timing and flop accounting),
scale (apply a reciprocal scaling to a vector file).

Exit codes: 0 pass, 1 numerical assertion failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time

import numpy as np

from .fpenv import Precision, fp_env
from .hexfloat import (
    FormatError,
    format_complex_hex,
    format_hex,
    parse_real,
    read_vector,
    write_vector,
)
from .lu import backward_error, getf2, getf2_naive, paper_issue_matrices
from .oracle import (
    NAIVE_DIVISION,
    CaseProfile,
    Engine,
    ProfileName,
    error_report,
)
from .vector import (
    Division,
    FlopCounter,
    StridedVector,
    crscl,
    naive_div_scale,
)

DEFAULT_SEED = 0


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env_seed = os.environ.get("CRSCL_SEED")
    if env_seed is not None:
        try:
            return int(env_seed)
        except ValueError:
            raise ValueError(f"bad CRSCL_SEED: {env_seed!r} is not an integer") from None
    return DEFAULT_SEED


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _close(c1: complex, c2: complex, rtol: float) -> bool:
    if rtol == 0.0:
        return c1 == c2
    scale = abs(c2)
    return abs(c1 - c2) <= rtol * scale


# --------------------------------------------------------------------------
# reproduce-issues
# --------------------------------------------------------------------------


def cmd_reproduce_issues(args) -> int:
    precision = Precision.parse(args.precision)
    env = fp_env(precision)
    lines = []
    records = []
    ok = True
    for label, matrix, expected in paper_issue_matrices(precision):
        naive = getf2_naive(matrix, env, Division.SMITH)
        fixed = getf2(matrix, env)
        l21 = complex(fixed.lu.data[1, 0])
        u22 = complex(fixed.lu.data[1, 1])
        naive_l21 = complex(naive.lu.data[1, 0])
        naive_u22 = complex(naive.lu.data[1, 1])
        rtol = expected.get("u22_rtol", 0.0)
        match = (
            naive.info == expected["naive_info"]
            and fixed.info == 0
            and l21 == expected["l21"]
            and _close(u22, expected["u22"], rtol)
        )
        ok = ok and match
        lines.append(
            f"{label}: naive info={naive.info}, crscl info={fixed.info}, "
            f"L21={format_complex_hex(l21.real, l21.imag)}, "
            f"U22={format_complex_hex(u22.real, u22.imag)}, "
            f"{'ok' if match else 'MISMATCH'}"
        )
        if not match:
            lines.append(
                f"  expected: naive info={expected['naive_info']}, crscl info=0, "
                f"L21={format_complex_hex(expected['l21'].real, expected['l21'].imag)}, "
                f"U22={format_complex_hex(expected['u22'].real, expected['u22'].imag)}"
            )
        lines.append(
            f"  naive:  L21={format_complex_hex(naive_l21.real, naive_l21.imag)} "
            f"U22={format_complex_hex(naive_u22.real, naive_u22.imag)} "
            f"backward_error={backward_error(matrix, naive):.6g}"
        )
        lines.append(
            f"  crscl:  backward_error={backward_error(matrix, fixed):.6g}"
        )
        records.append(
            {
                "label": label,
                "naive_info": naive.info,
                "crscl_info": fixed.info,
                "l21": [format_hex(l21.real), format_hex(l21.imag)],
                "u22": [format_hex(u22.real), format_hex(u22.imag)],
                "match": match,
            }
        )
    if args.format == "json":
        _emit(
            json.dumps(
                {"command": "reproduce-issues", "precision": precision.value, "issues": records},
                indent=2,
            )
            + "\n",
            args,
        )
    else:
        _emit("\n".join(lines) + "\n", args)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# stress
# --------------------------------------------------------------------------


def _report_dict(engine: Engine, precision: Precision, rep) -> dict:
    return {
        "command": "stress",
        "precision": precision.value,
        "engine": engine.value,
        "samples": rep.samples,
        "excluded": rep.excluded,
        "violations": rep.violations,
        "max_rel_err": format_hex(rep.max_rel_err),
        "bound": format_hex(rep.bound),
        "case_histogram": rep.case_histogram,
        "failures": rep.failures,
    }


def _report_csv(rows) -> str:
    header = "engine,precision,samples,excluded,violations,max_rel_err,bound"
    lines = [header]
    for engine, precision, rep in rows:
        lines.append(
            f"{engine.value},{precision.value},{rep.samples},{rep.excluded},"
            f"{rep.violations},{format_hex(rep.max_rel_err)},{format_hex(rep.bound)}"
        )
    return "\n".join(lines) + "\n"


def cmd_stress(args) -> int:
    precision = Precision.parse(args.precision)
    name = ProfileName(args.profile)
    engines = [Engine(e) for e in (args.engine or ["crscl"])]
    profile = CaseProfile(name, seed=_seed_from(args), count=args.count)
    rows = []
    crscl_violations = 0
    for engine in engines:
        rep = error_report(engine, profile, precision)
        rows.append((engine, precision, rep))
        if engine is Engine.CRSCL:
            crscl_violations += rep.violations
    if args.format == "json":
        payload = [_report_dict(e, p, r) for e, p, r in rows]
        _emit(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n", args)
    elif args.format == "csv":
        _emit(_report_csv(rows), args)
    else:
        lines = []
        for engine, _, rep in rows:
            lines.append(
                f"{engine.value}: samples={rep.samples} excluded={rep.excluded} "
                f"violations={rep.violations} max_rel_err={rep.max_rel_err:.6g} "
                f"bound={rep.bound:.6g}"
            )
            for f in rep.failures:
                lines.append(f"  violation: a={f['a']} x={f['x']} rel_err={f['rel_err']}")
        _emit("\n".join(lines) + "\n", args)
    return 0 if crscl_violations == 0 else 1


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

_BENCH_SIZES = (100, 10_000, 1_000_000)
_BENCH_REPS = 15


def _bench_engine(engine: Engine, x0: np.ndarray, a, env) -> tuple[float, float]:
    """Median ns/element and measured flops/element over the repetitions."""
    n = len(x0)
    times = []
    counter = FlopCounter()
    for _ in range(_BENCH_REPS):
        y = x0.copy()
        sv = StridedVector.wrap(y)
        t0 = time.perf_counter()
        if engine is Engine.CRSCL:
            crscl(sv, a, env, counter)
        else:
            naive_div_scale(sv, a, NAIVE_DIVISION[engine], env, counter)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    if n == 0:
        return float("nan"), 0.0
    per_elem_ops = (counter.real_mul + counter.real_add) / (_BENCH_REPS * n)
    return med / n * 1e9, per_elem_ops


def cmd_bench(args) -> int:
    precision = Precision.parse(args.precision)
    env = fp_env(precision)
    rng = np.random.default_rng(_seed_from(args))
    a = complex(3.0 + rng.random(), -2.0 + rng.random())
    rows = []
    for n in _BENCH_SIZES:
        re = (rng.random(n) - 0.5).astype(env.ftype)
        im = (rng.random(n) - 0.5).astype(env.ftype)
        x0 = np.zeros(n, dtype=env.ctype)
        x0.real = re
        x0.imag = im
        for engine in Engine:
            ns_per_elem, flops = _bench_engine(engine, x0, a, env)
            rows.append(
                {
                    "n": n,
                    "engine": engine.value,
                    "ns_per_element": None if n == 0 else round(ns_per_elem, 3),
                    "flops_per_element": flops,
                }
            )
    claim = (
        "reciprocal scaling: 6 flops/element in the safe case (8 when scaled); "
        "naive per-element division: >= 13 operations including two divisions"
    )
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "command": "bench",
                    "precision": precision.value,
                    "comparison": claim,
                    "rows": rows,
                },
                indent=2,
            )
            + "\n",
            args,
        )
    else:
        lines = [claim]
        for r in rows:
            ns = "n/a" if r["ns_per_element"] is None else f"{r['ns_per_element']}"
            lines.append(
                f"n={r['n']:>8} {r['engine']:<15} ns/element={ns:>10} "
                f"flops/element={r['flops_per_element']:.1f}"
            )
        _emit("\n".join(lines) + "\n", args)
    return 0


# --------------------------------------------------------------------------
# scale
# --------------------------------------------------------------------------


def cmd_scale(args) -> int:
    precision = Precision.parse(args.precision)
    env = fp_env(precision)
    try:
        a_re = parse_real(args.denom[0], precision)
        a_im = parse_real(args.denom[1], precision)
    except FormatError as e:
        print(f"bad denominator: {e}", file=sys.stderr)
        return 2
    with open(args.infile) as fh:
        x = read_vector(fh.read(), precision)
    plan = crscl(StridedVector.wrap(x), (a_re, a_im), env)
    if args.explain:
        print(f"case: {plan.case.value}", file=sys.stderr)
        for step in plan.steps:
            print(
                f"step: {step.kind.value} {format_complex_hex(step.re, step.im)}",
                file=sys.stderr,
            )
    _emit(write_vector(x), args)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any form parse_real accepts (-0x1p+3,
    -inf, -.5) as a value, not as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="crscl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json"), seed=True):
        sp.add_argument("--precision", choices=["binary32", "binary64"], default="binary32")
        if formats:
            sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", default=None, help="write the report to this path")
        if seed:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("reproduce-issues", help="re-run the two LU issue matrices")
    common(sp, seed=False)
    sp.set_defaults(func=cmd_reproduce_issues)

    sp = sub.add_parser("stress", help="differential bound-conformance sweep")
    common(sp, formats=("text", "json", "csv"))
    sp.add_argument("--profile", default="safe", choices=[n.value for n in ProfileName])
    sp.add_argument("--count", type=int, default=10_000)
    sp.add_argument("--engine", action="append",
                    choices=[e.value for e in Engine],
                    help="repeatable; default crscl")
    sp.set_defaults(func=cmd_stress)

    sp = sub.add_parser("bench", help="time crscl against naive division")
    common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("scale", help="scale a vector file by 1/a")
    common(sp, formats=(), seed=False)
    sp.add_argument("--in", dest="infile", required=True, help="input vector file")
    sp.add_argument("--denom", nargs=2, required=True, metavar=("RE", "IM"),
                    help="denominator parts, hex-float or decimal")
    sp.add_argument("--explain", action="store_true",
                    help="print the case tag and plan steps to stderr")
    sp.set_defaults(func=cmd_scale)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())

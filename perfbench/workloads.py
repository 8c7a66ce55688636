"""The four benchmark workloads, each a closed loop with one caller.

Run as a script, this file is one workload process: `run.py` starts it
fresh for every pass, with BLAS threads pinned to 1 and `src` on
PYTHONPATH.  It builds the workload's inputs from the seed, runs whole
rounds of the workload's fixed op list until the time is up, checks every
op's output outside the timed region, and writes one JSON result.

A round is the same op list every time.  The first round verifies each
op's output against a reference computed here; in later rounds an op
whose output fingerprint matches the first round's gets the same verdict,
and any other output fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exact  # noqa: E402
import layers  # noqa: E402

PRECS = ("binary32", "binary64")


def tail_percentile(min_ops: int) -> float:
    """Highest percentile, to 0.1, with at least ten of min_ops beyond it."""
    return math.floor(1000 * (1 - 10 / min_ops)) / 10


def _tally(stats: dict, checked: int, skips: dict) -> None:
    stats["checked"] += checked
    for k, v in skips.items():
        stats[k] = stats.get(k, 0) + v


def _crscl_modules():
    names = ("fpenv", "plan", "vector", "lu", "oracle", "hexfloat", "cli")
    return {n: importlib.import_module(f"crscl.{n}") for n in names}


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def _random_parts(rng, n, ftype, emin=-8, emax=8):
    """n values sign*(1+U)*2^e, e uniform in [emin, emax], rounded to ftype."""
    mant = 1.0 + rng.random(n)
    expo = rng.integers(emin, emax + 1, size=n)
    sign = np.where(rng.integers(0, 2, size=n), -1.0, 1.0)
    return np.ldexp(sign * mant, expo).astype(ftype)


def _complex_vector(rng, n, prec, emin=-8, emax=8):
    ftype = exact.FTYPES[prec]
    out = np.empty(n, dtype=np.complex64 if prec == "binary32" else np.complex128)
    out.real = _random_parts(rng, n, ftype, emin, emax)
    out.imag = _random_parts(rng, n, ftype, emin, emax)
    return out


# --------------------------------------------------------------------------
# stream
# --------------------------------------------------------------------------

# case -> which of the two base vectors it scales.  Small elements
# (2^-14..2^-6) keep quotients by tiny denominators finite; large ones
# (2^4..2^12) keep every intermediate of the huge-denominator plans normal,
# so no op is dominated by subnormal arithmetic.
STREAM_CASES = {
    "real": "small",
    "imaginary": "small",
    "full_safe": "large",
    "full_inf_operand": "large",
    "scaled_real": "small",
    "full_small": "small",
    "full_large": "large",
    "full_inf_rescue": "large",
}
STREAM_RANGES = {"small": (-14, -6), "large": (4, 12)}


def stream_denominator(rng, case: str, prec: str) -> complex:
    """A denominator of the named plan case, drawn with margins so the
    case follows from the format's limits alone."""
    _, emin, emax = exact.FORMATS[prec]

    def sgn():
        return -1.0 if rng.integers(0, 2) else 1.0

    def mant(lo=1.0, hi=2.0):
        return lo + (hi - lo) * rng.random()

    def moderate():
        return sgn() * math.ldexp(mant(), int(rng.integers(-20, 21)))

    if case == "real":
        return complex(moderate(), 0.0)
    if case == "imaginary":
        return complex(0.0, moderate())
    if case == "full_safe":
        return complex(moderate(), moderate())
    if case == "full_inf_operand":
        inf = sgn() * math.inf
        return complex(inf, moderate()) if rng.integers(0, 2) else complex(moderate(), inf)
    if case == "scaled_real":
        # Subnormal with 8 significant bits: exact in either format.
        m = 1.0 + int(rng.integers(0, 256)) / 256
        return complex(sgn() * math.ldexp(m, int(rng.integers(emin - 4, emin))), 0.0)
    if case == "full_small":
        # |a| < sfmin, parts in a power-of-two ratio with 8-bit
        # significands, so the ur/ui chain is exact (no Remark-1 loss).
        m = 1.0 + int(rng.integers(0, 256)) / 256
        ar = math.ldexp(m, int(rng.integers(emin - 6, emin - 4)))
        ai = math.ldexp(ar, int(rng.integers(-1, 2)))
        return complex(sgn() * ar, sgn() * ai)
    if case == "full_large":
        # Parts in [1.2, 1.5)*2^(emax-2): ur, ui in (2^(emax-1), 2^emax).
        return complex(
            sgn() * math.ldexp(mant(1.2, 1.5), emax - 2),
            sgn() * math.ldexp(mant(1.2, 1.5), emax - 2),
        )
    if case == "full_inf_rescue":
        # Parts in [1.2, 1.5)*2^emax: finite a whose ur and ui overflow.
        return complex(
            sgn() * math.ldexp(mant(1.2, 1.5), emax),
            sgn() * math.ldexp(mant(1.2, 1.5), emax),
        )
    raise ValueError(case)


class Stream:
    """Kernel layer (`vector`) does nearly all the work.

    Each op scales a fresh copy of one n = 2^22 vector (32 MiB binary32,
    64 MiB binary64) by crscl; the copy is made outside the timed region.
    A round covers both precisions, contiguous and stride-2 views, and a
    denominator of each one-step and two-step plan case, so a change that
    helps one-step plans but hurts two-step plans shows.
    """

    N = 1 << 22
    SAMPLES = 32
    min_rounds = 7

    def __init__(self, seed: int, mods, rundir: str, traced: bool):
        self.m = mods
        rng = np.random.default_rng([seed, 1])
        self.env = {p: mods["fpenv"].fp_env(mods["fpenv"].Precision(p)) for p in PRECS}
        self.fmt = {p: exact.Format(p) for p in PRECS}
        self.base, self.work, self.ops = {}, {}, []
        for prec in PRECS:
            for size, (lo, hi) in STREAM_RANGES.items():
                self.base[prec, size] = _complex_vector(rng, self.N, prec, lo, hi)
            self.work[prec] = np.empty_like(self.base[prec, "small"])
            for case, size in STREAM_CASES.items():
                a = stream_denominator(rng, case, prec)
                for stride in (1, 2):
                    n = self.N // stride
                    idx = np.sort(rng.choice(n, self.SAMPLES, replace=False))
                    self.ops.append(dict(prec=prec, case=case, base=(prec, size), stride=stride, n=n, a=a, idx=idx))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.check_stats = {"checked": 0}
        self.vector_cls = mods["vector"].StridedVector

    def work_of(self, i):
        return self.ops[i]["n"]

    def prepare(self, i):
        op = self.ops[i]
        np.copyto(self.work[op["prec"]], self.base[op["base"]])
        self.sv = self.vector_cls(self.work[op["prec"]], 0, op["stride"], op["n"])

    def run(self, i):
        op = self.ops[i]
        return self.m["vector"].crscl(self.sv, op["a"], self.env[op["prec"]])

    def fingerprint(self, i, plan):
        op = self.ops[i]
        w, b = self.work[op["prec"]], self.base[op["base"]]
        untouched = True
        if op["stride"] == 2:
            bits = np.uint32 if op["prec"] == "binary32" else np.uint64
            untouched = np.array_equal(w.view(bits).reshape(-1, 2)[1::2], b.view(bits).reshape(-1, 2)[1::2])
        return plan.case, untouched, w[:: op["stride"]][op["idx"]].tobytes()

    def verify(self, i, plan):
        op = self.ops[i]
        w, b = self.work[op["prec"]], self.base[op["base"]]
        if not self.fingerprint(i, plan)[1]:
            return False, "stride-2 run changed an element it does not address"
        x = b[:: op["stride"]][op["idx"]]
        y = w[:: op["stride"]][op["idx"]]
        checked, skips, failures = exact.check_scaled(x, y, op["a"], plan, self.fmt[op["prec"]])
        _tally(self.check_stats, checked, skips)
        if failures:
            return False, f"{op['prec']} {op['case']} stride {op['stride']}: {failures[0]}"
        return True, ""

    def reference(self):
        """Traced pass only: numpy `v *= c`, naive Smith and flop counts on
        one round of the same buffers, timed here with the tracer off."""
        V = self.m["vector"]
        counters = {e: V.FlopCounter() for e in ("crscl", "naive_smith", "naive_textbook")}
        elems = 0
        t_mul = t_crscl = t_smith = 0
        for i, op in enumerate(self.ops):
            prec, env = op["prec"], self.env[op["prec"]]
            a = op["a"]
            elems += op["n"]
            self.prepare(i)
            t0 = time.perf_counter_ns()
            _unwrapped(V.crscl)(self.sv, a, env, counters["crscl"])
            t_crscl += time.perf_counter_ns() - t0
            self.prepare(i)
            t0 = time.perf_counter_ns()
            _unwrapped(V.naive_div_scale)(self.sv, a, V.Division.SMITH, env, counters["naive_smith"])
            t_smith += time.perf_counter_ns() - t0
            self.prepare(i)
            _unwrapped(V.naive_div_scale)(self.sv, a, V.Division.TEXTBOOK, env, counters["naive_textbook"])
            self.prepare(i)
            with np.errstate(all="ignore"):
                c = np.complex128(1) / np.complex128(a)
                c = self.work[prec].dtype.type(c)
                v = self.sv.view()
                t0 = time.perf_counter_ns()
                v *= c
                t_mul += time.perf_counter_ns() - t0
        flops = {}
        for e, c in counters.items():
            flops[e] = dict(
                real_mul_per_elem=c.real_mul / elems,
                real_add_per_elem=c.real_add / elems,
                real_div_per_call=c.real_div / len(self.ops),
            )
        return dict(
            flops=flops,
            vs_numpy_mul=t_mul / t_crscl,
            vs_naive_smith=t_smith / t_crscl,
        )


# --------------------------------------------------------------------------
# short
# --------------------------------------------------------------------------


class Short:
    """Plan construction and per-call overhead dominate; the kernel does
    little.  One crscl per op on an (a, x) pair from `gen_cases`, over all
    six profiles in both precisions (lengths 0-64, every plan branch,
    including NaN, infinite and zero denominators); every fourth op is
    rscl on the real part of a."""

    # One full cycle of the special profile's 15 x 15 value pairs (NaN,
    # infinite and zero parts); 75 drawn cases for each other profile.
    PER_PROFILE = {"special": 225}
    DEFAULT_PER_PROFILE = 75
    SAMPLES = 4
    min_rounds = 1

    def __init__(self, seed: int, mods, rundir: str, traced: bool):
        self.m = mods
        O, F = mods["oracle"], mods["fpenv"]
        rng = np.random.default_rng([seed, 2])
        self.env = {p: F.fp_env(F.Precision(p)) for p in PRECS}
        self.fmt = {p: exact.Format(p) for p in PRECS}
        self.ops = []
        for prec in PRECS:
            for name in O.ProfileName:
                count = self.PER_PROFILE.get(name.value, self.DEFAULT_PER_PROFILE)
                profile = O.CaseProfile(name, seed=int(rng.integers(2**31)), count=count)
                for a, x in O.gen_cases(profile, F.Precision(prec)):
                    self.ops.append(dict(prec=prec, a=a, x=x))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        for k, op in enumerate(self.ops):
            op["rscl"] = k % 4 == 3
            n = len(op["x"])
            op["idx"] = np.sort(rng.choice(n, min(n, self.SAMPLES), replace=False))
        self.vector_cls = mods["vector"].StridedVector
        self.plan_of = _unwrapped(mods["plan"].reciprocal_plan)
        self.check_stats = {"checked": 0}

    def work_of(self, i):
        return 1

    def prepare(self, i):
        self.y = self.ops[i]["x"].copy()
        self.sv = self.vector_cls.wrap(self.y)

    def run(self, i):
        op = self.ops[i]
        env = self.env[op["prec"]]
        if op["rscl"]:
            return self.m["vector"].rscl(self.sv, op["a"].real, env)
        return self.m["vector"].crscl(self.sv, op["a"], env)

    def fingerprint(self, i, plan):
        return self.y.tobytes()

    def verify(self, i, plan):
        op = self.ops[i]
        a = op["a"]
        env = self.env[op["prec"]]
        if op["rscl"]:
            a = complex(a.real, 0.0)
            plan = self.plan_of((env.ftype(a.real), env.ftype(0.0)), env)
        idx = op["idx"]
        checked, skips, failures = exact.check_scaled(
            op["x"][idx], self.y[idx], a, plan, self.fmt[op["prec"]]
        )
        _tally(self.check_stats, checked, skips)
        if failures:
            kind = "rscl" if op["rscl"] else "crscl"
            return False, f"{kind} {op['prec']} a={complex(op['a'])!r}: {failures[0]}"
        return True, ""

    def reference(self):
        return {}


# --------------------------------------------------------------------------
# lu
# --------------------------------------------------------------------------


def _lu_matrix(rng, n, kind, prec):
    """Random complex matrix; kind 1 scales some rows by a huge power of
    two (huge pivots), kind 2 some rows by a tiny one (tiny pivots once
    the normal rows are used up)."""
    _, emin, emax = exact.FORMATS[prec]
    a = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))).astype(np.complex128)
    rows = rng.choice(n, max(1, n // 6), replace=False)
    if kind == 1:
        a[rows, :] *= math.ldexp(1.0, emax - 4)
    elif kind == 2:
        a[rows, :] *= math.ldexp(1.0, emin - 6)
    ctype = np.complex64 if prec == "binary32" else np.complex128
    with np.errstate(all="ignore"):
        return np.asfortranarray(a.astype(ctype))


class Lu:
    """Unblocked LU: shrinking column views of crscl inside a loop that
    also does O(n^2) rank-1 updates.  Sizes n in {12, 48, 160} are
    weighted so each takes about a third of the run: crscl calls dominate
    at n = 12, lu's own rank-1 update at n = 160.  Some matrices have rows
    scaled by extreme powers of two, so pivots reach the tiny and huge plan
    branches; the two paper issue matrices are included."""

    SIZES = ((12, 24), (48, 5), (160, 1))
    min_rounds = 16

    def __init__(self, seed: int, mods, rundir: str, traced: bool):
        self.m = mods
        L, F = mods["lu"], mods["fpenv"]
        rng = np.random.default_rng([seed, 3])
        self.env = {p: F.fp_env(F.Precision(p)) for p in PRECS}
        self.ops = []
        for prec in PRECS:
            P = F.Precision(prec)
            k = 0
            for n, count in self.SIZES:
                for _ in range(count):
                    data = _lu_matrix(rng, n, k % 3, prec)
                    self.ops.append(dict(prec=prec, n=n, m=L.DenseMatrix(data, P), expected=None))
                    k += 1
            for label, matrix, expected in L.paper_issue_matrices(P):
                self.ops.append(dict(prec=prec, n=matrix.n, m=matrix, expected=expected))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]

    def work_of(self, i):
        return 1

    def prepare(self, i):
        pass

    def run(self, i):
        op = self.ops[i]
        return self.m["lu"].getf2(op["m"], self.env[op["prec"]])

    def fingerprint(self, i, r):
        return r.info, tuple(r.ipiv), r.lu.data.tobytes()

    def verify(self, i, r):
        op = self.ops[i]
        if r.info != 0:
            return False, f"{op['prec']} n={op['n']}: info={r.info}"
        be = lu_backward_error(op["m"], r, op["prec"])
        if not be <= 10.0:
            return False, f"{op['prec']} n={op['n']}: backward error {be:.3g} > 10"
        exp = op["expected"]
        if exp is not None:
            l21, u22 = complex(r.lu.data[1, 0]), complex(r.lu.data[1, 1])
            rtol = exp.get("u22_rtol", 0.0)
            if l21 != exp["l21"] or abs(u22 - exp["u22"]) > rtol * abs(exp["u22"]):
                return False, f"{op['prec']} issue matrix: L21={l21!r} U22={u22!r}"
        return True, ""

    def reference(self):
        """Traced pass only: getf2_naive on one round of the same matrices,
        and the library's backward_error at n = 48, timed with the tracer off."""
        L = self.m["lu"]
        naive = _unwrapped(L.getf2_naive)
        berr = _unwrapped(L.backward_error)
        fact = _unwrapped(L.getf2)
        naive_ms, be_ms = {}, {}
        for op in self.ops:
            if op["expected"] is not None:
                continue
            env = self.env[op["prec"]]
            t0 = time.perf_counter_ns()
            naive(op["m"], env)
            naive_ms.setdefault(f"{op['n']}.{op['prec']}", []).append((time.perf_counter_ns() - t0) / 1e6)
            if op["n"] == 48:
                r = fact(op["m"], env)
                t0 = time.perf_counter_ns()
                berr(op["m"], r)
                be_ms.setdefault(op["prec"], []).append((time.perf_counter_ns() - t0) / 1e6)
        return dict(
            getf2_naive_ms={k: statistics.fmean(v) for k, v in naive_ms.items()},
            backward_error_ms={k: statistics.fmean(v) for k, v in be_ms.items()},
        )


def lu_backward_error(m, r, prec) -> float:
    """test_09a's measure, max|PA - LU| / (n * u * max|A|), with the
    residual formed in complex128 (binary32) or clongdouble (binary64)."""
    n = m.n
    ct = np.complex128 if prec == "binary32" else np.clongdouble
    pa = np.array(m.data, dtype=ct)
    for j, p in enumerate(r.ipiv):
        if p - 1 != j:
            pa[[j, p - 1], :] = pa[[p - 1, j], :]
    f = np.array(r.lu.data, dtype=ct)
    lower = np.tril(f, -1) + np.eye(n, dtype=ct)
    upper = np.triu(f)
    rmax = np.max(np.abs(pa - lower @ upper))
    amax = np.max(np.abs(np.array(m.data, dtype=ct)))
    if rmax == 0:
        return 0.0
    u = 2.0 ** -exact.FORMATS[prec][0]
    return float(rmax / (n * u * amax))


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

# Sized so each stress process takes about 1 s on a 2-core Xeon.
STRESS_COUNTS = {
    "binary32": {"safe": 2600, "huge": 2500, "tiny": 3400, "mixed": 2700, "subnormal": 3200, "special": 3600},
    "binary64": {"safe": 650, "huge": 650, "tiny": 500, "mixed": 400, "subnormal": 580, "special": 850},
}
SCALE_LINES = 1 << 16

CLI_CODE = "import sys; from crscl.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_CODE_TRACED = (
    "import sys; sys.path.insert(0, {here!r}); import tracer; tracer.install_for_cli_child(); "
    "from crscl.cli import main; sys.exit(main(sys.argv[1:]))"
)


class Cli:
    """The verification user's path: each op is one fresh `python -c`
    process running `crscl.cli.main`.  `oracle`, `hexfloat` and process
    start dominate; `plan` and `vector` are nearly idle.  Commands:
    `stress` over the six profiles in both precisions (about 1 s each),
    `scale` on a 2^16-line hex-float file in both precisions, and
    `reproduce-issues` in both precisions.  The binary64 `tiny` and
    `subnormal` stress runs report violations and exit 1 (a known defect
    of the oracle's exclusion rule); they count as failed ops."""

    min_rounds = 2

    def __init__(self, seed: int, mods, rundir: str, traced: bool):
        self.m = mods
        F = mods["fpenv"]
        rng = np.random.default_rng([seed, 4])
        self.rundir = rundir
        self.traced = traced
        self.env = {p: F.fp_env(F.Precision(p)) for p in PRECS}
        self.fmt = {p: exact.Format(p) for p in PRECS}
        self.child_env = dict(os.environ)
        self.ops = []
        for prec in PRECS:
            for profile, count in STRESS_COUNTS[prec].items():
                argv = ["stress", "--precision", prec, "--profile", profile, "--count", str(count),
                        "--seed", str(int(rng.integers(2**31))), "--format", "json"]
                self.ops.append(dict(kind="stress", prec=prec, argv=argv, profile=profile))
            x = _complex_vector(rng, SCALE_LINES, prec)
            path = os.path.join(rundir, f"scale-{prec}.txt")
            with open(path, "w") as fh:
                fh.write("".join(f"{float(v.real).hex()} {float(v.imag).hex()}\n" for v in x))
            a = complex(stream_denominator(rng, "full_safe", prec))
            # A leading space keeps argparse from reading a negative
            # hex-float ("-0x1p+3") as an option; parse_real strips it.
            argv = ["scale", "--precision", prec, "--in", path, "--denom", f" {a.real.hex()}", f" {a.imag.hex()}"]
            idx = np.sort(rng.choice(SCALE_LINES, 64, replace=False))
            self.ops.append(dict(kind="scale", prec=prec, argv=argv, x=x, a=a, idx=idx))
            self.ops.append(dict(kind="reproduce-issues", prec=prec,
                                 argv=["reproduce-issues", "--precision", prec, "--format", "json"]))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.spawns = []
        self.plan_of = _unwrapped(mods["plan"].reciprocal_plan)
        self.issue_expected = {
            p: {label: e for label, _, e in mods["lu"].paper_issue_matrices(F.Precision(p))} for p in PRECS
        }
        self.check_stats = {"checked": 0}

    def work_of(self, i):
        return 1

    def prepare(self, i):
        if self.traced:
            k = len(self.spawns)
            self.child_env["PERFBENCH_TRACE_OUT"] = os.path.join(self.rundir, f"cli-span-{k}.npz")

    def run(self, i):
        op = self.ops[i]
        code = CLI_CODE_TRACED.format(here=HERE) if self.traced else CLI_CODE
        self.spawns.append(time.monotonic())
        return subprocess.run(
            [sys.executable, "-c", code, *op["argv"]],
            env=self.child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def fingerprint(self, i, proc):
        return proc.returncode, proc.stdout

    def verify(self, i, proc):
        """A note starting "reported:" is a failure the program itself
        reported (stress violations), which leaves `correct` true."""
        op = self.ops[i]
        return getattr(self, "_check_" + op["kind"].replace("-", "_"))(op, proc)

    def _check_stress(self, op, proc):
        try:
            rep = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False, f"stress {op['prec']} {op['profile']}: exit {proc.returncode}, unparsable output"
        consistent = (
            rep.get("samples", 0) > 0
            and 0 <= rep["excluded"] <= rep["samples"]
            and proc.returncode == (0 if rep["violations"] == 0 else 1)
        )
        if not consistent:
            return False, f"stress {op['prec']} {op['profile']}: exit {proc.returncode}, inconsistent report"
        if proc.returncode == 1:
            return False, f"reported: stress {op['prec']} {op['profile']}: {rep['violations']} violations"
        return True, ""

    def _check_scale(self, op, proc):
        if proc.returncode != 0:
            return False, f"scale {op['prec']}: exit {proc.returncode}"
        lines = proc.stdout.splitlines()
        if len(lines) != SCALE_LINES:
            return False, f"scale {op['prec']}: {len(lines)} lines"
        env, a = self.env[op["prec"]], op["a"]
        ftype = env.ftype
        ys = []
        for k in op["idx"]:
            re, im = (float.fromhex(t) for t in lines[k].split())
            ys.append(complex(re, im))
        plan = self.plan_of((ftype(a.real), ftype(a.imag)), env)
        checked, skips, failures = exact.check_scaled(op["x"][op["idx"]], ys, a, plan, self.fmt[op["prec"]])
        _tally(self.check_stats, checked, skips)
        if failures:
            return False, f"scale {op['prec']}: {failures[0]}"
        return True, ""

    def _check_reproduce_issues(self, op, proc):
        if proc.returncode != 0:
            return False, f"reproduce-issues {op['prec']}: exit {proc.returncode}"
        try:
            issues = json.loads(proc.stdout)["issues"]
        except (json.JSONDecodeError, KeyError):
            return False, f"reproduce-issues {op['prec']}: unparsable output"
        for rec in issues:
            exp = self.issue_expected[op["prec"]][rec["label"]]
            l21 = complex(*(float.fromhex(t) for t in rec["l21"]))
            u22 = complex(*(float.fromhex(t) for t in rec["u22"]))
            rtol = exp.get("u22_rtol", 0.0)
            if rec["crscl_info"] != 0 or l21 != exp["l21"] or abs(u22 - exp["u22"]) > rtol * abs(exp["u22"]):
                return False, f"reproduce-issues {op['prec']} {rec['label']}: L21={l21!r} U22={u22!r}"
        return True, ""

    def reference(self):
        return {}


WORKLOADS = {"stream": Stream, "short": Short, "lu": Lu, "cli": Cli}


# --------------------------------------------------------------------------
# the loop
# --------------------------------------------------------------------------


def run_loop(w, seconds: float) -> dict:
    """Whole rounds until the next would end past `seconds` (at least
    w.min_rounds).  Only the call into the program is timed.  Throughput
    is the median over rounds of work per second of timed calls, so a
    burst of host contention moves it less than a mean would."""
    lat = array("q")
    per_round = []
    first = {}  # op index -> (fingerprint, verdict) of the first round
    failed = unexplained = rounds = 0
    notes = []
    clock = time.perf_counter_ns
    t_start = time.monotonic()
    while True:
        t_round = time.monotonic()
        work = busy = 0
        for i in range(len(w.ops)):
            w.prepare(i)
            t0 = clock()
            out = w.run(i)
            t1 = clock()
            lat.append(t1 - t0)
            busy += t1 - t0
            work += w.work_of(i)
            fp = w.fingerprint(i, out)
            if rounds == 0:
                first[i] = fp, w.verify(i, out)
            ok, note = first[i][1] if fp == first[i][0] else (False, "output differs from the verified first round")
            if not ok:
                failed += 1
                if not note.startswith("reported:"):
                    unexplained += 1
                if len(notes) < 20 and note not in notes:
                    notes.append(note)
        per_round.append(work / (busy / 1e9))
        rounds += 1
        now = time.monotonic()
        if rounds >= w.min_rounds and now - t_start + 0.5 * (now - t_round) > seconds:
            break
    ms = np.frombuffer(lat, dtype=np.int64) / 1e6
    min_ops = w.min_rounds * len(w.ops)
    pct = tail_percentile(min_ops)
    return dict(
        attempted=len(ms),
        failed=failed,
        correct=unexplained == 0,
        notes=notes,
        rounds=rounds,
        ops_per_round=len(w.ops),
        throughput=float(np.median(per_round)),
        op_ms_p50=float(np.percentile(ms, 50)),
        op_ms_tail=float(np.percentile(ms, pct)),
        tail_percentile=pct,
        failed_share=failed / len(ms),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t-spawn", type=float, required=True, help="CLOCK_MONOTONIC before the spawn")
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    mods = _crscl_modules()
    cls = WORKLOADS[args.workload]
    if tracer is not None:
        tracer.enabled = False
    w = cls(args.seed, mods, args.rundir, bool(args.trace))
    setup_s = time.monotonic() - args.t_spawn
    # The inputs and references held here are not the program's garbage:
    # frozen, they leave collections inside timed calls the size the
    # program's own allocations make them.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.enabled = True
    result = dict(setup_s=setup_s)
    if not args.setup_only:
        result.update(run_loop(w, args.seconds))
        result["check_stats"] = getattr(w, "check_stats", {})
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024
        if tracer is not None:
            tracer.enabled = False
            span_path = os.path.join(args.rundir, f"{args.workload}-spans.npz")
            tracer.dump(span_path)
            ref = w.reference()
            result["layers"] = layers.per_layer(w, result, span_path, args.rundir, ref)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

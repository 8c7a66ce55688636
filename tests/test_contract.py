"""The behavioural contract, pinned as sha256 digests:
- `stress --format json` stdout and its exit code for every profile in
  both precisions (seed 5, count 300), for the default crscl engine and
  for the two naive engines together;
- every plan and the crscl and rscl result bits over a corpus of
  denominators in both precisions;
- `reproduce-issues --format json` and `scale --explain` output.

A change that alters these bits on purpose must say which plans changed
and why, and update the digests here.
"""

import hashlib
import itertools

import numpy as np
import pytest

from crscl import (
    CaseProfile,
    Precision,
    ProfileName,
    StridedVector,
    crscl,
    fp_env,
    gen_cases,
    reciprocal_plan,
    rscl,
)
from crscl.cli import main
from crscl.oracle import _special_values
from test_plan import CASE_DENOMINATORS

STRESS_DIGESTS = {
    ("safe", "binary32"): (0, "e6f5b0273383a1ffb3345dda7160a245fd6e31721a7e25aeb1515da5f6b2dfee"),
    ("huge", "binary32"): (0, "95622eb7c490bfc3e4dc71f1e9beca1cfe95c3ad84e1913d1c4c0807032f3699"),
    ("tiny", "binary32"): (0, "073617ac4c8d5b2b7f1506fd1ddc0d4995020f1177899276e7cefeb68259aeee"),
    ("mixed", "binary32"): (0, "4f23b2b0c16c2b2a61e6e1307694537133eabb14fbad4f8b2ed9f019eca72fa6"),
    ("subnormal", "binary32"): (0, "7cfafe86bddc52d45a5d595e0c76bd9ea6c341a18b493654f585b8d18e2ca83d"),
    ("special", "binary32"): (0, "e340cb8e9c2f58746ebfecbacea0d6f996d079ef23e432c3ee5be51576ecd53a"),
    ("safe", "binary64"): (0, "21a7b4249867e270e39dc0cac01af7a86335121a68d5b637424fa06d627bbd24"),
    ("huge", "binary64"): (0, "7c5159d1218c7c62663ee76287745b2411b124292c85445dd49e13159c55c40c"),
    ("tiny", "binary64"): (0, "70084b05d7d5d5226474b5fd1ad60af48d5ddc29cf94080c76a1f37f42e2413a"),
    ("mixed", "binary64"): (0, "74dfa96a7da37344f87487661d80babe7e0a4bd30afd7030e0e4f9aab2669960"),
    ("subnormal", "binary64"): (0, "2a4dc24bf0e01238a349f98356fe00622746cbd16b9b05f6cf95cec6ed3326f7"),
    ("special", "binary64"): (0, "1bbbe9e829086b7412c4f6e2661761d5d9c682f5900e818ad43491d5b522fcc6"),
}


@pytest.mark.parametrize(
    "profile,precision", list(STRESS_DIGESTS), ids=[f"{p}-{q}" for p, q in STRESS_DIGESTS]
)
def test_stress_json_digest(capsys, profile, precision):
    code = main([
        "stress", "--format", "json", "--precision", precision,
        "--profile", profile, "--seed", "5", "--count", "300",
    ])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STRESS_DIGESTS[profile, precision]


# The same runs with `--engine naive_smith --engine naive_textbook`: the
# naive engines' results, errors and exclusions.
NAIVE_STRESS_DIGESTS = {
    ("safe", "binary32"): (0, "350813b85993d947cd919f7734b3856563815e7cfb51a4c102498ecfa7593b0b"),
    ("huge", "binary32"): (0, "abaee119465052718cdc93c7242f5f128f491a8c69f39ab655e0d031d94dbcbf"),
    ("tiny", "binary32"): (0, "18d56308865aed930445d28f3e8ed61ae822c9470dfefb0e1a42ef183daa2e19"),
    ("mixed", "binary32"): (0, "38e18c5fc7dd4d03dae3b7677481a01dbb00c18d6f000d27a4fdeba598b32752"),
    ("subnormal", "binary32"): (0, "3deeacbb2241ad62d2dd74f7c0c030fbaedd56e2ac31291dcc56bbe427545542"),
    ("special", "binary32"): (0, "4c9424319f65a79331e83c3b20fe58ed50e18e49eca271ff018e4cd00809a07d"),
    ("safe", "binary64"): (0, "1151feac7f322ceba82dfbc4547736b35eb58b4120484d13f25fd39c47588124"),
    ("huge", "binary64"): (0, "d68e8131a9c9ff4bf5ded7d9de5094803ade4c4945220f3c41e9f741c6915b14"),
    ("tiny", "binary64"): (0, "0db74a1b62cddaf5aa25284f99f92aa4a2a150ed99187c2663334c976cf0c62b"),
    ("mixed", "binary64"): (0, "6cf07c558e0d434ba23ea57cce40f4f75e83e3b8d8b1b6b2152fb247fcb48689"),
    ("subnormal", "binary64"): (0, "95d1bda7eb5b429ce0d9e45d67c5d1996d9a121333b0984a6795c23ed0350a9c"),
    ("special", "binary64"): (0, "bc56e5e9f5c322bd2abf1c97b9ff97b0e026eea7d7d97ff7150456c2dc414209"),
}


@pytest.mark.parametrize(
    "profile,precision", list(NAIVE_STRESS_DIGESTS),
    ids=[f"{p}-{q}" for p, q in NAIVE_STRESS_DIGESTS],
)
def test_naive_stress_json_digest(capsys, profile, precision):
    code = main([
        "stress", "--format", "json", "--precision", precision,
        "--profile", profile, "--seed", "5", "--count", "300",
        "--engine", "naive_smith", "--engine", "naive_textbook",
    ])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == NAIVE_STRESS_DIGESTS[profile, precision]


# --------------------------------------------------------------------------
# Plan and result bits
# --------------------------------------------------------------------------

# A fixed x for the special-value grid: ordinary, tiny, huge and zero parts.
GRID_X = (1 + 1j, -0.75 + 2.5j, complex(2.0**-20, -(2.0**20)), complex(0.0, -3.0))


def _plan_corpus(precision):
    """(a, x) pairs: every profile's stream at seed 5 and count 300, then
    the 15 x 15 grid of special parts against GRID_X."""
    for name in ProfileName:
        yield from gen_cases(CaseProfile(name, seed=5, count=300), precision)
    env = fp_env(precision)
    x = np.array(GRID_X, dtype=env.ctype)
    grid = _special_values(env)
    for re, im in itertools.product(grid, grid):
        yield env.ctype(complex(re, im)), x


def _plan_corpus_digest(precision):
    env = fp_env(precision)
    h = hashlib.sha256()
    for a, x in _plan_corpus(precision):
        plan = reciprocal_plan(a, env)
        h.update(f"{plan.case.value} {plan.division_count}".encode())
        for s in plan.steps:
            h.update(s.kind.value.encode())
            for v in (s.re, s.im):
                v = np.asarray(v)
                h.update(v.dtype.str.encode() + v.tobytes())
        for scale, denom in ((crscl, a), (rscl, a.real)):
            y = x.copy()
            scale(StridedVector.wrap(y), denom, env)
            h.update(y.tobytes())
    return h.hexdigest()


PLAN_DIGESTS = {
    "binary32": "b3e36bd74b97b721f224433d1053fb416b0a98d7367107ed6d5d8721ac3d6bc1",
    "binary64": "cc0440a701b05529359d137517ce835a7b0d8b0d744ea58d3e47bf6ab1841d49",
}


@pytest.mark.parametrize("precision", list(PLAN_DIGESTS))
def test_plan_corpus_digest(precision):
    # Each plan's case, division count, step kinds and factor bits, and
    # the bits crscl and rscl leave in x.
    assert _plan_corpus_digest(Precision(precision)) == PLAN_DIGESTS[precision]


# --------------------------------------------------------------------------
# reproduce-issues and scale --explain
# --------------------------------------------------------------------------

REPRODUCE_DIGESTS = {
    "binary32": (0, "204217106567b18973161cc8c7e4ae4dc2dadb92c80fd14b286c11e4d2d68d79"),
    "binary64": (0, "a563ab41ccd1750ebd64a757b17eb7ebd014d46d0ff7a631ce802322eb32eae4"),
}


@pytest.mark.parametrize("precision", list(REPRODUCE_DIGESTS))
def test_reproduce_issues_json_digest(capsys, precision):
    code = main(["reproduce-issues", "--format", "json", "--precision", precision])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPRODUCE_DIGESTS[precision]


# One denominator per case tag, then a real axis below sfmin and an
# imaginary axis above 1/sfmin, as (binary32 parts, binary64 parts).
EXPLAIN_DENOMINATORS = [*CASE_DENOMINATORS.values()] + [
    ((1.5 * 2.0**-140, 0.0), (1.5 * 2.0**-1060, 0.0)),
    ((0.0, -1.5 * 2.0**127), (0.0, -1.5 * 2.0**1023)),
]

EXPLAIN_X = "0x1p+0 0x1p+0\n-0x1.8p-3 0x1p+20\n0x1p-20 -0x1.4p+4\n0 -0\n"

SCALE_DIGESTS = {
    "binary32": "0cb701699d6b6f0326f44a0c3345e5737982b6ebb93f0ab8850dc3ecaac6e8f5",
    "binary64": "77027945882df718ec9463e5cf0a48d29e765bb64e5486372da673557094be0d",
}


@pytest.mark.parametrize("precision", list(SCALE_DIGESTS))
def test_scale_explain_digest(capsys, tmp_path, precision):
    # Exit code, stdout (the scaled vector) and stderr (case and steps) of
    # `scale --explain` for every denominator.
    src = tmp_path / "x.txt"
    src.write_text(EXPLAIN_X)
    h = hashlib.sha256()
    for parts32, parts64 in EXPLAIN_DENOMINATORS:
        parts = parts32 if precision == "binary32" else parts64
        denom = [float(v).hex() for v in parts]
        code = main(["scale", "--in", str(src), "--precision", precision, "--explain",
                     "--denom", *denom])
        out = capsys.readouterr()
        h.update(f"{denom} {code}\n{out.out}{out.err}".encode())
    assert h.hexdigest() == SCALE_DIGESTS[precision]

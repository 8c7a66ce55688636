"""Per-layer metrics of a traced pass, derived from its spans.

Counts are per round (every round runs the same op list, so a count
repeats exactly for a seed); times are sums of span time over sums of
work.  A metric of a layer that the workload never calls reads 0.
"""

from __future__ import annotations

import glob
import os

import numpy as np

import tracer

B = {"binary32": "b32", "binary64": "b64"}
LAYERS = tracer.LAYER_MODULES


def _merge(paths):
    """Concatenate span files; names become strings, parents stay per file."""
    cols = {k: [] for k in ("name", "dur", "self", "tag", "n", "parent_name", "extra")}
    metas = []
    for path in paths:
        s = tracer.load(path)
        names = np.array(s["names"] + [""], dtype=object)
        cols["name"].append(names[s["name"]])
        parent = s["parent"]
        cols["parent_name"].append(names[np.where(parent >= 0, s["name"][parent], -1)])  # -1 -> ""
        for k in ("dur", "self", "tag", "n"):
            cols[k].append(s[k])
        cols["extra"].append(np.array([s["extra"].get(i) for i in range(len(s["dur"]))], dtype=object))
        metas.append(s["meta"])
    merged = {k: np.concatenate(v) if v else np.array([]) for k, v in cols.items()}
    return merged, metas


def per_layer(w, result: dict, span_path: str, rundir: str, ref: dict) -> dict:
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    child_paths = sorted(
        glob.glob(os.path.join(rundir, "cli-span-*.npz")),
        key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]),
    )
    sp, metas = _merge([span_path, *child_paths])
    rounds = result["rounds"]
    ops = result["attempted"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def sel(fn, parent=None):
        mask = sp["name"] == fn
        if parent is not None:
            mask &= sp["parent_name"] == parent
        return mask

    def ratio(num, den):
        return num / den if den else 0.0

    # plan
    m = sel("plan.reciprocal_plan")
    tag, dur = sp["tag"][m], sp["dur"][m]
    put("plan.us_per_call", ratio(dur.sum(), m.sum()) / 1e3, "us")
    put("plan.calls", m.sum() / rounds, "count")
    for k, case in enumerate(tracer.CASES):
        c = (tag & 7) == k
        put(f"plan.us_per_call.{case}", ratio(dur[c].sum(), c.sum()) / 1e3, "us")
        put(f"plan.case_count.{case}", c.sum() / rounds, "count")
    put("plan.two_step_share", ratio(((tag >> 4) & 1).sum(), m.sum()), "1")
    put("plan.real_div_per_call", ratio(sp["n"][m].sum(), m.sum()), "count")

    # vector
    m = sel("vector.crscl")
    tag, dur, n = sp["tag"][m], sp["dur"][m], sp["n"][m]
    put("vector.crscl_self_us", ratio(sp["self"][m].sum(), m.sum()) / 1e3, "us")
    for p, prec in enumerate(tracer.PRECISIONS):
        for s, layout in enumerate(("contig", "stride2")):
            for t, steps in enumerate(("one_step", "two_step")):
                c = ((tag & 1) == p) & (((tag >> 1) & 1) == s) & (((tag >> 2) & 1) == t)
                put(f"vector.ns_per_elem.{B[prec]}.{layout}.{steps}", ratio(dur[c].sum(), n[c].sum()), "ns")
    # Computed compulsory traffic: each step reads and writes every cache
    # line the view spans (element size times stride, per element).
    esize = np.where((tag & 1) == 0, 8, 16)
    stride = np.where(((tag >> 1) & 1) == 0, 1, 2)
    nbytes = (((tag >> 2) & 1) + 1) * 2 * esize * stride * n
    put("vector.bytes_per_elem_computed", ratio(nbytes.sum(), n.sum()), "B")
    put("vector.gbps_computed", ratio(nbytes.sum(), dur.sum()), "GB/s")
    for kind in ("real", "imaginary", "complex"):
        m = sel(f"vector.scal_{kind}")
        tag, dur, n = sp["tag"][m], sp["dur"][m], sp["n"][m]
        for p, prec in enumerate(tracer.PRECISIONS):
            c = (tag & 1) == p
            put(f"vector.scal_{kind}_ns_per_elem.{B[prec]}", ratio(dur[c].sum(), n[c].sum()), "ns")
    flops = ref.get("flops", {})
    for engine in ("crscl", "naive_smith", "naive_textbook"):
        f = flops.get(engine, {})
        for key in ("real_mul_per_elem", "real_add_per_elem", "real_div_per_call"):
            put(f"vector.{key}.{engine}", f.get(key, 0.0), "count")
    put("vector.vs_numpy_mul", ref.get("vs_numpy_mul", 0.0), "1")
    put("vector.vs_naive_smith", ref.get("vs_naive_smith", 0.0), "1")

    # lu
    m = sel("lu.getf2")
    tag, dur, n = sp["tag"][m], sp["dur"][m], sp["n"][m]
    naive_ms = ref.get("getf2_naive_ms", {})
    for size in (12, 48, 160):
        for p, prec in enumerate(tracer.PRECISIONS):
            c = (tag == p) & (n == size)
            put(f"lu.getf2_ms.{size}.{B[prec]}", ratio(dur[c].sum(), c.sum()) / 1e6, "ms")
            put(f"lu.getf2_naive_ms.{size}.{B[prec]}", naive_ms.get(f"{size}.{prec}", 0.0), "ms")
    under = sel("vector.crscl", parent="lu.getf2")
    put("lu.crscl_share", ratio(sp["dur"][under].sum(), dur.sum()), "1")
    put("lu.self_share", ratio(sp["self"][m].sum(), dur.sum()), "1")
    put("lu.crscl_calls", under.sum() / rounds, "count")

    # oracle
    m = sel("oracle.error_report")
    tag, dur, n, extra = sp["tag"][m], sp["dur"][m], sp["n"][m], sp["extra"][m]
    excluded = np.array([e[0] for e in extra], dtype=np.int64)
    violations = np.array([e[1] for e in extra], dtype=np.int64)
    for p, prec in enumerate(tracer.PRECISIONS):
        c = (tag % 2) == p
        put(f"oracle.samples_per_s.{B[prec]}", ratio(n[c].sum(), dur[c].sum()) * 1e9, "1/s")
        put(f"oracle.violations.{B[prec]}", violations[c].sum() / rounds, "count")
        for q, profile in enumerate(tracer.PROFILES):
            c = tag == 2 * q + p
            put(
                f"oracle.included_share.{profile}.{B[prec]}",
                ratio(n[c].sum() - excluded[c].sum(), n[c].sum()),
                "1",
            )
        put(f"oracle.backward_error_ms.{B[prec]}", ref.get("backward_error_ms", {}).get(prec, 0.0), "ms")
    m = sel("oracle.gen_cases")
    put("oracle.gen_cases_us_per_case", ratio(sp["dur"][m].sum(), sp["n"][m].sum()) / 1e3, "us")

    # hexfloat
    m = sel("hexfloat.read_vector")
    put("hexfloat.read_us_per_line", ratio(sp["dur"][m].sum(), sp["n"][m].sum()) / 1e3, "us")
    m = sel("hexfloat.write_vector")
    put("hexfloat.write_us_per_elem", ratio(sp["dur"][m].sum(), sp["n"][m].sum()) / 1e3, "us")
    put("hexfloat.bytes_per_elem", ratio(sp["tag"][m].sum(), sp["n"][m].sum()), "B")

    # cli: process start is CLOCK_MONOTONIC before the spawn; the child
    # records when it had imported crscl.cli.
    starts = [
        meta["t_imported"] - t_spawn
        for meta, t_spawn in zip(metas[1:], getattr(w, "spawns", []))
    ]
    put("cli.start_ms", ratio(sum(starts), len(starts)) * 1e3, "ms")
    m = sel("cli.main")
    tag, dur = sp["tag"][m], sp["dur"][m]
    for k, cmd in enumerate(tracer.COMMANDS):
        c = tag == k
        put(f"cli.cmd_ms.{cmd}", ratio(dur[c].sum(), c.sum()) / 1e6, "ms")

    # self time of each layer, per op
    layer = np.array([s.split(".", 1)[0] for s in sp["name"]], dtype=object)
    for name in LAYERS:
        put(f"{name}.self_ms_per_op", sp["self"][layer == name].sum() / 1e6 / ops, "ms")
    return out

"""crscl benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload stream|short|lu|cli|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`.  Every pass of a workload runs in its own fresh single-threaded
process (`workloads.py`) with BLAS threads pinned to 1.

--trace 0 prints the end-to-end metrics.  `setup_s` is the median over
SETUP_REPEATS fresh processes of the time from spawn to the first timed op.
--trace 1 also runs a traced pass, which wraps every layer's public
functions, and prints the per-layer metrics plus the tracing overhead
(traced minus untraced end-to-end metrics).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `failed` counts every op that did not succeed; `correct` is
false only when an output failed a check of this benchmark, not when the
program itself reported a failure (a `stress` run that finds bound
violations and exits 1).  Lines before it give every metric by name and
unit, the environment and the check notes; a copy of all of it goes to
.perfbench_runs/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOAD_NAMES = ("stream", "short", "lu", "cli")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Per workload: what a unit of `throughput` is.
WORK_UNITS = {"stream": "elements/s", "short": "calls/s", "lu": "factorizations/s", "cli": "commands/s"}


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    # Same dict layouts in every process, so runs differ only by the seed.
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """Where and with what a result was measured."""
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        level = _read(os.path.join(cache_dir, index, "level"))
        kind = _read(os.path.join(cache_dir, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(cache_dir, index, "size"))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_per_core_L2": caches.get("L2", ""),
        "cache_L3": caches.get("L3", ""),
        "blas_threads": {v: _child_env()[v] for v in THREAD_VARS},
        "seed": seed,
        "git_commit": commit or "unknown (not a git checkout)",
    }


def _spawn(workload, seed, seconds, trace, rundir, deadline, setup_only=False) -> dict:
    out = os.path.join(rundir, f"pass-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--rundir", rundir, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    t_spawn = time.monotonic()
    # Own process group, so a pass that runs out of time is ended together
    # with any CLI process it started.
    proc = subprocess.Popen(
        [*cmd, "--t-spawn", repr(t_spawn)], env=_child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{stderr[-4000:]}")
    with open(out) as fh:
        res = json.load(fh)
    os.remove(out)
    return res


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    rundir = os.path.join(ROOT, ".perfbench_runs", workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    main_pass = _spawn(workload, seed, seconds, 0, rundir, deadline)
    setups = [main_pass["setup_s"]]
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_spawn(workload, seed, seconds, 0, rundir, deadline, setup_only=True)["setup_s"])
    e2e = {k: main_pass[k] for k in units}
    e2e["setup_s"] = statistics.median(setups)
    report = dict(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace),
        environment=environment(seed), e2e=e2e, setups=setups,
        tail_percentile=main_pass["tail_percentile"], rounds=main_pass["rounds"],
        ops_per_round=main_pass["ops_per_round"], failed_share=main_pass["failed_share"],
        main_counts=(main_pass["attempted"], main_pass["failed"]),
        attempted=main_pass["attempted"], failed=main_pass["failed"],
        correct=main_pass["correct"], notes=main_pass["notes"], check_stats=main_pass["check_stats"],
    )
    if trace:
        traced = _spawn(workload, seed, seconds, 1, rundir, deadline)
        layer = traced["layers"]
        for k, unit in units.items():
            layer[f"trace.overhead.{k}"] = {"value": traced[k] - main_pass[k], "unit": unit}
        report.update(
            layers=layer,
            traced_e2e={k: traced[k] for k in units},
            attempted=main_pass["attempted"] + traced["attempted"],
            failed=main_pass["failed"] + traced["failed"],
            correct=main_pass["correct"] and traced["correct"],
            notes=main_pass["notes"] + [n for n in traced["notes"] if n not in main_pass["notes"]],
        )
    with open(os.path.join(rundir, f"result-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def _print_report(r: dict, spec: dict) -> dict:
    w = r["workload"]
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w)
    print(f"# workload {w} (seed {r['seed']}, {r['seconds']} s, trace {r['trace']}): {why}")
    print(f"# environment {json.dumps(r['environment'])}")
    e2e = r["e2e"]
    for m in spec["end_to_end"]:
        name = m["name"]
        extra = ""
        if name == "throughput":
            extra = f" ({WORK_UNITS[w]})"
        elif name == "op_ms_tail":
            extra = f" (p{r['tail_percentile']} of {r['main_counts'][0]} ops)"
        elif name == "setup_s":
            extra = " (median of " + ", ".join(f"{s:.4f}" for s in r["setups"]) + ")"
        print(f"{w} {name} = {e2e[name]:.6g} {m['unit']}{extra}")
    attempted, failed = r["main_counts"]
    print(f"{w} failed_share = {r['failed_share']:.6g} (failed / attempted ops: {failed} of {attempted})")
    print(f"# checks {json.dumps(r['check_stats'])}")
    for note in r["notes"]:
        print(f"# failed op: {note}")
    if r["trace"]:
        for m in spec["per_layer"]:
            v = r["layers"][m["name"]]
            print(f"{w} {m['name']} = {v['value']:.6g} {v['unit']}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {k: r["layers"][k] for k in wanted}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return dict(correct=r["correct"], attempted=r["attempted"], failed=r["failed"], metrics=metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crscl", "__init__.py")):
        print("error: run from the root of a crscl checkout (src/crscl not found)", file=sys.stderr)
        return 2
    spec = _spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            line = _print_report(measure(spec, name, args.seed, args.seconds, bool(args.trace)), spec)
            print(json.dumps(line), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

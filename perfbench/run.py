"""Run one benchmark workload; the last line of standard output is the result.

    python3 perfbench/run.py --workload table-k80 [--seed N] [--seconds 35] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/``.  Workloads are described in ``workloads.py`` and README.md.

``--trace 0`` reports the end-to-end metrics.  Whole passes over the
workload's units run back to back: at least ``MIN_PASSES``, and another only
while it should end within ``--seconds``.  Set-up (a fresh interpreter
importing ``diskcover`` and building the workload's units) is timed in a
subprocess after every pass, and at the end until there are
``SETUP_PROBES`` of them, so that its median spans the whole run.

``wall_norm_s`` is the time of one pass with the host's speed divided out.
On a shared VM a core's speed swings by up to 1.6x, in phases from
milliseconds to minutes, so every unit runs gauged (``reference.py``): its
time is divided by the median time of a fixed piece of work, timed on the
same core before, during and after it.  ``wall_norm_s`` sums each unit's
median ratio over the passes and scales the sum by
``reference.NOMINAL_S``.  The raw unit times and the ratios go to the run's
record.

``--trace 1`` reports the per-layer metrics.  Each of the first half of the
units runs untraced and then traced, so the two can be compared job by job and
the tracing overhead measured on the same inputs.

Every output is re-verified; a job that raises or fails a check counts in
``failed`` and makes ``correct`` false.  Details of each run, with every job's
disk count, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_PASSES = 3

# Time a fresh interpreter spends importing the package and building the
# inputs; argv is the benchmark directory, src/, workload and seed.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import tracer, workloads
w = workloads.WORKLOADS[sys.argv[3]]
w.build(int(sys.argv[4]), tracer.call_untraced, w.units)
print(time.perf_counter() - t0)
"""


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, "-c", PROBE, str(HERE), str(SRC), workload, str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def check_repeat(first: dict, jobs: list) -> None:
    """Mark failed every job whose verdict differs from its first run."""
    for j in jobs:
        before = first.get(j.key)
        if before is not None and (before.m, before.status) != (j.m, j.status):
            j.status, j.detail = "failed", f"M={j.m} ({j.status}) on rerun, was M={before.m}"


def run_untraced(w, seed: int, seconds: float) -> dict:
    import reference
    from tracer import call_untraced

    units = w.build(seed, call_untraced, w.units)
    first: dict = {}
    jobs: list = []
    times: list[list[float]] = [[] for _ in units]
    ratios: list[list[float]] = [[] for _ in units]
    setup: list[float] = []
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        for k, unit in enumerate(units):
            out, t, ratio = reference.run_gauged(lambda: w.run(unit, call_untraced))
            times[k].append(t)
            ratios[k].append(ratio)
            if passes == 0:
                first.update((j.key, j) for j in out)
            else:
                check_repeat(first, out)
            jobs += out
        passes += 1
        setup.append(setup_seconds(w.name, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(w.name, seed))
    return {
        "first": list(first.values()),
        "jobs": jobs,
        "unit_s": times,
        "unit_ref": ratios,
        "setup_s": setup,
    }


def run_traced(w, seed: int, spans_path: Path) -> dict:
    from tracer import Tracer, call_untraced, layer_metrics, patched_attributes

    tracer = Tracer()
    tracer.install()
    try:
        units = w.build(seed, tracer.call, (w.units + 1) // 2)
    finally:
        tracer.restore()
    jobs: list = []
    first: list = []
    plain_s = traced_s = top_s = 0.0
    for unit in units:
        t0 = perf_counter()
        plain = w.run(unit, call_untraced)
        t1 = perf_counter()
        i0 = len(tracer.spans)
        tracer.install()
        try:
            t2 = perf_counter()
            traced = w.run(unit, tracer.call)
            t3 = perf_counter()
        finally:
            tracer.restore()
        plain_s += t1 - t0
        traced_s += t3 - t2
        top_s += sum(s[4] - s[3] for s in tracer.spans[i0:] if s[2] == -1)
        check_repeat({j.key: j for j in plain}, traced)
        first += plain
        jobs += plain + traced
    stray = patched_attributes()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.unaccounted_frac"] = (traced_s - top_s) / traced_s
    metrics["trace.spans"] = len(tracer.spans)
    return {"first": first, "jobs": jobs, "layers": metrics, "stray_patches": stray}


def measure(w, seed: int, seconds: float, trace: int, spans_path: Path) -> tuple[dict, dict]:
    """One run of workload `w`: the run's record and its metrics by name."""
    import reference
    import workloads

    if trace:
        run = run_traced(w, seed, spans_path)
        metrics = dict(run["layers"])
        metrics["spiral.opt_gap_disks"] = workloads.opt_gap(run["first"])
        return run, metrics
    run = run_untraced(w, seed, seconds)
    ok = sum(j.status == "ok" for j in run["first"])
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_norm_s": reference.NOMINAL_S * sum(statistics.median(r) for r in run["unit_ref"]),
        "disks_total": workloads.disks_total(run["first"]),
        "ok_frac": ok / len(run["first"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="topology base seed (default: the workload's frozen one)")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diskcover" / "__init__.py").is_file():
        print(f"error: no diskcover package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # One process and no helper threads in numpy's math libraries.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    import numpy
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = w.base_seed if args.seed is None else args.seed
    env = {
        "workload": w.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trials": workloads.TRIALS,
        "oracle_node_limit": workloads.ORACLE_NODE_LIMIT,
        "units": w.units,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{args.trace}"

    run, metrics = measure(w, seed, args.seconds, args.trace, OUT / f"{stem}-spans.json.gz")
    failures = [j for j in run["jobs"] if j.status == "failed"]
    correct = not failures and not run.get("stray_patches")
    result = {
        "correct": correct,
        "attempted": len(run["jobs"]),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "env": env,
        "result": result,
        "jobs": {j.key: j.m if j.status == "ok" else j.status for j in run["first"]},
        "failures": [f"{j.key}: {j.detail}" for j in failures],
        **{k: run[k] for k in ("unit_s", "unit_ref", "setup_s", "stray_patches") if k in run},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for line in record["failures"][:20]:
        print("FAILED " + line)
    if run.get("stray_patches"):
        print("FAILED wrappers left installed: " + ", ".join(run["stray_patches"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, on one unit of each workload (about a minute).

    python3 perfbench/selftest.py

Checks that a traced run gives every job the same disk count and verdict as
the untraced run of the same unit, that no wrapper is left installed
afterwards, that no job fails, and that each run reports exactly the metrics
BENCHMARK.json names.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL: BENCHMARK.json and workloads.py list different workloads")
        return 1
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for w in workloads.WORKLOADS.values():
            one = dataclasses.replace(w, units=1)
            for trace in (0, 1):
                result, metrics = run.measure(one, w.base_seed, 0.0, trace, Path(tmp) / "spans.json.gz")
                failed = [f"{j.key}: {j.detail}" for j in result["jobs"] if j.status == "failed"]
                got = {k: run.unit_of(k) for k in metrics}
                checks = {
                    "no job failed, traced or not": not failed,
                    "no wrapper left installed": not tracer.patched_attributes(),
                    "metric names and units as in BENCHMARK.json": got == names[trace],
                }
                for what, ok in checks.items():
                    print(f"{w.name} trace={trace}: {what}: {'ok' if ok else 'FAIL'}")
                    if not ok:
                        print("\n".join(failed) or json.dumps(sorted(set(got.items()) ^ set(names[trace].items()))))
                        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

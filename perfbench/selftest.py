#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at its tiny size.

Runs each workload of BENCHMARK.json untraced and traced and asserts that
the result line carries every declared metric with its unit, that each
of them and every undeclared one is printed by name with its unit, and
that the runs passed their checks. Takes well under a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from run import LOCAL_LAYERS, UNBOUNDED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return out.stdout


def check(workload, trace, declared):
    stdout = run(workload, trace)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 2, result
    metrics = result["metrics"]
    assert set(metrics) == set(declared), set(metrics) ^ set(declared)
    printed = {tuple(ln.split()[::2]) for ln in lines[:-1] if len(ln.split()) == 3}
    for name, unit in declared.items():
        m = metrics[name]
        assert m["unit"] == unit, (name, m)
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, m)
        assert (name, unit) in printed, f"{name} [{unit}] not printed"
    # printed beside the declared metrics but not declared
    extra = UNBOUNDED if trace == 0 else LOCAL_LAYERS
    for name, unit in extra.items():
        assert any(ln.split()[:3:2] == [name, unit] for ln in lines), name


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check(w["name"], trace, {m["name"]: m["unit"] for m in spec[key]})
            print(f"ok  {w['name']} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

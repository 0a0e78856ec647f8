"""Smoke check: every workload at minimal size, traced and untraced, must
print a result line whose layout matches BENCHMARK.json.

    python3 perfbench/smoke.py

Exits 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = {"workload", "seed", "python", "numpy", "nproc", "machine"}


def layout_errors(lines: list[str], spec: dict, trace: int) -> list[str]:
    errors = []
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)
            and result.get("correct") is (result["failed"] == 0)):
        errors.append("correct/attempted/failed malformed")
    if result.get("failed"):
        errors.append(f"failures: {info.get('failures')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name) \
                or not isinstance(m["value"], (int, float)):
            errors.append(f"metric {name} malformed: {m}")
    if set(info.get("stamp", {})) != STAMP_KEYS:
        errors.append(f"stamp keys {sorted(info.get('stamp', {}))}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            errors = ([f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                      if proc.returncode or len(lines) < 2
                      else layout_errors(lines, spec, trace))
            print(f"{workload['name']} trace={trace}: {'ok' if not errors else errors}")
            ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""scripts/set_sweeps.py --smoke: every selected case runs once, at its
smallest size, and gives a full record."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"case", "layer", "size", "side", "seconds", "normalized_seconds",
        "warm_seconds", "warm_normalized_seconds", "counters", "how"}


def test_smoke_density_cases_give_full_records():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from set_sweeps import CASES
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    density = {case: min(sizes) for case, _, _, sizes in CASES
               if "density" in case}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "set_sweeps.py"),
         "--side", "smoke", "--smoke", "--only", "density"],
        capture_output=True, text=True, timeout=300, env=env)
    assert run.returncode == 0, run.stderr
    records = json.loads(run.stdout)
    assert {r["case"]: r["size"] for r in records} == density
    assert len(records) == len(density) >= 13
    for record in records:
        assert set(record) == KEYS, record["case"]
        assert record["side"] == "smoke" and record["seconds"] > 0
        assert record["layer"].startswith(("density.", "jsonio."))
        assert "smoke" in record["how"]

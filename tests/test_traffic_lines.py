"""scripts/traffic_lines.py --smoke: the line trace of the smoke workloads
covers every module of the package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_report_has_every_module(tmp_path):
    out = tmp_path / "lines.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "traffic_lines.py"),
         "--smoke", "--json", str(out)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text())
    modules = {p.name for p in (ROOT / "src" / "finembed").glob("*.py")}
    assert set(report["modules"]) == modules
    assert report["smoke"] and report["golden_cases"] == 0
    assert set(report["workload_queries"]) == {
        "large-window", "pr-search", "many-small"}
    for module, functions in report["modules"].items():
        assert "<module>" in functions, module
        for name, entry in functions.items():
            assert set(entry["ran"]) <= set(entry["lines"]), (module, name)
    # the smoke traffic reaches the kernels and the CLI entry point
    ran = {(m, n) for m, fs in report["modules"].items()
           for n, e in fs.items() if e["ran"]}
    assert {("embed.py", "embed_finite"), ("cli.py", "dispatch"),
            ("carrier.py", "GroundSet._extend")} <= ran
    assert run.stdout.splitlines()[-1].startswith("golden cases 0, ")

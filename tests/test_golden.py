"""Replay the golden CLI corpus: stdout byte for byte, plus exit codes.

tests/golden/cases.json lists the invocations.  "{NAME}" in an argv entry
stands for a file holding the JSON object files[NAME], written fresh for each
run.  tests/golden/expected/ holds each case's stdout (<name>.out) and, in
outcomes.json, its exit code plus the stderr text of input errors (exit 2;
other runs print timing there).

Re-record after an intended output change, and review the diff:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from finembed.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(case: dict, workdir: Path) -> dict:
    paths = {}
    for key, obj in case["files"].items():
        path = workdir / f"{case['name']}-{key}.json"
        path.write_text(json.dumps(obj))
        paths[key] = str(path)
    argv = [arg.format(**paths) if arg.startswith("{") else arg
            for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    outcome = {"exit": code}
    if code == 2:
        outcome["stderr"] = err.getvalue()
    return {"stdout": out.getvalue(), "outcome": outcome}


@pytest.fixture(scope="module")
def outcomes():
    return json.loads((EXPECTED / "outcomes.json").read_text())


def test_corpus_names_are_unique():
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_cli_output(case, outcomes, tmp_path):
    got = run_case(case, tmp_path)
    want = (EXPECTED / f"{case['name']}.out").read_text(encoding="utf-8")
    assert got["stdout"] == want
    assert got["outcome"] == outcomes[case["name"]]


def record() -> None:
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            got = run_case(case, Path(tmp))
            (EXPECTED / f"{case['name']}.out").write_text(got["stdout"],
                                                          encoding="utf-8")
            outcomes[case["name"]] = got["outcome"]
    (EXPECTED / "outcomes.json").write_text(
        json.dumps(outcomes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

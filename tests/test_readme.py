"""Run the README's "Library tour" block and check the values its comments
give, so an API change that strands the README fails here."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    m = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text,
                  re.MULTILINE | re.DOTALL)
    assert m, "README has no Library tour python block"
    return m.group(1)


def run_tour() -> tuple[dict, list]:
    """The block's names after it runs, and the value of each bare
    expression statement in order."""
    namespace: dict = {}
    values = []
    for stmt in ast.parse(library_tour()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README.name, "eval")
            values.append(eval(code, namespace))
        else:
            code = compile(ast.Module([stmt], []), README.name, "exec")
            exec(code, namespace)
    return namespace, values


def test_library_tour_runs_and_matches_its_comments():
    ns, (probe, density, threshold) = run_tour()
    assert ns["v"].outcome == "yes"
    assert ns["v"].witness.params == (5,)  # r = 5
    assert ns["v"].witness.image == (5, 7)  # image {5, 7}
    assert probe.overall == "supported"
    assert ns["cert"].length == 51
    assert density == Fraction(1, 2)
    assert threshold == 9

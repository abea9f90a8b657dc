"""The README's examples run as written and do what their comments say."""

import ast
import json
import re
from pathlib import Path

import pytest

from envelope import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _run_python(source):
    """Execute a block; the value of a closing expression statement is
    returned as "_"."""
    tree = ast.parse(source)
    last = tree.body.pop() if isinstance(tree.body[-1], ast.Expr) else None
    namespace = {}
    exec(compile(tree, "README.md", "exec"), namespace)
    if last is not None:
        namespace["_"] = eval(compile(ast.Expression(last.value), "README.md",
                                      "eval"), namespace)
    return namespace


def test_python_examples_do_what_their_comments_say():
    domain, boundary = (_run_python(block) for block in _blocks("python"))
    assert domain["verdict"].max_order == 1
    assert domain["report"].verdict.all_orders
    assert domain["report"].consistent
    tower = boundary["tower"]
    assert tower.pass_depth == 0 == tower.leading_zero_count
    assert boundary["_"] == pytest.approx((0.3 + 0.2j) ** 2, abs=1e-9)


_SCENARIOS = [json.loads(block) for block in _blocks("json")
              if "checks" in json.loads(block)]


@pytest.mark.parametrize("scenario", _SCENARIOS,
                         ids=[s["checks"][0] for s in _SCENARIOS])
def test_json_scenarios_run_ok(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert [row["check"] for row in rows] == scenario["checks"]
    assert [row["status"] for row in rows] == ["ok"] * len(rows)

"""tools/corpus_reports.py --compare on small report trees: equal trees exit
0, and a changed number, a changed string or a report on one side only
each exit 1 and are printed; a number that shrinks is not counted as
larger."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus_reports.py"


@pytest.fixture(scope="module")
def corpus_reports():
    spec = importlib.util.spec_from_file_location("corpus_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {
    "scenario": {"function": "1/(z-5)", "checks": ["moments"]},
    "results": [{"check": "moments", "status": "ok",
                 "values": {"max_order": None, "residual": 2.0e-12}}],
    "exit_code": 0,
}


def _tree(root: Path, reports: dict) -> Path:
    for name, report in reports.items():
        path = root / "domain-circle" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
    return root


def _compare(tool, tmp_path, new_reports, capsys):
    old = _tree(tmp_path / "old", {"a": REPORT, "b": REPORT})
    new = _tree(tmp_path / "new", new_reports)
    code = tool.main(["--compare", str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_equal_trees_exit_zero(corpus_reports, tmp_path, capsys):
    code, out = _compare(corpus_reports, tmp_path,
                         {"a": REPORT, "b": REPORT}, capsys)
    assert code == 0
    assert out == ["2 reports: no difference"]


def test_a_changed_number_is_printed(corpus_reports, tmp_path, capsys):
    moved = json.loads(json.dumps(REPORT))
    moved["results"][0]["values"]["residual"] = 2.5e-12
    code, out = _compare(corpus_reports, tmp_path,
                         {"a": REPORT, "b": moved}, capsys)
    assert code == 1
    assert out == [
        "results[moments].values.residual: largest relative change 0.2 (1 "
        "values differ, 1 larger; largest in domain-circle/b.json)",
        "2 reports: they differ"]


def test_a_shrunk_number_is_not_counted_larger(corpus_reports, tmp_path,
                                               capsys):
    # b's residual halves and a's grows by a fifth: two values differ, one
    # of them larger, and b's change is the largest
    grown, shrunk = (json.loads(json.dumps(REPORT)) for _ in range(2))
    grown["results"][0]["values"]["residual"] = 2.4e-12
    shrunk["results"][0]["values"]["residual"] = 1.0e-12
    code, out = _compare(corpus_reports, tmp_path,
                         {"a": grown, "b": shrunk}, capsys)
    assert code == 1
    assert out == [
        "results[moments].values.residual: largest relative change 0.5 (2 "
        "values differ, 1 larger; largest in domain-circle/b.json)",
        "2 reports: they differ"]


def test_a_changed_status_is_printed(corpus_reports, tmp_path, capsys):
    failed = json.loads(json.dumps(REPORT))
    failed["results"][0]["status"] = "error"
    code, out = _compare(corpus_reports, tmp_path,
                         {"a": failed, "b": REPORT}, capsys)
    assert code == 1
    assert out == [
        'domain-circle/a.json: results[moments].status: "ok" -> "error"',
        "2 reports: they differ"]


def test_a_report_on_one_side_only_differs(corpus_reports, tmp_path,
                                           capsys):
    code, out = _compare(corpus_reports, tmp_path, {"a": REPORT}, capsys)
    assert code == 1
    assert out == [f"domain-circle/b.json: only in {tmp_path / 'old'}",
                   "2 reports: they differ"]

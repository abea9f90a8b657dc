"""numpy is the only runtime dependency, and no module draws random
numbers."""

import re
from pathlib import Path

import envelope

ROOT = Path(__file__).resolve().parents[1]


def _lines_matching(pattern):
    source = Path(envelope.__file__).parent
    return [f"{module.name}:{number}"
            for module in sorted(source.glob("*.py"))
            for number, line in enumerate(module.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_no_module_names_scipy():
    assert _lines_matching(r"\bscipy\b") == []


def test_no_module_draws_random_numbers():
    # every probe is placed by rule, so a scenario's report is the same on
    # every run
    assert _lines_matching(
        r"\bnp\.random\b|\bdefault_rng\b|^\s*(import|from) random\b") == []


def test_numpy_is_the_only_dependency():
    # read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    (listing,) = re.findall(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert re.findall(r'"([^"]*)"', listing) == ["numpy>=1.23"]

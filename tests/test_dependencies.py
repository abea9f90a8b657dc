"""numpy is the only runtime dependency."""

import re
from pathlib import Path

import envelope

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_names_scipy():
    source = Path(envelope.__file__).parent
    offenders = [f"{module.name}:{number}"
                 for module in sorted(source.glob("*.py"))
                 for number, line in enumerate(
                     module.read_text().splitlines(), 1)
                 if re.search(r"\bscipy\b", line)]
    assert offenders == []


def test_numpy_is_the_only_dependency():
    # read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    (listing,) = re.findall(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert re.findall(r'"([^"]*)"', listing) == ["numpy>=1.23"]

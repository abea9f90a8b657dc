"""Write the report of every scenario of a fixed corpus sample, for diffing.

    python tools/corpus_reports.py TREE OUT
    python tools/corpus_reports.py --compare OLD NEW

runs `envelope run` in process, from the package under TREE/src, on every
scenario of blocks 0-2 of seeds 3, 11 and 53 of each perfbench workload,
as this checkout's perfbench/corpus.py builds them. Each report goes to
OUT/<workload>/<scenario id>.json without its `timings`, and with the
exit code of the run as `exit_code`. Two trees given the same OUT layout
can then be compared with `diff -r`: a change that is meant to keep every
answer must leave the two directories identical. OUT must not exist yet.

With --compare, two such directories are compared field by field. For each
field path (a row of `results` is named by its check, other list entries
by their index) it prints the largest relative change of a number, how
many numbers changed and how many of those grew, and the report where the
largest change occurs, and then every other difference: a report on one
side only, a field on one side only, a change of type, and every changed
string, boolean or null (statuses, verdicts, certificates, findings). It
exits 0 when the trees are equal and 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
SEEDS = (3, 11, 53)
BLOCKS = range(3)


def _number(value) -> bool:
    """Whether a JSON value is a number (json reads true as an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(node, path: str = ""):
    """(field path, value) of every leaf of a report; an empty dict or list
    is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            label = value["check"] if isinstance(value, dict) \
                and isinstance(value.get("check"), str) else i
            yield from _leaves(value, f"{path}[{label}]")
    else:
        yield path, node


def _relative(old: float, new: float) -> float:
    """|new - old| over the larger magnitude; inf where one is not finite
    and they differ."""
    if old == new:
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def compare(old: FsPath, new: FsPath) -> int:
    """Print how the report tree new differs from old; 1 if it does."""
    names = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.rglob("*.json")})
    largest: dict[str, tuple[float, int, str]] = {}
    other = []
    for name in names:
        sides = [root / name for root in (old, new)]
        if not all(p.exists() for p in sides):
            other.append(f"{name}: only in "
                         f"{old if sides[0].exists() else new}")
            continue
        a, b = (dict(_leaves(json.loads(p.read_text()))) for p in sides)
        for field in sorted(a.keys() | b.keys()):
            if field not in a or field not in b:
                side = old if field in a else new
                other.append(f"{name}: {field} only in {side}")
            elif _number(a[field]) and type(a[field]) is type(b[field]):
                change = _relative(a[field], b[field])
                if change:
                    top, count, grew, where = largest.get(
                        field, (0.0, 0, 0, name))
                    largest[field] = max(top, change), count + 1, \
                        grew + (b[field] > a[field]), \
                        where if top >= change else name
            elif a[field] != b[field] or type(a[field]) is not type(b[field]):
                other.append(f"{name}: {field}: {json.dumps(a[field])} -> "
                             f"{json.dumps(b[field])}")
    for field, (top, count, grew, where) in sorted(largest.items()):
        print(f"{field}: largest relative change {top:.3g} ({count} values "
              f"differ, {grew} larger; largest in {where})")
    for line in other:
        print(line)
    differ = bool(largest or other)
    print(f"{len(names)} reports: "
          + ("they differ" if differ else "no difference"))
    return int(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=FsPath, nargs="?",
                        help="source checkout whose src/ is run")
    parser.add_argument("out", type=FsPath, nargs="?",
                        help="directory to create for the reports")
    parser.add_argument("--compare", type=FsPath, nargs=2,
                        metavar=("OLD", "NEW"),
                        help="compare two report directories instead")
    args = parser.parse_args(argv)
    if args.compare:
        if args.tree or args.out:
            parser.error("--compare takes no TREE or OUT")
        return compare(*args.compare)
    if not (args.tree and args.out):
        parser.error("TREE and OUT are required")
    src = (args.tree / "src").resolve()
    # both trees are only read: no bytecode is written next to them
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import corpus
    from envelope import cli
    if not FsPath(cli.__file__).resolve().is_relative_to(src):
        print(f"envelope was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    args.out.mkdir(parents=True)
    count = 0
    with tempfile.TemporaryDirectory() as work:
        work = FsPath(work)
        for workload in corpus.BLOCKS:
            target = args.out / workload
            target.mkdir()
            for seed in SEEDS:
                for index in BLOCKS:
                    for sc in corpus.block(workload, seed, index):
                        path = corpus.write_scenario(sc, work)
                        report = work / f"{sc.sid}.report.json"
                        code = cli.main(["run", "--scenario", str(path),
                                         "--out", str(report)])
                        payload = json.loads(report.read_text()) \
                            if report.exists() else {}
                        payload.pop("timings", None)
                        payload["exit_code"] = code
                        (target / f"{sc.sid}.json").write_text(
                            json.dumps(payload, indent=2) + "\n")
                        report.unlink(missing_ok=True)
                        count += 1
    print(f"{count} reports in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

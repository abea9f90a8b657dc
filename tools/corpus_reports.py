"""Write the report of every scenario of a fixed corpus sample, for diffing.

    python tools/corpus_reports.py TREE OUT

runs `envelope run` in process, from the package under TREE/src, on every
scenario of blocks 0-2 of seeds 3, 11 and 53 of each perfbench workload,
as this checkout's perfbench/corpus.py builds them. Each report goes to
OUT/<workload>/<scenario id>.json without its `timings`, and with the
exit code of the run as `exit_code`. Two trees given the same OUT layout
can then be compared with `diff -r`: a change that is meant to keep every
answer must leave the two directories identical. OUT must not exist yet.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
SEEDS = (3, 11, 53)
BLOCKS = range(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=FsPath,
                        help="source checkout whose src/ is run")
    parser.add_argument("out", type=FsPath,
                        help="directory to create for the reports")
    args = parser.parse_args(argv)
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

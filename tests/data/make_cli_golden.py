"""Write cli_golden.json: the exit code and stdout of seifertq.cli.main for a fixed list of argv.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/data/make_cli_golden.py

The argv are the 14 of one cycle of the benchmark's ``cli`` workload at seed 1
(perfbench/workloads.py), then a JSON scan of a two-fiber bounded symbol, whose
payload carries the growth exponent that the CSV one leaves out, and a verified
bound at k = 3.  Regenerating keeps the argv of an existing file and rewrites
only the outputs; delete the file to draw the list again.  The ``--tri`` path is
relative to the repository root, as in the benchmark.  pytest does not collect
this script; test_cli.py reads only the JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "cli_golden.json"
TWO_FIBERS = json.dumps({"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, 2]], "boundary": True})
EXTRA = [
    ["scan", "--symbol", TWO_FIBERS, "--k", "1,3,5"],
    ["bound", "--symbol", TWO_FIBERS, "--k", "3", "--verify"],
]


def _argv_list() -> list[list[str]]:
    if GOLDEN.exists():
        return [case["argv"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import cli_cycles

    return [argv for argv, _ in next(cli_cycles(1))] + EXTRA


def _run(argv: list[str]) -> tuple[int, str]:
    from seifertq.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def main() -> None:
    os.chdir(ROOT)
    cases = []
    for argv in _argv_list():
        code, stdout = _run(argv)
        cases.append({"argv": argv, "exit_code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

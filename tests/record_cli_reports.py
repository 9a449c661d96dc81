"""Record the byte-exact CLI reports that ``tests/test_cli.py`` replays.

Usage: PYTHONPATH=src python3 tests/record_cli_reports.py

Runs every command of the cli-batch benchmark pool and every ``liespec``
example of README.md through ``liespec.cli.main`` in a scratch directory and
writes argv, exit code, stdout and any ``--output`` file to
``tests/cli_reports.json``.  Re-record only when a report changes on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
FIXTURE = HERE / "cli_reports.json"

# The cli-batch pool of perfbench/workloads.py, run from the repository root.
OUT = "perfbench/.out/cli"
CLI_BATCH = [
    ["contract", "su2"],
    ["contract", "heisenberg3"],
    ["contract", "engel4"],
    ["contract", "sl2r", "--weights", "1,1"],
    ["contract", "so3", "--format", "csv"],
    ["filtration", "heisenberg2"],
    ["filtration", "sl2r"],
    ["filtration", "engel4"],
    ["reduce", "heisenberg1", "--weights", "1,1,3", "--indices", "1,2,3"],
    ["reduce", "engel4", "--weights", "1,1,3,3", "--indices", "1,2,3,4"],
    ["dimension", "heisenberg4"],
    ["dimension", "abelian5"],
    ["algebra", "se2"],
    ["algebra", "heisenberg2", "--output", f"{OUT}/heisenberg2.json"],
    ["contract", f"{OUT}/heisenberg2.json"],
    ["algebra", "engel4", "--output", f"{OUT}/engel4.json"],
    ["filtration", f"{OUT}/engel4.json"],
    ["form", "--kind", "rockland", "--weights", "1,2", "--coeffs", "1,1",
     "--order", "4"],
    ["heat-trace", "heisenberg", "--cross-check"],
    ["multiplier-bound", "heisenberg", "--phi", "heat", "--scale", "1",
     "--p", "4/3", "--q", "4"],
    ["annuli", "--qstar", "4", "--m", "2", "--b", "1", "--beta", "1",
     "--times", "1e-2,1e-3,1e-4"],
    ["form", "--kind", "sublaplacian", "--dim", "2", "--rockland-check", "16"],
    ["embedding-witness", "--gamma", "0.25", "--cutoffs", "8,16,32",
     "--check-plateau", "0.5"],
    ["verify-growth", "torus2"],
    ["envelope", "--points", "6"],
]


def readme_examples() -> list[list[str]]:
    """argv of every ``liespec ...`` line in README.md's shell blocks."""
    examples, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("liespec "):
            examples.append(shlex.split(line, comments=True)[1:])
    return examples


def commands() -> list[list[str]]:
    out = list(CLI_BATCH)
    out += [argv for argv in readme_examples() if argv not in out]
    return out


def output_path(argv: list[str]) -> str | None:
    return argv[argv.index("--output") + 1] if "--output" in argv else None


def run(argv: list[str]) -> dict:
    """One command in the current directory, as the ``liespec`` script."""
    from liespec.cli import main
    path = output_path(argv)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    written = None
    if path:
        with open(path, encoding="utf-8", newline="") as fh:
            written = fh.read()
    return {"argv": argv, "exit_code": code, "stdout": buf.getvalue(),
            "written": written}


def main() -> int:
    os.environ.pop("LIESPEC_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        records = [run(argv) for argv in commands()]
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} reports -> {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record goldens.json: the outputs the benchmark's checks compare against.

    python3 perfbench/record_goldens.py

Run from the root of a liespec checkout at the commit whose outputs are the
reference.  Records the structure-table digest of every exact-core catalog
contraction and the report (exit code, stdout, --output file) of every
cli-batch command.  Re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as wl
from client import BENCH_REL, LIESPEC, ROOT

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    import liespec

    exact = {}
    for name in wl.EXACT_NAMES:
        entry = liespec.resolve_catalog(name)
        basis = liespec.WeightedBasis(entry.algebra, list(entry.generators),
                                      list(entry.generator_weights))
        graded = liespec.contract(entry.algebra, basis)
        exact[name] = wl.structure_digest(graded.base.structure_table())

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LIESPEC_SEED", None)
    (ROOT / BENCH_REL / wl.OUT).mkdir(parents=True, exist_ok=True)
    cli = {}
    for group, argvs in wl.cli_pool(BENCH_REL).items():
        cli[group] = []
        for argv in argvs:
            proc = subprocess.run(LIESPEC + argv, cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)
            written = None
            if "--output" in argv:
                with open(ROOT / argv[argv.index("--output") + 1], encoding="utf-8") as fh:
                    written = json.load(fh)
            cli[group].append({"argv": argv, "exit_code": proc.returncode,
                               "stdout": wl.parse_cli_output(argv, proc.stdout),
                               "written": written})
            print(group, proc.returncode, file=sys.stderr)

    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"exact": exact, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

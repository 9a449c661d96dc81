"""Run one ``liespec`` command with the benchmark's tracer installed.

Usage: python cli_traced.py SPANS_JSON ARGV...

Behaves like the ``liespec`` executable (same exit code and output) and
writes the spans and counts of the process to SPANS_JSON.
"""

import sys

import liespec.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return liespec.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

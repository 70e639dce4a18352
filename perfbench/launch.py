"""Run one gaitassist command in a fresh process with the layer tracer installed.

    PYTHONPATH=src python perfbench/launch.py SPANS.npz simulate --out trial ...

Installs the same wrappers as the in-process traced run, calls
`gaitassist.cli.main` with the remaining arguments, writes every span to
SPANS.npz and exits with the command's exit code.
"""
from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer, dump, installed


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from gaitassist import cli

    tracer = Tracer()
    with installed(tracer):
        code = cli.main(argv)
    dump(spans_path, tracer.tables(), tracer.counts())
    return code


if __name__ == "__main__":
    sys.exit(main())

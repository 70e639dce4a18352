"""Run the command-line interface via ``python -m gaitassist``."""
from __future__ import annotations

import gc
import sys


def main(argv: list[str] | None = None) -> int:
    """Run one command as the whole process; the console script calls this too.

    A command's garbage is freed by reference counts, so the cyclic collector
    is off from before `cli` is imported, and the heap is frozen before the
    exit code is returned, since interpreter exit collects even so. Both last
    for the rest of the process: a process that goes on calls `cli.main`.
    """
    gc.disable()
    try:
        from .cli import main as run_command

        return run_command(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

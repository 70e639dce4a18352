"""Run the command-line interface via ``python -m gaitassist``."""
from __future__ import annotations

import gc
import os
import sys


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; `run_process` calls this.

    A command's garbage is freed by reference counts, so the cyclic collector
    is off from before `cli` is imported, and the heap is frozen before the
    exit code is returned, since interpreter exit collects even so. Both last
    for the rest of the process: a process that goes on calls `cli.main`.
    """
    gc.disable()
    code = 0
    try:
        from .cli import main as run_command

        code = run_command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone, as in `| head`: what is left of the output,
        # now or at exit, goes nowhere, and the command ends with no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        gc.freeze()
    return code


def run_process() -> None:
    """`main` as the whole process (`-m` and the console script), ended without
    interpreter teardown, as a command has closed its files; if a flush fails
    even so, the interpreter's exit reports it as before."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run_process()

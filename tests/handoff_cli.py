"""Run the ``discoccg`` CLI with the hand-off to the forked writer forced or
never taken, for comparing the files of both runs.

Usage: PYTHONPATH=src python tests/handoff_cli.py in-process|handed-off <discoccg args>

``handed-off`` sends every file to the writer, ``in-process`` none.  Exits
with the CLI's status, or with a message when the run did not go the asked
way or left a child process behind.
"""

import math
import os
import sys

from discoccg import cli


def main(mode: str, args: list[str]) -> int | str:
    cli.HANDOFF_S = -1.0 if mode == "handed-off" else math.inf
    started, start = [], cli._Writer.start
    cli._Writer.start = lambda: started.append(start()) or started[-1]
    code = cli.main(args)
    if mode == "in-process":
        assert not started, started
    else:
        assert started and started[0] is not None, started
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return code
    return "a child process is left after the run"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

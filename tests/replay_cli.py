"""Replays command-line cases through ``shelfgaze.cli.main`` with the standard
library only, so that an interpreter without numpy or pytest can check the
frozen bytes of tests/test_cli.py.

Usage: ``python replay_cli.py SRC_DIR < cases.json``

Each case is ``[argv, stdin, code, stdout, stderr]``. A ``stdout`` given as
``[lines, sha256]`` is compared by line count and digest, and a ``stderr`` of
null is not compared. The cases run at 80 columns, in the current directory.
The first line printed is the interpreter's version, before the package is
imported; the second is the list of cases whose outcome differs, each with
what came out.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout


def _matches(want, got: str) -> bool:
    if isinstance(want, list):
        return [got.count("\n"), hashlib.sha256(got.encode()).hexdigest()] == want
    return want is None or got == want


def replay(cases: list) -> list:
    from shelfgaze.cli import main

    os.environ["COLUMNS"] = "80"
    differ = []
    for argv, stdin, code, stdout, stderr in cases:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin or "")
        with redirect_stdout(out), redirect_stderr(err):
            got = main(list(argv))
        if not (got == code and _matches(stdout, out.getvalue()) and _matches(stderr, err.getvalue())):
            differ.append([argv, got, out.getvalue(), err.getvalue()])
    return differ


if __name__ == "__main__":
    print(json.dumps(list(sys.version_info[:3])), flush=True)
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(replay(json.load(sys.stdin))))

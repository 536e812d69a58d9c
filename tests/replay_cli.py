"""Replays the frozen command-line cases of tests/golden.json with the standard
library only, so that an interpreter without numpy or pytest can check them,
and so can a job that has only the installed ``shelfgaze`` script.

Usage:
  ``python replay_cli.py SRC_DIR < cases.json``: through ``shelfgaze.cli.main``
  imported from SRC_DIR, in this process.
  ``python replay_cli.py --installed < cases.json``: each case as a child
  process of the ``shelfgaze`` found on PATH.

A case is an object with ``argv``, ``stdin`` (text or null), ``files`` (name to
text, written into the working directory before the case runs), ``code``,
``stdout`` and ``stderr``. A ``stdout`` given as ``[lines, sha256]`` is compared
by line count and digest, and a ``stderr`` of null is not compared. The cases
run at 80 columns, in a temporary working directory. The first line printed is
the interpreter's version, before the package is imported; the second is the
list of cases whose outcome differs, each as its argv and the exit code, stdout
and stderr that came out. The exit status is 1 when a case differs.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout


def _matches(want, got: str) -> bool:
    if isinstance(want, list):
        return [got.count("\n"), hashlib.sha256(got.encode()).hexdigest()] == want
    return want is None or got == want


def in_process(argv: list, stdin: str) -> tuple:
    from shelfgaze.cli import main

    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def installed(argv: list, stdin: str) -> tuple:
    proc = subprocess.run(["shelfgaze", *argv], input=stdin, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def run_cases(cases: list, run=in_process):
    """Each case with its (code, stdout, stderr) under ``run``, at 80 columns
    in the current directory, which receives the case's files first."""
    os.environ["COLUMNS"] = "80"
    for case in cases:
        for name, text in case["files"].items():
            with open(name, "w", encoding="utf-8") as f:
                f.write(text)
        yield case, run(case["argv"], case["stdin"] or "")


def replay(cases: list, run=in_process) -> list:
    """The cases whose outcome under ``run`` differs, run in the current
    directory, which receives their files."""
    return [[case["argv"], *got] for case, got in run_cases(cases, run)
            if not (got[0] == case["code"] and _matches(case["stdout"], got[1]) and _matches(case["stderr"], got[2]))]


if __name__ == "__main__":
    print(json.dumps(list(sys.version_info[:3])), flush=True)
    if sys.argv[1] == "--installed":
        run = installed
    else:
        sys.path.insert(0, os.path.abspath(sys.argv[1]))
        run = in_process
    cases = json.load(sys.stdin)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        differ = replay(cases, run)
    print(json.dumps(differ))
    sys.exit(bool(differ))

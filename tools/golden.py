"""Golden records of the CLI, to show that two revisions print the same.

    python tools/golden.py record REV OUT   # run every call at revision REV
    python tools/golden.py diff A B         # print each call whose record differs

``record`` extracts REV's ``src`` (``git archive``) into a temporary
directory and runs each call of ``golden_calls.txt``, the call list next
to this script, in a fresh ``python -m mstd.cli`` process with that
``src`` first on the path.  OUT is a JSON file holding, per call, its
argv, exit code, stdout and stderr.  The call list is always this
checkout's, so both revisions run the same calls.  ``diff`` exits 1 if
any call differs or is missing from one record, else 0.

A call-list line is one call's arguments, split as a shell splits them;
``#`` starts a comment line.  A line marked ``!`` is a usage error: its
arguments do not parse, so it must exit 2.  Standard library only.
"""

from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALLS = HERE / "golden_calls.txt"
TIMEOUT_S = 300


def read_calls(path: Path = CALLS) -> list[tuple[list[str], bool]]:
    """(argv, marked as a usage error) for each call of the list."""
    calls = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        usage_error = line.startswith("!")
        calls.append((shlex.split(line.removeprefix("!")), usage_error))
    return calls


def _run(argv: list[str], src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "mstd.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=TIMEOUT_S)
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", f"timed out after {TIMEOUT_S} s\n"
    # a traceback names the temporary directory, which differs per run
    return {"argv": argv, "code": code, "stdout": out, "stderr": err.replace(src, "<src>")}


def record(rev: str, out: str) -> None:
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", sha, "src"],
                          capture_output=True, check=True).stdout
    records = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        with zipfile.ZipFile(io.BytesIO(tree)) as archive:
            archive.extractall(tmp)
        src = os.path.join(tmp, "src")
        for argv, _ in read_calls():
            records.append(_run(argv, src))
    Path(out).write_text(json.dumps({"rev": sha, "calls": records}, indent=1) + "\n")
    print(f"{len(records)} calls at {sha[:12]} in {time.monotonic() - start:.0f} s -> {out}")


def diff(a: str, b: str) -> int:
    left, right = (json.loads(Path(p).read_text()) for p in (a, b))
    by_argv = [{shlex.join(r["argv"]): r for r in side["calls"]} for side in (left, right)]
    differ = 0
    for key in dict.fromkeys([*by_argv[0], *by_argv[1]]):
        one, two = by_argv[0].get(key), by_argv[1].get(key)
        if one == two:
            continue
        differ += 1
        if one is None or two is None:
            print(f"{key}\n  only in {a if two is None else b}")
            continue
        print(key)
        for field in ("code", "stdout", "stderr"):
            if one[field] != two[field]:
                print(f"  {field}: {one[field]!r:.200} -> {two[field]!r:.200}")
    print(f"{differ} of {len(set(by_argv[0]) | set(by_argv[1]))} calls differ "
          f"({left['rev'][:12]} -> {right['rev'][:12]})")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "record":
        record(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

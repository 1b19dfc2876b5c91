"""Run Tier-1 against each mutation of `mutants.py` and print the kill matrix.

    python mutations/run.py [NAME ...] > matrix.json

For each mutation (all of them, or the ones named), the repository's files
(tracked, or untracked and not ignored) are copied to a fresh temporary
directory, the one replacement is applied, and the Tier-1 suite runs there,
one mutation after another, less `tests/test_mutations.py`, which fails on
any edit of an old text and so would count every mutation as killed.  The JSON printed maps each mutation to the tests that failed, whether it was
killed and how long the run took; progress goes to stderr.  A survivor
(`"killed": false`) is a mutation no test notices.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS  # beside this script, on its sys.path

ROOT = Path(__file__).resolve().parents[1]

TIMEOUT_S = 900


def _copy(dest: Path) -> None:
    files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, files):
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if (ROOT / name).is_file():
            shutil.copy2(ROOT / name, target)


def _failed(output: str) -> list:
    """The node ids of the `FAILED` and `ERROR` lines of pytest's -rfE summary."""
    out = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):].split(" - ", 1)[0])
    return out


def run(m) -> dict:
    with tempfile.TemporaryDirectory(prefix="mtlsem-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / "src" / "mtlsem" / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return {"error": f"old text occurs {text.count(m.old)} times in {m.file}"}
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-W", "error",
                                   "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                   "--ignore=tests/test_mutations.py"],
                                  cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"killed": True, "timeout": True, "failed": [],
                    "seconds": round(time.perf_counter() - start, 1)}
        failed = _failed(proc.stdout)
        return {"killed": proc.returncode != 0, "failed": failed,
                "seconds": round(time.perf_counter() - start, 1),
                "summary": proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""}


def main(names) -> int:
    known = {m.name for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutation: {', '.join(unknown)}", file=sys.stderr)
        return 2
    matrix = {}
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        print(f"{m.name} ...", file=sys.stderr, flush=True)
        matrix[m.name] = {"what": m.what, **run(m)}
        r = matrix[m.name]
        print(f"  {'killed' if r.get('killed') else 'SURVIVED'}, {len(r.get('failed', []))} failed,"
              f" {r.get('seconds', 0)} s", file=sys.stderr, flush=True)
    json.dump(matrix, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

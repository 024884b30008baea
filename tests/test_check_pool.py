"""Frozen `check` requests: every byte of their outputs must stay the same.

golden/check_pool.json holds 200 CLI requests of every kind (pair check,
gset check, laminate, hashin, oned, phase; N from 2 to 8, some pairs
infeasible), drawn once from the benchmark's `check` pool at seed 33.  Each
request keeps its exit code and the sha256 of its stdout and of its stderr,
so a refactor that claims the same bytes is checked here, not by hand.  The
golden corpus compares numbers to 1e-12; this file compares bits.

Regenerate the hashes only on purpose, from the commit whose outputs are the
reference:

    PYTHONPATH=src python tests/test_check_pool.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from homobounds.cli import main

POOL = Path(__file__).parent / "golden" / "check_pool.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv) -> dict:
    """Run one request in process; its exit code and the sha256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def test_check_pool_bytes(monkeypatch):
    monkeypatch.delenv("HOMOBOUNDS_TOL", raising=False)
    pool = json.loads(POOL.read_text())
    assert len(pool) == 200
    changed = [(i, case["argv"][:2]) for i, case in enumerate(pool) if {"argv": case["argv"], **replay(case["argv"])} != case]
    assert not changed, f"{len(changed)} requests changed output: {changed[:10]}"


def regenerate():
    pool = [{"argv": case["argv"], **replay(case["argv"])} for case in json.loads(POOL.read_text())]
    POOL.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {len(pool)} requests to {POOL}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()

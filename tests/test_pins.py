"""The pin checker (tests/pins.py): its count check, its report, and where digests live."""

import json
import math
import re
import shutil
from pathlib import Path

import pins


def test_pin_counts_match_the_manifest():
    # a lost corpus case, request or draw pin changes its group's count
    assert pins.check(names=()) == []


def test_checker_names_each_changed_entry(tmp_path, monkeypatch):
    golden = shutil.copytree(pins.GOLDEN, tmp_path / "golden")
    corpus, manifest = (json.loads((golden / file).read_text()) for file in ("corpus.json", "pins.json"))
    entry = next(e for e in manifest["pins"] if e["name"] == "check_pool/007")
    entry["stdout"] = entry["stdout"][::-1]
    case = next(c for c in corpus if c["name"] == "readme_pair_check")
    was = json.loads(case["stdout"])["li_lhs"]
    now = math.nextafter(was, math.inf)
    case["stdout"] = case["stdout"].replace(f'"li_lhs": {was!r}', f'"li_lhs": {now!r}')
    for file, data in (("corpus.json", corpus), ("pins.json", manifest)):
        (golden / file).write_text(json.dumps(data))
    # replays clear HOMOBOUNDS_TOL: at 0.5, some of these verdicts would read differently
    monkeypatch.setenv("HOMOBOUNDS_TOL", "0.5")
    names = {name for name in pins.load(golden) if name.startswith(("corpus/", "check_pool/"))}
    assert pins.check(golden, names) == [
        f"corpus/readme_pair_check: stdout: 1 moved, the largest $.li_lhs {now!r} -> {was!r} (relative change {(now - was) / now:.1e}, within REL_TOL)",
        "check_pool/007: stdout changed",
    ]


def test_no_digest_literal_outside_the_manifest():
    digest = re.compile(r"(?<![0-9a-f])(?:[0-9a-f]{64}|[0-9a-f]{32})(?![0-9a-f])")
    found = [f"{path.name}: {m.group()}" for path in sorted(Path(__file__).parent.glob("*.py")) for m in digest.finditer(path.read_text())]
    assert found == []

"""Snapshot of the command-line surface.

golden/cli_surface.json maps "<subcommand> <option>", one per line, to the
option's (dest, type, default, required, choices, action) as build_parser()
declares it.  Adding, removing or changing a flag fails this test until the
snapshot is regenerated, so every change to the surface shows up as a
reviewed diff:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from homobounds.cli import build_parser

SNAPSHOT = Path(__file__).parent / "golden" / "cli_surface.json"


def cli_surface() -> dict:
    """{"<subcommand> <option>": [dest, type, default, required, choices, action]} of build_parser()."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            option = "/".join(action.option_strings) or action.dest
            surface[f"{name} {option}"] = [
                action.dest,
                getattr(action.type, "__name__", None),
                action.default,
                action.required,
                None if action.choices is None else list(action.choices),
                type(action).__name__,
            ]
    return surface


def test_cli_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = cli_surface()
    added = sorted(set(actual) - set(expected))
    removed = sorted(set(expected) - set(actual))
    changed = sorted(k for k in set(actual) & set(expected) if actual[k] != expected[k])
    assert not (added or removed or changed), f"added {added}, removed {removed}, changed {changed}"


if __name__ == "__main__":
    rows = sorted(cli_surface().items())
    SNAPSHOT.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
    print(f"wrote {SNAPSHOT}")

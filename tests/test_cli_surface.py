"""Adding, removing or changing a flag fails until golden/cli_surface.json is regenerated (tests/pins.py)."""

import pins


def test_cli_surface_matches_snapshot():
    assert pins.moved("cli_surface", pins.load()["cli_surface"]) == ""

"""Golden corpus: each stored CLI request must print the same bytes (tests/pins.py)."""

import pytest

import pins

CORPUS = {name: pin for name, pin in pins.load().items() if name.startswith("corpus/")}


@pytest.mark.parametrize("name", CORPUS, ids=lambda name: name.removeprefix("corpus/"))
def test_golden(name):
    assert pins.moved(name, CORPUS[name]) == ""

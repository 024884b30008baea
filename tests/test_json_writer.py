"""cli._json writes the bytes of json.dumps(indent=2, sort_keys=True), non-finite floats quoted."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
from homobounds.cli import _json


def _sanitize(value):
    """JSON-ready copy: tuples become lists and non-finite floats their str()."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def reference(value) -> str:
    return json.dumps(_sanitize(value), indent=2, sort_keys=True)


# non-ASCII text, quotes, backslashes and control characters, beside any text hypothesis draws
SPECIAL_TEXT = ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "\U0001f600", 'say "hi"\n']
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
LEAVES = st.one_of(
    st.text(),
    st.sampled_from(SPECIAL_TEXT),
    FLOATS,
    FLOATS.map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1 / 3]),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(SPECIAL_TEXT)), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_writes_the_bytes_of_json_dumps(payload):
    assert _json(payload) == reference(payload)


def test_seeded_report_shapes():
    rng = np.random.default_rng(32)
    specials = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), -0.0]
    for _ in range(200):
        n = int(rng.integers(1, 9))
        matrix = rng.normal(size=(n, n)).tolist()
        matrix[0][0] = specials[int(rng.integers(len(specials)))]
        payload = {
            "astar": matrix,
            "window": tuple((float(x), np.float64(x)) for x in rng.uniform(-1, 1, n)),
            "region": SPECIAL_TEXT[int(rng.integers(len(SPECIAL_TEXT)))],
            "verdict": None if rng.uniform() < 0.5 else "feasible",
            "chain_ok": bool(rng.uniform() < 0.5),
            "argmin": [int(x) for x in rng.integers(0, 2, n)],
            "empty": [[], (), {}],
            "nested": {"z": {}, "a": [{"b": ()}]},
        }
        assert _json(payload) == reference(payload)


@pytest.mark.parametrize("value", [np.zeros(2), {"astar": np.eye(2)}, [np.int64(1)], np.bool_(True), {1: 2.0}, object()])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        _json(value)


JSON_CASES = {name: pin["stdout"] for name, pin in pins.load().items() if name.startswith("corpus/") and pin["stdout"].startswith("{")}


@pytest.mark.parametrize("name", JSON_CASES, ids=lambda name: name.removeprefix("corpus/"))
def test_golden_report_round_trips(name):
    # every report field the golden corpus prints is written back byte for byte
    stdout = JSON_CASES[name]
    assert _json(json.loads(stdout)) + "\n" == stdout

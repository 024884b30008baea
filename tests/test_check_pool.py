"""200 frozen `check` requests of every kind, N from 2 to 8, some infeasible (tests/pins.py)."""

import pins


def test_check_pool_bytes():
    pool = {name: pin for name, pin in pins.load().items() if name.startswith("check_pool/")}
    assert [f"{name}: {change}" for name, pin in pool.items() if (change := pins.moved(name, pin))] == []

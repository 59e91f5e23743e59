"""Clock invariants."""

import ast
from pathlib import Path

import pytest

import repro
from repro.sim.clock import Clock


def test_starts_at_zero_by_default():
    assert Clock().now == 0.0


def test_starts_at_given_time():
    assert Clock(5.5).now == 5.5


def test_rejects_negative_start():
    with pytest.raises(ValueError):
        Clock(-1.0)


def test_advance_moves_forward():
    clock = Clock()
    clock.advance_to(3.0)
    assert clock.now == 3.0


def test_advance_to_same_time_is_allowed():
    clock = Clock(2.0)
    clock.advance_to(2.0)
    assert clock.now == 2.0


def test_advance_backwards_raises():
    clock = Clock(2.0)
    with pytest.raises(ValueError):
        clock.advance_to(1.0)


def test_repr_mentions_time():
    assert "1.5" in repr(Clock(1.5))


def test_now_has_three_writers():
    """``now`` is a bare attribute, so nothing but this walk stops a
    module from setting it: ``Clock.__init__``, ``Clock.advance_to`` and
    the run loop of ``EventLoop`` are the only stores in ``src/repro``."""
    root = Path(repro.__file__).parent
    stores = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and not isinstance(node.ctx, ast.Load)
            ):
                name = path.relative_to(root).as_posix()
                stores[name] = stores.get(name, 0) + 1
    assert stores == {"sim/clock.py": 2, "sim/eventloop.py": 1}


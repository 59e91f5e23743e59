"""Completion handle semantics."""

import pytest

from repro.cluster.future import Completion


def test_complete_delivers_value():
    c = Completion("x")
    c.complete(42, at=1.0)
    assert c.done and c.ok
    assert c.result() == 42
    assert c.completed_at == 1.0


def test_fail_stores_error():
    c = Completion()
    error = RuntimeError("boom")
    c.fail(error)
    assert c.done and not c.ok
    with pytest.raises(RuntimeError):
        c.result()


def test_result_before_settlement_raises():
    with pytest.raises(RuntimeError):
        Completion().result()


def test_double_settlement_rejected():
    c = Completion()
    c.complete(1)
    with pytest.raises(RuntimeError):
        c.complete(2)
    with pytest.raises(RuntimeError):
        c.fail(RuntimeError())


def test_callback_after_settlement_fires_immediately():
    c = Completion()
    c.complete("v")
    seen = []
    c.on_done(lambda x: seen.append(x.value))
    assert seen == ["v"]


def test_callback_before_settlement_fires_on_settle():
    c = Completion()
    seen = []
    c.on_done(lambda x: seen.append(x.value))
    assert seen == []
    c.complete("v")
    assert seen == ["v"]


def test_callback_errors_surface():
    c = Completion()
    later = []
    c.on_done(lambda x: 1 / 0)
    c.on_done(later.append)
    with pytest.raises(ZeroDivisionError):
        c.complete("v")
    assert c.ok and c.value == "v"
    assert later == []


def test_on_done_chains():
    c = Completion()
    assert c.on_done(lambda x: None) is c

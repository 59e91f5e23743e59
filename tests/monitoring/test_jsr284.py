"""JSR-284 model: domains, constraints, notifications."""

import pytest

from repro.monitoring.jsr284 import (
    CPU_TIME,
    Constraint,
    ConstraintViolation,
    DomainRegistry,
    HEAP_MEMORY,
    ResourceDomain,
)


def test_consume_accumulates():
    domain = ResourceDomain("acme/cpu", CPU_TIME)
    domain.consume(1.0)
    domain.consume(0.5)
    assert domain.usage == 1.5


def test_negative_consume_rejected():
    domain = ResourceDomain("d", CPU_TIME)
    with pytest.raises(ValueError):
        domain.consume(-1)


def test_release_lowers_non_disposable():
    domain = ResourceDomain("acme/mem", HEAP_MEMORY)
    domain.consume(100)
    domain.release(30)
    assert domain.usage == 70


def test_release_cannot_go_negative():
    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.consume(10)
    domain.release(50)
    assert domain.usage == 0


def test_disposable_resource_cannot_be_released():
    domain = ResourceDomain("d", CPU_TIME)
    with pytest.raises(ValueError):
        domain.release(1)


def test_hard_constraint_denies_over_limit():
    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.add_constraint(Constraint(limit=100, hard=True))
    domain.consume(100)
    with pytest.raises(ConstraintViolation):
        domain.consume(1)
    assert domain.usage == 100  # denied consumption not applied


def test_soft_constraint_allows_but_notifies():
    exceeded = []
    domain = ResourceDomain("d", HEAP_MEMORY)
    constraint = Constraint(
        limit=100, hard=False, on_exceeded=lambda d, total: exceeded.append(total)
    )
    domain.add_constraint(constraint)
    domain.consume(150)
    assert domain.usage == 150
    assert exceeded == [150]
    assert constraint.violations == 1


def test_constraint_callback_errors_swallowed():
    def broken(domain, total):
        raise RuntimeError("policy bug")

    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.add_constraint(Constraint(limit=0, hard=False, on_exceeded=broken))
    domain.consume(10)  # must not raise


def test_soft_constraint_callback_errors_are_counted():
    def broken(domain, total):
        raise RuntimeError("policy bug")

    domain = ResourceDomain("d", HEAP_MEMORY)
    constraint = Constraint(limit=0, hard=False, on_exceeded=broken)
    domain.add_constraint(constraint)
    domain.consume(10)
    domain.consume(5)
    assert domain.usage == 15
    assert constraint.violations == constraint.callback_errors == 2


def test_a_raising_usage_listener_is_not_swallowed():
    def broken(domain, usage):
        raise ValueError("listener bug")

    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.add_usage_listener(broken)
    with pytest.raises(ValueError, match="listener bug"):
        domain.consume(10)


def test_constraints_checked_in_order_hard_first_denies():
    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.add_constraint(Constraint(limit=50, hard=True))
    domain.add_constraint(Constraint(limit=10, hard=False))
    with pytest.raises(ConstraintViolation):
        domain.consume(60)


def test_remove_constraint():
    domain = ResourceDomain("d", HEAP_MEMORY)
    constraint = Constraint(limit=10, hard=True)
    domain.add_constraint(constraint)
    domain.remove_constraint(constraint)
    domain.consume(100)


def test_usage_listeners_notified():
    levels = []
    domain = ResourceDomain("d", HEAP_MEMORY)
    domain.add_usage_listener(lambda d, usage: levels.append(usage))
    domain.consume(10)
    domain.release(5)
    assert levels == [10, 5]


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        Constraint(limit=-1)


class TestDomainRegistry:
    def test_domain_created_once_per_owner_resource(self):
        registry = DomainRegistry()
        a = registry.domain("acme", CPU_TIME)
        b = registry.domain("acme", CPU_TIME)
        assert a is b

    def test_domains_of_owner(self):
        registry = DomainRegistry()
        registry.domain("acme", CPU_TIME)
        registry.domain("acme", HEAP_MEMORY)
        registry.domain("globex", CPU_TIME)
        assert len(registry.domains_of("acme")) == 2

    def test_drop_owner(self):
        registry = DomainRegistry()
        registry.domain("acme", CPU_TIME).consume(5)
        registry.drop_owner("acme")
        assert registry.domain("acme", CPU_TIME).usage == 0

"""Placement policies: determinism, capacity respect, packing."""

from hypothesis import given, strategies as st

from repro.migration.inventory import ClusterInventory, NodeInventory
from repro.migration.placement import (
    LeastLoadedPlacement,
    PackingPlacement,
)
from repro.migration.registry import CustomerDescriptor


def make_inventory(loads):
    """loads: {node: (cpu_available, memory_available)}"""
    inventory = ClusterInventory()
    for node, (cpu, memory) in loads.items():
        inventory.update(
            NodeInventory(
                node_id=node,
                at=1.0,
                resources={
                    "cpu_available_share": cpu,
                    "memory_available_bytes": memory,
                    "cpu_capacity": 1.0,
                },
            )
        )
    return inventory


def descriptors(*specs):
    return [
        CustomerDescriptor(name=name, cpu_share=cpu, memory_bytes=mem)
        for name, cpu, mem in specs
    ]


GIB = 1024**3


class TestLeastLoaded:
    def test_prefers_most_headroom(self):
        inventory = make_inventory({"n1": (0.2, 4 * GIB), "n2": (0.9, 4 * GIB)})
        assignment = LeastLoadedPlacement().assign(
            descriptors(("a", 0.3, GIB)), ["n1", "n2"], inventory
        )
        assert assignment == {"a": "n2"}

    def test_respects_memory_headroom(self):
        inventory = make_inventory({"n1": (0.9, 1), "n2": (0.5, 4 * GIB)})
        assignment = LeastLoadedPlacement().assign(
            descriptors(("a", 0.3, GIB)), ["n1", "n2"], inventory
        )
        assert assignment == {"a": "n2"}

    def test_unplaceable_instance_omitted(self):
        inventory = make_inventory({"n1": (0.1, 4 * GIB)})
        assignment = LeastLoadedPlacement().assign(
            descriptors(("big", 0.9, GIB)), ["n1"], inventory
        )
        assert assignment == {}

    def test_refuse_threshold_degrades_gracefully(self):
        inventory = make_inventory({"n1": (0.5, 4 * GIB)})
        policy = LeastLoadedPlacement(refuse_threshold=0.3)
        assignment = policy.assign(
            descriptors(("a", 0.3, GIB)), ["n1"], inventory
        )
        assert assignment == {}  # would leave only 0.2 < threshold

    def test_running_tally_prevents_overcommit(self):
        inventory = make_inventory({"n1": (0.5, 4 * GIB), "n2": (0.5, 4 * GIB)})
        assignment = LeastLoadedPlacement().assign(
            descriptors(("a", 0.4, GIB), ("b", 0.4, GIB), ("c", 0.4, GIB)),
            ["n1", "n2"],
            inventory,
        )
        assert len(assignment) == 2
        assert len(set(assignment.values())) == 2

    def test_priority_customers_win_scarce_capacity(self):
        inventory = make_inventory({"n1": (0.4, 4 * GIB)})
        low = CustomerDescriptor(name="low", cpu_share=0.3, priority=0)
        high = CustomerDescriptor(name="high", cpu_share=0.3, priority=9)
        assignment = LeastLoadedPlacement().assign(
            [low, high], ["n1"], inventory
        )
        assert assignment == {"high": "n1"}

    def test_unknown_node_resources_assumed_free(self):
        assignment = LeastLoadedPlacement().assign(
            descriptors(("a", 0.3, GIB)), ["nx"], ClusterInventory()
        )
        assert assignment == {"a": "nx"}


class TestPacking:
    def test_fills_fewest_nodes(self):
        inventory = make_inventory(
            {"n1": (1.0, 4 * GIB), "n2": (1.0, 4 * GIB), "n3": (1.0, 4 * GIB)}
        )
        assignment = PackingPlacement().assign(
            descriptors(("a", 0.3, 1), ("b", 0.3, 1), ("c", 0.3, 1)),
            ["n1", "n2", "n3"],
            inventory,
        )
        assert set(assignment.values()) == {"n1"}

    def test_overflow_to_second_node(self):
        inventory = make_inventory({"n1": (1.0, 4 * GIB), "n2": (1.0, 4 * GIB)})
        assignment = PackingPlacement().assign(
            descriptors(("a", 0.6, 1), ("b", 0.6, 1)),
            ["n1", "n2"],
            inventory,
        )
        assert len(set(assignment.values())) == 2


node_names = st.lists(
    st.sampled_from(["n1", "n2", "n3", "n4"]), min_size=1, max_size=4, unique=True
)
instance_sets = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.floats(0.05, 0.5),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda t: t[0],
)


@given(node_names, instance_sets)
def test_property_policies_are_deterministic(nodes, instances):
    """Same inputs => same assignment, on every policy — the invariant
    decentralized redeployment relies on."""
    described = [
        CustomerDescriptor(name=n, cpu_share=c) for n, c in instances
    ]
    inventory = make_inventory({n: (1.0, 4 * GIB) for n in nodes})
    for policy_factory in (LeastLoadedPlacement, PackingPlacement):
        first = policy_factory().assign(list(described), list(nodes), inventory)
        second = policy_factory().assign(list(described), list(nodes), inventory)
        assert first == second


@given(node_names, instance_sets)
def test_property_assignments_target_candidates_only(nodes, instances):
    described = [CustomerDescriptor(name=n, cpu_share=c) for n, c in instances]
    inventory = make_inventory({n: (1.0, 4 * GIB) for n in nodes})
    assignment = LeastLoadedPlacement().assign(described, nodes, inventory)
    assert set(assignment.values()) <= set(nodes)
    assert set(assignment) <= {d.name for d in described}

"""Cluster inventory soft state."""

from repro.migration.inventory import ClusterInventory, NodeInventory


def inv(node, at, instances=(), **resources):
    return NodeInventory(
        node_id=node,
        at=at,
        instances={name: {} for name in instances},
        resources=dict(resources),
    )


def test_update_and_query():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 1.0, ["acme"]))
    assert inventory.instances_on("n1") == ["acme"]
    assert inventory.node_ids() == ["n1"]


def test_newer_update_wins():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 1.0, ["old"]))
    inventory.update(inv("n1", 2.0, ["new"]))
    assert inventory.instances_on("n1") == ["new"]


def test_stale_update_ignored():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 2.0, ["fresh"]))
    inventory.update(inv("n1", 1.0, ["stale"]))
    assert inventory.instances_on("n1") == ["fresh"]


def test_forget_returns_last_known():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 1.0, ["acme"]))
    forgotten = inventory.forget("n1")
    assert forgotten.instance_names == ["acme"]
    assert inventory.node_ids() == []
    assert inventory.forget("n1") is None


def test_locate_prefers_freshest_report():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 1.0, ["acme"]))
    inventory.update(inv("n2", 2.0, ["acme"]))  # moved
    assert inventory.locate("acme") == "n2"
    assert inventory.locate("ghost") is None


def test_total_instances():
    inventory = ClusterInventory()
    inventory.update(inv("n1", 1.0, ["a", "b"]))
    inventory.update(inv("n2", 1.0, ["c"]))
    assert inventory.total_instances() == 3


def test_from_dict_shares_the_read_only_payload():
    payload = inv("n1", 3.5, ["a"], cpu_capacity=1.0).to_dict()
    heard = NodeInventory.from_dict(payload)
    assert heard.instances is payload["instances"]
    assert heard.resources is payload["resources"]
    assert heard.standbys is payload["standbys"]


def test_dict_roundtrip():
    original = inv("n1", 3.5, ["a"], cpu_available_share=0.7)
    assert NodeInventory.from_dict(original.to_dict()).resources == {
        "cpu_available_share": 0.7
    }

import os

import pytest
import repro

from benchmarks.suite import layers

PACKAGE_DIR = os.path.dirname(repro.__file__)


def test_every_module_maps_to_exactly_one_layer():
    modules = layers.modules_under(PACKAGE_DIR)
    assert len(modules) > 100
    assigned = {module: layers.layer_of_module(module) for module in modules}
    assert set(assigned.values()) == set(layers.LAYERS)


def test_a_new_top_level_package_is_unmapped():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.newpackage.thing")
    # A prefix is a package boundary, not a string prefix.
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.simulator")


def test_split_packages_put_named_modules_before_the_rest():
    assert layers.layer_of_module("repro.sim.network") == "sim.network"
    assert layers.layer_of_module("repro.sim.lanes") == "sim.eventloop"
    assert layers.layer_of_module("repro.osgi.registry") == "osgi.registry"
    assert layers.layer_of_module("repro.osgi.bundle") == "osgi.framework"
    assert layers.layer_of_module("repro.workloads.arrivals") == "workloads.arrivals"
    assert layers.layer_of_module("repro.workloads.kvstore") == layers.OTHER


def test_attribution_charges_builtins_to_the_calling_layer():
    loop = os.path.join(PACKAGE_DIR, "sim", "eventloop.py")
    server = os.path.join(PACKAGE_DIR, "ipvs", "server.py")
    fire = (loop, 1, "_fire")
    run = (loop, 2, "run_until")
    finish = (server, 3, "_finish_plain")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        run: (1, 1, 1.0, 4.0, {}),
        fire: (10, 10, 0.5, 2.5, {run: (10, 10, 0.5, 2.5)}),
        finish: (10, 10, 2.0, 2.0, {fire: (10, 10, 2.0, 2.0)}),
        heappop: (10, 10, 0.5, 0.5, {run: (10, 10, 0.5, 0.5)}),
    }
    table = layers.attribute(stats, PACKAGE_DIR, os.path.dirname(layers.__file__))
    assert table["sim.eventloop"]["self_s"] == pytest.approx(2.0)
    assert table["ipvs.server"]["self_s"] == pytest.approx(2.0)
    assert table["sim.eventloop"]["share"] == pytest.approx(0.5)
    # run_until entered from outside the profile; _fire called within the layer.
    assert table["sim.eventloop"]["calls_in"] == 1
    assert table["ipvs.server"]["calls_in"] == 10
    assert table["sim.network"]["calls_in"] == 0

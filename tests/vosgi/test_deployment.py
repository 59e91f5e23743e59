"""Deployment cost models: the shape of the Figure 1-3 comparison."""

import pytest

from repro.vosgi.deployment import (
    DeploymentModel,
    JVM_BASELINE_BYTES,
    estimate_costs,
)


def test_zero_instances_costs_baseline_only():
    separate = estimate_costs(DeploymentModel.SEPARATE_JVMS, 0)
    assert separate.memory_bytes == 0
    shared = estimate_costs(DeploymentModel.SHARED_JVM, 0)
    assert shared.memory_bytes == JVM_BASELINE_BYTES


def test_separate_jvms_memory_scales_with_full_jvm():
    one = estimate_costs(DeploymentModel.SEPARATE_JVMS, 1)
    ten = estimate_costs(DeploymentModel.SEPARATE_JVMS, 10)
    assert ten.memory_bytes == 10 * one.memory_bytes


def test_shared_jvm_amortizes_jvm_baseline():
    ten_separate = estimate_costs(DeploymentModel.SEPARATE_JVMS, 10)
    ten_shared = estimate_costs(DeploymentModel.SHARED_JVM, 10)
    assert ten_shared.memory_bytes < ten_separate.memory_bytes
    saved = ten_separate.memory_bytes - ten_shared.memory_bytes
    assert saved >= 9 * JVM_BASELINE_BYTES


def test_vosgi_with_sharing_beats_shared_jvm():
    shared_jvm = estimate_costs(
        DeploymentModel.SHARED_JVM, 10, bundles_per_instance=5
    )
    vosgi = estimate_costs(
        DeploymentModel.STACKED_VOSGI, 10, bundles_per_instance=5, shared_bundles=3
    )
    assert vosgi.memory_bytes < shared_jvm.memory_bytes


def test_more_shared_bundles_means_less_memory():
    costs = [
        estimate_costs(
            DeploymentModel.STACKED_VOSGI,
            10,
            bundles_per_instance=5,
            shared_bundles=k,
        ).memory_bytes
        for k in range(6)
    ]
    assert costs == sorted(costs, reverse=True)


def test_cannot_share_more_than_present():
    with pytest.raises(ValueError):
        estimate_costs(
            DeploymentModel.STACKED_VOSGI, 5, bundles_per_instance=2, shared_bundles=3
        )


def test_negative_instances_rejected():
    with pytest.raises(ValueError):
        estimate_costs(DeploymentModel.SHARED_JVM, -1)


def test_management_latency_ordering():
    """Fig. 1's RMI/JMX indirection costs orders of magnitude more."""
    separate = estimate_costs(DeploymentModel.SEPARATE_JVMS, 5)
    shared = estimate_costs(DeploymentModel.SHARED_JVM, 5)
    assert separate.management_op_seconds > 100 * shared.management_op_seconds


def test_startup_ordering():
    separate = estimate_costs(DeploymentModel.SEPARATE_JVMS, 8)
    shared = estimate_costs(DeploymentModel.SHARED_JVM, 8)
    vosgi = estimate_costs(DeploymentModel.STACKED_VOSGI, 8)
    assert vosgi.startup_seconds < shared.startup_seconds < separate.startup_seconds

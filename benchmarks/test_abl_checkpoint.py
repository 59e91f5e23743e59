"""ABL-CKPT — live-migration checkpoint interval (§3.2 future work).

"Naturally this approach has many issues to solve, namely the costs and
feasibility of strategies such as the pointed above but the approach seems
worth investigating."

Investigated: a bundle doing 1 unit of context work per second is
checkpointed every ``interval``; the node crashes mid-interval. We measure
the work lost at the redeployed replica and the SAN write overhead paid —
the trade the paper anticipated, as a sweep over the interval.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.migration.livemigration import CheckpointableActivator, ContextCheckpointer
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.osgi.definition import simple_bundle

INTERVALS = [0.5, 1.0, 2.0, 5.0]
WORK_SECONDS = 20.0  # how long the workload runs before the crash


class Worker(CheckpointableActivator):
    """Running context = units of work completed."""

    def __init__(self):
        super().__init__()
        self.completed = 0

    def snapshot(self):
        return {"completed": self.completed}

    def restore(self, snapshot):
        self.completed = snapshot["completed"]


def run_interval(interval, seed=151):
    cluster = Cluster.build(2, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name="svc", cpu_share=0.2, bundle_count_hint=1)
    )
    deploy = cluster.node("n1").deploy_instance("svc")
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    # A fresh activator per (re)start: the redeployed replica must build
    # its own Worker and restore it from the checkpoint.
    instance.install(
        simple_bundle("worker", activator_factory=Worker)
    ).start()
    worker = instance.get_bundle_by_name("worker")._activator
    checkpointer = ContextCheckpointer(cluster.loop, instance, interval=interval)
    checkpointer.start()

    def work():
        if worker.context is not None:
            worker.completed += 1
            cluster.loop.call_after(1.0, work)

    cluster.loop.call_after(1.0, work)
    writes_before = cluster.store.stats.data_writes
    cluster.run_for(WORK_SECONDS)
    # Pin the crash phase: advance to just after a checkpoint, then 90% of
    # the way into the next interval, so the exposure window is comparable
    # across interval settings.
    baseline = checkpointer.checkpoints_taken
    while checkpointer.checkpoints_taken == baseline:
        cluster.run_for(0.05)
    cluster.run_for(interval * 0.9)
    done_at_crash = worker.completed
    san_writes = cluster.store.stats.data_writes - writes_before
    cluster.node("n1").fail()
    cluster.run_for(5.0)

    redeployed = cluster.node("n2").instance_manager.get("svc")
    fresh = redeployed.get_bundle_by_name("worker")._activator
    return {
        "done_at_crash": done_at_crash,
        "restored": fresh.completed,
        "lost": done_at_crash - fresh.completed,
        "san_writes": san_writes,
        "restored_from_checkpoint": fresh.restored_from_checkpoint,
    }


def test_abl_checkpoint_interval():
    def scenario():
        return {interval: run_interval(interval) for interval in INTERVALS}

    results = scenario()

    rows = []
    for interval in INTERVALS:
        r = results[interval]
        rows.append(
            (
                "%.1f" % interval,
                r["done_at_crash"],
                r["restored"],
                r["lost"],
                r["san_writes"],
            )
        )
    print_table(
        "ABL-CKPT: %.0f s of work, crash mid-interval, redeploy from checkpoint"
        % WORK_SECONDS,
        ["interval s", "done at crash", "restored", "work lost", "SAN writes"],
        rows,
    )

    for interval in INTERVALS:
        r = results[interval]
        assert r["restored_from_checkpoint"]
        # Loss is bounded by one interval of work (1 unit/second).
        assert 0 <= r["lost"] <= interval + 1
    # The trade: tighter intervals lose less work but write more.
    losses = [results[i]["lost"] for i in INTERVALS]
    writes = [results[i]["san_writes"] for i in INTERVALS]
    assert losses == sorted(losses)
    assert writes == sorted(writes, reverse=True)

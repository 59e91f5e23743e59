"""Live context migration — the paper's future work, implemented.

§3.2: *"In the future we intend to address this by further instrumenting
the platform to be able to lively migrate the running context of the
bundles … having the running context of the bundle replicated on other
nodes and doing instantaneous failover in case of node failures."*

The mechanism here is checkpoint/restore in the style of the cited
portable-thread-migration work [14, 1, 8, 9], adapted to the data-area
substrate:

* a bundle opts in by giving its activator ``snapshot()`` / ``restore()``
  (see :class:`CheckpointableActivator`);
* a :class:`ContextCheckpointer` periodically writes each opted-in
  bundle's snapshot into its SAN data area under a reserved key — the
  "running context replicated on other nodes" (the SAN is visible
  everywhere);
* on redeployment the activator's ``start`` finds the checkpoint and
  restores, so only work since the last checkpoint is lost. The
  checkpoint interval is the knob traded against overhead in the
  CLAIM-MIG benchmark's live-migration series.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.osgi.bundle import BundleContext, BundleState
from repro.osgi.definition import BundleActivator
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.storage.san import StorageError
from repro.vosgi.instance import VirtualInstance

#: Reserved data-area key holding the latest running-context checkpoint.
CHECKPOINT_KEY = "__running_context__"


class CheckpointableActivator(BundleActivator):
    """Base class for bundles whose running context can migrate live.

    Subclasses implement :meth:`snapshot` (JSON-serializable dict) and
    :meth:`restore`. ``start`` automatically restores the last checkpoint
    when one exists, making redeployment transparent.
    """

    def __init__(self) -> None:
        self.context: Optional[BundleContext] = None
        self.restored_from_checkpoint = False

    # -- to be overridden ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serialize the running context (stack frames, object state...)."""
        raise NotImplementedError

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rebuild the running context from a snapshot."""
        raise NotImplementedError

    def on_start(self, context: BundleContext) -> None:
        """Subclass hook; runs after checkpoint restoration."""

    def on_stop(self, context: BundleContext) -> None:
        """Subclass hook; runs before the final checkpoint."""

    # -- lifecycle integration --------------------------------------------
    def start(self, context: BundleContext) -> None:
        self.context = context
        stored = context.get_data_store().get(CHECKPOINT_KEY)
        if stored is not None:
            self.restore(stored)
            self.restored_from_checkpoint = True
        self.on_start(context)

    def stop(self, context: BundleContext) -> None:
        self.on_stop(context)
        # A graceful stop checkpoints implicitly: zero context loss on
        # planned migration.
        self.checkpoint()
        self.context = None

    def checkpoint(self) -> bool:
        """Write the current context to the SAN.

        False when not running or when the SAN refuses the write (a
        crashed node's checkpointer outlives its mount); any other error,
        a raising :meth:`snapshot` included, propagates.
        """
        if self.context is None:
            return False
        try:
            self.context.get_data_store()[CHECKPOINT_KEY] = self.snapshot()
        except StorageError:
            return False
        return True


class ContextCheckpointer:
    """Periodic checkpointing of every opted-in bundle of an instance.

    This is the "replication" loop: at each interval the running context
    of each checkpointable bundle lands on the SAN, bounding the context
    lost to a crash by ``interval`` seconds of work.
    """

    def __init__(
        self,
        loop: EventLoop,
        instance: VirtualInstance,
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self._loop = loop
        self.instance = instance
        self.interval = interval
        self.checkpoints_taken = 0
        self.running = False
        self._timer: Optional[ScheduledEvent] = None

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._arm()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def checkpoint_now(self) -> int:
        """Checkpoint every eligible bundle; returns how many succeeded."""
        done = 0
        for bundle in self.instance.bundles():
            if bundle.state != BundleState.ACTIVE:
                continue
            activator = bundle._activator
            if isinstance(activator, CheckpointableActivator):
                if activator.checkpoint():
                    done += 1
        self.checkpoints_taken += done
        return done

    def _arm(self) -> None:
        def tick() -> None:
            if not self.running:
                return
            self.checkpoint_now()
            self._arm()

        self._timer = self._loop.call_after(
            self.interval, tick, label="ckpt:%s" % self.instance.name
        )

    def __repr__(self) -> str:
        return "ContextCheckpointer(%s, every %.2fs, taken=%d)" % (
            self.instance.name,
            self.interval,
            self.checkpoints_taken,
        )

"""Migration Module — §3.2.

Responsibilities, mapped to the paper's four issues:

1. *Knowledge of the available nodes and its resources* — every module
   periodically multicasts its node's inventory (instances + available
   resources) over the GCS; :class:`~repro.migration.inventory.ClusterInventory`
   is each node's resulting view.
2. *Node failures* — the GCS membership service reports a left member; if
   its last inventory still listed instances, the survivors redeploy them
   in a decentralized way (deterministic placement over the shared view,
   or sequencer-agreed assignment — the ABL-ORDER ablation).
3. *State migration* — framework state persists to the SAN per the OSGi
   spec (incremental, so crashes lose nothing), bundle data areas are
   globally readable, and redeployment is a framework reboot on the
   target: "comparable to a normal startup of the platform, probably
   less". Stateless/stateful/transactional bundle semantics live in
   :mod:`~repro.migration.statefulness`; live context checkpointing (the
   paper's future work) in :mod:`~repro.migration.livemigration`.
4. *Service localization* — handled by :mod:`repro.ipvs`.
"""

from repro.migration.inventory import ClusterInventory, NodeInventory
from repro.migration.livemigration import (
    CheckpointableActivator,
    ContextCheckpointer,
)
from repro.migration.module import MigrationModule, MigrationRecord
from repro.migration.placement import (
    LeastLoadedPlacement,
    PackingPlacement,
)
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.migration.standby import PreparedStandby, StandbyManager
from repro.migration.statefulness import (
    PlainStatefulService,
    RetryingClient,
    TransactionalStore,
)

__all__ = [
    "CheckpointableActivator",
    "ClusterInventory",
    "ContextCheckpointer",
    "CustomerDescriptor",
    "CustomerDirectory",
    "LeastLoadedPlacement",
    "MigrationModule",
    "MigrationRecord",
    "NodeInventory",
    "PackingPlacement",
    "PlainStatefulService",
    "PreparedStandby",
    "RetryingClient",
    "StandbyManager",
    "TransactionalStore",
]

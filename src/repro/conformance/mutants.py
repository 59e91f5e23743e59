"""Test-only protocol mutations: checkers that cannot fail are not tests.

A conformance checker earns its keep by *detecting* protocol bugs, so every
axiom in :mod:`repro.conformance.axioms` is paired with at least one seeded
mutation of the real protocol that it must flag (see the mutant matrix in
``tests/conformance/test_mutants.py`` and docs/CONFORMANCE.md). Mutations
ride on the event loop's probe (:mod:`repro.telemetry.runtime`) so that:

* the production tree carries **zero** mutated behaviour — every hook site
  guards with ``probe is not None and probe.mutated(...)``, and no probe
  is attached unless a driver or a test attached one;
* a mutation belongs to one loop: a second environment in the same
  process runs unmutated;
* a mutation can be scoped to specific protocol endpoints (e.g. one group
  member misses view installs while the rest behave), which is how real
  partial failures look;
* tests cannot leave mutations behind: :func:`protocol_mutation` is a
  context manager that always restores the loop's previous probe.

The catalogue (mutation -> axiom that must catch it):

=====================  ==============================================
``skip_self_delivery``   sender omits local FIFO delivery → ``self-delivery``
``fifo_eager_delivery``  receiver delivers FIFO frames on arrival,
                         skipping the per-sender reorder buffer →
                         ``fifo-order``
``self_sequencing``      total-order senders sequence locally instead
                         of forwarding to the coordinator →
                         ``total-order-agreement``
``drain_with_holes``     ordered-delivery buffer drains past gaps →
                         ``total-order-prefix``
``accept_stale_views``   members re-install stale/duplicate views →
                         ``view-monotonic``
``skip_view_install``    a member ignores later VIEW frames, delivering
                         in a stale view → ``same-view-delivery``
``stale_directory_reads`` CustomerDirectory.get returns the first value
                         it ever saw for a key → ``linearizability``
``skip_drain``           the rollout engine takes a replica down without
                         draining it first (in-flight requests die) →
                         ``rollout-no-dropped-request``
``fifo_cursor_reset``    a member restarts a re-admitted sender's FIFO
                         cursor at 1 → the ``fifo-delivered`` invariant
                         (``repro.faults``), the one non-axiom catch
=====================  ==============================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.telemetry.runtime import attach

#: All known mutation names (spelling guard: enabling a typo is an error).
MUTANT_NAMES = (
    "skip_self_delivery",
    "fifo_eager_delivery",
    "self_sequencing",
    "drain_with_holes",
    "accept_stale_views",
    "skip_view_install",
    "stale_directory_reads",
    "skip_drain",
    "fifo_cursor_reset",
)

@contextmanager
def protocol_mutation(
    loop: Any, name: str, endpoints: Optional[Sequence[str]] = None
) -> Iterator[None]:
    """Turn ``name`` on for ``loop`` inside the block, optionally scoped
    to specific endpoint names (``None``: every endpoint).

    The loop's telemetry, recorder and other mutations stay attached.
    """
    if name not in MUTANT_NAMES:
        raise ValueError("unknown protocol mutation: %r" % name)
    current = loop.probe
    mutations = dict(current.mutations) if current is not None else {}
    mutations[name] = frozenset(endpoints) if endpoints is not None else None
    with attach(
        loop,
        telemetry=current.telemetry if current is not None else None,
        recorder=current.recorder if current is not None else None,
        mutations=mutations,
    ):
        yield

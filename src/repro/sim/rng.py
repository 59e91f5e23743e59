"""Independent named random streams.

Distributed experiments need several sources of randomness (network jitter,
failure injection, workload arrivals). Deriving each from a single root seed
via stable hashing means adding a new stream never changes the draws seen by
existing streams — runs stay comparable across code versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

# repro: allow-file[DET002] -- the one sanctioned random.Random
# construction site; every other component takes an injected stream.


class RngStreams:
    """Factory of independent ``random.Random`` streams keyed by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        material = ("%d/%s" % (self.seed, name)).encode("utf-8")
        digest = hashlib.sha256(material).digest()
        derived = int.from_bytes(digest[:8], "big")
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream

    def substream(self, base: str, qualifier: str) -> random.Random:
        """Return the stream named ``base/qualifier``.

        Named substreams give each entity (a node, a shard) its own
        draw sequence derived only from the root seed and the two
        names — never from creation order or from other entities'
        draws. A consumer that draws from ``substream("telemetry",
        node_id)`` therefore sees the same values however the other
        nodes' events interleave with its own, which keeps a node's
        span/event ids fixed when unrelated work is added or reordered.
        """
        return self.stream("%s/%s" % (base, qualifier))

    def __repr__(self) -> str:
        return "RngStreams(seed=%d, streams=%d)" % (self.seed, len(self._streams))

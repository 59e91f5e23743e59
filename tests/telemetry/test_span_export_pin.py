"""Pinned span export of a small telemetry chaos campaign.

The conformance ledger digest covers only the span ids history events
carry, so nothing else pins which span is whose parent. This export
does: gcs view broadcasts parent the view changes their VIEW frames
cause on other nodes (a context carried across the network), those
parent the failovers, and every heartbeat and multicast in between is
sent and delivered under the episode root. A change to how a delivered
message re-activates its sender's context, or to span id draws, moves
this digest.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.faults import ChaosCampaign

CAMPAIGN_KWARGS = dict(
    seed=7, episodes=2, episode_duration=12.0, settle=4.0, telemetry=True
)

#: sha256 of the canonical JSON of every episode's span export.
#: Re-pinned (from b2e33545, captured at c32ba11) when inventory gossip
#: became change-driven: the periodic INV multicasts and their spans are
#: gone (161 + 178 spans became 67 + 92).
PINNED_SPANS_DIGEST = "f1ccef1f3724194284c5d81480aceec2b316eb28da52e20a93b71c9f458ed0d7"


@pytest.fixture(scope="module")
def spans():
    result = ChaosCampaign(**CAMPAIGN_KWARGS).run()
    return [episode.spans for episode in result.episodes]


def test_span_export_matches_the_pinned_digest(spans):
    blob = json.dumps(spans, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == PINNED_SPANS_DIGEST


def test_the_pinned_export_links_spans_across_nodes(spans):
    """The digest is worth pinning: it covers carried parent links."""
    links = Counter()
    for episode in spans:
        by_id = {span["span_id"]: span for span in episode}
        for span in episode:
            parent = by_id.get(span["parent_id"])
            if parent is not None:
                remote = parent["node"] not in ("", span["node"])
                links[parent["name"], span["name"], remote] += 1
    assert links["gcs.view_broadcast", "gcs.view_change", True] > 0
    assert links["gcs.view_change", "migration.failover", False] > 0
    assert links["episode:0", "gcs.multicast", False] > 0

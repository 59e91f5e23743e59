"""The history model: what one run *observably did*, as checkable data.

A :class:`History` is an append-only, index-ordered sequence of
:class:`HistoryEvent` values recorded while a scenario runs (see
:mod:`repro.conformance.recorder`). Everything downstream — the
virtual-synchrony axioms and the linearizability checker — is an offline
pass over this one structure, which is what makes the checkers cheap to
add to and safe to run after the fact: the protocol never knows it is
being judged.

Event kinds and their ``data`` fields:

``view_install``
    ``group, view_id, members, order_seq, joined, left, incarnation`` —
    one group member adopted a view (the total-order cursor ``order_seq``
    explains legal delivery-sequence jumps).
``send``
    ``group, kind ("fifo"|"total"), seq (fifo only), payload, incarnation``
    — a member multicast a payload.
``deliver``
    ``group, kind, sender, seq, payload, view_id, view_members,
    incarnation`` — a member delivered a payload, stamped with the view it
    held at that instant.
``op_invoke`` / ``op_return``
    ``op, action, key, value`` / ``op, result, ok`` — one replicated
    deployment-registry operation's invocation and response (the
    linearizability checker pairs them by ``op``).
``migration``
    ``event ("failover"|"activation"|"deploy"), instance, from_node,
    to_node, reason, warm, downtime`` — instance movement milestones.
``rollout``
    ``phase ("start"|"drain-begin"|...|"final"), instance, from_version,
    to_version`` plus phase-specific extras — staged-upgrade milestones
    recorded by the :mod:`repro.rollout` engine (docs/ROLLOUT.md).
``request_drop``
    ``reason, endpoint, request_id`` — one virtual-service request was
    dropped (``node`` is the real server that lost it, or ``""`` when it
    never reached one). Audited against rollout upgrade windows by the
    no-dropped-request checker.

Payloads are stored as short digests (:func:`payload_digest`), not
values: checkers only ever need equality, and digests keep the history —
and the JSON verdict built from it — small and byte-stable.

When telemetry is active each event also carries the ambient span context
(``trace_id``/``span_id``), so a conformance violation can be pinned to
the exact span in a trace export (docs/TELEMETRY.md).
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, Iterator, List, Optional

#: The recognised event kinds, in no particular order.
EVENT_KINDS = (
    "view_install",
    "send",
    "deliver",
    "op_invoke",
    "op_return",
    "migration",
    "rollout",
    "request_drop",
)

#: Events per encoder call in :meth:`History.digest`.
_DIGEST_BATCH = 512
#: What :func:`json.dumps` does with a value it cannot encode: raise.
_refuse = json.JSONEncoder().default


class _Escaped(dict):
    """String -> its JSON text with ASCII escapes, escaped on first sight."""

    def __missing__(self, text: str) -> str:
        escaped = self[text] = encode_basestring_ascii(text)
        return escaped


def payload_digest(payload: Any) -> str:
    """Short, deterministic fingerprint of an application payload.

    ``repr`` is stable for the payload shapes the platform multicasts
    (dicts keep insertion order, floats render identically run to run on
    the deterministic sim), so two same-seed runs digest identically.
    """
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


class HistoryEvent:
    """One observation; ``index`` is the global happened-before order.

    One is built per recorded event, so it is a plain slotted class
    compared field by field; nothing writes to it after
    :meth:`History.append`.
    """

    __slots__ = ("index", "at", "kind", "node", "data", "trace_id", "span_id")

    def __init__(
        self,
        index: int,
        at: float,
        kind: str,
        node: str,
        data: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> None:
        self.index = index
        self.at = at
        self.kind = kind
        self.node = node
        self.data: Dict[str, Any] = {} if data is None else data
        self.trace_id = trace_id
        self.span_id = span_id

    def _fields(self) -> tuple:
        return (
            self.index,
            self.at,
            self.kind,
            self.node,
            self.data,
            self.trace_id,
            self.span_id,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def _as_dict(self, data: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "at": round(self.at, 9),
            "kind": self.kind,
            "node": self.node,
            "data": data,
        }
        if self.span_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        return out

    def to_dict(self) -> Dict[str, Any]:
        return self._as_dict({k: self.data[k] for k in sorted(self.data)})

    def __str__(self) -> str:
        return "%6d %10.6f %-12s %-24s %s" % (
            self.index,
            self.at,
            self.kind,
            self.node,
            {k: self.data[k] for k in sorted(self.data)},
        )

    def __repr__(self) -> str:
        return (
            "HistoryEvent(index=%r, at=%r, kind=%r, node=%r, data=%r, "
            "trace_id=%r, span_id=%r)" % self._fields()
        )


class History:
    """Append-only event log for one run (one chaos episode, one test)."""

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []
        #: kind -> that kind's events in index order, kept by :meth:`append`.
        self._by_kind: Dict[str, List[HistoryEvent]] = {}

    def append(
        self,
        at: float,
        kind: str,
        node: str,
        data: Dict[str, Any],
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> HistoryEvent:
        event = HistoryEvent(
            len(self.events), at, kind, node, data, trace_id, span_id
        )
        self.events.append(event)
        same_kind = self._by_kind.get(kind)
        if same_kind is None:
            self._by_kind[kind] = [event]
        else:
            same_kind.append(event)
        return event

    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[HistoryEvent]:
        """This kind's events in index order (a copy the caller may keep)."""
        return list(self._by_kind.get(kind, ()))

    def groups(self) -> List[str]:
        """Every GCS group that appears in the history, sorted."""
        seen = set()
        for event in self.events:
            group = event.data.get("group")
            if group is not None:
                seen.add(group)
        return sorted(seen)

    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.events]

    def digest(self) -> str:
        """SHA-256 of the canonical JSON of :meth:`to_dicts` (sorted keys,
        ``(",", ":")`` separators, ASCII escapes): the replay fingerprint.

        The document is never built: the encoder behind :func:`json.dumps`,
        with the same options, renders :data:`_DIGEST_BATCH` events at a
        time into the hash, and escapes each distinct string once per pass.
        ``data`` goes in unsorted; ``sort_keys`` orders every level.
        """
        # markers (None: no cycle check), default, string encoder, indent,
        # key and item separators, sort_keys, skipkeys, allow_nan.
        encode = c_make_encoder(
            None, _refuse, _Escaped().__getitem__, None, ":", ",", True, False, True
        )
        sha = hashlib.sha256(b"[")
        for start in range(0, len(self.events), _DIGEST_BATCH):
            batch = self.events[start : start + _DIGEST_BATCH]
            text = "".join(encode([e._as_dict(e.data) for e in batch], 0))[1:-1]
            sha.update(("," + text if start else text).encode("ascii"))
        sha.update(b"]")
        return sha.hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[HistoryEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        return "History(%d events, %s)" % (len(self.events), self.digest()[:12])

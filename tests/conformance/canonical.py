"""The ``json.dumps`` oracle for :meth:`History.digest`.

The digest is defined as the SHA-256 of this document; the history renders
and hashes it fragment by fragment without ever building it.
"""

import hashlib
import json


def canonical_json(history) -> str:
    return json.dumps(history.to_dicts(), sort_keys=True, separators=(",", ":"))


def oracle_digest(history) -> str:
    return hashlib.sha256(canonical_json(history).encode("utf-8")).hexdigest()

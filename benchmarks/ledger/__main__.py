"""Check a ``trace --smoke`` document against the committed ledger, or
re-record it (``--record``); exit 1 naming every count that moved."""

from __future__ import annotations

import argparse
import json
import sys

from . import LEDGER, differences, ledger_of


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("trace", help="output of benchmarks.suite trace --smoke --out")
    parser.add_argument("--record", action="store_true", help="rewrite the ledger")
    args = parser.parse_args()
    with open(args.trace, "r", encoding="utf-8") as handle:
        measured = ledger_of(json.load(handle))
    if args.record:
        with open(LEDGER, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("recorded %s" % LEDGER)
        return 0
    with open(LEDGER, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    moved = differences(recorded, measured)
    for line in moved:
        print(line)
    if moved:
        print("%d counts differ from the ledger" % len(moved))
        return 1
    print("ledger ok: %d workloads" % len(measured["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check a ``trace --smoke`` document against the committed ledger, or
sweep the red-seed ledger's chaos fleets (``--chaos``); re-record either
with ``--record``; exit 1 naming every count or verdict that moved."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import CHAOS_LEDGER, CHAOS_SEEDS, LEDGER, chaos_ledger, differences, ledger_of


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument(
        "trace", nargs="?", help="output of benchmarks.suite trace --smoke --out"
    )
    parser.add_argument(
        "--chaos",
        type=int,
        nargs="+",
        choices=sorted(CHAOS_SEEDS),
        metavar="NODES",
        help="sweep the red-seed ledger's fleets of NODES nodes (%s)"
        % ", ".join(map(str, sorted(CHAOS_SEEDS))),
    )
    parser.add_argument("--record", action="store_true", help="rewrite the ledger")
    args = parser.parse_args()
    if (args.trace is None) == (args.chaos is None):
        parser.error("give either a trace document or --chaos")
    if args.chaos is None:
        path = LEDGER
        with open(args.trace, "r", encoding="utf-8") as handle:
            measured = ledger_of(json.load(handle))
    else:
        path = CHAOS_LEDGER
        measured = chaos_ledger(args.chaos)
    recorded = {"python": measured["python"], "workloads": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    if args.chaos is not None:
        # A sweep checks, or re-records, only the fleets it ran.
        swept = measured["workloads"]
        if args.record:
            measured = {
                "python": measured["python"],
                "workloads": {**recorded["workloads"], **swept},
            }
        recorded = {
            "python": recorded["python"],
            "workloads": {
                name: row for name, row in recorded["workloads"].items() if name in swept
            },
        }
    if args.record:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("recorded %s" % path)
        return 0
    moved = differences(recorded, measured)
    for line in moved:
        print(line)
    if moved:
        print("%d entries differ from the ledger" % len(moved))
        return 1
    print("ledger ok: %d workloads" % len(measured["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Function census hook, imported at start-up by every Python process
whose ``PYTHONPATH`` starts with this directory (see
``benchmarks/ledger/census.py``).

With ``REPRO_CENSUS_DIR`` set, a ``sys.setprofile`` hook (and the same
hook for new threads) keeps every code object the process calls; at exit
the process writes ``<pid>.json`` into that directory: ``rows``, the
sorted ``[filename, first line]`` pairs of the code objects under
``REPRO_CENSUS_ROOT``, and ``replaced``, whether another profiler (a
``sys.setprofile`` caller, ``cProfile``) took the hook's place, after
which calls went unseen. Without ``REPRO_CENSUS_DIR`` it does nothing.
"""

import os

_OUT = os.environ.get("REPRO_CENSUS_DIR")

if _OUT:
    import atexit
    import json
    import sys
    import threading

    _ROOT = os.environ.get("REPRO_CENSUS_ROOT", "")
    _seen = set()

    def _hook(frame, event, arg, _add=_seen.add):
        _add(frame.f_code)

    def _dump():
        replaced = sys.getprofile() is not _hook
        sys.setprofile(None)
        real = {}
        rows = set()
        for code in list(_seen):
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            if real[name].startswith(_ROOT):
                rows.add((real[name], code.co_firstlineno))
        document = {"rows": sorted(rows), "replaced": replaced}
        path = os.path.join(_OUT, "%d.json" % os.getpid())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)

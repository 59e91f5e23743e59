"""Self-tests of the benchmark suite: ``python -m pytest benchmarks/suite -q``.

Not part of tier 1 (``testpaths`` stays ``tests``); they check the
benchmark, not the platform.
"""

from benchmarks.suite.cli import _import_platform

_import_platform()

"""The module-to-layer map and the cProfile attribution built on it.

A *layer* is named after the module (or package) that does the work, so
a number in the trace table points at a file. Packages map as a whole;
the few packages the macro request crosses module by module (``ipvs``,
``sim``, ``osgi``, ``workloads``) are split. There is deliberately no
catch-all rule: a new top-level package under ``src/repro`` maps to
nothing and :func:`layer_of_module` raises, so whoever adds it decides
where its time is reported (``tests/test_layers.py`` walks the tree).

Attribution (:func:`attribute`) works on the raw ``pstats`` table:

* ``self_s`` — summed ``tottime`` of the layer's functions, plus the
  builtin/stdlib time they caused. Builtins and stdlib functions carry
  no layer of their own; their ``tottime`` is charged through the pstats
  caller edges to whichever layer called them (``heapq.heappush`` to
  ``sim.eventloop``, ``random.expovariate`` to ``workloads.arrivals``).
* ``calls_in`` — calls entering the layer: every call of one of its
  functions whose caller is not in the same layer. Exact for a seed.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

OTHER = "other"

#: Report order: the macro request's path first, then the platform.
LAYERS: Tuple[str, ...] = (
    "workloads.arrivals",
    "macrobench",
    "ipvs.hashring",
    "ipvs.schedulers",
    "ipvs.server",
    "sim.eventloop",
    "sim.network",
    "gcs",
    "migration",
    "cluster",
    "monitoring",
    "vosgi",
    "osgi.registry",
    "osgi.filter",
    "osgi.events",
    "osgi.framework",
    "faults",
    "conformance",
    "telemetry",
    OTHER,
)

#: Modules mapped by exact name (top-level files of the package).
_EXACT: Mapping[str, str] = {
    "repro": OTHER,
    "repro.__main__": OTHER,
    "repro.bench": OTHER,
}

#: ``(dotted prefix, layer)``; the first matching prefix wins, so a split
#: package lists its named modules before its "rest of the package" rule.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.arrivals", "workloads.arrivals"),
    ("repro.workloads", OTHER),  # burner/kvstore/webservice: customer code
    ("repro.macrobench", "macrobench"),
    ("repro.ipvs.hashring", "ipvs.hashring"),
    ("repro.ipvs.schedulers", "ipvs.schedulers"),
    ("repro.ipvs", "ipvs.server"),  # server + addressing
    ("repro.sim.network", "sim.network"),
    ("repro.sim", "sim.eventloop"),  # + clock, lanes, scheduler, poolexec, rng
    ("repro.gcs", "gcs"),
    ("repro.migration", "migration"),
    ("repro.storage", "migration"),
    ("repro.cluster", "cluster"),
    ("repro.core", "cluster"),
    ("repro.monitoring", "monitoring"),
    ("repro.sla", "monitoring"),
    ("repro.autonomic", "monitoring"),
    ("repro.services", "monitoring"),
    ("repro.isolation", "monitoring"),
    ("repro.vosgi", "vosgi"),
    ("repro.osgi.registry", "osgi.registry"),
    ("repro.osgi.filter", "osgi.filter"),
    ("repro.osgi.events", "osgi.events"),
    ("repro.osgi", "osgi.framework"),
    ("repro.faults", "faults"),
    ("repro.conformance", "conformance"),
    ("repro.telemetry", "telemetry"),
    ("repro.analysis", OTHER),
    ("repro.rollout", OTHER),
)


class UnmappedModule(LookupError):
    """A module under ``src/repro`` that no rule assigns to a layer."""


def layer_of_module(module: str) -> str:
    """Layer of a dotted ``repro`` module name; raises if none claims it."""
    exact = _EXACT.get(module)
    if exact is not None:
        return exact
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise UnmappedModule(
        "no layer for module %r: add a rule to benchmarks/suite/layers.py" % module
    )


def module_of_path(path: str, package_dir: str) -> Optional[str]:
    """Dotted module name of a ``.py`` file inside ``package_dir``
    (the ``repro`` directory), or ``None`` for a file outside it."""
    path = os.path.abspath(path)
    root = os.path.abspath(package_dir)
    if not path.startswith(root + os.sep) or not path.endswith(".py"):
        return None
    relative = path[len(os.path.dirname(root)) + 1 : -len(".py")]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def modules_under(package_dir: str) -> List[str]:
    """Every module of the package rooted at ``package_dir``, sorted."""
    found = []
    for directory, _subdirs, files in os.walk(package_dir):
        for name in files:
            module = module_of_path(os.path.join(directory, name), package_dir)
            if module is not None:
                found.append(module)
    return sorted(found)


class _Resolver:
    """Maps pstats function keys ``(file, line, name)`` to layers."""

    def __init__(self, package_dir: str, harness_dir: str) -> None:
        self._package_dir = package_dir
        self._harness_dir = os.path.abspath(harness_dir) + os.sep
        self._by_file: Dict[str, Optional[str]] = {}

    def layer(self, func: Tuple[str, int, str]) -> Optional[str]:
        """The function's layer; ``None`` for builtins and the stdlib."""
        filename = func[0]
        if filename in self._by_file:
            return self._by_file[filename]
        layer: Optional[str] = None
        if filename != "~":  # "~" is pstats' file name for builtins
            module = module_of_path(filename, self._package_dir)
            if module is not None:
                layer = layer_of_module(module)
            elif os.path.abspath(filename).startswith(self._harness_dir):
                layer = OTHER
        self._by_file[filename] = layer
        return layer


def attribute(
    stats: Mapping[Tuple[str, int, str], Tuple[Any, ...]],
    package_dir: str,
    harness_dir: str,
) -> Dict[str, Dict[str, float]]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    Returns ``{layer: {"self_s", "share", "calls_in"}}`` for every name
    in :data:`LAYERS`; shares sum to 1 over the profiled total.
    """
    resolve = _Resolver(package_dir, harness_dir).layer
    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0 for layer in LAYERS}
    owners: Dict[Tuple[str, int, str], Dict[str, float]] = {}

    def owner(func: Tuple[str, int, str]) -> Dict[str, float]:
        """Layer mix responsible for calls of ``func``. For an external
        function that is its callers' mix, weighted by the cumulative
        time each caller edge carries. A call cycle among externals
        contributes nothing to the mix; an external nobody in a layer
        reaches falls to ``other``."""
        layer = resolve(func)
        if layer is not None:
            return {layer: 1.0}
        known = owners.get(func)
        if known is not None:
            return known
        owners[func] = {}  # in progress: a cycle back to here adds nothing
        mix: Dict[str, float] = {}
        callers = stats[func][4] if func in stats else {}
        for caller, edge in callers.items():
            # Cumulative time on the edge; the call count breaks ties
            # between edges too short for the profiler's clock.
            weight = edge[3] + 1e-12 * edge[0]
            for name, part in owner(caller).items():
                mix[name] = mix.get(name, 0.0) + part * weight
        total_weight = sum(mix.values())
        if total_weight > 0.0:
            mix = {name: part / total_weight for name, part in mix.items()}
        else:
            mix = {OTHER: 1.0}
        owners[func] = mix
        return mix

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = resolve(func)
        if layer is not None:
            self_s[layer] += tt
            inside = sum(
                edge[0] for caller, edge in callers.items() if resolve(caller) == layer
            )
            calls_in[layer] += nc - inside
            continue
        if not callers:
            self_s[OTHER] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for name, part in owner(caller).items():
                self_s[name] += edge[2] * part
            charged += edge[2]
        # Recursive externals report edge times that do not sum to tt.
        self_s[OTHER] += tt - charged

    total = sum(self_s.values())
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total > 0.0 else 0.0,
            "calls_in": calls_in[layer],
        }
        for layer in LAYERS
    }

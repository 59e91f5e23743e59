"""Determinism linter: one triggering and one clean case per DET rule,
suppression directives, rule selection, and the self-clean tree."""

import os
import textwrap

import pytest

from repro.analysis import DET_RULES, lint_paths, lint_source

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def lint(snippet, select=None):
    return lint_source(textwrap.dedent(snippet), "snippet.py", select=select)


def codes(snippet, select=None):
    return [d.code for d in lint(snippet, select=select)]


# ----------------------------------------------------------------------
# DET001 — wall clock
# ----------------------------------------------------------------------
def test_det001_flags_time_time_call():
    diags = lint(
        """
        import time

        def now():
            return time.time()
        """
    )
    assert [d.code for d in diags] == ["DET001"]
    assert diags[0].line == 5
    assert "time.time" in diags[0].message


def test_det001_flags_aliased_import_and_bare_reference():
    assert "DET001" in codes(
        """
        import time as t
        stamp = t.monotonic()
        """
    )
    # A bare reference (stashing the function) is as non-deterministic
    # as calling it.
    assert "DET001" in codes(
        """
        import time
        clock = time.perf_counter_ns
        """
    )


def test_det001_flags_datetime_now():
    assert "DET001" in codes(
        """
        from datetime import datetime
        when = datetime.now()
        """
    )


def test_det001_clean_on_injected_clock():
    assert codes(
        """
        def now(clock):
            return clock.now
        """
    ) == []


def test_det001_allowlisted_in_sim_clock():
    source = "import time\nvalue = time.monotonic()\n"
    assert [
        d.code for d in lint_source(source, "repro/sim/clock.py")
    ] == []
    assert [
        d.code for d in lint_source(source, "repro/other.py")
    ] == ["DET001"]


# ----------------------------------------------------------------------
# DET002 — global random
# ----------------------------------------------------------------------
def test_det002_flags_module_level_random():
    diags = lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )
    assert [d.code for d in diags] == ["DET002"]


def test_det002_flags_from_import_and_construction():
    assert "DET002" in codes(
        """
        from random import randint
        roll = randint(1, 6)
        """
    )
    assert "DET002" in codes(
        """
        import random
        rng = random.Random(42)
        """
    )


def test_det002_clean_on_injected_stream():
    assert codes(
        """
        def pick(rng, items):
            return items[rng.randrange(len(items))]
        """
    ) == []


def test_det002_allowlisted_in_sim_rng():
    source = "import random\nrng = random.Random(0)\n"
    assert lint_source(source, "repro/sim/rng.py") == []
    assert [d.code for d in lint_source(source, "repro/x.py")] == ["DET002"]


# ----------------------------------------------------------------------
# DET003 — unordered iteration feeding scheduling/sends
# ----------------------------------------------------------------------
def test_det003_flags_dict_values_feeding_send():
    diags = lint(
        """
        def flush(peers, payload):
            for peer in peers.values():
                peer.send("addr", payload)
        """
    )
    assert [d.code for d in diags] == ["DET003"]


def test_det003_flags_set_literal_feeding_schedule():
    assert "DET003" in codes(
        """
        def arm(loop, items):
            for delay in {1.0, 2.0}:
                loop.call_after(delay, items.pop)
        """
    )


def test_det003_clean_when_sorted():
    assert codes(
        """
        def flush(peers, payload):
            for name in sorted(peers.values()):
                name.send("addr", payload)
        """
    ) == []


def test_det003_clean_without_scheduling_in_body():
    # Unordered iteration is fine when the body has no scheduling effect.
    assert codes(
        """
        def total(shares):
            acc = 0
            for value in shares.values():
                acc += value
            return acc
        """
    ) == []


# ----------------------------------------------------------------------
# DET004 — id() in ordering context
# ----------------------------------------------------------------------
def test_det004_flags_id_as_sort_key():
    diags = lint(
        """
        def order(refs):
            return sorted(refs, key=lambda r: id(r))
        """
    )
    assert [d.code for d in diags] == ["DET004"]


def test_det004_flags_id_comparison():
    assert "DET004" in codes(
        """
        def before(a, b):
            return id(a) < id(b)
        """
    )


def test_det004_clean_for_dedup_membership():
    # Identity-keyed *dedup* is deterministic; only ordering is not.
    assert codes(
        """
        def unique(refs):
            seen = set()
            out = []
            for ref in refs:
                if id(ref) not in seen:
                    seen.add(id(ref))
                    out.append(ref)
            return out
        """
    ) == []


# ----------------------------------------------------------------------
# DET005 — real concurrency primitives
# ----------------------------------------------------------------------
def test_det005_flags_threading_import():
    assert "DET005" in codes("import threading\n")
    assert "DET005" in codes("from threading import Lock\n")
    assert "DET005" in codes("import asyncio\n")


def test_det005_clean_on_sim_eventloop():
    assert codes(
        """
        from repro.sim.eventloop import EventLoop
        loop = EventLoop()
        """
    ) == []


# ----------------------------------------------------------------------
# The source kinds flagged where they are read: OS entropy (DET002),
# hash() (DET004), an unordered argument to a send (DET003), the
# environment (DET008). One flagged fixture and its clean twin each.
# ----------------------------------------------------------------------
MOD = "pkg/mod.py"
SOURCE_KINDS = [
    pytest.param(
        "DET002",
        "import os\ntoken = os.urandom(8)\n",
        "import random\n\ndef stream(seed):\n    return random.Random(seed)\n",
        "repro/sim/rng.py",
        id="urandom",
    ),
    pytest.param(
        "DET002",
        "from secrets import token_hex\nimport uuid\n"
        "name = token_hex() + str(uuid.uuid4())\n",
        "def name(rng):\n    return '%032x' % rng.getrandbits(128)\n",
        MOD,
        id="secrets-uuid",
    ),
    pytest.param(
        "DET004",
        "def shard(key, n):\n    return hash(key) % n\n",
        "class Key:\n    def __hash__(self):\n        return hash(self.name)\n",
        MOD,
        id="hash",
    ),
    pytest.param(
        "DET003",
        "def beat(net, src, peers, m):\n"
        "    net.send_all(src, peers.values(), m)\n",
        "def beat(net, src, peers, m):\n"
        "    net.send_all(src, sorted(peers.values()), m)\n",
        MOD,
        id="unordered-arg",
    ),
    pytest.param(
        "DET008",
        "import os\nlevel = os.getenv('X')\n",
        "import os\npath = os.path.join('a', 'b')\n",
        MOD,
        id="getenv",
    ),
    pytest.param(
        "DET008",
        "from os import environ\nlevel = environ.get('X')\n",
        "def level(config):\n    return config.get('X')\n",
        MOD,
        id="environ",
    ),
]


@pytest.mark.parametrize("code,flagged,clean,clean_path", SOURCE_KINDS)
def test_source_kind_flagged_where_read(code, flagged, clean, clean_path):
    assert code in [d.code for d in lint_source(flagged, MOD)]
    assert lint_source(clean, clean_path) == []


def test_det003_message_names_the_cause_of_the_order():
    by_dict, by_set, loop_dict = lint(
        """
        def beat(net, src, peers, m):
            net.send_all(src, list(peers.keys()), m)
            net.call_transient_after(0.1, beat, {p for p in peers})
            for peer in peers.items():
                net.send(src, peer, m)
        """
    )
    assert by_dict.message == (
        "dict.keys() passed to send_all() — order depends on insertion history"
    )
    assert by_set.message == (
        "a set expression passed to call_transient_after() — order depends on "
        "PYTHONHASHSEED"
    )
    assert loop_dict.message == (
        "iteration over dict.items() drives send() — order depends on "
        "insertion history"
    )
    assert {d.severity.value for d in (by_dict, by_set, loop_dict)} == {"warning"}


# ----------------------------------------------------------------------
# DET000 — parse failure
# ----------------------------------------------------------------------
def test_det000_on_syntax_error():
    diags = lint("def broken(:\n")
    assert [d.code for d in diags] == ["DET000"]
    assert diags[0].severity.value == "error"


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_silences_one_line():
    diags = lint(
        """
        import time
        a = time.time()  # repro: allow[DET001] -- test fixture
        b = time.time()
        """
    )
    assert [(d.code, d.line) for d in diags] == [("DET001", 4)]


def test_file_suppression_silences_whole_file():
    assert lint(
        """
        # repro: allow-file[DET001] -- wall time on purpose
        import time
        a = time.time()
        b = time.time()
        """
    ) == []


def test_suppression_is_code_specific():
    diags = lint(
        """
        import time
        import random
        a = time.time()  # repro: allow[DET002] -- wrong code
        """
    )
    assert "DET001" in [d.code for d in diags]


def test_directive_inside_string_is_inert():
    diags = lint(
        """
        import time
        text = "# repro: allow-file[DET001]"
        a = time.time()
        """
    )
    assert [d.code for d in diags] == ["DET001"]


# ----------------------------------------------------------------------
# DET006 — suppression directive in a suppression-free zone
# ----------------------------------------------------------------------
def zone_lint(snippet, select=None):
    return lint_source(
        textwrap.dedent(snippet), "src/repro/telemetry/x.py", select=select
    )


def test_det006_reports_directive_and_voids_it():
    diags = zone_lint(
        """
        import time
        a = time.time()  # repro: allow[DET001] -- should not work here
        """
    )
    assert sorted(d.code for d in diags) == ["DET001", "DET006"]


def test_det006_voids_file_level_directive():
    diags = zone_lint(
        """
        # repro: allow-file[DET001] -- should not work here
        import time
        a = time.time()
        b = time.time()
        """
    )
    assert sorted(d.code for d in diags) == ["DET001", "DET001", "DET006"]


def test_det006_clean_zone_file_stays_clean():
    assert zone_lint("x = 1\n") == []


def test_det006_respects_rule_selection():
    snippet = """
    import time
    a = time.time()  # repro: allow[DET001]
    """
    assert zone_lint(snippet, select=["DET006"]) != []
    assert [d.code for d in zone_lint(snippet, select=["DET001"])] == ["DET001"]


def test_suppression_still_works_outside_the_zone():
    diags = lint_source(
        "import time\na = time.time()  # repro: allow[DET001] -- fine here\n",
        "src/repro/sim/x.py",
    )
    assert diags == []


def test_telemetry_package_has_no_suppression_directives():
    """The zone is honoured at the source: no opt-outs shipped in-tree."""
    package = os.path.join(SRC_ROOT, "repro", "telemetry")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            assert "repro: allow" not in handle.read(), name


# ----------------------------------------------------------------------
# Selection + the whole tree
# ----------------------------------------------------------------------
def test_select_filters_rules():
    snippet = """
    import time
    import random
    a = time.time()
    b = random.random()
    """
    assert set(codes(snippet)) == {"DET001", "DET002"}
    assert codes(snippet, select=["DET002"]) == ["DET002"]


def test_rule_catalogue_is_complete():
    assert set(DET_RULES) == {
        "DET000",
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "DET006",
        "DET007",
        "DET008",
    }


def test_tree_is_clean():
    """The CI gate: every file of the shipped package is scanned and none
    has a finding (the suppressions in sim/clock.py and sim/rng.py carry
    their justifications in-line; there is no baseline to hide behind)."""
    package = os.path.join(SRC_ROOT, "repro")
    shipped = sum(
        name.endswith(".py")
        for _, _, names in os.walk(package)
        for name in names
    )
    result = lint_paths([package], root=SRC_ROOT)
    assert len(result.files) == shipped > 50
    assert result.diagnostics == []
    assert result.ok

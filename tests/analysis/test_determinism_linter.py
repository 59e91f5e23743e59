"""Determinism linter: one triggering and one clean case per DET rule,
suppression directives, rule selection, and the self-clean baseline."""

import os
import textwrap

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
# Selection + whole-tree baseline
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
    }


def test_src_tree_is_lint_clean():
    """The CI baseline: the shipped tree has zero findings (suppressions
    in sim/clock.py and sim/rng.py carry their justifications in-line)."""
    package = os.path.join(SRC_ROOT, "repro")
    result = lint_paths([package], root=SRC_ROOT)
    assert len(result.files) > 50
    assert result.diagnostics == []
    assert result.ok


def test_src_tree_deep_findings_are_covered_by_committed_baseline():
    """The whole-program tier's findings over the shipped tree must all be
    recorded in benchmarks/analysis/BASELINE_lint.json — the exact CI
    ratchet. A failure here means: run
    `python -m repro lint --update-baseline` and justify the new finding
    in the PR."""
    from repro.analysis import (
        analyze_paths,
        fingerprint_diagnostics,
        load_baseline,
        split_by_baseline,
    )

    repo_root = os.path.dirname(SRC_ROOT)
    baseline = os.path.join(
        repo_root, "benchmarks", "analysis", "BASELINE_lint.json"
    )
    package = os.path.join(SRC_ROOT, "repro")
    result = analyze_paths([package], root=SRC_ROOT)
    new, baselined = split_by_baseline(
        result.diagnostics, load_baseline(baseline)
    )
    assert new == [], "un-baselined findings:\n%s" % "\n".join(
        d.format() for d in new
    )
    # The deep tier genuinely fires on this tree (the inventory is real).
    assert any(d.code.startswith(("DET1", "LANE")) for d in baselined)
    # And fingerprinting stays collision-free over the full finding set.
    fps = [fp for _, fp in fingerprint_diagnostics(result.diagnostics)]
    assert len(set(fps)) == len(fps)

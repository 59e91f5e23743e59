"""Suppression directive edge cases: continuation lines, multi-code
directives, unknown rule codes (DET007), and the suppression-free zone."""

from repro.analysis import lint_source, scan_suppressions


def codes(source, rel_path="pkg/mod.py", select=None):
    return [d.code for d in lint_source(source, rel_path, select=select)]


# ----------------------------------------------------------------------
# Continuation lines
# ----------------------------------------------------------------------
def test_directive_on_continuation_line_covers_the_expression_there():
    # Findings anchor to the line of the offending EXPRESSION (documented
    # in suppressions.py). In a multi-line statement that is the
    # continuation line carrying the call, so the directive belongs there.
    source = (
        "import time\n"
        "stamp = (\n"
        "    time.time()  # repro: allow[DET001] -- continuation line\n"
        ")\n"
    )
    suppressions = scan_suppressions(source)
    assert suppressions.line_codes.get(3) == {"DET001"}
    assert codes(source) == []


def test_directive_on_statement_first_line_misses_the_expression():
    source = (
        "import time\n"
        "stamp = (  # repro: allow[DET001] -- wrong line: anchor is below\n"
        "    time.time()\n"
        ")\n"
    )
    assert "DET001" in codes(source)


# ----------------------------------------------------------------------
# Multiple codes in one directive
# ----------------------------------------------------------------------
def test_multiple_codes_in_one_allow_bracket():
    source = (
        "import time\n"
        "import random\n"
        "def sample(flag):\n"
        "    return time.time() if flag else random.random()  "
        "# repro: allow[DET001,DET002] -- host-entropy fixture\n"
    )
    assert codes(source) == []


def test_multiple_codes_tolerate_spaces_and_case():
    source = (
        "import time\n"
        "import random\n"
        "def sample(flag):\n"
        "    return time.time() if flag else random.random()  "
        "# repro: allow[det001, DET002] -- spacing/case variants\n"
    )
    assert codes(source) == []


def test_multi_code_directive_suppresses_only_listed_codes():
    source = (
        "import time\n"
        "import random\n"
        "a = time.time()  # repro: allow[DET002] -- wrong code on purpose\n"
    )
    assert "DET001" in codes(source)


# ----------------------------------------------------------------------
# Unknown rule codes: DET007, never a crash
# ----------------------------------------------------------------------
def test_unknown_rule_code_yields_det007_not_a_crash():
    source = (
        "import time\n"
        "stamp = time.time()  # repro: allow[DET999] -- typo\n"
    )
    result = codes(source)
    assert "DET007" in result
    assert "DET001" in result  # the typo suppressed nothing


def test_det007_names_the_unknown_code():
    source = "x = 1  # repro: allow[DETX01,DET001] -- one real, one junk\n"
    diagnostics = lint_source(source, "pkg/mod.py")
    det007 = [d for d in diagnostics if d.code == "DET007"]
    assert len(det007) == 1
    assert "DETX01" in det007[0].message
    assert "DET001" not in det007[0].message
    assert det007[0].severity.value == "warning"


def test_det007_knows_both_catalogues_and_nothing_else():
    # DET and VER codes are legitimate suppression targets; the codes of
    # the retired whole-program tier are unknown like any other typo.
    assert codes("x = send  # repro: allow[DET008,VER001] -- both engines\n") == []
    assert codes("x = send  # repro: allow[DET101,LANE001] -- retired\n") == ["DET007"]


def test_det007_respects_select():
    source = "x = 1  # repro: allow[DET999] -- junk\n"
    assert codes(source, select=["DET001"]) == []
    assert codes(source, select=["DET007"]) == ["DET007"]


# ----------------------------------------------------------------------
# Suppression-free zone interactions
# ----------------------------------------------------------------------
def test_file_level_directive_in_zone_is_void_and_reported():
    source = (
        "# repro: allow-file[DET001] -- nice try\n"
        "import time\n"
        "stamp = time.time()\n"
    )
    result = codes(source, rel_path="repro/telemetry/probe.py")
    assert "DET006" in result  # the directive itself is the offence
    assert "DET001" in result  # and it suppressed nothing


def test_unknown_code_in_zone_reports_both_det006_and_det007():
    source = "x = 1  # repro: allow[DET999] -- junk in the zone\n"
    result = codes(source, rel_path="repro/telemetry/probe.py")
    assert "DET006" in result
    assert "DET007" in result


def test_outside_zone_file_directive_suppresses():
    source = (
        "# repro: allow-file[DET001] -- fixture wall time\n"
        "import time\n"
        "stamp = time.time()\n"
    )
    assert codes(source, rel_path="pkg/mod.py") == []

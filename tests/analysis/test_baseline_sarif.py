"""Ratchet baseline (fingerprints, --update-baseline, new-vs-known split)
and SARIF export."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import (
    Diagnostic,
    Severity,
    fingerprint_diagnostics,
    load_baseline,
    sarif_report,
    split_by_baseline,
    write_baseline,
)

DIRTY = "import time\n\n\ndef now():\n    return time.time()\n"


def _diag(code="DET001", source="a.py", line=5, message="wall clock", hint=""):
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        source=source,
        line=line,
        message=message,
        hint=hint,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_survives_line_shift():
    before = fingerprint_diagnostics([_diag(line=5)])[0][1]
    after = fingerprint_diagnostics([_diag(line=50)])[0][1]
    assert before == after


def test_fingerprint_distinguishes_code_source_message():
    base = fingerprint_diagnostics([_diag()])[0][1]
    assert fingerprint_diagnostics([_diag(code="DET002")])[0][1] != base
    assert fingerprint_diagnostics([_diag(source="b.py")])[0][1] != base
    assert fingerprint_diagnostics([_diag(message="other")])[0][1] != base


def test_identical_findings_get_distinct_ordinal_fingerprints():
    pair = [_diag(line=5), _diag(line=9)]
    fps = [fp for _, fp in fingerprint_diagnostics(pair)]
    assert len(set(fps)) == 2
    # Ordinals are assigned by line order, so swapping list order is
    # irrelevant but shifting both lines equally keeps both fingerprints.
    shifted = [_diag(line=105), _diag(line=109)]
    assert [fp for _, fp in fingerprint_diagnostics(shifted)] == fps


# ----------------------------------------------------------------------
# Baseline document + split
# ----------------------------------------------------------------------
def test_write_load_split_roundtrip(tmp_path):
    known = _diag()
    fresh = _diag(code="DET002", message="global rng")
    path = tmp_path / "BASELINE_lint.json"
    document = write_baseline(str(path), [known])
    assert document["count"] == 1
    fingerprints = load_baseline(str(path))
    new, baselined = split_by_baseline([known, fresh], fingerprints)
    assert [d.code for d in baselined] == ["DET001"]
    assert [d.code for d in new] == ["DET002"]


def test_load_baseline_rejects_non_baseline_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(str(path))


# ----------------------------------------------------------------------
# CLI ratchet workflow
# ----------------------------------------------------------------------
def test_update_baseline_then_rerun_is_green(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY, encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    # Without a baseline the error fails the run.
    assert repro_main(["lint", "--no-baseline", str(dirty)]) == 1
    capsys.readouterr()
    # Record, then the same finding no longer fails.
    assert (
        repro_main(["lint", "--update-baseline", "--baseline", str(baseline), str(dirty)])
        == 0
    )
    capsys.readouterr()
    assert repro_main(["lint", "--baseline", str(baseline), str(dirty)]) == 0
    assert "baselined finding(s) not counted" in capsys.readouterr().err


def test_only_new_findings_fail_after_baseline(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY, encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    repro_main(["lint", "--update-baseline", "--baseline", str(baseline), str(dirty)])
    capsys.readouterr()
    # A second nondeterminism appears: only it should fail the run.
    dirty.write_text(DIRTY + "\n\nstamp = time.monotonic()\n", encoding="utf-8")
    exit_code = repro_main(
        ["lint", "--format", "json", "--baseline", str(baseline), str(dirty)]
    )
    assert exit_code == 1
    report = json.loads(capsys.readouterr().out)
    split = {d["line"]: d["baselined"] for d in report["diagnostics"]}
    assert split[5] is True  # the recorded finding
    assert split[8] is False  # the new one
    assert report["counts"]["error"] == 1  # counts cover new findings only


def test_baselined_json_diagnostics_keep_full_details(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY, encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    repro_main(["lint", "--update-baseline", "--baseline", str(baseline), str(dirty)])
    capsys.readouterr()
    repro_main(["lint", "--format", "json", "--baseline", str(baseline), str(dirty)])
    report = json.loads(capsys.readouterr().out)
    assert report["baseline"] == str(baseline)
    assert report["baselined"] == 1
    (diagnostic,) = report["diagnostics"]
    assert diagnostic["code"] == "DET001"
    assert diagnostic["fingerprint"]


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_shape_and_baseline_state():
    known = _diag()
    fresh = _diag(
        code="DET101",
        source="b.py",
        message="wall-clock reaches sink",
        hint="inject the clock",
    )
    fresh = Diagnostic(
        code=fresh.code,
        severity=fresh.severity,
        source=fresh.source,
        line=fresh.line,
        message=fresh.message,
        hint=fresh.hint,
        trace=("a.py:3: wall-clock read", "b.py:5: reaches sink send()"),
    )
    known_fp = fingerprint_diagnostics([known])[0][1]
    document = sarif_report([known, fresh], {known_fp})
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "DET001" in rule_ids and "DET101" in rule_ids and "LANE001" in rule_ids
    first, second = run["results"]
    assert first["baselineState"] == "unchanged"
    assert second["baselineState"] == "new"
    assert first["partialFingerprints"]["reproAnalysis/v1"] == known_fp
    # The trace became a codeFlow with real per-step locations.
    locations = second["codeFlows"][0]["threadFlows"][0]["locations"]
    uris = [
        l["location"]["physicalLocation"]["artifactLocation"]["uri"]
        for l in locations
    ]
    assert uris == ["a.py", "b.py"]
    # Valid JSON end to end.
    json.dumps(document)


def test_cli_sarif_output_parses(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY, encoding="utf-8")
    repro_main(["lint", "--no-baseline", "--format", "sarif", str(dirty)])
    document = json.loads(capsys.readouterr().out)
    results = document["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["DET001"]
    assert results[0]["level"] == "error"

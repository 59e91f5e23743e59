"""``python -m repro lint`` CLI: exit codes, text/JSON output, --strict,
--select, --list-rules, suppressions on real files, and the loud edges
(paths with nothing to lint, unreadable files, retired flags)."""

import json

import pytest

from repro.__main__ import main as repro_main

DIRTY = "import time\n\n\ndef now():\n    return time.time()\n"
CLEAN = "def now(clock):\n    return clock.now\n"
SUPPRESSED = (
    "# repro: allow-file[DET001] -- fixture measures wall time on purpose\n"
    "import time\n\nstamp = time.time()\n"
)


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY, encoding="utf-8")
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN, encoding="utf-8")
    return str(path)


def test_dirty_file_exits_nonzero_with_det001_in_json(dirty_file, capsys):
    exit_code = repro_main(["lint", "--format", "json", dirty_file])
    assert exit_code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 3
    assert report["tool"] == "repro.analysis"
    assert sorted(report) == [
        "counts", "diagnostics", "files", "strict", "tool", "version",
    ]
    assert report["counts"]["error"] == 1
    codes = [d["code"] for d in report["diagnostics"]]
    assert codes == ["DET001"]
    diagnostic = report["diagnostics"][0]
    assert diagnostic["severity"] == "error"
    assert diagnostic["line"] == 5
    assert diagnostic["source"].endswith("dirty.py")
    assert sorted(diagnostic) == [
        "code", "hint", "line", "message", "severity", "source",
    ]


def test_clean_file_exits_zero(clean_file, capsys):
    assert repro_main(["lint", clean_file]) == 0
    captured = capsys.readouterr()
    assert "0 error(s)" in captured.err


def test_text_format_includes_code_and_line(dirty_file, capsys):
    exit_code = repro_main(["lint", dirty_file])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert ":5:" in out


def test_suppressed_file_is_clean(tmp_path, capsys):
    path = tmp_path / "suppressed.py"
    path.write_text(SUPPRESSED, encoding="utf-8")
    assert repro_main(["lint", str(path)]) == 0


def test_select_limits_rules(tmp_path, capsys):
    path = tmp_path / "both.py"
    path.write_text("import time\nimport random\n", encoding="utf-8")
    exit_code = repro_main(
        ["lint", "--select", "DET005", "--format", "json", str(path)]
    )
    assert exit_code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"] == []


def test_select_rejects_unknown_code(dirty_file, capsys):
    with pytest.raises(SystemExit):
        repro_main(["lint", "--select", "DET999", dirty_file])


@pytest.mark.parametrize("spelling", ["no/such/path", "README.md", "empty"])
def test_path_with_nothing_to_lint_is_a_usage_error(spelling, tmp_path, capsys):
    # A typo in a CI target list must not read "0 file(s) scanned ... clean".
    (tmp_path / "README.md").write_text("# not python\n", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    target = str(tmp_path / spelling)
    with pytest.raises(SystemExit) as usage:
        repro_main(["lint", target])
    assert usage.value.code == 2
    assert target in capsys.readouterr().err


def test_undecodable_file_is_det000_and_the_rest_is_still_linted(
    tmp_path, dirty_file, capsys
):
    (tmp_path / "bad.py").write_bytes(b"\xff\xfe")
    exit_code = repro_main(["lint", "--format", "json", str(tmp_path)])
    assert exit_code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files"] == 2
    found = [
        (d["source"].rsplit("/", 1)[-1], d["code"], d["severity"])
        for d in report["diagnostics"]
    ]
    assert found == [("bad.py", "DET000", "error"), ("dirty.py", "DET001", "error")]


@pytest.mark.parametrize(
    "flag",
    [
        ["--no-deep"],
        ["--baseline", "b.json"],
        ["--no-baseline"],
        ["--update-baseline"],
        ["--explain", "DET001"],
        ["--format", "sarif"],
    ],
    ids=lambda flag: flag[0] if flag[0] != "--format" else "--format-sarif",
)
def test_retired_flags_are_rejected(flag, clean_file, capsys):
    with pytest.raises(SystemExit) as usage:
        repro_main(["lint"] + flag + [clean_file])
    assert usage.value.code == 2


def test_strict_turns_warnings_into_failure(tmp_path, capsys):
    # DET003 is warning severity: default run passes, --strict fails.
    path = tmp_path / "warn.py"
    path.write_text(
        "def flush(peers, data):\n"
        "    for peer in peers.values():\n"
        "        peer.send('addr', data)\n",
        encoding="utf-8",
    )
    assert repro_main(["lint", str(path)]) == 0
    assert repro_main(["lint", "--strict", str(path)]) == 1


def test_default_target_is_the_installed_package(capsys):
    """No positional paths: lint the repro package itself. This is the
    exact CI gate, so it must be clean in strict mode."""
    assert repro_main(["lint", "--strict"]) == 0
    assert "clean" in capsys.readouterr().err


def test_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "DET00%d" % n for n in range(9)
    ]


def test_json_report_is_sorted_and_stable(tmp_path, capsys):
    path = tmp_path / "multi.py"
    path.write_text(
        "import time\nb = time.time()\na = time.monotonic()\n", encoding="utf-8"
    )
    repro_main(["lint", "--format", "json", str(path)])
    first = capsys.readouterr().out
    repro_main(["lint", "--format", "json", str(path)])
    second = capsys.readouterr().out
    assert first == second
    lines = [d["line"] for d in json.loads(first)["diagnostics"]]
    assert lines == sorted(lines)

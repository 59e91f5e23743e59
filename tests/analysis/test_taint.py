"""Interprocedural taint rules DET101-DET105: seeded source-in-one-module,
sink-in-another leaks must be caught, with the full path on the trace."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import analyze_paths


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return tmp_path


def _deep_codes(tmp_path, files, select=None):
    root = _write_pkg(tmp_path, files)
    result = analyze_paths([str(root / "pkg")], root=str(root), select=select)
    return [d for d in result.diagnostics if d.code.startswith(("DET1", "LANE"))]


def test_det101_wall_clock_crosses_module_boundary(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "stamps.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- seeded\n"
            ),
            "sched.py": (
                "from pkg.stamps import stamp\n"
                "def fire(loop, cb):\n"
                "    deadline = stamp()\n"
                "    loop.call_at(deadline, cb)\n"
            ),
        },
    )
    codes = [d.code for d in findings]
    assert "DET101" in codes
    finding = [d for d in findings if d.code == "DET101"][0]
    # Anchored at the sink, with the cross-module source on the trace.
    assert finding.source == "pkg/sched.py"
    assert finding.line == 4
    assert "pkg/stamps.py" in finding.message
    assert any("pkg/stamps.py:3" in step for step in finding.trace)
    assert any("call_at" in step for step in finding.trace)


def test_det102_global_rng_through_helper(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "jitter.py": (
                "import random\n"
                "def jitter():\n"
                "    return random.random()  # repro: allow[DET002] -- seeded\n"
            ),
            "net.py": (
                "from pkg.jitter import jitter\n"
                "def blast(endpoint, data):\n"
                "    delay = jitter()\n"
                "    endpoint.send('peer', payload=delay)\n"
            ),
        },
    )
    assert [d.code for d in findings] == ["DET102"]
    assert findings[0].source == "pkg/net.py"


def test_det103_dict_order_reaches_digest(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "inventory.py": (
                "def locate(table):\n"
                "    return [v for v in table.values()]\n"
            ),
            "digest.py": (
                "import hashlib\n"
                "from pkg.inventory import locate\n"
                "def checksum(table):\n"
                "    hosts = locate(table)\n"
                "    return hashlib.sha256(repr(hosts).encode()).hexdigest()\n"
            ),
        },
    )
    det103 = [d for d in findings if d.code == "DET103"]
    assert det103, [d.code for d in findings]
    assert det103[0].severity.value == "warning"
    assert any("pkg/inventory.py" in step for step in det103[0].trace)


def test_det103_hash_ordered_destinations_reach_send_all(tmp_path):
    """``send_all`` has no loop for DET003 to see: the fan-out order is
    the order of the iterable it is handed."""
    findings = _deep_codes(
        tmp_path,
        {
            "peers.py": (
                "def peers(table):\n"
                "    return [name for name in table.keys()]\n"
            ),
            "beat.py": (
                "from pkg.peers import peers\n"
                "def beat(endpoint, table):\n"
                "    endpoint.send_all(peers(table), {'hb': 1})\n"
            ),
        },
    )
    assert [d.code for d in findings] == ["DET103"]
    assert findings[0].source == "pkg/beat.py"
    assert "send_all" in findings[0].message


def test_det104_id_value_reaches_send(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "tags.py": (
                "def tag(obj):\n"
                "    return id(obj)\n"
            ),
            "wire.py": (
                "from pkg.tags import tag\n"
                "def announce(endpoint, obj):\n"
                "    endpoint.send_to('hub', tag(obj))\n"
            ),
        },
    )
    assert "DET104" in [d.code for d in findings]


def test_det105_environ_reaches_schedule(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "conf.py": (
                "import os\n"
                "def region():\n"
                "    return os.environ['REGION']\n"
            ),
            "boot.py": (
                "from pkg.conf import region\n"
                "def start(queue):\n"
                "    queue.enqueue(region())\n"
            ),
        },
    )
    assert "DET105" in [d.code for d in findings]


def test_clean_sim_derived_values_stay_silent(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "clock.py": (
                "def deadline(clock, delay):\n"
                "    return clock.now + delay\n"
            ),
            "sched.py": (
                "from pkg.clock import deadline\n"
                "def fire(loop, clock, cb):\n"
                "    loop.call_at(deadline(clock, 1.0), cb)\n"
            ),
        },
    )
    assert findings == []


def test_tainted_value_without_sink_stays_silent(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "stamps.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- log only\n"
            ),
            "logger.py": (
                "from pkg.stamps import stamp\n"
                "def note(log):\n"
                "    log.append(stamp())\n"
            ),
        },
    )
    assert [d.code for d in findings] == []


def test_sink_line_suppression_silences_deep_finding(tmp_path):
    findings = _deep_codes(
        tmp_path,
        {
            "stamps.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- seeded\n"
            ),
            "sched.py": (
                "from pkg.stamps import stamp\n"
                "def fire(loop, cb):\n"
                "    loop.call_at(stamp(), cb)  # repro: allow[DET101] -- test rig\n"
            ),
        },
    )
    assert [d.code for d in findings] == []


def test_explain_prints_full_source_to_sink_path(tmp_path, capsys):
    root = _write_pkg(
        tmp_path,
        {
            "stamps.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- seeded\n"
            ),
            "sched.py": (
                "from pkg.stamps import stamp\n"
                "def fire(loop, cb):\n"
                "    loop.call_at(stamp(), cb)\n"
            ),
        },
    )
    exit_code = repro_main(
        [
            "lint",
            "--no-baseline",
            "--explain",
            "DET101",
            str(root / "pkg"),
        ]
    )
    assert exit_code == 1  # DET101 is an error
    out = capsys.readouterr().out
    assert "[source]" in out
    assert "[sink]" in out
    assert "stamps.py" in out
    assert "sched.py" in out
    assert "call_at" in out


def test_json_report_carries_trace(tmp_path, capsys):
    root = _write_pkg(
        tmp_path,
        {
            "stamps.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- seeded\n"
            ),
            "sched.py": (
                "from pkg.stamps import stamp\n"
                "def fire(loop, cb):\n"
                "    loop.call_at(stamp(), cb)\n"
            ),
        },
    )
    repro_main(
        ["lint", "--no-baseline", "--format", "json", str(root / "pkg")]
    )
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 2
    det101 = [d for d in report["diagnostics"] if d["code"] == "DET101"]
    assert det101
    assert len(det101[0]["trace"]) >= 2
    assert det101[0]["fingerprint"]
    assert det101[0]["baselined"] is False

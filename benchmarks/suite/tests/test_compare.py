import copy
import json

from benchmarks.suite import cli, compare


def _host(median, spread=0.01, unresolved=False):
    return {
        "median": median,
        "q1": median,
        "q3": median,
        "n": 5,
        "spread": spread,
        "unresolved": unresolved,
    }


def _document():
    return {
        "workloads": {
            "macro_day": {
                "host": {
                    "throughput_ops_s": _host(100000.0),
                    "cpu_s_per_unit": _host(10.0),
                    "setup_s": _host(0.6),
                },
                "sim": {"sim_latency_p99_ms": 300.0, "failed_share": 0.0},
                "counters": {"sim.eventloop.events_fired": 3121665},
                "digest": "aa",
            }
        }
    }


def _verdicts(base, new):
    outcome = compare.compare(base, new)
    return {(name, w): verdict for name, w, _a, _b, verdict in outcome["rows"]}, outcome


def test_identical_files_are_unchanged():
    verdicts, outcome = _verdicts(_document(), _document())
    assert set(verdicts.values()) == {"unchanged"}
    assert not outcome["exact"] and not outcome["digests"]
    assert not compare.regressed(outcome)


def test_host_metrics_move_by_their_bound_and_direction():
    new = _document()
    host = new["workloads"]["macro_day"]["host"]
    host["throughput_ops_s"] = _host(70000.0)  # higher is better: -30 %
    host["cpu_s_per_unit"] = _host(7.0)  # lower is better: -30 %
    host["setup_s"] = _host(0.66)  # +10 %, inside setup's wider bound
    verdicts, outcome = _verdicts(_document(), new)
    assert verdicts[("throughput_ops_s", "macro_day")] == "regressed"
    assert verdicts[("cpu_s_per_unit", "macro_day")] == "improved"
    assert verdicts[("setup_s", "macro_day")] == "unchanged"
    assert compare.regressed(outcome)


def test_a_noisy_side_is_unresolved_not_unchanged():
    new = _document()
    new["workloads"]["macro_day"]["host"]["throughput_ops_s"] = _host(
        70000.0, spread=0.4, unresolved=True
    )
    verdicts, outcome = _verdicts(_document(), new)
    assert verdicts[("throughput_ops_s", "macro_day")] == "unresolved"
    assert not compare.regressed(outcome)


def test_sim_metrics_counters_and_digests_compare_by_equality():
    new = _document()
    workload = new["workloads"]["macro_day"]
    workload["sim"]["sim_latency_p99_ms"] = 300.0000001
    workload["counters"]["sim.eventloop.events_fired"] += 1
    workload["digest"] = "bb"
    verdicts, outcome = _verdicts(_document(), new)
    assert verdicts[("sim_latency_p99_ms", "macro_day")] == "regressed"
    assert verdicts[("failed_share", "macro_day")] == "unchanged"
    assert len(outcome["exact"]) == 1 and len(outcome["digests"]) == 1


def test_exit_code_follows_regressions(tmp_path, capsys):
    base, worse = _document(), _document()
    worse["workloads"]["macro_day"]["host"]["throughput_ops_s"] = _host(50000.0)
    paths = []
    for name, document in (("a", base), ("b", copy.deepcopy(base)), ("c", worse)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(document))
        paths.append(str(path))
    assert cli.main(["compare", paths[0], paths[1]]) == 0
    assert cli.main(["compare", paths[0], paths[2]]) == 1
    assert "regressed" in capsys.readouterr().out

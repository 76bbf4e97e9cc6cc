"""CLI smoke tests (run in-process via cli.main)."""

import pytest

from repro.cli import main
from repro.protocols.registry import default_protocols

# Cell counts below track the registry: one figure6 cell per protocol.
N_PROTOCOLS = len(default_protocols())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


#: What each artifact's rendering is headed by.
TITLES = {
    "table1": "Table I — paper [measured]",
    "figure6": "Figure 6 — distributed namespace operations per second (burst of 100)",
    "model": "Analytical model (deep-burst steady state) vs simulation",
    "timelines": "Figure 5 — 1PC timeline",
    "recovery": "Recovery after a crash 2 ms into a distributed CREATE",
    "detection": "1PC worker-crash decision latency",
    "sweep-latency": "Throughput (tx/s) vs network latency",
    "sweep-disk": "Throughput (tx/s) vs log-device bandwidth",
    "sweep-burst": "Throughput (tx/s) vs burst size",
    "abort-rate": "Committed tx/s vs injected abort rate",
    "presumed": "Presumption crossover: committed tx/s vs abort rate",
    "batching": "§VI aggregation: 96 creates under 1PC",
    "utilization": "Resource profile of a 30-create burst",
    "scaling": "Aggregate throughput (tx/s) vs cluster size",
    "group-commit": "Group-commit ablation (40-create burst)",
    "placement": "Placement study: 80 creates over 4 directories, 4 MDSs",
    "migration": "Migration vs distributed 1PC (40-entry directory)",
}


def test_the_titles_cover_the_artifact_table():
    from repro.harness.artifacts import ARTIFACTS

    assert list(TITLES) == [artifact.name for artifact in ARTIFACTS]


@pytest.mark.parametrize("name", TITLES)
def test_cli_report_only(capsys, name):
    """Every artifact by name — six of them used to be subcommands."""
    code, out = run_cli(capsys, "report", "--only", name)
    assert code == 0
    assert TITLES[name] in out
    assert sum(title in out for title in TITLES.values()) == 1


def test_cli_report_only_takes_a_list_in_table_order(capsys):
    code, out = run_cli(capsys, "report", "--only", "detection,table1")
    assert code == 0
    assert 0 < out.index("Table I") < out.index("decision latency")
    assert "Figure 6" not in out


def test_cli_report_only_rejects_an_unknown_artifact(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["report", "--only", "table1,nosuch"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "no artifact named nosuch" in err
    for name in ("table1", "figure6", "sweep-latency", "migration"):
        assert name in err


@pytest.mark.parametrize(
    "gone", ["table1", "figure6", "timeline", "model", "recovery", "batching", "torture"]
)
def test_cli_deleted_subcommands_are_gone(capsys, gone):
    with pytest.raises(SystemExit) as exit_:
        main([gone])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_burst(capsys):
    code, out = run_cli(capsys, "burst", "--protocol", "EP", "--n", "10")
    assert code == 0
    assert "EP" in out and "invariants: OK" in out


def test_cli_burst_delete(capsys):
    code, out = run_cli(capsys, "burst", "--n", "5", "--op", "delete")
    assert code == 0


def test_cli_sweep_burst(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "burst")
    assert code == 0
    assert "burst size" in out


def test_cli_rejects_unknown_protocol(capsys):
    with pytest.raises(SystemExit):
        main(["burst", "--protocol", "3PC"])


def test_cli_sweep_figure6_json_parallel_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    code, _ = run_cli(capsys, "sweep", "--kind", "figure6", "--n", "8",
                      "--json", str(serial), "--canonical")
    assert code == 0
    code, _ = run_cli(capsys, "sweep", "--kind", "figure6", "--n", "8",
                      "--workers", "4", "--json", str(parallel), "--canonical")
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()

    import json

    doc = json.loads(serial.read_text())
    assert doc["kind"] == "figure6"
    from repro.protocols.registry import default_protocols

    assert [c["spec"]["protocol"] for c in doc["cells"]] == list(default_protocols())
    assert all(c["committed"] == 8 for c in doc["cells"])


def test_cli_sweep_scaling_table(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "scaling", "--n", "6",
                        "--protocol", "1PC")
    assert code == 0
    assert "Scaling" in out and "1PC" in out


def test_cli_trace_spans_jsonl(capsys, tmp_path):
    out = tmp_path / "spans.jsonl"
    code, text = run_cli(capsys, "trace", "--n", "4", "--out", str(out))
    assert code == 0
    assert "4 transaction spans" in text

    import json

    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(spans) == 4
    assert all(s["role"] == "coordinator" for s in spans)
    assert all(s["status"] == "committed" for s in spans)


def test_cli_trace_chrome_is_valid(capsys, tmp_path):
    out = tmp_path / "chrome.json"
    code, text = run_cli(capsys, "trace", "--protocol", "PrN", "--n", "4",
                         "--format", "chrome", "--out", str(out))
    assert code == 0
    assert "Perfetto" in text

    import json

    from repro.obs import validate_trace_event

    assert validate_trace_event(json.loads(out.read_text())) == []


def test_cli_trace_records_legacy_format(capsys, tmp_path):
    out = tmp_path / "records.jsonl"
    code, text = run_cli(capsys, "trace", "--n", "3", "--format", "records",
                         "--out", str(out))
    assert code == 0
    assert "trace records" in text
    assert out.read_text().count("\n") > 10


def test_cli_sweep_progress_reports_cells(capsys, tmp_path):
    code = main(["sweep", "--kind", "figure6", "--n", "6", "--progress"])
    captured = capsys.readouterr()
    assert code == 0
    assert f"[{N_PROTOCOLS}/{N_PROTOCOLS}]" in captured.err


def test_cli_runs_leave_nothing_but_their_json(capsys, tmp_path, monkeypatch):
    """There is no result cache: a run writes ``--json`` and nothing else."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.chdir(home)
    sweep_json, campaign_json = tmp_path / "sweep.json", tmp_path / "campaign.json"
    assert main(["sweep", "--kind", "figure6", "--n", "7", "--json", str(sweep_json)]) == 0
    assert main(["campaign", "run", "--runs", "1", "--protocol", "1PC",
                 "--json", str(campaign_json)]) == 0
    assert "cache" not in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [campaign_json, home, sweep_json]
    for gone in (["sweep", "--cache"], ["campaign", "run", "--cache"], ["cache", "stats"]):
        with pytest.raises(SystemExit):
            main(gone)


def test_cli_protocols_lists_registry(capsys):
    code, out = run_cli(capsys, "protocols")
    assert code == 0
    assert f"Registered commit protocols ({N_PROTOCOLS})" in out
    for name in ("PrN", "PrC", "EP", "1PC", "PrA", "PC", "LGL", "1PC-N"):
        assert name in out
    assert "needs_acceptors" in out and "logless" in out


def test_cli_protocols_json_is_machine_readable(capsys):
    import json

    code, out = run_cli(capsys, "protocols", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [e["name"] for e in doc] == [
        "PrN", "PrC", "EP", "1PC", "PrA", "PC", "LGL", "1PC-N",
    ]
    by_name = {e["name"]: e for e in doc}
    assert by_name["PC"]["capabilities"] == ["needs_acceptors"]
    assert by_name["LGL"]["log_records"] == []
    assert by_name["1PC"]["paper_figure6"] == 24.0
    assert by_name["PC"]["table1_row"] == [11, 1, 5, 1, 15, 15]


def test_cli_extension_protocols_selectable(capsys):
    code, out = run_cli(capsys, "burst", "--protocol", "PC", "--n", "4")
    assert code == 0
    assert "invariants: OK" in out
    code, out = run_cli(capsys, "burst", "--protocol", "LGL", "--n", "4")
    assert code == 0
    assert "invariants: OK" in out

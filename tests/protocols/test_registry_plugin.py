"""The plug-in contract: register a protocol, get the whole harness.

A toy protocol registered through :func:`temporary_protocol` must show
up in every experiment grid, the Table-I renderer, and the CLI listing
with **zero harness edits** — that is the tentpole property of the
registry.  The toy engine is a plain PrN subclass under a new name, so
every grid cell it lands in also executes successfully.
"""

import json

import pytest

from repro.protocols.prn import PresumeNothingProtocol
from repro.protocols.registry import (
    KNOWN_CAPABILITIES,
    ProtocolSpec,
    default_protocols,
    get_spec,
    specs,
)
from tests.conftest import temporary_protocol, unregister


class ToyProtocol(PresumeNothingProtocol):
    """A PrN clone under a different registry name."""

    name = "TOY"


def toy_spec(**overrides):
    defaults = dict(
        name="TOY",
        engine=ToyProtocol,
        summary="toy protocol for plug-in tests",
        # PrN's vocabulary: its prepares force UPDATES with PREPARED.
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        recovery_actions=get_spec("PrN").recovery_actions,
    )
    defaults.update(overrides)
    return ProtocolSpec(**defaults)


def test_toy_protocol_appears_in_every_grid():
    from repro.exec import (
        abort_rate_grid,
        burst_size_grid,
        disk_bandwidth_grid,
        figure6_grid,
        network_latency_grid,
    )

    with temporary_protocol(toy_spec()):
        assert default_protocols()[-1] == "TOY"
        assert {s.protocol for s in figure6_grid(n=4)} >= {"TOY"}
        assert {s.protocol for s in network_latency_grid([1e-3], n=4)} >= {"TOY"}
        assert {s.protocol for s in disk_bandwidth_grid([1e5], n=4)} >= {"TOY"}
        assert {s.protocol for s in burst_size_grid([2])} >= {"TOY"}
        assert {s.protocol for s in abort_rate_grid([0.0], n=4)} >= {"TOY"}
    # The registration does not leak.
    assert "TOY" not in default_protocols()
    for grid in (figure6_grid(n=4), burst_size_grid([2])):
        assert "TOY" not in {s.protocol for s in grid}


def test_toy_protocol_cells_actually_run():
    """The grid enumeration is not cosmetic: the executor can run a
    toy cell end to end through the registered engine class."""
    from repro.exec import execute_spec, figure6_grid

    with temporary_protocol(toy_spec()):
        spec = [s for s in figure6_grid(n=3) if s.protocol == "TOY"][0]
        cell = execute_spec(spec)
        assert cell.committed == 3


def test_toy_protocol_appears_in_table1():
    from repro.harness.table1 import measure_table1, render_table1

    with temporary_protocol(toy_spec(table1_row=(5, 1, 4, 1, 4, 4))):
        text = render_table1(measure_table1(measured=True))
    assert "TOY" in text


def test_toy_protocol_appears_in_cli_listing(capsys):
    from repro.cli import main

    with temporary_protocol(toy_spec()):
        assert main(["protocols"]) == 0
        assert "TOY" in capsys.readouterr().out
        assert main(["protocols", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[-1]["name"] == "TOY"
        assert doc[-1]["engine"] == "ToyProtocol"


def test_toy_protocol_passes_conformance():
    from repro.harness.conformance import check_protocol

    with temporary_protocol(toy_spec()):
        report = check_protocol("TOY")
    assert report.ok, report.failures
    # The battery checks the declared vocabulary against what the
    # engine writes: a PrN clone that leaves out UPDATES is rejected.
    without_updates = ("STARTED", "PREPARED", "COMMITTED", "ABORTED", "ENDED")
    with temporary_protocol(toy_spec(log_records=without_updates)):
        report = check_protocol("TOY")
    assert report.failures == (
        "TOY: vocabulary: undeclared record UPDATES appended in liveness at 1.598 ms by mds1",
    )


def test_registry_order_paper_protocols_lead():
    names = default_protocols()
    assert names[:4] == ("PrN", "PrC", "EP", "1PC")
    assert set(names) == {"PrN", "PrC", "EP", "1PC", "PrA", "PC", "LGL", "1PC-N"}


def test_specs_expose_reference_points():
    assert get_spec("1PC").paper_figure6 == 24.0
    assert get_spec("PC").table1_row == (11, 1, 5, 1, 15, 15)
    assert get_spec("LGL").table1_row == (0, 0, 0, 0, 7, 4)
    for spec in specs():
        assert get_spec(spec.name) is spec
        assert spec.citation or spec.paper_figure6 is not None


def test_spec_validation_rejects_bad_registrations():
    with pytest.raises(ValueError, match="does not match engine name"):
        ProtocolSpec(name="NOPE", engine=ToyProtocol)
    with pytest.raises(ValueError, match="unknown capability"):
        toy_spec(capabilities=frozenset({"teleportation"}))
    with pytest.raises(ValueError, match="six entries"):
        toy_spec(table1_row=(1, 2, 3))
    assert "teleportation" not in KNOWN_CAPABILITIES


def test_a_bounded_engine_must_name_its_update_flag():
    """A server routes a bounded engine's traffic apart from its
    fallback's by the flag on its UPDATE_REQ: without one, every
    UPDATE_REQ and PREPARE would reach the fallback."""

    class Bounded(ToyProtocol):
        max_workers = 1

    with pytest.raises(ValueError, match="TOY sets max_workers but no update_flag"):
        toy_spec(engine=Bounded)


def test_unregister_unknown_raises():
    with pytest.raises(KeyError):
        unregister("NOPE")

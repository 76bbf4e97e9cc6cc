"""Validation of the analytical model against the simulator."""

import pytest

from repro.analysis.costs import measure_protocol_costs
from repro.analysis.model import predict, predict_figure6
from repro.workloads import run_burst

PROTOCOLS = ("PrN", "PrC", "EP", "1PC")


@pytest.fixture(scope="module")
def sim_throughputs():
    return {p: run_burst(p, n=60).throughput for p in PROTOCOLS}


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        predict("3PC")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_model_within_12_percent_of_simulation(protocol, sim_throughputs):
    pred = predict(protocol)
    sim = sim_throughputs[protocol]
    assert abs(pred.throughput / sim - 1.0) < 0.12, (
        f"{protocol}: model {pred.throughput:.1f} vs sim {sim:.1f}"
    )


def test_model_preserves_figure6_ordering():
    preds = predict_figure6()
    t = {name: p.throughput for name, p in preds.items()}
    assert t["1PC"] > t["EP"] > t["PrC"] > t["PrN"]


def test_model_gain_signs_match_paper():
    t = {name: p.throughput for name, p in predict_figure6().items()}
    gains = {name: (t[name] / t["PrN"] - 1.0) * 100.0 for name in ("PrC", "EP", "1PC")}
    assert gains["1PC"] > 40.0
    assert 0.0 < gains["PrC"] < gains["EP"] < gains["1PC"]


def test_model_solo_latency_ordering_matches_measurement():
    measured = {p: measure_protocol_costs(p).client_latency for p in PROTOCOLS}
    modelled = {p: predict(p).solo_latency for p in PROTOCOLS}
    def order(d):
        return sorted(d, key=d.get)

    assert order(measured) == order(modelled) == ["1PC", "EP", "PrC", "PrN"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_model_solo_latency_close_to_measurement(protocol):
    measured = measure_protocol_costs(protocol).client_latency
    modelled = predict(protocol).solo_latency
    assert abs(modelled / measured - 1.0) < 0.25, (
        f"{protocol}: model {modelled * 1e3:.2f} ms vs measured {measured * 1e3:.2f} ms"
    )


def test_cycle_is_max_of_components():
    pred = predict("1PC")
    assert pred.cycle == max(pred.lock_hold, pred.coordinator_disk, pred.worker_disk)
    assert pred.throughput == pytest.approx(1.0 / pred.cycle)


def test_model_tracks_parameter_changes():
    """Doubling the device bandwidth must raise predicted throughput;
    adding network latency must lower it."""
    from dataclasses import replace

    from repro.config import SimulationParams

    base = SimulationParams.paper_defaults()
    fast_disk = base.with_(storage=replace(base.storage, bandwidth=base.storage.bandwidth * 2))
    slow_net = base.with_(network=replace(base.network, latency=5e-3))
    for protocol in PROTOCOLS:
        assert predict(protocol, fast_disk).throughput > predict(protocol, base).throughput
        assert predict(protocol, slow_net).throughput < predict(protocol, base).throughput

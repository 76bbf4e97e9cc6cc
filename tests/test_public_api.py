"""Public API surface guard: every exported name must import."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.storage",
    "repro.locks",
    "repro.fs",
    "repro.protocols",
    "repro.core",
    "repro.mds",
    "repro.faults",
    "repro.workloads",
    "repro.analysis",
    "repro.harness",
    "repro.exec",
    "repro.campaign",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_top_level_api_shape():
    import repro

    # The names a downstream user reaches for first.
    for symbol in (
        "Cluster",
        "Client",
        "OnePhaseCommitProtocol",
        "PresumeNothingProtocol",
        "SimulationParams",
        "BatchPlanner",
    ):
        assert symbol in repro.__all__

    assert set(repro.protocols.default_protocols()) == {
        "PrN", "PrC", "EP", "PrA", "1PC", "PC", "LGL", "1PC-N",
    }


def test_version_is_set():
    import repro

    assert repro.__version__ == "1.0.0"


def test_every_protocol_class_has_required_interface():
    from repro.protocols import specs

    for cls in (spec.engine for spec in specs()):
        for method in ("coordinate", "worker_session", "recover", "handle_stray", "run_local"):
            assert hasattr(cls, method), f"{cls.__name__} lacks {method}"
        assert cls.name

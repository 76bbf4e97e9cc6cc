"""The keyword-only constructor surface.

The PR-2 deprecation shims (positional ``Cluster``/``Client``
arguments, the ``trace_enabled=`` spelling) are gone: the legacy
forms are plain ``TypeError``s, and these tests are what guards them.
"""

import warnings

import pytest

from repro import Cluster, SimulationParams
from repro.mds.client import Client


def test_keyword_construction_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cluster = Cluster(protocol="1PC", server_names=["mds1", "mds2"], trace="off")
    assert cluster.protocol_name == "1PC"


def test_positional_cluster_arguments_are_a_type_error():
    with pytest.raises(TypeError, match="positional"):
        Cluster("PrC", ["mds1", "mds2", "mds3"])


def test_single_positional_cluster_argument_is_a_type_error():
    with pytest.raises(TypeError, match="positional"):
        Cluster("1PC")


def test_trace_enabled_spelling_is_a_type_error():
    with pytest.raises(TypeError, match="trace_enabled"):
        Cluster(trace_enabled=False)


def test_seed_keyword_overrides_params_seed():
    params = SimulationParams.paper_defaults()
    cluster = Cluster(params=params, seed=1234, trace="off")
    assert cluster.params.seed == 1234
    # The original params object is untouched (frozen dataclass).
    assert Cluster(params=params, trace="off").params.seed == params.seed


def test_client_keyword_name():
    cluster = Cluster(trace="off")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        client = Client(cluster, name="c9")
    assert client.name == "c9"


def test_client_positional_name_is_a_type_error():
    cluster = Cluster(trace="off")
    with pytest.raises(TypeError, match="positional"):
        Client(cluster, "legacy")

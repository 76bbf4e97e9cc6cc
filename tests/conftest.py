"""Repo-wide fixtures: protocol parametrisation."""

import pytest

ALL_PROTOCOLS = ("PrN", "PrC", "EP", "1PC")
TWO_PC_FAMILY = ("PrN", "PrC", "EP")


@pytest.fixture(params=ALL_PROTOCOLS)
def protocol(request):
    """Parametrises a test over all four commit protocols."""
    return request.param


@pytest.fixture(params=TWO_PC_FAMILY)
def twopc_protocol(request):
    """Parametrises a test over the 2PC family only."""
    return request.param

"""Fixtures shared by the test modules."""

import pytest

from morphnn import morphops as mo


@pytest.fixture(params=[1, 2], ids=["serial", "pooled"])
def workers(request):
    """Runs the test with the pooled loops serial, then on a pool of two
    workers (``morphops._pooled``), as ``train()`` runs them on two
    OpenBLAS threads."""
    with mo._pooled(request.param):
        yield request.param

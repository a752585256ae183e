import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _cold_ring() -> None:
    """Clear every memo of ``trigring``, start an empty wave table and empty
    the minor plans of ``framecalc``."""
    from engelcalc import framecalc, trigring

    trigring._angle_products.cache_clear()
    trigring._clear_wave_table()
    framecalc._minor_plan.cache_clear()


@pytest.fixture(scope="session")
def cold_ring():
    """The function that resets ``trigring`` to a cold ring and empties the
    minor plans; session-scoped, so that hypothesis tests can call it once
    per example."""
    return _cold_ring


@pytest.fixture
def cold_caches():
    """Empty the spec cache of ``catalog``, the space table of ``manifest``
    and the Nijenhuis memo of ``engelcheck``, so that a test counting stages
    or certificates sees its own target built and certified, not one an
    earlier test left behind."""
    from engelcalc import catalog, engelcheck, manifest

    catalog._cached_spec.cache_clear()
    manifest._shared_space.cache_clear()
    engelcheck._nijenhuis_of.cache_clear()

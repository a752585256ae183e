import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _cold_ring() -> None:
    """Clear every memo of ``trigring`` and start an empty wave table."""
    from engelcalc import trigring

    trigring._angle_products.cache_clear()
    trigring._clear_wave_table()


@pytest.fixture(scope="session")
def cold_ring():
    """The function that resets ``trigring`` to a cold ring; session-scoped,
    so that hypothesis tests can call it once per example."""
    return _cold_ring

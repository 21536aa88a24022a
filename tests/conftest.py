import tracemalloc

import pytest


def _traced_peak(fn) -> tuple[int, object]:
    """(peak bytes that ``fn()`` holds at once among its own allocations, its result)."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: the peak bytes ``fn()`` allocates at once, and its result."""
    return _traced_peak

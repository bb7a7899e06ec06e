"""E8 overhead experiment module.

The wall-clock bounds (worst ratio < 10x, launch < 10 ms) are gates in
``benchmarks/bench_overhead.py``; tier-1 checks only the shape.
"""

import pytest

from repro.experiments import render_overhead, run_overhead


@pytest.fixture(scope="module")
def overhead():
    return run_overhead(iterations=300)


class TestOverhead:
    def test_measures_all_operations(self, overhead):
        assert len(overhead.rows) == 5
        assert all(row.unhooked_us > 0 and row.hooked_us > 0
                   for row in overhead.rows)

    def test_render(self, overhead):
        text = render_overhead(overhead)
        assert "Ratio" in text and "protect-a-process" in text

"""Working-set guards: the tracemalloc peak of a whole run, counted in
(m, N+1) float64 node arrays, stays under a bound.

Each bound sits about midway between two readings of this file run alone:
the peak when every spike window's arrays, and the example's unit-control
paths, stayed alive to the end (spike 39.95, example 30.70), and the peak
now that they are released after their last read (31.94 and 26.74)."""

import tracemalloc

import pytest

from quadsmp.example import run_example_experiment
from quadsmp.grids import TimeGrid
from quadsmp.models import benchmark_model
from quadsmp.spike import run_spike_study

# name -> (paths, steps, bound in node arrays, the run)
RUNS = {
    "spike": (
        600,
        128,
        36.0,
        lambda: run_spike_study(benchmark_model(), 1.0, TimeGrid(1.0, 128), 600, 3, 0.25, (2, 4, 8, 16), 1.0),
    ),
    "example": (2000, 50, 28.7, lambda: run_example_experiment(2000, 50, 1.0, 1)),
}


@pytest.mark.parametrize("name", RUNS)
def test_peak_in_node_arrays(name):
    n_paths, n_steps, bound, run = RUNS[name]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n_paths * (n_steps + 1)) <= bound

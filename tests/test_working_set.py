"""Working-set guards: the tracemalloc peak of a whole run, counted in
(m, N+1) float64 node arrays, stays under a bound.

Each bound sits about midway between two readings of this file run alone:
the peak when the linearization stored every coefficient at every path and
step (spike 31.98, example 26.73), and the peak now that a coefficient that
is constant along the candidate is stored once and broadcast (26.03 and
16.93). Before those, releasing every spike window's arrays, and the
example's unit-control paths, after their last read had lowered the
readings from 39.95 and 30.70."""

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
        29.0,
        lambda: run_spike_study(benchmark_model(), 1.0, TimeGrid(1.0, 128), 600, 3, 0.25, (2, 4, 8, 16), 1.0),
    ),
    "example": (2000, 50, 21.8, lambda: run_example_experiment(2000, 50, 1.0, 1)),
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

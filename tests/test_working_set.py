"""Working-set guards: the tracemalloc peak of a whole run, counted in
(m, N+1) float64 node arrays, stays under a bound.

Each bound sits about midway between two readings of this file run alone.
The spike bound lies between the peak when the linearization stored every
coefficient at every path and step (31.98) and the peak now that a
coefficient that is constant along the candidate is stored once and
broadcast (26.03). The example bound lies between the peak when the linear
representation set up full-horizon scratch arrays before its backward pass
(14.03) and the peak now that it builds each node from that node's slices in
one pass (13.58). The two solver runs count only the solve, on inputs built
before tracing starts; their bounds lie between the same two peaks of the
scalar weighted solve (8.64 and 6.74) and of the 2x2 matrix-flow solve
(19.64 and 13.88). Earlier example readings: 26.73 with every coefficient
stored, 16.93 with the broadcast coefficients expanded again by the adjoint
operators; releasing every spike window's arrays, and the example's
unit-control paths, after their last read had lowered the spike and example
readings from 39.95 and 30.70."""

import tracemalloc

import pytest
from support import planar_flow_data, random_linear_instance

from quadsmp.bsde import solve_linear_bsde_weighted, solve_multidim_linear_bsde
from quadsmp.example import run_example_experiment
from quadsmp.grids import TimeGrid
from quadsmp.models import benchmark_model
from quadsmp.spike import run_spike_study


def _weighted():
    data, w = random_linear_instance(6, 2000, 50)[1::3]
    return lambda: solve_linear_bsde_weighted(data, w)


def _matrix():
    data, w = planar_flow_data(2000, 50)
    return lambda: solve_multidim_linear_bsde(data, w)


# name -> (paths, steps, bound in node arrays, a builder of the run's inputs
# that returns the run); inputs built before tracing starts are not counted
RUNS = {
    "spike": (
        600,
        128,
        29.0,
        lambda: lambda: run_spike_study(benchmark_model(), 1.0, TimeGrid(1.0, 128), 600, 3, 0.25, (2, 4, 8, 16), 1.0),
    ),
    "example": (2000, 50, 13.8, lambda: lambda: run_example_experiment(2000, 50, 1.0, 1)),
    "weighted": (2000, 50, 7.7, _weighted),
    "matrix": (2000, 50, 16.8, _matrix),
}


@pytest.mark.parametrize("name", RUNS)
def test_peak_in_node_arrays(name):
    n_paths, n_steps, bound, prepare = RUNS[name]
    run = prepare()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    reading = peak / (8 * n_paths * (n_steps + 1))
    assert reading <= bound, f"{name} peaks at {reading:.2f} node arrays, above the bound of {bound}"

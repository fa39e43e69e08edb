"""scan_table against the scalar boundary routes, row by row, bit for bit.

scan_row is the row the scan CSV held before the table was computed as
arrays: each scalar route evaluated at one (a, b, t). Every table entry must
equal it exactly, and scan_table must reject the same first row with the
same message.
"""

import numpy as np
import pytest

from cvsep.cli import DEFAULT_GRID
from cvsep.criteria import simon_bound
from cvsep.errors import OutOfDomain
from cvsep.squeezing import (
    SCAN_HEADER,
    duan_bound_at,
    optimal_squeeze,
    p_rep_bound_at,
    scan_table,
)


def scan_row(a: float, b: float, t: float) -> list[float]:
    """One boundary-scan row: the three |c1| bounds, the extremal factors,
    and the largest relative disagreement among the bounds (relative with a
    unit floor, so degenerate rows with all-zero bounds stay meaningful)."""
    sol = optimal_squeeze(a, b, t)
    c1_prep = p_rep_bound_at(a, b, sol.params)
    c1_simon = simon_bound(a, b, t)
    c1_duan = duan_bound_at(a, b, t, sol.params)
    bounds = (c1_prep, c1_simon, c1_duan)
    rel = (max(bounds) - min(bounds)) / max(1.0, max(abs(x) for x in bounds))
    return [a, b, t, c1_prep, c1_simon, c1_duan, sol.params.r1, sol.params.r2, rel]


def reference(a_values, b_values, t_values) -> np.ndarray:
    rows = [scan_row(a, b, t) for a in a_values for b in b_values for t in t_values]
    return np.array(rows, dtype=float).reshape(-1, len(SCAN_HEADER))


def t_grid(steps: int):
    """The t values cvsep scan uses for a --t-steps count."""
    return [0.0] if steps == 1 else np.linspace(0.0, 1.0, steps)


def random_grid(seed: int, size: int) -> list[float]:
    """Block sizes from 1/2 up to about 1e6, log-uniform above 1/2."""
    rng = np.random.default_rng(seed)
    return (0.5 + 10.0 ** rng.uniform(-3.0, 6.0, size)).tolist()


GRIDS = {
    "default": ([float(x) for x in DEFAULT_GRID.split(",")],) * 2,
    "random_seed1": (random_grid(1, 5), random_grid(2, 4)),
    "random_seed3": (random_grid(3, 4), random_grid(4, 5)),
    "random_seed5": (random_grid(5, 5), random_grid(6, 5)),
    "vacuum_blocks": ([0.5], [0.5]),
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_table_equals_scalar_routes_bitwise(grid):
    # t-steps 1 to 40 include 16, where squaring with x * x instead of the C
    # pow that the scalar route calls changes two default-grid rows.
    a_values, b_values = grid
    for steps in range(1, 41):
        t_values = t_grid(steps)
        table = scan_table(a_values, b_values, t_values)
        expected = reference(a_values, b_values, t_values)
        assert table.shape == expected.shape
        np.testing.assert_array_equal(table.view(np.int64), expected.view(np.int64))


def _first_error(fn, *args) -> str:
    with pytest.raises(OutOfDomain) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize(
    "a_values, b_values, t_values",
    [
        ([0.5, 0.4], [1.0], [0.0, 1.0]),
        ([0.4, 0.5], [1.0], [0.0, 1.5]),  # the first pair fails before its t
        ([0.5, 0.4], [1.0], [0.0, 1.5]),  # the first pair's bad t fails first
        ([1.0], [0.5, float("nan")], [0.0]),
        ([1.0], [1.0], [0.0, float("nan")]),
        ([float("inf")], [1.0], [0.0]),
    ],
)
def test_rejects_the_first_bad_row_like_the_scalar_routes(a_values, b_values, t_values):
    assert _first_error(scan_table, a_values, b_values, t_values) == _first_error(
        reference, a_values, b_values, t_values
    )

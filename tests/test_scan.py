"""scan_table against the scalar boundary routes, row by row, bit for bit.

scan_row is the row the scan CSV held before the table was computed as
arrays: each scalar route evaluated at one (a, b, t). Every table entry must
equal it exactly, and scan_table must reject the same first row with the
same message. The CSV text built from the table is checked against one
"%.17g" per field on random tables.
"""

import numpy as np
import pytest

from cvsep.cli import DEFAULT_GRID, _csv_text
from cvsep.errors import OutOfDomain
from cvsep.squeezing import (
    SCAN_HEADER,
    duan_bound_at,
    optimal_squeeze,
    p_rep_bound_at,
    scan_table,
    simon_bound,
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
    "up_to_the_ab_bound": ([0.5, 1e75, 1e150], [1.0]),
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
        ([1.0, 2e150], [0.5, 1.0], [0.0]),  # (2e150, 0.5) is at the a * b bound
    ],
)
def test_rejects_the_first_bad_row_like_the_scalar_routes(a_values, b_values, t_values):
    assert _first_error(scan_table, a_values, b_values, t_values) == _first_error(
        reference, a_values, b_values, t_values
    )


#: Values whose text is easy to get wrong: signed zeros, NaNs with different
#: sign bits and payloads (quiet and signalling), infinities, the subnormal
#: extremes and the largest finite double.
SPECIAL_VALUES = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308,
              1.7976931348623157e308, -1.7976931348623157e308, 0.5, 1.0, 1.0 / 3.0]),
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64),
])


def random_table(seed: int) -> np.ndarray:
    """A float64 table with the scan's width: most fields drawn with heavy
    repeats from a small pool (the special values plus arbitrary bit
    patterns), the rest fresh arbitrary bit patterns."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 200))

    def bits(size):
        return rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)

    pool = np.concatenate([SPECIAL_VALUES, bits(8), rng.standard_normal(8)])
    table = rng.choice(pool, size=(rows, len(SCAN_HEADER)))
    fresh = rng.random(table.shape) < 0.2
    table[fresh] = bits(int(fresh.sum()))
    table[0, 0], table[-1, -1] = 0.0, -0.0
    return table


@pytest.mark.parametrize("seed", range(40))
def test_csv_text_formats_every_field_with_g17(seed):
    table = random_table(seed)
    row = ",".join(["%.17g"] * len(SCAN_HEADER)) + "\n"
    expected = ",".join(SCAN_HEADER) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    assert _csv_text(table) == expected

"""Boundary analysis of the P-representation under per-mode squeezing.

Squeezing a standard-form state (a, b, c1, c2) by factors r1, r2 >= 1 turns
the coherent-excess condition V - I/2 >= 0 into two determinant constraints
on (c1, c2) plus two trace conditions. Extremizing over the factors yields a
closed-form bound on |c1| at fixed ratio t = |c2|/|c1|. The same bound
reappears on the equality surfaces of the Simon and the Duan-type criteria,
and this module exposes each route separately so their agreement can be
checked numerically rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import StandardForm
from .errors import OutOfDomain

#: Slack for range checks so exact endpoints survive floating-point rounding.
_DOMAIN_EPS = 1e-12


@dataclass(frozen=True)
class SqueezeParams:
    """Per-mode squeezing factors, both at least one."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise OutOfDomain("squeezing factors must be finite")
        if self.r1 < 1.0 - _DOMAIN_EPS or self.r2 < 1.0 - _DOMAIN_EPS:
            raise OutOfDomain(f"squeezing factors ({self.r1}, {self.r2}) must be >= 1")


@dataclass(frozen=True)
class SqueezeSolution:
    """Extremal squeezing for (a, b, t) with the resulting correlation bounds.

    d_aux is the discriminant-like auxiliary quantity whose square root enters
    both factors; c2_bound is t * c1_bound by construction.
    """

    params: SqueezeParams
    d_aux: float
    c1_bound: float
    c2_bound: float
    t: float


def _check_domain(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0.5 or b < 0.5:
        raise OutOfDomain(f"block sizes (a, b) = ({a}, {b}) must be >= 1/2")


def _check_ratio(t: float) -> None:
    if not math.isfinite(t) or not 0.0 <= t <= 1.0:
        raise OutOfDomain(f"correlation ratio t = {t} outside [0, 1]")


def _snap(x: float, lo: float, hi: float) -> float:
    """Snap ulp-level rounding residue onto the exact analytic endpoints.

    The extremal factors live in [lo, hi] with the endpoints attained exactly
    at t = 1 and t = 0 (and everywhere when the range collapses); interior
    solutions approach the endpoints no faster than O(distance to those t),
    so an 8-ulp window cannot swallow a genuine interior value.
    """
    if abs(x - lo) <= 8e-16 * max(1.0, lo):
        return lo
    if abs(x - hi) <= 8e-16 * max(1.0, hi):
        return hi
    return min(max(x, lo), hi)


def apply_squeeze(sf: StandardForm, p: SqueezeParams) -> np.ndarray:
    """Covariance of the standard form squeezed by diag(sqrt(r), 1/sqrt(r))
    per mode: diagonal (a r1, a/r1, b r2, b/r2), correlations scaled by
    sqrt(r1 r2) and its inverse."""
    root = math.sqrt(p.r1 * p.r2)
    return np.array(
        [
            [sf.a * p.r1, 0.0, sf.c1 * root, 0.0],
            [0.0, sf.a / p.r1, 0.0, sf.c2 / root],
            [sf.c1 * root, 0.0, sf.b * p.r2, 0.0],
            [0.0, sf.c2 / root, 0.0, sf.b / p.r2],
        ]
    )


def prep_conditions(sf: StandardForm, p: SqueezeParams, slack: float = 1e-12):
    """The four scalar conditions equivalent to (squeezed V) - I/2 >= 0.

    Returns (c1 determinant bound, c2 determinant bound, and the two trace
    conditions), each reported with a small absolute slack so exact boundary
    cases count as satisfied.
    """
    q1 = sf.a - 0.5 / p.r1
    q2 = sf.b - 0.5 / p.r2
    p1 = sf.a - 0.5 * p.r1
    p2 = sf.b - 0.5 * p.r2
    return (
        bool(q1 * q2 >= sf.c1 * sf.c1 - slack),
        bool(p1 * p2 >= sf.c2 * sf.c2 - slack),
        bool(q1 + q2 >= -slack),
        bool(p1 + p2 >= -slack),
    )


def optimal_squeeze(a: float, b: float, t: float) -> SqueezeSolution:
    """Extremal squeezing factors and correlation bound for block sizes (a, b)
    at correlation ratio t = |c2|/|c1|.

    The factors run from (2a, 2b) at t = 0 down to (1, 1) at t = 1. The bound
    is the closed form sqrt((2a^2 - 1/2)(2b^2 - 1/2) / (2ab(1 + t^2) + t +
    2 sqrt(D))), an algebraic rationalization of the usual (1/2t) * sqrt(...)
    expression that stays accurate down to t = 0, where it coincides with
    sqrt((a r1 - 1/2)(b r2 - 1/2) / (r1 r2)) at r1 = 2a, r2 = 2b.
    """
    _check_domain(a, b)
    _check_ratio(t)
    d_aux = (a * b * (1.0 - t * t)) ** 2 + t * (a + b * t) * (a * t + b)
    root_d = math.sqrt(d_aux)
    core = a * b * (1.0 - t * t) + root_d
    r1 = _snap(core / (a * t + b), 1.0, 2.0 * a)
    r2 = _snap(core / (a + b * t), 1.0, 2.0 * b)
    denom = 2.0 * a * b * (1.0 + t * t) + t + 2.0 * root_d
    c1 = math.sqrt((2.0 * a * a - 0.5) * (2.0 * b * b - 0.5) / denom)
    return SqueezeSolution(SqueezeParams(r1, r2), d_aux, c1, t * c1, t)


def p_rep_bound_at(a: float, b: float, p: SqueezeParams) -> float:
    """Correlation bound sqrt((a r1 - 1/2)(b r2 - 1/2)) / sqrt(r1 r2) read off
    the squeezed q-sector determinant condition at the given factors."""
    _check_domain(a, b)
    num = max(a * p.r1 - 0.5, 0.0) * max(b * p.r2 - 0.5, 0.0)
    return math.sqrt(num / (p.r1 * p.r2))


def extremality_residual(a: float, b: float, p: SqueezeParams) -> float:
    """Residual of the extremality constraint tying the two squeezing factors:
    (a r1 - 1/2)/(a/r1 - 1/2) minus the same ratio for the second mode.

    Zero at the extremal factors. At the endpoint r1 = 2a, r2 = 2b both
    denominators vanish and the residual is zero by the endpoint limit; if
    only one denominator vanishes the residual is infinite.
    """
    _check_domain(a, b)
    den1 = a / p.r1 - 0.5
    den2 = b / p.r2 - 0.5
    tiny = 1e-12 * max(1.0, a, b)
    if abs(den1) <= tiny and abs(den2) <= tiny:
        return 0.0
    if abs(den1) <= tiny or abs(den2) <= tiny:
        return math.inf
    return (a * p.r1 - 0.5) / den1 - (b * p.r2 - 0.5) / den2


def r2_of_r1(a: float, b: float, r1: float) -> float:
    """Extremal second-mode factor matched to a given first-mode factor.

    Monotone from r2(1) = 1 up to r2(2a) = 2b. Degenerate at a = 1/2, where
    the admissible range for r1 collapses to the single point 1.
    """
    _check_domain(a, b)
    if not 1.0 - _DOMAIN_EPS <= r1 <= 2.0 * a + _DOMAIN_EPS:
        raise OutOfDomain(f"r1 = {r1} outside [1, 2a] = [1, {2.0 * a}]")
    den = 2.0 * a * r1 - 1.0
    if abs(den) <= _DOMAIN_EPS:
        raise OutOfDomain("matching is degenerate at a = 1/2, r1 = 1")
    x = (2.0 * a / r1 - 1.0) / den
    one_minus = 1.0 - x
    return 4.0 * b / (math.sqrt(one_minus * one_minus + 16.0 * b * b * x) + one_minus)


def duan_bound_at(a: float, b: float, t: float, p: SqueezeParams) -> float:
    """Correlation bound implied by the Duan-type condition at squeezing p:
    sqrt((a r1 + a/r1 - 1)(b r2 + b/r2 - 1)) over sqrt(r1 r2) + t/sqrt(r1 r2).

    At extremal factors the numerator splits into the two squeezed
    P-representation terms (see duan_split_residual), which is how this bound
    meets the other two routes. Minimizing it over the admissible window
    [1, 2a] x [1, 2b] recovers the extremal factors; beyond that window the
    squeezed state has momentum variances below the vacuum floor and the
    factors are rejected.
    """
    _check_domain(a, b)
    _check_ratio(t)
    if a / p.r1 - 0.5 < -_DOMAIN_EPS or b / p.r2 - 0.5 < -_DOMAIN_EPS:
        raise OutOfDomain("squeezing exceeds the window [1, 2a] x [1, 2b]")
    num = math.sqrt(
        max(a * p.r1 + a / p.r1 - 1.0, 0.0) * max(b * p.r2 + b / p.r2 - 1.0, 0.0)
    )
    root = math.sqrt(p.r1 * p.r2)
    return num / (root + t / root)


#: Columns of scan_table, in order.
SCAN_HEADER = [
    "a",
    "b",
    "t",
    "c1_prep",
    "c1_simon",
    "c1_duan",
    "r1",
    "r2",
    "max_rel_disagreement",
]


def _max(x, y):
    """Elementwise builtin max(x, y), which keeps x unless y > x, NaNs included."""
    return np.where(y > x, y, x)


def _min(x, y):
    """Elementwise builtin min(x, y), which keeps x unless y < x."""
    return np.where(y < x, y, x)


def _snap_all(x: np.ndarray, lo: float, hi: np.ndarray) -> np.ndarray:
    """_snap over arrays, with the lo window taking precedence as in _snap."""
    out = _min(_max(x, lo), hi)
    out = np.where(np.abs(x - hi) <= 8e-16 * _max(1.0, hi), hi, out)
    return np.where(np.abs(x - lo) <= 8e-16 * max(1.0, lo), lo, out)


def scan_table(a_values, b_values, t_values) -> np.ndarray:
    """Boundary-scan table over the (a, b, t) grid: one row per point, a
    outer, then b, then t, with the SCAN_HEADER columns. These are the three
    |c1| bounds, the extremal factors, and the largest relative disagreement
    among the bounds (relative with a unit floor, so degenerate rows with
    all-zero bounds stay meaningful).

    Each route repeats, on whole columns, the operations of its scalar
    function in the same order: optimal_squeeze, p_rep_bound_at,
    criteria.simon_bound and duan_bound_at. Every entry is therefore bit for
    bit what those functions return for its row. Raises OutOfDomain with the
    scalar functions' message for the first row, in output order, that they
    reject.
    """
    if len(a_values) * len(b_values) * len(t_values):
        # The first row to fail is at the first (a, b) pair, or at its first
        # bad t, or else at the first later pair outside the domain.
        _check_domain(a_values[0], b_values[0])
        for t in t_values:
            _check_ratio(t)
        for a in a_values:
            for b in b_values:
                _check_domain(a, b)
    a, b, t = (
        g.ravel()
        for g in np.meshgrid(
            np.asarray(a_values, dtype=float),
            np.asarray(b_values, dtype=float),
            np.asarray(t_values, dtype=float),
            indexing="ij",
        )
    )

    # optimal_squeeze. Its x ** 2 on a float calls the C pow, which can
    # differ in the last bit from the x * x that ndarray ** 2 computes;
    # float_power calls pow for every element.
    x = a * b * (1.0 - t * t)
    root_d = np.sqrt(np.float_power(x, 2.0) + t * (a + b * t) * (a * t + b))
    core = x + root_d
    r1 = _snap_all(core / (a * t + b), 1.0, 2.0 * a)
    r2 = _snap_all(core / (a + b * t), 1.0, 2.0 * b)
    bad = ~(np.isfinite(r1) & np.isfinite(r2))
    if bad.any():  # reachable only when the products above overflow
        i = int(bad.argmax())
        SqueezeParams(float(r1[i]), float(r2[i]))  # raises, as optimal_squeeze does
    # r1 <= 2a and r2 <= 2b, so duan_bound_at's window check always passes.

    # p_rep_bound_at
    c1_prep = np.sqrt(_max(a * r1 - 0.5, 0.0) * _max(b * r2 - 0.5, 0.0) / (r1 * r2))

    # criteria.simon_bound
    quad_a = 4.0 * t * t
    quad_b = 4.0 * a * b * (1.0 + t * t) + 2.0 * t
    quad_c = (2.0 * a * a - 0.5) * (2.0 * b * b - 0.5)
    disc = quad_b * quad_b - 4.0 * quad_a * quad_c
    c1_simon = np.sqrt(quad_c / (0.5 * (quad_b + np.sqrt(_max(disc, 0.0)))))

    # duan_bound_at
    num = np.sqrt(
        _max(a * r1 + a / r1 - 1.0, 0.0) * _max(b * r2 + b / r2 - 1.0, 0.0)
    )
    root = np.sqrt(r1 * r2)
    c1_duan = num / (root + t / root)

    top = _max(_max(c1_prep, c1_simon), c1_duan)
    bottom = _min(_min(c1_prep, c1_simon), c1_duan)
    scale = _max(1.0, _max(_max(np.abs(c1_prep), np.abs(c1_simon)), np.abs(c1_duan)))
    rel = (top - bottom) / scale
    return np.column_stack([a, b, t, c1_prep, c1_simon, c1_duan, r1, r2, rel])


def superadditivity_gap(n1: float, n2: float, m1: float, m2: float) -> tuple[float, bool]:
    """Gap of sqrt((n1 + n2 - 1)(m1 + m2 - 1)) over the sum of the two
    half-shifted geometric means sqrt((n_k - 1/2)(m_k - 1/2)).

    All four arguments must be at least 1/2. The gap is nonnegative and
    vanishes exactly under the proportionality condition
    (n2 - 1/2)(m1 - 1/2) == (n1 - 1/2)(m2 - 1/2), whose status is returned
    alongside the gap.
    """
    for name, val in (("n1", n1), ("n2", n2), ("m1", m1), ("m2", m2)):
        if not math.isfinite(val) or val < 0.5:
            raise OutOfDomain(f"{name} = {val} must be >= 1/2")
    lhs = math.sqrt((n1 + n2 - 1.0) * (m1 + m2 - 1.0))
    rhs = math.sqrt((n1 - 0.5) * (m1 - 0.5)) + math.sqrt((n2 - 0.5) * (m2 - 0.5))
    cross = (n2 - 0.5) * (m1 - 0.5) - (n1 - 0.5) * (m2 - 0.5)
    scale = max(1.0, (n1 - 0.5) * (m2 - 0.5), (n2 - 0.5) * (m1 - 0.5))
    return lhs - rhs, bool(abs(cross) <= 1e-9 * scale)


def duan_split_residual(a: float, b: float, p: SqueezeParams) -> float:
    """How far the Duan-form product term is from splitting into the two
    squeezed P-representation factors; zero exactly at extremal squeezing,
    strictly positive otherwise."""
    gap, _ = superadditivity_gap(a * p.r1, a / p.r1, b * p.r2, b / p.r2)
    return gap

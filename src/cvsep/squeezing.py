"""Boundary analysis of the P-representation under per-mode squeezing.

Squeezing a standard-form state (a, b, c1, c2) by factors r1, r2 >= 1 turns
the coherent-excess condition V - I/2 >= 0 into two determinant constraints
on (c1, c2) plus two trace conditions. Extremizing over the factors yields a
closed-form bound on |c1| at fixed ratio t = |c2|/|c1|. The same bound
reappears on the equality surfaces of the Simon and the Duan-type criteria;
each route (p_rep_bound_at, simon_bound, duan_bound_at), like the factors of
optimal_squeeze, is one elementwise formula run at a point and by scan_table
on whole grids, so their agreement is checked numerically, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import StandardForm
from .errors import OutOfDomain
from .matkit import _check_real

#: Slack for range checks so exact endpoints survive floating-point rounding.
_DOMAIN_EPS = 1e-12

#: Largest a * b the routes accept: their largest intermediate, about 64 (ab)^2,
#: overflows past a * b of about 1.7e153 and turns results into inf or nan.
_AB_MAX = 1e150

#: Absolute slack of prep_conditions, so exact boundary cases count as satisfied.
PREP_SLACK = 1e-12


@dataclass(frozen=True)
class SqueezeParams:
    """Per-mode squeezing factors, both at least one."""

    r1: float
    r2: float

    def __post_init__(self):
        r1 = _check_real(self.r1, "squeezing factor r1")
        r2 = _check_real(self.r2, "squeezing factor r2")
        if not (math.isfinite(r1) and math.isfinite(r2)):
            raise OutOfDomain("squeezing factors must be finite")
        if r1 < 1.0 - _DOMAIN_EPS or r2 < 1.0 - _DOMAIN_EPS:
            raise OutOfDomain(f"squeezing factors ({r1}, {r2}) must be >= 1")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)


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


def _check_domain(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats (_check_real), refused unless both are >= 1/2 with a * b <= _AB_MAX."""
    a, b = _check_real(a, "block size a"), _check_real(b, "block size b")
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0.5 or b < 0.5:
        raise OutOfDomain(f"block sizes (a, b) = ({a}, {b}) must be >= 1/2")
    if a * b > _AB_MAX:
        raise OutOfDomain(f"block sizes (a, b) = ({a}, {b}) must have a * b <= {_AB_MAX:g}")
    return a, b


def _check_ratio(t: float) -> float:
    """t as a float (_check_real), refused unless it is in [0, 1]."""
    t = _check_real(t, "correlation ratio t")
    if not math.isfinite(t) or not 0.0 <= t <= 1.0:
        raise OutOfDomain(f"correlation ratio t = {t} outside [0, 1]")
    return t


def apply_squeeze(sf: StandardForm, p: SqueezeParams) -> np.ndarray:
    """Covariance of the standard form squeezed by diag(sqrt(r), 1/sqrt(r))
    per mode: diagonal (a r1, a/r1, b r2, b/r2), correlations scaled by
    sqrt(r1 r2) and its inverse. Raises OutOfDomain when an entry is not
    finite, as where a r1 or sqrt(r1 r2) overflows."""
    root = math.sqrt(p.r1 * p.r2)
    a1, a2, b1, b2 = sf.a * p.r1, sf.a / p.r1, sf.b * p.r2, sf.b / p.r2
    k1, k2 = sf.c1 * root, sf.c2 / root
    if not all(map(math.isfinite, (a1, a2, b1, b2, k1, k2))):
        raise OutOfDomain("apply_squeeze: an entry of the squeezed covariance overflows")
    return np.array(
        [
            [a1, 0.0, k1, 0.0],
            [0.0, a2, 0.0, k2],
            [k1, 0.0, b1, 0.0],
            [0.0, k2, 0.0, b2],
        ]
    )


def prep_conditions(sf: StandardForm, p: SqueezeParams):
    """The four scalar conditions equivalent to (squeezed V) - I/2 >= 0.

    Returns (c1 determinant bound, c2 determinant bound, and the two trace
    conditions), each with the absolute slack PREP_SLACK.
    """
    q1 = sf.a - 0.5 / p.r1
    q2 = sf.b - 0.5 / p.r2
    p1 = sf.a - 0.5 * p.r1
    p2 = sf.b - 0.5 * p.r2
    return (
        bool(q1 * q2 >= sf.c1 * sf.c1 - PREP_SLACK),
        bool(p1 * p2 >= sf.c2 * sf.c2 - PREP_SLACK),
        bool(q1 + q2 >= -PREP_SLACK),
        bool(p1 + p2 >= -PREP_SLACK),
    )


def _c1_bound(a: float, b: float, t: float) -> float:
    """optimal_squeeze's c1_bound on Python floats, after its domain checks."""
    a, b = _check_domain(a, b)
    t = _check_ratio(t)
    d_aux = (a * b * (1.0 - t * t)) ** 2 + t * (a + b * t) * (a * t + b)
    denom = 2.0 * a * b * (1.0 + t * t) + t + 2.0 * math.sqrt(d_aux)
    return math.sqrt((2.0 * a * a - 0.5) * (2.0 * b * b - 0.5) / denom)


def optimal_squeeze(a: float, b: float, t: float) -> SqueezeSolution:
    """Extremal squeezing factors and correlation bound for block sizes (a, b)
    at correlation ratio t = |c2|/|c1|.

    The factors run from (2a, 2b) at t = 0 down to (1, 1) at t = 1. The bound
    is the closed form sqrt((2a^2 - 1/2)(2b^2 - 1/2) / (2ab(1 + t^2) + t +
    2 sqrt(D))), an algebraic rationalization of the usual (1/2t) * sqrt(...)
    expression that stays accurate down to t = 0, where it coincides with
    sqrt((a r1 - 1/2)(b r2 - 1/2) / (r1 r2)) at r1 = 2a, r2 = 2b.

    The factors and D come from scan_table's kernel, on numpy scalars (tens of
    microseconds a call); classify reads only the bound, through _c1_bound.
    """
    a, b = _check_domain(a, b)
    t = _check_ratio(t)
    c1 = _c1_bound(a, b, t)
    d_aux, r1, r2 = (float(x) for x in _extremal_factors(a, b, t))
    return SqueezeSolution(SqueezeParams(r1, r2), d_aux, c1, t * c1, t)


# Factors far outside [1, 2a] x [1, 2b] give inf or nan without a warning, as floats do.
@np.errstate(over="ignore", invalid="ignore")
def p_rep_bound_at(a: float, b: float, p: SqueezeParams) -> float:
    """Correlation bound sqrt((a r1 - 1/2)(b r2 - 1/2)) / sqrt(r1 r2) read off
    the squeezed q-sector determinant condition at the given factors."""
    a, b = _check_domain(a, b)
    return float(_prep_bound(a, b, p.r1, p.r2))


def simon_bound(a: float, b: float, t: float) -> float:
    """Largest |c1| the algebraic Simon conditions admit at ratio t = |c2|/|c1|.

    The smaller root of the quadratic that the quartic condition becomes once
    c2 = t*c1, evaluated through the larger root so it stays stable down to
    t = 0, where the equation degenerates to linear.
    """
    a, b = _check_domain(a, b)
    t = _check_ratio(t)
    return float(_simon_bound(a, b, t))


def extremality_residual(a: float, b: float, p: SqueezeParams) -> float:
    """Residual of the extremality constraint tying the two squeezing factors:
    (a r1 - 1/2)/(a/r1 - 1/2) minus the same ratio for the second mode.

    Zero at the extremal factors. At the endpoint r1 = 2a, r2 = 2b both
    denominators vanish and the residual is zero by the endpoint limit; if
    only one denominator vanishes the residual is infinite. A denominator
    counts as vanishing within 1e-12 * max(1, its mode's a or b), the scale
    at which a / r1 or b / r2 rounds.
    """
    a, b = _check_domain(a, b)
    den1 = a / p.r1 - 0.5
    den2 = b / p.r2 - 0.5
    vanish1 = abs(den1) <= 1e-12 * max(1.0, a)
    vanish2 = abs(den2) <= 1e-12 * max(1.0, b)
    if vanish1 and vanish2:
        return 0.0
    if vanish1 or vanish2:
        return math.inf
    return (a * p.r1 - 0.5) / den1 - (b * p.r2 - 0.5) / den2


def r2_of_r1(a: float, b: float, r1: float) -> float:
    """Extremal second-mode factor matched to a given first-mode factor.

    Monotone from r2(1) = 1 up to r2(2a) = 2b. Degenerate at a = 1/2, where
    the admissible range for r1 collapses to the single point 1.
    """
    a, b = _check_domain(a, b)
    r1 = _check_real(r1, "r1")
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
    a, b = _check_domain(a, b)
    t = _check_ratio(t)
    if a / p.r1 - 0.5 < -_DOMAIN_EPS or b / p.r2 - 0.5 < -_DOMAIN_EPS:
        raise OutOfDomain("squeezing exceeds the window [1, 2a] x [1, 2b]")
    return float(_duan_bound(a, b, t, p.r1, p.r2))


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


# The bound formulas, elementwise: scan_table's columns and the scalar routes.
def _prep_bound(a, b, r1, r2):
    return np.sqrt(np.maximum(a * r1 - 0.5, 0.0) * np.maximum(b * r2 - 0.5, 0.0) / (r1 * r2))


def _simon_bound(a, b, t):
    quad_b = 4.0 * a * b * (1.0 + t * t) + 2.0 * t
    quad_c = (2.0 * a * a - 0.5) * (2.0 * b * b - 0.5)
    disc = quad_b * quad_b - 4.0 * (4.0 * t * t) * quad_c
    return np.sqrt(quad_c / (0.5 * (quad_b + np.sqrt(np.maximum(disc, 0.0)))))


def _duan_bound(a, b, t, r1, r2):
    num = np.sqrt(np.maximum(a * r1 + a / r1 - 1.0, 0.0)
                  * np.maximum(b * r2 + b / r2 - 1.0, 0.0))
    root = np.sqrt(r1 * r2)
    return num / (root + t / root)


def _snap_all(x: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Snap ulp-level rounding residue onto the exact endpoints 1 and hi,
    elementwise (1 wins where both windows hold). The extremal factors attain
    them exactly at t = 1 and t = 0 (everywhere when the range collapses);
    interior solutions approach them no faster than O(distance to those t),
    so an 8-ulp window cannot swallow a genuine interior value."""
    out = np.minimum(np.maximum(x, 1.0), hi)
    out = np.where(np.abs(x - hi) <= 8e-16 * np.maximum(1.0, hi), hi, out)
    return np.where(np.abs(x - 1.0) <= 8e-16, 1.0, out)


def _extremal_factors(a, b, t):
    """(d_aux, r1, r2) of optimal_squeeze, elementwise. D stays written twice:
    also on floats in _c1_bound, classify's per-state bound. float_power calls
    the C pow of a float's x ** 2; ndarray ** 2 computes x * x, which can
    differ in the last bit."""
    x = a * b * (1.0 - t * t)
    d_aux = np.float_power(x, 2.0) + t * (a + b * t) * (a * t + b)
    core = x + np.sqrt(d_aux)
    r1 = _snap_all(core / (a * t + b), 2.0 * a)
    r2 = _snap_all(core / (a + b * t), 2.0 * b)
    return d_aux, r1, r2


def scan_table(a_values, b_values, t_values) -> np.ndarray:
    """Boundary-scan table over the (a, b, t) grid: one row per point, a
    outer, then b, then t, with the SCAN_HEADER columns. These are the three
    |c1| bounds, the extremal factors, and the largest relative disagreement
    among the bounds (relative with a unit floor, so degenerate rows with
    all-zero bounds stay meaningful).

    Each column runs the kernel of its scalar route (optimal_squeeze,
    p_rep_bound_at, simon_bound, duan_bound_at), so every entry is bit for bit
    what those return for its row. Raises OutOfDomain with their message for
    the first row, in output order, that they reject.
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
    grids = (np.asarray(g, dtype=float) for g in (a_values, b_values, t_values))
    a, b, t = (g.ravel() for g in np.meshgrid(*grids, indexing="ij"))

    _, r1, r2 = _extremal_factors(a, b, t)
    # a * b <= _AB_MAX keeps r1 and r2 finite, so SqueezeParams accepts every
    # row; r1 <= 2a and r2 <= 2b, so duan_bound_at's window check always passes.

    c1_prep = _prep_bound(a, b, r1, r2)
    c1_simon = _simon_bound(a, b, t)
    c1_duan = _duan_bound(a, b, t, r1, r2)

    top = np.maximum(np.maximum(c1_prep, c1_simon), c1_duan)
    bottom = np.minimum(np.minimum(c1_prep, c1_simon), c1_duan)
    # Every bound is a square root (at worst -0.0), so top is the largest |bound|.
    rel = (top - bottom) / np.maximum(1.0, top)
    return np.column_stack([a, b, t, c1_prep, c1_simon, c1_duan, r1, r2, rel])


def superadditivity_gap(n1: float, n2: float, m1: float, m2: float) -> tuple[float, bool]:
    """Gap of sqrt((n1 + n2 - 1)(m1 + m2 - 1)) over the sum of the two
    half-shifted geometric means sqrt((n_k - 1/2)(m_k - 1/2)).

    All four arguments must be at least 1/2. The gap is nonnegative and
    vanishes exactly under the proportionality condition
    (n2 - 1/2)(m1 - 1/2) == (n1 - 1/2)(m2 - 1/2), whose status is returned
    alongside the gap. Raises OutOfDomain when the gap is not finite, as
    where (n1 + n2 - 1)(m1 + m2 - 1) overflows.
    """
    checked = []
    for name, val in (("n1", n1), ("n2", n2), ("m1", m1), ("m2", m2)):
        val = _check_real(val, name)
        if not math.isfinite(val) or val < 0.5:
            raise OutOfDomain(f"{name} = {val} must be >= 1/2")
        checked.append(val)
    n1, n2, m1, m2 = checked
    lhs = math.sqrt((n1 + n2 - 1.0) * (m1 + m2 - 1.0))
    rhs = math.sqrt((n1 - 0.5) * (m1 - 0.5)) + math.sqrt((n2 - 0.5) * (m2 - 0.5))
    gap = lhs - rhs
    if not math.isfinite(gap):
        raise OutOfDomain("superadditivity_gap: a product of the arguments overflows")
    cross = (n2 - 0.5) * (m1 - 0.5) - (n1 - 0.5) * (m2 - 0.5)
    scale = max(1.0, (n1 - 0.5) * (m2 - 0.5), (n2 - 0.5) * (m1 - 0.5))
    return gap, bool(abs(cross) <= 1e-9 * scale)


def duan_split_residual(a: float, b: float, p: SqueezeParams) -> float:
    """How far the Duan-form product term is from splitting into the two
    squeezed P-representation factors; zero exactly at extremal squeezing,
    strictly positive otherwise. Raises as superadditivity_gap does on
    (a r1, a/r1, b r2, b/r2)."""
    a, b = _check_real(a, "block size a"), _check_real(b, "block size b")
    gap, _ = superadditivity_gap(a * p.r1, a / p.r1, b * p.r2, b / p.r2)
    return gap

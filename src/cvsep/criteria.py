"""Separability criteria for two-mode Gaussian covariance matrices.

Each criterion is a quadratic-form inequality quantified over all real
coefficient choices. The universal quantifier is settled spectrally: the
inequality holds for every choice exactly when a small Hermitian matrix is
positive semidefinite, with one branch per relative sign of the two
single-mode commutator terms. Whenever a matrix-form criterion fails, the
minimizing eigenvector is converted back into an explicit real parameter
witness that drives the corresponding scalar gap negative.

The hierarchy, from strongest to weakest: the ensemble-refined condition
(stringent_criterion), Simon's partial-transpose condition, and the
Duan-type condition obtained by restricting the coefficients. For Gaussian
states the extremal-squeezing bound of the squeezing module is necessary and
sufficient, and classify() cross-checks it against Simon's criterion on
every call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .covariance import (
    J2,
    StandardForm,
    as_covariance,
    block_a,
    block_b,
    block_c,
    from_blocks,
    to_standard_form,
    uncertainty_psd,
)
from .errors import InvalidEnsembleMatrix, InvalidInput
from .matkit import DEFAULT_TOL
from .squeezing import _check_domain, _check_ratio, optimal_squeeze


@dataclass(frozen=True, eq=False)
class ParamSet:
    """Real coefficient pairs (d, f) and (g, h) of two quadrature combinations."""

    d: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray

    @classmethod
    def from_complex(cls, vec) -> "ParamSet":
        """Split a complex 4-vector v = (d, f) + i(g, h) into witness parameters."""
        vec = np.asarray(vec, dtype=complex)
        return cls(
            vec[:2].real.copy(),
            vec[2:].real.copy(),
            vec[:2].imag.copy(),
            vec[2:].imag.copy(),
        )


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Outcome of one criterion.

    margin is the binding eigenvalue or scalar gap; sign_branch is +1 or -1
    for the binding commutator-sign branch, 0 when both branches tie, None
    for criteria without branches. witness is present exactly when violated
    (matrix-form criteria only).
    """

    satisfied: bool
    margin: float
    witness: ParamSet | None = None
    sign_branch: int | None = None


class Outcome(enum.Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    NONPHYSICAL = "nonphysical"


@dataclass(frozen=True, eq=False)
class Verdict:
    """Classification outcome with per-criterion reports.

    ensemble_used records which ensemble matrix backed the stringent report
    ("coherent_excess" when V - I/2 is PSD, "zero" otherwise). consistent
    records whether Simon's criterion and the extremal-squeezing bound agreed.
    """

    outcome: Outcome
    reports: dict[str, CriterionReport]
    standard_form: StandardForm | None
    ensemble_used: str
    consistent: bool


def _quad(m: np.ndarray, u: np.ndarray, w: np.ndarray) -> float:
    """Quadratic form u^T A u + w^T B w + 2 u^T C w of a 4x4 block matrix."""
    return float(u @ m[:2, :2] @ u + w @ m[2:, 2:] @ w + 2.0 * (u @ m[:2, 2:] @ w))


def _pair_quads(v, ens, p: ParamSet) -> float:
    v = np.asarray(v, dtype=float)
    total = _quad(v, p.d, p.f) + _quad(v, p.g, p.h)
    if ens is not None:
        ens = np.asarray(ens, dtype=float)
        total -= _quad(ens, p.d, p.f) + _quad(ens, p.g, p.h)
    return total


def gap_general(v, ens, p: ParamSet) -> float:
    """Uncertainty gap with the combined commutator bound |d.Jg + f.Jh|.

    Nonnegative for every physical state and every PSD ensemble matrix drawn
    from one of its decompositions; ens=None means no ensemble refinement.
    """
    comm = float(p.d @ J2 @ p.g + p.f @ J2 @ p.h)
    return _pair_quads(v, ens, p) - abs(comm)


def gap_separable(v, ens, p: ParamSet) -> float:
    """Separability gap: the two commutator terms are bounded separately,
    |d.Jg| + |f.Jh|, which is what separable states must satisfy."""
    return (
        _pair_quads(v, ens, p)
        - abs(float(p.d @ J2 @ p.g))
        - abs(float(p.f @ J2 @ p.h))
    )


def _binding_branch(plus: float, minus: float) -> tuple[int, int]:
    """Sign of the smaller margin, and the branch to report: 0 on a 1e-12 relative tie."""
    binding = 1 if plus <= minus else -1
    tied = abs(plus - minus) <= 1e-12 * max(1.0, abs(min(plus, minus)))
    return binding, 0 if tied else binding


def _two_branch_report(base: np.ndarray, tol: float) -> tuple[CriterionReport, tuple]:
    """PSD verdict of base + (i/2) diag(J, sigma*J) over both sigma branches,
    and the sigma = +1 result, which for base = V is the physicality test."""
    plus = uncertainty_psd(base, 1, tol)
    minus = uncertainty_psd(base, -1, tol)
    binding, branch = _binding_branch(plus[1], minus[1])
    satisfied = plus[0] and minus[0]
    witness = None
    if not satisfied:
        witness = ParamSet.from_complex((minus if branch == -1 else plus)[2])
    margin = plus[1] if binding == 1 else minus[1]
    return CriterionReport(satisfied, margin, witness, branch), plus


def simon_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Simon's separability condition: V + (i/2) diag(J, sigma*J) PSD for both
    sigma = +1 (physicality) and sigma = -1 (partial transpose)."""
    return _two_branch_report(as_covariance(v), tol)[0]


def stringent_criterion(v, ens, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Ensemble-refined separability condition: (V - ens) + (i/2) diag(J,
    sigma*J) PSD for both branches, with ens a PSD second-moment matrix of
    some decomposition of the state.

    Implies Simon's criterion for every admissible ens and reduces to it at
    ens = 0. Both v and ens must pass as_covariance.
    """
    v = as_covariance(v)
    ens = as_covariance(ens)
    if not matkit.is_psd_sym(ens, tol):
        raise InvalidEnsembleMatrix("ensemble matrix must be positive semidefinite")
    return _two_branch_report(v - ens, tol)[0]


def simon_algebraic(sf: StandardForm, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Simon's condition as scalar inequalities on the standard-form
    parameters: a quartic determinant inequality, a geometric-mean cap on
    |c1| + |c2|, and a >= 1/2, b >= 1/2. The margin is the smallest gap."""
    a, b = sf.a, sf.b
    c1, c2 = abs(sf.c1), abs(sf.c2)
    quartic = (
        4.0 * (a * b - c1 * c1) * (a * b - c2 * c2)
        - (a * a + b * b)
        - 2.0 * c1 * c2
        + 0.25
    )
    cap = math.sqrt(max(2.0 * a - 1.0, 0.0) * max(2.0 * b - 1.0, 0.0)) - (c1 + c2)
    margin = min(quartic, cap, a - 0.5, b - 0.5)
    return CriterionReport(bool(margin >= -tol), float(margin))


def simon_bound(a: float, b: float, t: float) -> float:
    """Largest |c1| the algebraic Simon conditions admit at ratio t = |c2|/|c1|.

    The smaller root of the quadratic that the quartic condition becomes once
    c2 = t*c1, evaluated through the larger root so it stays stable down to
    t = 0, where the equation degenerates to linear.
    """
    _check_domain(a, b)
    _check_ratio(t)
    quad_a = 4.0 * t * t
    quad_b = 4.0 * a * b * (1.0 + t * t) + 2.0 * t
    quad_c = (2.0 * a * a - 0.5) * (2.0 * b * b - 0.5)
    disc = quad_b * quad_b - 4.0 * quad_a * quad_c
    big = 0.5 * (quad_b + math.sqrt(max(disc, 0.0)))
    return math.sqrt(quad_c / big)


def _epr_blocks(m: np.ndarray, sign: int) -> np.ndarray:
    """Block matrix [[A + JAJ^T, C + sign*JCJ^T], [.., B + JBJ^T]]."""
    a = block_a(m)
    b = block_b(m)
    c = block_c(m)
    return from_blocks(
        a + J2 @ a @ J2.T,
        b + J2 @ b @ J2.T,
        c + sign * (J2 @ c @ J2.T),
    )


def weak_gap(v, ens, sign: int, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Subsidiary-condition (EPR-type) criterion for one commutator sign
    branch: the EPR block matrix of V minus that of ens minus I must be PSD.

    Obtained from the full separability condition by tying g = J^T d and
    h = sign * J^T f; with ens = 0 it coincides with the matching branch of
    duan_criterion.
    """
    if sign not in (1, -1):
        raise InvalidInput("sign branch must be +1 or -1")
    m = _epr_blocks(np.asarray(v, dtype=float), sign)
    if ens is not None:
        m = m - _epr_blocks(np.asarray(ens, dtype=float), sign)
    m = m - np.eye(4)
    res = matkit.eig_sym(m)
    lam = float(res.values[0])
    satisfied = bool(lam >= -tol * matkit.norm_scale(m))
    witness = None
    if not satisfied:
        d = res.vectors[:2, 0].copy()
        f = res.vectors[2:, 0].copy()
        witness = ParamSet(d, f, J2.T @ d, sign * (J2.T @ f))
    return CriterionReport(satisfied, lam, witness, sign)


def _duan_report(v: np.ndarray, tol: float) -> CriterionReport:
    plus = weak_gap(v, None, 1, tol)
    minus = weak_gap(v, None, -1, tol)
    sign, branch = _binding_branch(plus.margin, minus.margin)
    binding = plus if sign == 1 else minus
    return CriterionReport(
        plus.satisfied and minus.satisfied, binding.margin, binding.witness, branch
    )


def duan_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """EPR-variance separability condition over both sign branches; weaker
    than Simon's criterion."""
    return _duan_report(as_covariance(v), tol)


def classify(v, tol: float = DEFAULT_TOL) -> Verdict:
    """Classify a covariance matrix as nonphysical, entangled or separable.

    Physicality gates everything. A physical state is separable exactly when
    its standard-form correlation |c1| sits below the extremal-squeezing
    bound; for Gaussian states that coincides with Simon's criterion, and the
    coincidence is re-checked on every call and recorded in the verdict.
    Raises InvalidInput unless v passes as_covariance (finite, 4x4,
    symmetric), and DegenerateBlock if the standard-form reduction fails.
    """
    v = as_covariance(v)
    # Physicality is the sigma = +1 branch of Simon's criterion.
    simon, (phys_ok, phys_margin, phys_vec) = _two_branch_report(v, tol)
    reports: dict[str, CriterionReport] = {}
    reports["physical"] = CriterionReport(
        phys_ok, phys_margin, None if phys_ok else ParamSet.from_complex(phys_vec), 1
    )
    reports["simon"] = simon
    reports["duan"] = _duan_report(v, tol)

    excess = v - 0.5 * np.eye(4)
    if matkit.is_psd_sym(excess, tol):
        ens_kind, stringent = "coherent_excess", _two_branch_report(v - excess, tol)[0]
    else:  # V - 0 is V, so the zero-ensemble condition is Simon's criterion.
        ens_kind, stringent = "zero", simon
    reports["stringent"] = stringent

    if not phys_ok:
        return Verdict(Outcome.NONPHYSICAL, reports, None, ens_kind, True)

    sf = to_standard_form(v)
    reports["simon_algebraic"] = simon_algebraic(sf, tol)

    # Physicality guarantees a, b >= 1/2; clamp away rounding dips below.
    sol = optimal_squeeze(max(sf.a, 0.5), max(sf.b, 0.5), sf.t)
    prep_margin = sol.c1_bound - abs(sf.c1)
    separable = bool(prep_margin >= -tol)
    reports["p_rep_bound"] = CriterionReport(separable, float(prep_margin))

    outcome = Outcome.SEPARABLE if separable else Outcome.ENTANGLED
    consistent = (simon.satisfied == separable) or (
        abs(prep_margin) <= 1e-8 and abs(simon.margin) <= 1e-8
    )
    return Verdict(outcome, reports, sf, ens_kind, consistent)

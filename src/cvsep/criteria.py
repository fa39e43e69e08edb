"""Separability criteria for two-mode Gaussian covariance matrices.

Each criterion is a quadratic-form inequality quantified over all real
coefficient choices. The universal quantifier is settled spectrally: the
inequality holds for every choice exactly when a small Hermitian matrix is
positive semidefinite for both relative signs sigma = +1, -1 of the two
single-mode commutator terms, decided as one stack; the margin is the smaller
eigenvalue. Whenever a matrix-form criterion fails, the minimizing
eigenvector of branch +1, or of -1 if it binds beyond a 1e-12 relative tie,
is converted back into an explicit real parameter witness that drives the
corresponding scalar gap negative.

The hierarchy, from strongest to weakest: the ensemble-refined condition
(stringent_criterion), Simon's partial-transpose condition, and the
Duan-type condition obtained by restricting the coefficients. For Gaussian
states the extremal-squeezing bound of the squeezing module is necessary and
sufficient, and classify() cross-checks it against Simon's criterion on
every call. classify() makes two LAPACK calls: one complex stack for
physicality and Simon, and one real stack holding Duan's two branches and
the coherent excess V - I/2, whose PSD verdict is P-representability.

Every matrix is decided by matkit.decide_psd, with its norm_scale read off
the entries as Python floats (covariance module): _uncertainty_pair for
V - ens + (i/2) diag(J, sigma*J) (physicality, Simon, stringent_criterion),
_real_scales for the real stack (Duan, classify) and the EPR matrix of
weak_gap. Only a caller's ensemble matrix goes through matkit.is_psd_herm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .covariance import (
    _REAL_INDEX,
    J2,
    StandardForm,
    _as_vector,
    _epr_entries,
    _real_entries,
    _real_scales,
    _standard_form,
    _uncertainty_pair,
    as_covariance,
)
from .errors import InvalidEnsembleMatrix, InvalidInput, OutOfDomain
from .matkit import DEFAULT_TOL, decide_psd
from .squeezing import _c1_bound, simon_bound  # noqa: F401 (simon_bound re-exported)


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


def _pair_quads(v, ens, p: ParamSet) -> tuple:
    """The pair's quadratic forms in v less those in ens (unless None), and
    p's four vectors, each checked to be a finite 2-vector."""
    v = as_covariance(v)
    ens = None if ens is None else as_covariance(ens)
    d, f, g, h = (_as_vector(getattr(p, name), 2, f"witness {name}") for name in "dfgh")
    total = _quad(v, d, f) + _quad(v, g, h)
    if ens is not None:
        total -= _quad(ens, d, f) + _quad(ens, g, h)
    return total, d, f, g, h


def _finite_gap(gap: float) -> float:
    """gap, which is non-finite only where a form of finite inputs overflowed."""
    if not math.isfinite(gap):
        raise OutOfDomain("gap: a quadratic form or commutator term overflows")
    return gap


# Forms past the float maximum give inf or nan without a warning, as floats do.
@np.errstate(over="ignore", invalid="ignore")
def gap_general(v, ens, p: ParamSet) -> float:
    """Uncertainty gap with the combined commutator bound |d.Jg + f.Jh|.

    Nonnegative for every physical state and every PSD ensemble matrix drawn
    from one of its decompositions; ens=None means no ensemble refinement.
    Raises InvalidInput unless v, and ens unless None, pass as_covariance and
    p's vectors are finite 2-vectors, and OutOfDomain when a term overflows.
    """
    total, d, f, g, h = _pair_quads(v, ens, p)
    return _finite_gap(total - abs(float(d @ J2 @ g + f @ J2 @ h)))


@np.errstate(over="ignore", invalid="ignore")
def gap_separable(v, ens, p: ParamSet) -> float:
    """Separability gap: the two commutator terms are bounded separately,
    |d.Jg| + |f.Jh|, which is what separable states must satisfy. Inputs are
    checked as in gap_general."""
    total, d, f, g, h = _pair_quads(v, ens, p)
    return _finite_gap(total - abs(float(d @ J2 @ g)) - abs(float(f @ J2 @ h)))


def _witness(vec: np.ndarray, sign: int) -> ParamSet:
    """Witness from a branch's minimizing eigenvector: a complex one splits as
    (d, f) + i(g, h), a real (EPR) one ties g = J^T d and h = sign * J^T f."""
    if np.iscomplexobj(vec):
        return ParamSet.from_complex(vec)
    d, f = vec[:2].copy(), vec[2:].copy()
    return ParamSet(d, f, J2.T @ d, sign * (J2.T @ f))


def _branch_report(ok, lam, vec: np.ndarray) -> CriterionReport:
    """Report of "the sigma = +1 and sigma = -1 matrices are PSD" from the first
    two entries of a stacked PSD result (verdicts, eigenvalues, vectors), as
    matkit.decide_psd gives it."""
    plus, minus = float(lam[0]), float(lam[1])
    binding = 1 if plus <= minus else -1
    branch = 0 if abs(plus - minus) <= 1e-12 * max(1.0, abs(min(plus, minus))) else binding
    satisfied = bool(ok[0] and ok[1])
    k = 1 if branch == -1 else 0  # stack index of the witness branch, sigma = 1 - 2k
    witness = None if satisfied else _witness(vec[k], 1 - 2 * k)
    return CriterionReport(satisfied, plus if binding == 1 else minus, witness, branch)


def _as_ensemble(ens, tol: float) -> np.ndarray:
    """as_covariance(ens), which must also be PSD within tol."""
    ens = as_covariance(ens)
    if not matkit.is_psd_herm(ens, tol)[0]:
        raise InvalidEnsembleMatrix("ensemble matrix must be positive semidefinite")
    return ens


def simon_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Simon's separability condition: V + (i/2) diag(J, sigma*J) PSD for both
    sigma = +1 (physicality) and sigma = -1 (partial transpose)."""
    v = as_covariance(v)
    return _branch_report(*decide_psd(*_uncertainty_pair(v), matkit.check_tol(tol)))


def stringent_criterion(v, ens, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Ensemble-refined separability condition: (V - ens) + (i/2) diag(J,
    sigma*J) PSD for both branches, with ens a PSD second-moment matrix of
    some decomposition of the state.

    Implies Simon's criterion for every admissible ens and reduces to it at
    ens = 0. Both v and ens must pass as_covariance, and ens must be PSD.
    """
    v = as_covariance(v)
    ens = _as_ensemble(ens, tol)
    with np.errstate(over="ignore"):  # an inf entry is refused as OutOfDomain
        excess = v - ens
    return _branch_report(*decide_psd(*_uncertainty_pair(excess), matkit.check_tol(tol)))


def simon_algebraic(sf: StandardForm, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Simon's condition as scalar inequalities on the standard-form
    parameters: a quartic determinant inequality, a geometric-mean cap on
    |c1| + |c2|, and a >= 1/2, b >= 1/2. The margin is the smallest gap."""
    tol = matkit.check_tol(tol)
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


def _real_psd(rows: list, count: int, tol: float):
    """matkit.decide_psd of the first count matrices of the real stack of a
    checked V given as rows: Duan's branches, then the coherent excess."""
    entries = _real_entries(rows)
    return decide_psd(np.array(entries)[_REAL_INDEX[:count]], _real_scales(entries)[:count], tol)


def weak_gap(v, ens, sign: int, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Subsidiary-condition (EPR-type) criterion for one commutator sign
    branch: the EPR block matrix of V minus that of ens minus I must be PSD.

    Obtained from the full separability condition by tying g = J^T d and
    h = sign * J^T f; with ens = 0 it coincides with the matching branch of
    duan_criterion. v and ens (unless None) are checked as in stringent_criterion.
    """
    if isinstance(sign, bool) or not isinstance(sign, (int, np.integer)) or sign not in (1, -1):
        raise InvalidInput("sign branch must be +1 or -1")
    ens = None if ens is None else _as_ensemble(ens, tol)
    entries = _epr_entries(as_covariance(v).tolist(), 0.0)
    if ens is not None:  # Python floats overflow to inf, and inf - inf is nan
        entries = [x - y for x, y in zip(entries, _epr_entries(ens.tolist(), 0.0))]
        entries = [x if x == x else math.inf for x in entries]  # max() would drop a nan
    entries[1:3] = entries[1] - 1.0, entries[2] - 1.0
    k = (1 - sign) // 2
    ok, lam, vec = decide_psd(np.array(entries)[_REAL_INDEX[k:k + 1]],
                              _real_scales(entries)[k:k + 1], matkit.check_tol(tol))
    return CriterionReport(ok[0], lam[0], None if ok[0] else _witness(vec[0], sign), sign)


def duan_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """EPR-variance separability condition over both sign branches; weaker
    than Simon's criterion."""
    rows = as_covariance(v).tolist()
    return _branch_report(*_real_psd(rows, 2, matkit.check_tol(tol)))


#: The stringent report at the coherent-excess ensemble: V - (V - I/2) is I/2
#: exactly (computed per state, it rounds once a diagonal entry reaches 2^53),
#: so it is the report of I/2: margin 0.0, branches tied, no witness. Written
#: out, so importing the package runs no eigensolver.
_COHERENT_EXCESS_REPORT = CriterionReport(True, 0.0, None, 0)


def classify(v, tol: float = DEFAULT_TOL) -> Verdict:
    """Classify a covariance matrix as nonphysical, entangled or separable.

    Physicality gates everything. A physical state is separable exactly when
    its standard-form correlation |c1| sits below the extremal-squeezing
    bound; for Gaussian states that coincides with Simon's criterion, and the
    coincidence is re-checked on every call and recorded in the verdict.
    Raises InvalidInput unless v passes as_covariance (finite, 4x4,
    symmetric) and tol passes check_tol, DegenerateBlock if the
    standard-form reduction fails, and OutOfDomain if a * b of the standard
    form exceeds the bound of the squeezing routes or a value computed from
    v overflows.
    """
    v = as_covariance(v)
    tol = matkit.check_tol(tol)
    ok, lam, vec = decide_psd(*_uncertainty_pair(v), tol)
    simon = _branch_report(ok, lam, vec)
    # Physicality is the sigma = +1 branch of Simon's criterion.
    phys_ok = ok[0]
    reports: dict[str, CriterionReport] = {}
    reports["physical"] = CriterionReport(
        phys_ok, lam[0], None if phys_ok else _witness(vec[0], 1), 1
    )
    reports["simon"] = simon
    rows = v.tolist()
    ok, lam, vec = _real_psd(rows, 3, tol)
    reports["duan"] = _branch_report(ok, lam, vec)

    # The third matrix is V - I/2: the state is P-representable when it is PSD.
    if ok[2]:
        ens_kind, stringent = "coherent_excess", _COHERENT_EXCESS_REPORT
    else:  # V - 0 is V, so the zero-ensemble condition is Simon's criterion.
        ens_kind, stringent = "zero", simon
    reports["stringent"] = stringent

    if not phys_ok:
        return Verdict(Outcome.NONPHYSICAL, reports, None, ens_kind, True)

    sf = _standard_form(rows)
    reports["simon_algebraic"] = simon_algebraic(sf, tol)

    # Physicality guarantees a, b >= 1/2; clamp away rounding dips below.
    prep_margin = _c1_bound(max(sf.a, 0.5), max(sf.b, 0.5), sf.t) - abs(sf.c1)
    separable = bool(prep_margin >= -tol)
    reports["p_rep_bound"] = CriterionReport(separable, float(prep_margin))

    outcome = Outcome.SEPARABLE if separable else Outcome.ENTANGLED
    consistent = (simon.satisfied == separable) or (
        abs(prep_margin) <= 1e-8 and abs(simon.margin) <= 1e-8
    )
    return Verdict(outcome, reports, sf, ens_kind, consistent)

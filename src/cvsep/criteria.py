"""Separability criteria for two-mode Gaussian covariance matrices.

Each criterion is a quadratic-form inequality quantified over all real
coefficient choices. The universal quantifier is settled spectrally: the
inequality holds for every choice exactly when a small matrix is positive
semidefinite for both relative signs sigma = +1, -1 of the two single-mode
commutator terms; the margin is the smaller eigenvalue. Whenever a
matrix-form criterion fails, the minimizing eigenvector of branch +1, or of
-1 if it binds beyond a 1e-12 relative tie (_binding), is converted back
into an explicit real parameter witness that drives the corresponding
scalar gap negative.

The hierarchy, from strongest to weakest: the ensemble-refined condition
(stringent_criterion), Simon's partial-transpose condition, and the
Duan-type condition obtained by restricting the coefficients. For Gaussian
states the extremal-squeezing bound of the squeezing module is necessary and
sufficient, and classify() cross-checks it against Simon's criterion on
every call. Every Hermitian test adds a slice of one constant,
covariance._STATE_SHIFT, and makes one LAPACK call: Simon and the
stringent condition decide the (2, 4, 4) stack V + _STATE_SHIFT[:2] (at
V - ens for the latter). Duan's EPR matrices
[[alpha I, K], [K^T, beta I]], K a scaled rotation or reflection, are
decided in closed form on Python floats (_epr_report), so their margins,
branches and witnesses do not depend on the BLAS kernel. classify() makes
one LAPACK call per state: its Hermitian stack V + _STATE_SHIFT, of shape
(3, 4, 4), holds Simon's two matrices and the coherent excess V - I/2,
whose PSD verdict is P-representability, bit for bit the decision
covariance._coherent_excess makes for p_rep_ensemble and prep.p_weight,
where it is the one refusal of a state that is not. That verdict is read
on every state, independently of Simon's: V - I/2 PSD within -tol * s
gives V + (i/2) diag(J, sigma*J) PSD within -tol * s, as
I/2 + (i/2) diag(J, sigma*J) is PSD, so the audit can check the
implication on two independent decisions.

Every matrix of a call is judged against one scale, that of the state,
s = covariance._tol_scale(V): a caller's ensemble matrix ens,
V - ens + (i/2) diag(J, sigma*J) and V - I/2 within -tol * s through
matkit.decide_psd, the EPR matrices of Duan and weak_gap within
-2 tol * s. Duan's smallest eigenvalue is at least twice Simon's, so every
implication of the hierarchy holds at every tol.

The result records (Verdict, CriterionReport, ParamSet) are plain
dataclasses, each owned by the call that built it: a caller's edits reach
no later result. In a zero-ensemble verdict the stringent report is Simon's
own record. The squeezing parameter types stay frozen value types.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .covariance import (
    _STATE_SHIFT,
    J2,
    StandardForm,
    _as_vector,
    _epr_entries,
    _standard_form,
    _state,
    _tol_scale,
    as_covariance,
)
from .errors import InvalidEnsembleMatrix, OutOfDomain
from .matkit import DEFAULT_TOL, decide_psd
from .squeezing import _c1_bound


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass(eq=False)
class Verdict:
    """Classification outcome with per-criterion reports.

    ensemble_used records which ensemble matrix backed the stringent report
    ("coherent_excess" when V - I/2 is PSD, decided on every state
    independently of Simon's criterion; "zero" otherwise). consistent records whether
    Simon's criterion and the extremal-squeezing bound agreed.

    tol is the float matkit.check_tol read and scale the state's tolerance
    scale s = covariance._tol_scale(V), the two every threshold below was
    set from. The physical, simon and stringent reports and ensemble_used
    pass at -tol * s, the duan report at -2 tol * s. Three thresholds are
    still absolute: the simon_algebraic and p_rep_bound reports pass at
    -tol, and consistent allows a disagreement only where both margins are
    within 1e-8 of zero.
    """

    outcome: Outcome
    reports: dict[str, CriterionReport]
    standard_form: StandardForm | None
    ensemble_used: str
    consistent: bool
    tol: float
    scale: float


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


def _binding(plus: float, minus: float) -> tuple[float, int]:
    """(margin, sign_branch) of two branch margins: the smaller one, and +1 or
    -1 for the branch that gives it, or 0 when they tie within 1e-12 relative."""
    binding = 1 if plus <= minus else -1
    branch = 0 if abs(plus - minus) <= 1e-12 * max(1.0, abs(min(plus, minus))) else binding
    return (plus if binding == 1 else minus), branch


def _branch_report(ok, lam, vec: np.ndarray) -> CriterionReport:
    """Report of "the sigma = +1 and sigma = -1 matrices are PSD" from a
    stacked Hermitian PSD result (verdicts, eigenvalues, eigenvectors) of the
    two, as matkit.decide_psd gives it; the margin is the smaller of the two
    smallest eigenvalues, and the witness, sliced only for a violated report,
    the minimizing eigenvector of branch +1, or of -1 if it binds beyond the
    tie."""
    margin, branch = _binding(lam[0][0], lam[1][0])
    satisfied = ok[0] and ok[1]
    witness = None if satisfied else ParamSet.from_complex(vec[1 if branch == -1 else 0][:, 0])
    return CriterionReport(satisfied, margin, witness, branch)


def _epr_lowest(alpha: float, beta: float, k0: float, k1: float) -> float:
    """Smallest eigenvalue of [[alpha*I, K], [K^T, beta*I]], K a scaled
    rotation or reflection with first row (k0, k1), in closed form: both
    singular values of K are rho = hypot(k0, k1), so it is the doubly
    degenerate (alpha + beta)/2 - hypot((alpha - beta)/2, rho). Halving
    before the sums keeps them finite; OutOfDomain if the value is not."""
    half_a, half_b = 0.5 * alpha, 0.5 * beta
    lam = half_a + half_b - math.hypot(half_a - half_b, k0, k1)
    if not math.isfinite(lam):
        raise OutOfDomain("EPR margin: a value computed from finite input overflows")
    return lam


def _epr_witness(alpha: float, beta: float, k0: float, k1: float, sign: int) -> ParamSet:
    """Witness from a unit eigenvector (d, f) of _epr_lowest's eigenvalue: d =
    x * e1 and f = y * (k0, k1) / rho (y * e1 when rho = 0), where (x, y) =
    (sin t, -cos t), t = atan2(rho, (alpha - beta)/2) / 2, is the lower
    eigenvector of the 2x2 [[alpha, rho], [rho, beta]], with x >= 0; then
    g = J^T d, h = sign * J^T f. No step overflows."""
    rho = math.hypot(k0, k1)
    t = 0.5 * math.atan2(rho, 0.5 * alpha - 0.5 * beta)
    x, y = math.sin(t), -math.cos(t)
    f0, f1 = (y * (k0 / rho), y * (k1 / rho)) if rho > 0.0 else (y, 0.0)
    return ParamSet(np.array([x, 0.0]), np.array([f0, f1]), np.array([0.0, x]),
                    np.array([-sign * f1, sign * f0]))


def _epr_report(epr: list, signs: tuple, tol: float, s: float) -> CriterionReport:
    """Report of "EPR(sigma) - I is PSD within -2 tol * s", Duan's bound, for
    each sigma of signs, (1, -1) for Duan's two branches or one sign for
    weak_gap, decided by _epr_lowest on epr = [tr A - 1, tr B - 1, k0 and k1
    of K(+1), of K(-1)], the _epr_entries of V, or of V less an ensemble
    matrix, less I. Both branches go through _binding; the witness is built
    only for a violated report, from its witness branch."""
    bound = -2.0 * tol * s
    alpha, beta = epr[0], epr[1]
    if len(signs) == 2:
        margin, branch = _binding(_epr_lowest(alpha, beta, epr[2], epr[3]),
                                  _epr_lowest(alpha, beta, epr[4], epr[5]))
    else:
        branch = signs[0]
        margin = _epr_lowest(alpha, beta, epr[3 - branch], epr[4 - branch])
    if margin >= bound:
        return CriterionReport(True, margin, None, branch)
    sign = -1 if branch == -1 else 1  # K(sigma)'s first row is epr[3 - sigma], epr[4 - sigma]
    return CriterionReport(False, margin,
                           _epr_witness(alpha, beta, epr[3 - sign], epr[4 - sign], sign), branch)


def _less(v: np.ndarray, ens, s: float, tol: float) -> np.ndarray:
    """V - ens for a caller's ensemble matrix ens, read by as_covariance:
    OutOfDomain unless its entries are finite and _tol_scale accepts it as it
    accepts V, then InvalidEnsembleMatrix unless ens is PSD within -tol * s,
    s = _tol_scale(V), as every matrix of the call."""
    ens = as_covariance(ens)
    with np.errstate(over="ignore"):  # an inf entry is refused as OutOfDomain
        m = v - ens
    if not np.isfinite(m).all():
        raise OutOfDomain("an entry computed from finite input overflows "
                          "(PSD test needs finite entries)")
    _tol_scale(m.tolist())
    if not decide_psd(ens[None], s, tol)[0][0]:
        raise InvalidEnsembleMatrix("ensemble matrix must be positive semidefinite")
    return m


def simon_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Simon's separability condition: V + (i/2) diag(J, sigma*J) PSD for both
    sigma = +1 (physicality) and sigma = -1 (partial transpose)."""
    v, _, s, tol = _state(v, tol)
    return _branch_report(*decide_psd(v + _STATE_SHIFT[:2], s, tol))


def stringent_criterion(v, ens, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Ensemble-refined separability condition: (V - ens) + (i/2) diag(J,
    sigma*J) PSD for both branches, with ens a PSD second-moment matrix of
    some decomposition of the state.

    Implies Simon's criterion for every admissible ens and reduces to it at
    ens = 0. The state is read first (covariance._state), then the ensemble
    (_less): ens must pass as_covariance, V - ens must have finite entries
    and row sums, and ens is decided last, PSD within -tol * _tol_scale(V).
    """
    v, _, s, tol = _state(v, tol)
    return _branch_report(*decide_psd(_less(v, ens, s, tol) + _STATE_SHIFT[:2], s, tol))


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


def weak_gap(v, ens, sign: int, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Subsidiary-condition (EPR-type) criterion for one commutator sign
    branch: the EPR block matrix of V - ens, less I, must be PSD.

    Obtained from the full separability condition by tying g = J^T d and
    h = sign * J^T f; V - ens is the matrix stringent_criterion checks
    (_less), read and decided in the same order, so with ens = 0 or None it
    coincides bit for bit with the matching branch of duan_criterion,
    within the same -2 tol * _tol_scale(V).
    """
    sign = matkit._check_sign(sign, "sign branch")
    v, rows, s, tol = _state(v, tol)
    if ens is not None:
        rows = _less(v, ens, s, tol).tolist()
    return _epr_report(_epr_entries(rows), (sign,), tol, s)


def duan_criterion(v, tol: float = DEFAULT_TOL) -> CriterionReport:
    """EPR-variance separability condition over both sign branches; weaker
    than Simon's criterion. Decided in closed form (_epr_report), with no
    eigensolver call."""
    _, rows, s, tol = _state(v, tol)
    return _epr_report(_epr_entries(rows), (1, -1), tol, s)


def classify(v, tol: float = DEFAULT_TOL) -> Verdict:
    """Classify a covariance matrix as nonphysical, entangled or separable.

    Physicality gates everything. A physical state is separable exactly when
    its standard-form correlation |c1| sits below the extremal-squeezing
    bound; for Gaussian states that coincides with Simon's criterion, and the
    coincidence is re-checked on every call and recorded in the verdict.
    P-representability (ensemble_used) is decided on every state, as the
    third matrix of the one Hermitian stack that decides physicality and
    Simon; a state that is not P-representable gets the zero ensemble. The
    verdict records the tol and the scale s it was decided at. Raises
    InvalidInput unless v passes as_covariance (finite, 4x4, symmetric) and
    tol passes check_tol, DegenerateBlock if the standard-form reduction
    fails, and OutOfDomain if a * b of the standard form exceeds the bound
    of the squeezing routes or a value computed from v overflows.
    """
    v, rows, s, tol = _state(v, tol)
    ok, lam, vec = decide_psd(v + _STATE_SHIFT, s, tol)
    simon = _branch_report(ok, lam, vec)
    phys_ok = ok[0]  # physicality is the sigma = +1 branch of Simon's criterion
    reports: dict[str, CriterionReport] = {}
    reports["physical"] = CriterionReport(
        phys_ok, lam[0][0], None if phys_ok else ParamSet.from_complex(vec[0][:, 0]), 1
    )
    reports["simon"] = simon
    reports["duan"] = _epr_report(_epr_entries(rows), (1, -1), tol, s)

    # The state is P-representable when V - I/2, the stack's third matrix, is
    # PSD: decided on every state independently of Simon, which it implies.
    if ok[2]:
        # V - (V - I/2) is I/2 exactly (computed per state, it rounds once a
        # diagonal entry reaches 2^53), so this is the report of I/2: margin
        # 0.0, branches tied, no witness. Built per verdict, which owns it.
        ens_kind, stringent = "coherent_excess", CriterionReport(True, 0.0, None, 0)
    else:  # V - 0 is V, so the zero-ensemble condition is Simon's criterion.
        ens_kind, stringent = "zero", simon
    reports["stringent"] = stringent

    if not phys_ok:
        return Verdict(Outcome.NONPHYSICAL, reports, None, ens_kind, True, tol, s)

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
    return Verdict(outcome, reports, sf, ens_kind, consistent, tol, s)

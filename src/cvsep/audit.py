"""Randomized audit of the criterion hierarchy, run on classify's verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statezoo
from .covariance import _HALF_I
from .criteria import classify, stringent_criterion
from .matkit import DEFAULT_TOL, _check_count_and_seed, check_tol


@dataclass
class AuditResult:
    samples: int
    seed: int
    pairs: int
    p_representable: int
    counterexamples: int
    stringent_stricter: int
    nonzero_ensemble_pairs: int


def _scaled_random_psd(rng: np.random.Generator, cap: np.ndarray) -> np.ndarray:
    """Random PSD matrix dominated by cap (which must be PSD within tolerance)."""
    values, vectors = np.linalg.eigh(cap)
    root = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.T
    g = rng.standard_normal((4, 4))
    w = g @ g.T
    top = float(np.linalg.eigvalsh(w)[-1])
    w *= float(rng.uniform(0.0, 1.0)) / top
    return root @ w @ root.T


def run_audit(samples: int, seed: int, tol: float = DEFAULT_TOL) -> AuditResult:
    """Check the criterion hierarchy on a seeded pool of random states.

    For each state and each admissible ensemble matrix (zero, the coherent
    excess when PSD, and a random PSD matrix dominated by it), verify
    P-representable => stringent => Simon => Duan. The state's classify verdict
    gives Simon, Duan, the coherent-excess report and P-representability
    (ensemble_used), which classify decides on every state independently
    of Simon, so each implication is checked on independent decisions. Only
    the random ensemble is evaluated here. Returns the count of violations
    (expected zero) and how often the nonzero ensemble makes the stringent
    margin strictly smaller than Simon's. Raises InvalidInput unless samples
    is a positive integer, seed a nonnegative one and tol passes check_tol.
    """
    samples, seed = _check_count_and_seed(samples, seed, "audit")
    tol = check_tol(tol)
    rng = np.random.default_rng(seed)
    prep_count = 0
    bad = 0
    stricter = 0
    for i in range(samples):
        v = statezoo.mixed_physical_state(rng, i)
        verdict = classify(v, tol)
        si, du = verdict.reports["simon"], verdict.reports["duan"]
        if si.satisfied and not du.satisfied:
            bad += 1
        if verdict.ensemble_used != "coherent_excess":
            continue
        prep_count += 1
        # P-representable => stringent => Simon on every ensemble; at the zero
        # ensemble the stringent condition is Simon's criterion itself.
        if not si.satisfied:
            bad += 1
        random_ens = _scaled_random_psd(rng, v - _HALF_I)
        for st in (verdict.reports["stringent"], stringent_criterion(v, random_ens, tol)):
            if not (st.satisfied and si.satisfied):
                bad += 1
            if st.margin < si.margin - 1e-12:
                stricter += 1
    nonzero = 2 * prep_count  # the coherent excess and a random PSD matrix below it
    return AuditResult(samples, seed, samples + nonzero, prep_count, bad, stricter, nonzero)

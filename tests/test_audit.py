import itertools

import numpy as np
import pytest

import cvsep.audit
from cvsep.audit import run_audit
from cvsep.cli import main
from cvsep.criteria import CriterionReport, Outcome, Verdict, classify
from cvsep.errors import InvalidInput
from cvsep.matkit import DEFAULT_TOL


def counting(monkeypatch, name):
    """Wrap cvsep.audit.<name> so that its calls are counted in the returned list."""
    original = getattr(cvsep.audit, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cvsep.audit, name, wrapper)
    return calls


def test_audit_runs_classify_once_per_state_and_one_random_ensemble(monkeypatch):
    classify_calls = counting(monkeypatch, "classify")
    stringent_calls = counting(monkeypatch, "stringent_criterion")
    result = run_audit(40, 55)
    assert len(classify_calls) == 40
    assert result.p_representable > 0
    assert len(stringent_calls) == result.p_representable
    assert result.pairs == 40 + 2 * result.p_representable
    assert result.counterexamples == 0


def test_audit_needs_a_sample():
    with pytest.raises(InvalidInput, match="at least one sample"):
        run_audit(0, 0)


@pytest.mark.parametrize(
    "samples, seed, name",
    [(2.5, 0, "samples"), (2.0, 0, "samples"), (True, 0, "samples"), ("2", 0, "samples"),
     (2, 1.5, "seed"), (2, False, "seed"), (2, None, "seed")],
)
def test_audit_needs_integer_samples_and_seed(monkeypatch, samples, seed, name):
    # Rejected before any state is drawn, instead of a TypeError from range
    # or from numpy's SeedSequence.
    draws = counting(monkeypatch, "classify")
    with pytest.raises(InvalidInput, match=f"audit {name} must be an integer"):
        run_audit(samples, seed)
    assert draws == []


def test_audit_accepts_numpy_integers():
    result = run_audit(np.int64(3), np.int32(5))
    assert (result.samples, result.seed) == (3, 5)
    assert result == run_audit(3, 5)


def test_audit_needs_a_nonnegative_seed():
    # numpy's generator rejects a negative seed with ValueError; the audit
    # reports it as unusable input before drawing anything.
    with pytest.raises(InvalidInput, match="seed -1 must be nonnegative"):
        run_audit(1, -1)


def test_audit_counts_each_broken_implication(monkeypatch, capsys):
    # State 0: Simon satisfied, Duan violated, not P-representable: one
    # counterexample, and no ensemble pair. State 1: P-representable with
    # Simon violated: one counterexample for P-rep => Simon, and one for each
    # of its two ensembles, whose stringent report cannot hold with Simon's;
    # of those, only the random ensemble's margin -0.5 lies below Simon's -0.2.
    def verdict(ensemble_used, simon, duan, stringent):
        reports = {"simon": CriterionReport(simon > 0, simon),
                   "duan": CriterionReport(duan > 0, duan),
                   "stringent": CriterionReport(stringent >= 0, stringent)}
        return Verdict(Outcome.ENTANGLED, reports, None, ensemble_used, True, DEFAULT_TOL, 1.0)

    verdicts = itertools.cycle([verdict("zero", 0.1, -0.3, 0.1),
                                verdict("coherent_excess", -0.2, -0.4, 0.0)])
    monkeypatch.setattr(cvsep.audit, "classify", lambda v, tol: next(verdicts))
    monkeypatch.setattr(cvsep.audit, "stringent_criterion",
                        lambda v, ens, tol: CriterionReport(False, -0.5))
    result = run_audit(2, 0)
    assert (result.p_representable, result.pairs, result.nonzero_ensemble_pairs) == (1, 4, 2)
    assert (result.counterexamples, result.stringent_stricter) == (4, 1)
    assert main(["audit", "--samples", "2", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "counterexamples: 4\n" in out
    assert "stringent margin strictly below simon: 1/2 (0.5)\n" in out


def test_audit_decides_p_representability_where_simon_fails(monkeypatch):
    # classify infers "not P-representable" from a violated Simon, so there
    # the audit decides it itself, once per such state; otherwise
    # P-representable => Simon would hold by construction. A decision that
    # accepts every state must then find a counterexample at the pool's
    # first Simon-violated state.
    verdicts = []
    monkeypatch.setattr(cvsep.audit, "classify",
                        lambda v, tol: verdicts.append(classify(v, tol)) or verdicts[-1])
    decisions = counting(monkeypatch, "_coherent_excess")
    assert run_audit(40, 55).counterexamples == 0
    violated = sum(not v.reports["simon"].satisfied for v in verdicts)
    assert violated > 0 and len(decisions) == violated
    monkeypatch.setattr(cvsep.audit, "_coherent_excess", lambda v, s, tol: (True, None, None, None))
    assert run_audit(40, 55).counterexamples > 0


def test_audit_decides_p_representability_at_the_scale_the_verdict_records(monkeypatch):
    # A Simon-violated verdict of a state whose V - I/2 has its smallest
    # eigenvalue -1e-8 between -tol * s and -tol (s = 1000): P-representable
    # at the verdict's scale, so the audit counts P-rep => Simon broken, and
    # stringent => Simon at both ensembles; at scale 1 it would count none.
    v = np.diag([0.5 - 1e-8, 0.5 - 1e-8, 1000.0, 1000.0])
    decided = classify(v)
    lam = float(np.linalg.eigvalsh(v - 0.5 * np.eye(4))[0])
    assert -decided.tol * decided.scale <= lam < -decided.tol
    simon = CriterionReport(False, -0.2)
    reports = {"simon": simon, "duan": CriterionReport(False, -0.4), "stringent": simon}
    monkeypatch.setattr(cvsep.audit.statezoo, "mixed_physical_state", lambda rng, i: v)
    monkeypatch.setattr(cvsep.audit, "classify", lambda v, tol: Verdict(
        Outcome.ENTANGLED, reports, None, "zero", True, decided.tol, decided.scale))
    result = run_audit(1, 0)
    assert (result.p_representable, result.counterexamples) == (1, 3)

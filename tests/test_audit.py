import itertools

import numpy as np
import pytest

import cvsep.audit
from cvsep import statezoo
from cvsep.audit import run_audit
from cvsep.cli import main
from cvsep.criteria import CriterionReport, Outcome, Verdict
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


def test_audit_takes_p_representability_from_the_verdict_alone(monkeypatch):
    # classify decides P-representability on every state, independently of
    # Simon, so the audit decides nothing itself. On a P-representable state, a
    # verdict that records the coherent excess beside a violated Simon counts
    # P-rep => Simon broken, and stringent => Simon at both ensembles; one
    # that records the zero ensemble adds no pair and no counterexample.
    monkeypatch.setattr(cvsep.audit.statezoo, "mixed_physical_state",
                        lambda rng, i: statezoo.thermal(1.0, 1.5))
    simon = CriterionReport(False, -0.2)
    for ensemble_used, counts in (("coherent_excess", (3, 9)), ("zero", (0, 0))):
        reports = {"simon": simon, "duan": CriterionReport(False, -0.4), "stringent": simon}
        monkeypatch.setattr(cvsep.audit, "classify", lambda v, tol: Verdict(
            Outcome.ENTANGLED, reports, None, ensemble_used, True, DEFAULT_TOL, 1.0))
        result = run_audit(3, 0)
        assert (result.p_representable, result.counterexamples) == counts

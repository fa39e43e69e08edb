import numpy as np
import pytest

import cvsep.audit
from cvsep.audit import run_audit
from cvsep.errors import InvalidInput


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

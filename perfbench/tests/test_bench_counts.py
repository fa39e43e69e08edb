"""Exact per-item call counts of classify, measured by the tracer."""

import cvsep
import cvsep.cli
import pytest
from cvsep import statezoo
from tracer import Tracer

PHYSICAL = {
    "criteria.classify": 1,
    "matkit.is_psd_herm": 5,
    "matkit.is_psd_sym": 2,
    "matkit.eig_sym": 2,
    "criteria.simon_criterion": 1,
    "criteria.duan_criterion": 1,
    "criteria.stringent_criterion": 1,
    "covariance.to_standard_form": 1,
    "matkit.svd2_rotations": 1,
    "criteria.simon_algebraic": 1,
    "squeezing.optimal_squeeze": 1,
}
# A nonphysical state returns before the standard form.
NONPHYSICAL = {
    name: n
    for name, n in PHYSICAL.items()
    if name not in ("covariance.to_standard_form", "matkit.svd2_rotations",
                    "criteria.simon_algebraic", "squeezing.optimal_squeeze")
}

POOL = [
    ("separable", statezoo.thermal(1.0, 1.5), PHYSICAL),
    ("entangled", statezoo.two_mode_squeezed(0.5), PHYSICAL),
    ("nonphysical", 0.9 * statezoo.two_mode_squeezed(0.5), NONPHYSICAL),
]


def traced_classify(v):
    tracer = Tracer()
    with tracer.installed():
        tracer.item = 0
        verdict = cvsep.classify(v)
    return verdict, tracer, tracer.layer_metrics(1)


@pytest.mark.parametrize("outcome, v, expected", POOL, ids=[p[0] for p in POOL])
def test_per_item_call_counts(outcome, v, expected):
    verdict, tracer, metrics = traced_classify(v)
    assert verdict.outcome.value == outcome
    calls = {name: metrics[f"{name}.calls"] for name in tracer.names}
    assert {name: n for name, n in calls.items() if n} == expected
    assert metrics["matkit.eigensolves_per_item"] == 9
    assert metrics["trace.spans"] == sum(expected.values())


def test_tracer_restores_the_original_functions():
    before = (cvsep.classify, cvsep.criteria.to_standard_form, cvsep.cli.simon_criterion)
    tracer = Tracer()
    with tracer.installed():
        assert cvsep.criteria.to_standard_form is not before[1]
        assert cvsep.cli.simon_criterion is not before[2]
    assert (cvsep.classify, cvsep.criteria.to_standard_form, cvsep.cli.simon_criterion) == before


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cvsep.cli, "scan_row")
    _, tracer, metrics = traced_classify(statezoo.thermal(1.0, 1.5))
    assert tracer.absent == ["cli.scan_row"]
    assert metrics["trace.absent_targets"] == 1
    assert metrics["cli.scan_row.calls"] == 0

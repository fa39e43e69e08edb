import math

import numpy as np
import pytest

from cvsep import statezoo
from cvsep.covariance import is_physical, p_rep_ensemble
from cvsep.criteria import simon_criterion
from cvsep.errors import InvalidInput, InvalidSpec


def test_vacuum():
    np.testing.assert_allclose(statezoo.vacuum(), 0.5 * np.eye(4))


def test_two_mode_squeezed_zero_is_vacuum():
    np.testing.assert_allclose(statezoo.two_mode_squeezed(0.0), statezoo.vacuum())


def test_two_mode_squeezed_entries():
    v = statezoo.two_mode_squeezed(0.5)
    assert v[0, 0] == pytest.approx(0.5 * math.cosh(1.0), abs=1e-14)
    assert v[0, 2] == pytest.approx(0.5 * math.sinh(1.0), abs=1e-14)
    assert v[1, 3] == pytest.approx(-0.5 * math.sinh(1.0), abs=1e-14)


def test_parameter_validation():
    with pytest.raises(InvalidSpec):
        statezoo.thermal(0.4, 1.0)
    with pytest.raises(InvalidSpec):
        statezoo.thermal(1.0, 0.3)
    with pytest.raises(InvalidSpec):
        statezoo.two_mode_squeezed(-0.1)


@pytest.mark.parametrize(
    "n1, n2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)]
)
def test_thermal_rejects_non_finite_occupations(n1, n2):
    with pytest.raises(InvalidSpec, match="must be finite and >= 1/2"):
        statezoo.thermal(n1, n2)


@pytest.mark.parametrize("r", [math.inf, 10**400, math.nan, -math.inf])
def test_two_mode_squeezed_names_the_finite_nonnegative_condition(r):
    # An infinite r (10**400 reads as inf) or nan was refused as if it were
    # only negative.
    with pytest.raises(InvalidSpec, match="must be finite and nonnegative"):
        statezoo.two_mode_squeezed(r)


@pytest.mark.parametrize("r", [400.0, 355.3, 1e300])
def test_two_mode_squeezed_rejects_overflowing_squeezing(r):
    with pytest.raises(InvalidSpec, match="overflows cosh"):
        statezoo.two_mode_squeezed(r)


def test_two_mode_squeezed_keeps_its_values_up_to_the_overflow():
    # cosh(2r) overflows between r = 355.2 and 355.3; below that the entries
    # are the closed form, bit for bit.
    for r in (0.0, 0.7, 100.0, 355.2):
        v = statezoo.two_mode_squeezed(r)
        a, c = 0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r)
        assert v.tolist() == statezoo.standard_matrix(a, a, c, -c).tolist()


def test_random_symp2_is_symplectic():
    rng = np.random.default_rng(0)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(500):
        s = statezoo.random_symp2(rng)
        np.testing.assert_allclose(s @ j @ s.T, j, atol=1e-12)


def test_generated_states_are_exactly_symmetric():
    rng = np.random.default_rng(55)
    for i in range(400):
        v = statezoo.mixed_physical_state(rng, i)
        np.testing.assert_array_equal(v, v.T)


def test_random_physical_always_physical():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        ok, _ = is_physical(statezoo.random_physical(rng))
        assert ok


def test_random_separable_always_p_representable():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        p_rep_ensemble(statezoo.random_separable(rng))


def test_two_mode_squeezed_violates_simon_for_positive_r():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = float(rng.uniform(0.011, 3.0))
        v = statezoo.two_mode_squeezed(r)
        ok, _ = is_physical(v)
        assert ok
        assert not simon_criterion(v).satisfied


def test_random_correlated_physical_mixes_verdicts():
    rng = np.random.default_rng(4)
    entangled = 0
    correlated = 0
    for _ in range(200):
        v = statezoo.random_correlated_physical(rng)
        assert is_physical(v)[0]
        if np.abs(v[:2, 2:]).max() > 1e-9:
            correlated += 1
        if not simon_criterion(v).satisfied:
            entangled += 1
    assert correlated > 150
    assert 0 < entangled < 200


SEEDED = {
    "random_symp2": statezoo.random_symp2,
    "random_physical": statezoo.random_physical,
    "random_separable": statezoo.random_separable,
    "random_correlated_physical": statezoo.random_correlated_physical,
    # Kind 3, whose draw is its own: an integer seed raised AttributeError.
    "mixed_physical_state": lambda seed: statezoo.mixed_physical_state(seed, 3),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed -1 must be nonnegative"),
        (1.5, "seed must be an integer"),
        (2.0, "seed must be an integer"),
        (True, "seed must be an integer"),
        (None, "seed must be an integer"),
        ("3", "seed must be an integer"),
    ],
)
def test_seeds_follow_the_shared_rule_before_any_draw(monkeypatch, name, seed, message):
    # -1 and 1.5 raised numpy's ValueError and TypeError, True drew with
    # seed 1, and None drew from OS entropy.
    def no_draw(*args):
        raise AssertionError(f"{name} drew before checking its seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(InvalidInput, match=f"{name} {message}"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_integer_seeds_and_generators_draw_alike(name):
    # A Generator passes through unchanged, so the pools built from one keep
    # their bits; a Python or numpy integer seeds numpy's PCG64.
    make = SEEDED[name]
    expected = make(np.random.default_rng(5)).tobytes()
    assert make(5).tobytes() == expected
    assert make(np.int64(5)).tobytes() == expected
    assert make(np.uint8(5)).tobytes() == expected

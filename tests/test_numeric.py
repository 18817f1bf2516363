import numpy as np
import pytest

from ml2o.numeric import RngStream, gauss_sample, uniform_mixture_sample
from ml2o.tasks import TRAIN_MIXTURE_RANGES


def test_gauss_degenerate_sigma_zero(rng):
    assert np.array_equal(gauss_sample(rng, 3, mean=5.0, sigma=0.0), np.full(3, 5.0))


def test_gauss_moments():
    draws = gauss_sample(RngStream(7).child("moments"), 100_000, 0.0, 1.0)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_gauss_rejects_negative_sigma(rng):
    with pytest.raises(ValueError, match="sigma"):
        gauss_sample(rng, 3, 0.0, -1.0)


def test_gauss_replay_is_bit_exact():
    a = gauss_sample(RngStream(99).child("x"), 1000, 1.5, 2.5)
    b = gauss_sample(RngStream(99).child("x"), 1000, 1.5, 2.5)
    assert np.array_equal(a, b)


def test_mixture_training_ranges_stay_in_unit_interval(rng):
    draws = uniform_mixture_sample(rng, 10_000, TRAIN_MIXTURE_RANGES)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)


def test_mixture_near_degenerate_range(rng):
    draws = uniform_mixture_sample(rng, 100, ((2.0, 2.0 + 1e-12),))
    assert np.allclose(draws, 2.0)


def test_mixture_mean_matches_formula():
    # mean of the mixture = average of the range midpoints
    expected = sum((lo + hi) / 2.0 for lo, hi in TRAIN_MIXTURE_RANGES) / len(
        TRAIN_MIXTURE_RANGES
    )
    draws = uniform_mixture_sample(
        RngStream(3).child("mix"), 100_000, TRAIN_MIXTURE_RANGES
    )
    assert abs(draws.mean() - expected) < 0.01


def test_mixture_rejects_bad_ranges(rng):
    with pytest.raises(ValueError, match="empty"):
        uniform_mixture_sample(rng, 5, ())
    with pytest.raises(ValueError, match="lo >= hi"):
        uniform_mixture_sample(rng, 5, ((0.0, 1.0), (2.0, 2.0)))


def test_child_streams_are_label_stable_and_order_independent():
    root = RngStream(42)
    first = root.child("tasks").gen.normal(size=8)
    root.gen.normal(size=1000)  # drawing from the parent changes nothing below
    second = root.child("tasks").gen.normal(size=8)
    other = root.child("theta0").gen.normal(size=8)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)


def test_same_seed_same_stream():
    assert np.array_equal(
        RngStream(5).gen.normal(size=16), RngStream(5).gen.normal(size=16)
    )
    assert not np.array_equal(
        RngStream(5).gen.normal(size=16), RngStream(6).gen.normal(size=16)
    )


def test_derive_seed_stable():
    assert RngStream(1).derive_seed("x") == RngStream(1).derive_seed("x")
    assert RngStream(1).derive_seed("x") != RngStream(1).derive_seed("y")

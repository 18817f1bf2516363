import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from ml2o.numeric import RngStream, central_diff, numeric_environment
from ml2o.tasks import LASSO, MIXTURE, QUADRATIC, TaskDistribution, sample_task, sample_theta0


def test_gauss_moments():
    # theta0 and b are the standard-normal draws of the package
    draws = sample_theta0(TaskDistribution(kind=MIXTURE, dim=100_000), RngStream(7).child("moments"))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02
    b = sample_task(TaskDistribution(kind=MIXTURE, family=QUADRATIC, dim=2000), RngStream(7).child("b")).b
    assert abs(b.mean()) < 0.1 and abs(b.std() - 1.0) < 0.1


def test_mixture_training_ranges_stay_in_unit_interval(rng):
    # 100 x 100 = 10_000 mixture entries of A
    a = sample_task(TaskDistribution(kind=MIXTURE, family=LASSO, dim=100, lam=0.005), rng).a
    assert a.size == 10_000
    assert np.all(a >= 0.0) and np.all(a < 1.0)


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


def test_central_diff_shapes_and_quadratic_exactness():
    # central differences are exact for quadratics up to rounding
    a = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, -1.0]])
    x = np.array([0.5, -1.5])
    jac = central_diff(lambda y: a @ y, x, 1e-3)
    assert jac.shape == (3, 2)
    assert np.allclose(jac, a, rtol=0, atol=1e-12)
    grad = central_diff(lambda y: 0.5 * float(y @ y), x, 1e-3)
    assert grad.shape == (2,)
    assert np.allclose(grad, x, rtol=0, atol=1e-12)


def test_numeric_environment_honours_disabled_cpu_features():
    env = numeric_environment()
    assert numeric_environment() is env  # read once per process
    assert str(env) == f"simd={env.simd} blas={env.blas_core}"
    enabled = [t for t in env.simd.split(",") if t not in ("none", "unknown")]
    if not enabled:
        pytest.skip(f"no SIMD dispatch target to disable ({env.simd})")
    highest = enabled[-1]
    child = subprocess.run(
        [sys.executable, "-c", "from ml2o.numeric import numeric_environment as e; print(e())"],
        env=child_env(NPY_DISABLE_CPU_FEATURES=highest),
        capture_output=True, text=True, timeout=60, check=True,
    )
    simd, blas = child.stdout.split()
    remaining = simd.removeprefix("simd=").split(",")
    assert highest not in remaining
    assert set(remaining) <= set(enabled) | {"none"}
    assert blas == f"blas={env.blas_core}"

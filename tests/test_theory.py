import numpy as np
import pytest

from conftest import make_quadratic
from ml2o.cell import init_params, random_params
from ml2o.numeric import RngStream
from ml2o.tasks import QUADRATIC, OptimizeeTask
from ml2o.theory import (
    default_growth_report,
    grad_lipschitz,
    gradient_gap_at,
    input_sensitivity,
    measure_gaps,
)
from ml2o.unroll import meta_grad


def test_identical_tasks_have_zero_gaps(rng):
    t = make_quadratic(rng, 4)
    report = measure_gaps(t, t, probe_radius=3.0, n_probes=50, rng=rng.child("p"))
    assert report.grad_gap == 0.0 and report.hess_gap == 0.0


def test_gaps_are_symmetric(rng):
    t1 = make_quadratic(rng, 4)
    t2 = make_quadratic(rng, 4)
    a = measure_gaps(t1, t2, 2.0, 64, RngStream(3).child("g"))
    b = measure_gaps(t2, t1, 2.0, 64, RngStream(3).child("g"))
    assert a.grad_gap == b.grad_gap and a.hess_gap == b.hess_gap


def test_quadratic_gradient_gap_matches_closed_form(rng):
    t1 = make_quadratic(rng, 5)
    t2 = make_quadratic(rng, 5)
    m = t1.a.T @ t1.a - t2.a.T @ t2.a
    d = t1.a.T @ t1.b - t2.a.T @ t2.b
    for _ in range(20):
        theta = rng.gen.normal(size=5)
        measured = gradient_gap_at(t1, t2, theta)
        closed = float(np.linalg.norm(m @ theta - d))
        assert abs(measured - closed) <= 1e-12 * max(closed, 1.0)


def test_measured_gap_below_spectral_bound(rng):
    for _ in range(5):
        t1 = make_quadratic(rng, 5)
        t2 = make_quadratic(rng, 5)
        radius = 2.5
        report = measure_gaps(t1, t2, radius, 128, rng.child("probe"))
        m = t1.a.T @ t1.a - t2.a.T @ t2.a
        spectral = float(np.linalg.norm(m, 2))
        offset = float(np.linalg.norm(t1.a.T @ t1.b - t2.a.T @ t2.b))
        assert report.grad_gap <= spectral * radius + offset + 1e-9


def test_grad_lipschitz_identity_and_diagonal():
    t_eye = OptimizeeTask(kind=QUADRATIC, dim=3, a=np.eye(3), b=np.zeros(3))
    assert grad_lipschitz(t_eye) == pytest.approx(1.0, rel=1e-10)
    t_diag = OptimizeeTask(kind=QUADRATIC, dim=2, a=np.diag([3.0, 1.0]), b=np.zeros(2))
    assert grad_lipschitz(t_diag) == pytest.approx(9.0, rel=1e-10)


def test_input_sensitivity_positive_and_deterministic(rng):
    params = random_params(4, rng)
    a = input_sensitivity(params)
    b = input_sensitivity(params)
    assert a == b and a > 0.0


def test_growth_zero_projection_gap_confined_to_projection_block(rng):
    params = init_params(5, rng)
    t1 = make_quadratic(rng, 3)
    t2 = make_quadratic(rng, 3)
    theta0 = rng.gen.normal(size=3)
    split = params.w.size + params.b.size
    for horizon in (1, 3, 6):
        diff = meta_grad(params, t1, theta0, horizon) - meta_grad(params, t2, theta0, horizon)
        assert np.all(diff[:split] == 0.0)
        assert np.any(diff[split:] != 0.0)


def test_growth_report_shapes_and_monotone_fraction():
    report = default_growth_report(0)
    assert report.horizons == [1, 2, 3, 5, 8, 12]
    assert report.mean_gaps.shape == (6,)
    assert report.pair_gaps.shape == (20, 6)
    assert np.all(np.isfinite(report.reference))
    assert report.nondecreasing_fraction >= 0.9
    # reference is anchored at the first measured point
    assert report.reference[0] == pytest.approx(report.mean_gaps[0])
